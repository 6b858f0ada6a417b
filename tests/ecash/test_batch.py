"""Tests for batch verification of spend tokens."""

from __future__ import annotations

import dataclasses

import pytest

from repro.crypto.cl_sig import cl_blind_issue, cl_keygen
from repro.crypto.pairing import tate
from repro.ecash.batch import batch_verify_spends
from repro.ecash.dec import begin_withdrawal, finish_withdrawal
from repro.ecash.spend import create_spend, verify_spend
from repro.ecash.tree import NodeId


@pytest.fixture()
def stack(dec_params, rng):
    """Bank key, a certified coin, and six disjoint spend tokens."""
    bank_kp = cl_keygen(dec_params.backend, rng)
    secret, request = begin_withdrawal(dec_params, rng)
    signature = cl_blind_issue(dec_params.backend, bank_kp, request, rng)
    coin = finish_withdrawal(dec_params, bank_kp.public, secret, signature)
    nodes = [NodeId(3, i) for i in range(6)]
    tokens = [
        create_spend(dec_params, bank_kp.public, coin.secret, coin.signature, n, rng)
        for n in nodes
    ]
    return bank_kp, tokens


class TestBatchVerify:
    def test_matches_individual_verdicts_honest(self, dec_params, stack, rng):
        bank_kp, tokens = stack
        batch = batch_verify_spends(dec_params, bank_kp.public, tokens, rng)
        individual = [verify_spend(dec_params, bank_kp.public, t) for t in tokens]
        assert batch == individual == [True] * len(tokens)

    def test_matches_individual_verdicts_with_cheater(self, dec_params, stack, rng):
        bank_kp, tokens = stack
        backend = dec_params.backend
        tampered = list(tokens)
        tampered[1] = dataclasses.replace(tokens[1], sig_b=backend.exp(tokens[1].sig_b, 3))
        batch = batch_verify_spends(dec_params, bank_kp.public, tampered, rng)
        individual = [verify_spend(dec_params, bank_kp.public, t) for t in tampered]
        assert batch == individual
        assert batch[1] is False and all(batch[:1] + batch[2:])

    def test_empty(self, dec_params, stack, rng):
        bank_kp, _ = stack
        assert batch_verify_spends(dec_params, bank_kp.public, [], rng) == []

    def test_batch_is_faster_on_honest_batches(self, dec_params, stack, rng,
                                               monkeypatch):
        """Counted, not timed: an honest batch of *n* pays one shared final
        exponentiation for every pairing equation of every token, where
        per-token verification pays one per equation.

        Both paths pay one per token for the statement ``V`` (the
        transcript absorbs it); the batch adds ONE for the whole
        ``PairingBatch.check``, sequential verification two per token
        (the CL quotient and the deferred equation).
        """
        bank_kp, tokens = stack
        calls = []
        real = tate.final_exponentiation

        def counted(params, f):
            calls.append(f)
            return real(params, f)

        monkeypatch.setattr(tate, "final_exponentiation", counted)
        n = len(tokens)
        assert all(verify_spend(dec_params, bank_kp.public, t) for t in tokens)
        sequential = len(calls)
        calls.clear()
        assert all(batch_verify_spends(dec_params, bank_kp.public, tokens, rng))
        batched = len(calls)
        assert sequential == 3 * n
        assert batched == n + 1
