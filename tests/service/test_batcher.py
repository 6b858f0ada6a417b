"""Verification batcher: coalescing, ordering, determinism."""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.crypto.cl_sig import cl_keygen
from repro.ecash.dec import begin_withdrawal, finish_withdrawal
from repro.ecash.spend import create_spend, verify_spend
from repro.service import (
    DepositJob,
    DepositOutcome,
    VerificationBatcher,
    WithdrawJob,
    WithdrawOutcome,
)

from tests.service.conftest import mint_tokens


@pytest.fixture()
def batcher(dec_params_toy, service):
    return VerificationBatcher(
        dec_params_toy, service.bank.keypair, max_batch=8, seed=7
    )


def _deposit_jobs(service, rng, n, start_seq=0):
    requests = mint_tokens(service, rng, n, node_level=1)
    return [
        DepositJob(seq=start_seq + i, aid=r.sender, token=r.payload["token"])
        for i, r in enumerate(requests)
    ]


class TestFlush:
    def test_outcomes_in_job_order(self, batcher, service, rng):
        jobs = _deposit_jobs(service, rng, 5)
        for job in reversed(jobs):
            batcher.submit(job)
        outcomes = batcher.flush()
        assert [o.seq for o in outcomes] == [j.seq for j in reversed(jobs)]
        assert all(isinstance(o, DepositOutcome) and o.valid for o in outcomes)

    def test_valid_deposit_carries_expanded_serials(self, batcher, service, rng):
        job = _deposit_jobs(service, rng, 1)[0]
        batcher.submit(job)
        (outcome,) = batcher.flush()
        assert outcome.serials == tuple(service.bank.expand_serials(job.token))

    def test_invalid_token_flagged_without_serials(self, batcher, service, rng):
        job = _deposit_jobs(service, rng, 1)[0]
        backend = service.bank.params.backend
        forged = dataclasses.replace(
            job.token, sig_b=backend.exp(job.token.sig_b, 2)
        )
        batcher.submit(DepositJob(seq=0, aid=job.aid, token=forged))
        (outcome,) = batcher.flush()
        assert not outcome.valid and outcome.serials is None

    def test_max_batch_respected(self, batcher, service, rng):
        for job in _deposit_jobs(service, rng, 10):
            batcher.submit(job)
        assert batcher.batch_ready
        first = batcher.flush()
        assert len(first) == 8 and len(batcher) == 2
        assert not batcher.batch_ready
        assert len(batcher.flush()) == 2

    def test_empty_flush(self, batcher):
        assert batcher.flush() == []

    def test_an_issuance_that_raises_refuses_that_withdrawal_alone(
            self, batcher, service, rng, dec_params_toy, monkeypatch):
        """Any exception out of ``cl_blind_issue`` (a bug, not a failed
        proof) refuses that withdrawal alone, and is counted."""
        import repro.obs as obs
        from repro.service import batcher as batcher_module

        deposit = _deposit_jobs(service, rng, 1)[0]
        _secret, broken = begin_withdrawal(dec_params_toy, rng)
        _secret, honest = begin_withdrawal(dec_params_toy, rng)
        issue = batcher_module.cl_blind_issue

        def raising(backend, keypair, request, rng_):
            if request is broken:
                raise ArithmeticError("a bug in issuance")
            return issue(backend, keypair, request, rng_)

        monkeypatch.setattr(batcher_module, "cl_blind_issue", raising)
        errors = obs.get_default().registry.counter("repro_batcher_job_errors_total")
        before = errors.value
        batcher.submit(WithdrawJob(seq=1, aid="alice", request=broken))
        batcher.submit(deposit)
        batcher.submit(WithdrawJob(seq=2, aid="bob", request=honest))
        refused, valid, issued = batcher.flush()
        assert refused == WithdrawOutcome(seq=1, signature=None)
        assert valid.valid and issued.signature is not None
        assert errors.value == before + 1

    def test_mixed_batch_deposit_and_withdraw(self, batcher, service, rng, dec_params_toy):
        deposit = _deposit_jobs(service, rng, 1)[0]
        secret, request = begin_withdrawal(dec_params_toy, rng)
        batcher.submit(deposit)
        batcher.submit(WithdrawJob(seq=deposit.seq + 1, aid="alice", request=request))
        outcomes = batcher.flush()
        assert isinstance(outcomes[0], DepositOutcome)
        assert isinstance(outcomes[1], WithdrawOutcome)
        # the issued signature certifies a working coin
        coin = finish_withdrawal(
            dec_params_toy, service.bank.public_key, secret, outcomes[1].signature
        )
        node = coin.wallet().allocate(1)
        token = create_spend(
            dec_params_toy, service.bank.public_key, coin.secret, coin.signature,
            node, rng,
        )
        assert verify_spend(dec_params_toy, service.bank.public_key, token)

    def test_context_partitions_deposit_groups(self, batcher, service, rng):
        requests = mint_tokens(service, rng, 2, node_level=1)
        # differing contexts must not share a batched-pairing group; the
        # verdicts must still come back valid and in order
        batcher.submit(DepositJob(seq=0, aid=requests[0].sender,
                                  token=requests[0].payload["token"], context=b"a"))
        batcher.submit(DepositJob(seq=1, aid=requests[1].sender,
                                  token=requests[1].payload["token"], context=b"b"))
        outcomes = batcher.flush()
        assert [o.seq for o in outcomes] == [0, 1]
        # context is bound into the Fiat–Shamir transcript: tokens were
        # minted under the empty context, so both must fail under a/b
        assert not outcomes[0].valid and not outcomes[1].valid


class TestDeterminism:
    def test_same_seed_same_outcomes(self, dec_params_toy, service, rng):
        jobs = _deposit_jobs(service, rng, 4)
        results = []
        for _ in range(2):
            batcher = VerificationBatcher(
                dec_params_toy, service.bank.keypair, max_batch=8, seed=3
            )
            for job in jobs:
                batcher.submit(job)
            results.append(batcher.flush())
        assert results[0] == results[1]

    def test_parameter_validation(self, dec_params_toy, rng):
        keypair = cl_keygen(dec_params_toy.backend, rng)
        with pytest.raises(ValueError):
            VerificationBatcher(dec_params_toy, keypair, max_batch=0)
        with pytest.raises(ValueError):
            VerificationBatcher(dec_params_toy, keypair, processes=0)
