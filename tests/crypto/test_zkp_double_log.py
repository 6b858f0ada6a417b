"""Tests for Stadler's double-discrete-log proof."""

from __future__ import annotations

import dataclasses

import pytest

from repro.crypto.hashing import Transcript
from repro.crypto.zkp import prove_double_log, verify_double_log
from repro.net.codec import encoded_size


def t(domain=b"dlog"):
    return Transcript(domain)


@pytest.fixture()
def setting(tower3, rng):
    """Outer group + inner generator from the DEC tower (storeys 0/1)."""
    inner_grp = tower3.group(0)  # order q0, modulus p0 = q1
    outer = tower3.group(1)      # order q1
    h = inner_grp.g              # generator of order q0 inside Z*_{q1}
    q_in = inner_grp.q
    x = rng.randrange(q_in)
    y = outer.power(pow(h, x, outer.q))
    return outer, h, q_in, x, y


class TestDoubleLog:
    def test_accepts_valid(self, setting, rng):
        outer, h, q_in, x, y = setting
        proof = prove_double_log(outer, h, q_in, y, x, rng, t(), rounds=16)
        assert verify_double_log(outer, h, q_in, y, proof, t())

    def test_rejects_wrong_statement(self, setting, rng):
        outer, h, q_in, x, y = setting
        proof = prove_double_log(outer, h, q_in, y, x, rng, t(), rounds=16)
        assert not verify_double_log(outer, h, q_in, outer.mul(y, outer.g), proof, t())

    def test_rejects_tampered_response(self, setting, rng):
        outer, h, q_in, x, y = setting
        proof = prove_double_log(outer, h, q_in, y, x, rng, t(), rounds=16)
        responses = list(proof.responses)
        responses[0] = (responses[0] + 1) % q_in
        bad = dataclasses.replace(proof, responses=tuple(responses))
        assert not verify_double_log(outer, h, q_in, y, bad, t())

    def test_rejects_transcript_mismatch(self, setting, rng):
        outer, h, q_in, x, y = setting
        proof = prove_double_log(outer, h, q_in, y, x, rng, t(b"a"), rounds=16)
        assert not verify_double_log(outer, h, q_in, y, proof, t(b"b"))

    def test_rejects_out_of_range_response(self, setting, rng):
        outer, h, q_in, x, y = setting
        proof = prove_double_log(outer, h, q_in, y, x, rng, t(), rounds=8)
        responses = list(proof.responses)
        responses[0] = q_in + responses[0]
        bad = dataclasses.replace(proof, responses=tuple(responses))
        assert not verify_double_log(outer, h, q_in, y, bad, t())

    def test_rejects_empty_proof(self, setting):
        outer, h, q_in, _, y = setting
        from repro.crypto.zkp.double_log import DoubleLogProof

        assert not verify_double_log(
            outer, h, q_in, y, DoubleLogProof(commitments=(), responses=()), t()
        )

    def test_rejects_length_mismatch(self, setting, rng):
        outer, h, q_in, x, y = setting
        proof = prove_double_log(outer, h, q_in, y, x, rng, t(), rounds=8)
        bad = dataclasses.replace(proof, responses=proof.responses[:-1])
        assert not verify_double_log(outer, h, q_in, y, bad, t())

    def test_prover_validates_witness(self, setting, rng):
        outer, h, q_in, x, y = setting
        with pytest.raises(ValueError):
            prove_double_log(outer, h, q_in, y, x + 1, rng, t(), rounds=4)

    def test_rounds_configurable(self, setting, rng):
        outer, h, q_in, x, y = setting
        proof = prove_double_log(outer, h, q_in, y, x, rng, t(), rounds=40)
        assert proof.rounds == 40
        assert verify_double_log(outer, h, q_in, y, proof, t())

    def test_rejects_zero_rounds(self, setting, rng):
        outer, h, q_in, x, y = setting
        with pytest.raises(ValueError):
            prove_double_log(outer, h, q_in, y, x, rng, t(), rounds=0)

    def test_soundness_single_round_forgery_sometimes_caught(self, setting, rng):
        """A forged proof with 12 rounds must fail (prob 2^-12 to slip)."""
        outer, h, q_in, x, y = setting
        wrong_witness_proofs = 0
        proof = prove_double_log(outer, h, q_in, y, x, rng, t(), rounds=12)
        # redirect the proof at a different statement
        y2 = outer.power(pow(h, (x + 1) % q_in, outer.q))
        assert not verify_double_log(outer, h, q_in, y2, proof, t())

    def test_encoded_size_scales_with_rounds(self, setting, rng):
        outer, h, q_in, x, y = setting
        sizes = [
            encoded_size(prove_double_log(outer, h, q_in, y, x, rng, t(), rounds=r))
            for r in (8, 16, 24)
        ]
        # every eight rounds add the same bytes (up to a short integer)
        assert sizes[2] - sizes[1] == pytest.approx(sizes[1] - sizes[0], rel=0.1)
