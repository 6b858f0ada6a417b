"""Tests for the same-order equality proof (storey 0 and G_T share ``q0``)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.crypto.hashing import Transcript
from repro.crypto.zkp.equality import prove_equality, verify_equality


def t(domain=b"eq"):
    return Transcript(domain)


@pytest.fixture(params=["toy", "tate"])
def params(request, dec_params_toy, dec_params):
    """``setup``'s parameters: storey 0 and a backend of the same order."""
    return dec_params_toy if request.param == "toy" else dec_params


@pytest.fixture()
def backend(params):
    return params.backend


@pytest.fixture()
def setting(params, backend, rng):
    """Pedersen commitment in storey 0 + B^s in the GT group."""
    g = params.tower.group(0)
    h = params.commit_bases(0)[1]
    witness = rng.randrange(1, g.q)
    randomizer = g.random_exponent(rng)
    commitment = g.mul(g.power(witness), g.exp(h, randomizer))
    base_gt = backend.pair(backend.g, backend.g)
    statement = backend.gt_exp(base_gt, witness)
    helpers = dict(
        exp_b=lambda k: backend.gt_exp(base_gt, k),
        mul_b=backend.gt_mul,
        exp_el_b=backend.gt_exp,
        encode_b=lambda el: _enc(el),
        decode_b=lambda enc: _dec(backend, enc),
    )
    return g, h, commitment, statement, witness, randomizer, helpers


def _enc(el):
    if hasattr(el, "a"):
        return (el.a, el.b)
    return (int(el),)


def _dec(backend, enc):
    one = backend.gt_one()
    if hasattr(one, "a"):
        from repro.crypto.pairing.field import Fp2

        return Fp2(enc[0], enc[1], one.p)
    return enc[0]


def _prove(setting, rng, transcript=None):
    g, h, commitment, statement, witness, randomizer, helpers = setting
    return prove_equality(
        g, g.g, h, commitment,
        exp_b=helpers["exp_b"],
        encode_b=helpers["encode_b"],
        statement_b=statement,
        witness=witness,
        randomizer=randomizer,
        rng=rng,
        transcript=transcript or t(),
    )


def _verify(setting, proof, transcript=None, statement=None, commitment=None):
    g, h, commit0, statement0, _witness, _randomizer, helpers = setting
    return verify_equality(
        g, g.g, h, commitment if commitment is not None else commit0,
        exp_b=helpers["exp_b"],
        mul_b=helpers["mul_b"],
        exp_el_b=helpers["exp_el_b"],
        encode_b=helpers["encode_b"],
        decode_b=helpers["decode_b"],
        statement_b=statement if statement is not None else statement0,
        proof=proof,
        transcript=transcript or t(),
    )


class TestEqualityProof:
    def test_accepts_valid(self, setting, rng):
        proof = _prove(setting, rng)
        assert _verify(setting, proof)

    def test_rejects_wrong_gt_statement(self, setting, rng, backend):
        proof = _prove(setting, rng)
        wrong = backend.gt_exp(backend.pair(backend.g, backend.g), 99999)
        assert not _verify(setting, proof, statement=wrong)

    def test_rejects_wrong_commitment(self, setting, rng):
        g = setting[0]
        proof = _prove(setting, rng)
        assert not _verify(setting, proof, commitment=g.mul(setting[2], g.g))

    def test_rejects_tampered_integer_response(self, setting, rng):
        proof = _prove(setting, rng)
        bad = dataclasses.replace(proof, z=proof.z + 1)
        assert not _verify(setting, bad)

    def test_rejects_oversized_response(self, setting, rng):
        proof = _prove(setting, rng)
        bad = dataclasses.replace(proof, z=setting[0].q)
        assert not _verify(setting, bad)

    def test_rejects_transcript_mismatch(self, setting, rng):
        proof = _prove(setting, rng, transcript=t(b"one"))
        assert not _verify(setting, proof, transcript=t(b"two"))

    def test_prover_validates_bound(self, setting, rng):
        g, h, commitment, statement, witness, randomizer, helpers = setting
        with pytest.raises(ValueError):
            prove_equality(
                g, g.g, h, commitment,
                exp_b=helpers["exp_b"], encode_b=helpers["encode_b"],
                statement_b=statement, witness=witness + g.q,  # opens D, but not mod q
                randomizer=randomizer, rng=rng, transcript=t(),
            )

    def test_prover_validates_opening(self, setting, rng):
        g, h, commitment, statement, witness, randomizer, helpers = setting
        with pytest.raises(ValueError):
            prove_equality(
                g, g.g, h, g.mul(commitment, g.g),
                exp_b=helpers["exp_b"], encode_b=helpers["encode_b"],
                statement_b=statement, witness=witness, randomizer=randomizer,
                rng=rng, transcript=t(),
            )
