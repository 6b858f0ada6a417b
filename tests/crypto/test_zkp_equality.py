"""Tests for the cross-group equality proof (integer responses)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.crypto.hashing import Transcript
from repro.crypto.zkp.equality import prove_equality, verify_equality


def t(domain=b"eq"):
    return Transcript(domain)


@pytest.fixture(params=["toy", "tate"])
def backend(request, toy_backend, tate_backend):
    return toy_backend if request.param == "toy" else tate_backend


@pytest.fixture()
def setting(schnorr_group, backend, rng):
    """Pedersen commitment in the Schnorr group + B^s in the GT group."""
    g = schnorr_group
    h = g.derive_generator(b"pedersen-h")
    bound_bits = min(g.q.bit_length(), backend.order.bit_length()) - 1
    witness = rng.randrange(1, 1 << bound_bits)
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
    return g, h, commitment, statement, witness, randomizer, bound_bits, helpers


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
    g, h, commitment, statement, witness, randomizer, bits, helpers = setting
    return prove_equality(
        g, g.g, h, commitment,
        exp_b=helpers["exp_b"],
        encode_b=helpers["encode_b"],
        statement_b=statement,
        witness=witness,
        randomizer=randomizer,
        witness_bits=bits,
        rng=rng,
        transcript=transcript or t(),
    )


def _verify(setting, proof, transcript=None, statement=None, commitment=None):
    g, h, commit0, statement0, _witness, _randomizer, bits, helpers = setting
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
        witness_bits=bits,
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
        bad = dataclasses.replace(proof, z=1 << (proof.witness_bits + 500))
        assert not _verify(setting, bad)

    def test_rejects_transcript_mismatch(self, setting, rng):
        proof = _prove(setting, rng, transcript=t(b"one"))
        assert not _verify(setting, proof, transcript=t(b"two"))

    def test_prover_validates_bound(self, setting, rng):
        g, h, commitment, statement, witness, randomizer, bits, helpers = setting
        with pytest.raises(ValueError):
            prove_equality(
                g, g.g, h, commitment,
                exp_b=helpers["exp_b"], encode_b=helpers["encode_b"],
                statement_b=statement, witness=witness, randomizer=randomizer,
                witness_bits=witness.bit_length() - 1,  # too tight
                rng=rng, transcript=t(),
            )

    def test_prover_validates_opening(self, setting, rng):
        g, h, commitment, statement, witness, randomizer, bits, helpers = setting
        with pytest.raises(ValueError):
            prove_equality(
                g, g.g, h, g.mul(commitment, g.g),
                exp_b=helpers["exp_b"], encode_b=helpers["encode_b"],
                statement_b=statement, witness=witness, randomizer=randomizer,
                witness_bits=bits, rng=rng, transcript=t(),
            )

    def test_response_never_reduced(self, setting, rng):
        """The integer response can exceed both group orders — that is
        the whole point of the technique."""
        proofs = [_prove(setting, rng) for _ in range(3)]
        g = setting[0]
        assert any(p.z > g.q for p in proofs)
