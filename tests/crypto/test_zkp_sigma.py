"""Tests for the Schnorr proof of a discrete logarithm (a sigma protocol)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.crypto.hashing import Transcript
from repro.crypto.zkp import (
    prove_dlog,
    prove_dlog_generic,
    verify_dlog,
    verify_dlog_generic,
)


def t(domain=b"test"):
    return Transcript(domain)


class TestSchnorr:
    def test_accepts_valid(self, schnorr_group, rng):
        g = schnorr_group
        x = g.random_exponent(rng)
        proof = prove_dlog(g, g.g, g.power(x), x, rng, t())
        assert verify_dlog(g, g.g, g.power(x), proof, t())

    def test_rejects_wrong_statement(self, schnorr_group, rng):
        g = schnorr_group
        x = g.random_exponent(rng)
        proof = prove_dlog(g, g.g, g.power(x), x, rng, t())
        assert not verify_dlog(g, g.g, g.power(x + 1), proof, t())

    def test_rejects_wrong_transcript_domain(self, schnorr_group, rng):
        g = schnorr_group
        x = g.random_exponent(rng)
        proof = prove_dlog(g, g.g, g.power(x), x, rng, t(b"a"))
        assert not verify_dlog(g, g.g, g.power(x), proof, t(b"b"))

    def test_rejects_tampered_response(self, schnorr_group, rng):
        g = schnorr_group
        x = g.random_exponent(rng)
        proof = prove_dlog(g, g.g, g.power(x), x, rng, t())
        bad = dataclasses.replace(proof, response=(proof.response + 1) % g.q)
        assert not verify_dlog(g, g.g, g.power(x), bad, t())

    def test_rejects_commitment_outside_group(self, schnorr_group, rng):
        g = schnorr_group
        x = g.random_exponent(rng)
        proof = prove_dlog(g, g.g, g.power(x), x, rng, t())
        bad = dataclasses.replace(proof, commitment=0)
        assert not verify_dlog(g, g.g, g.power(x), bad, t())

    def test_prover_checks_witness(self, schnorr_group, rng):
        g = schnorr_group
        with pytest.raises(ValueError):
            prove_dlog(g, g.g, g.power(3), 4, rng, t())

    def test_alternate_base(self, schnorr_group, rng):
        g = schnorr_group
        h = g.derive_generator(b"alt")
        x = g.random_exponent(rng)
        proof = prove_dlog(g, h, g.exp(h, x), x, rng, t())
        assert verify_dlog(g, h, g.exp(h, x), proof, t())

    def test_zero_knowledge_smoke(self, schnorr_group, rng):
        """Two proofs of the same statement must differ (fresh nonces)."""
        g = schnorr_group
        x = g.random_exponent(rng)
        p1 = prove_dlog(g, g.g, g.power(x), x, rng, t())
        p2 = prove_dlog(g, g.g, g.power(x), x, rng, t())
        assert p1.commitment != p2.commitment


class TestSchnorrGeneric:
    @pytest.fixture(params=["toy", "tate"])
    def backend(self, request, toy_backend, tate_backend):
        return toy_backend if request.param == "toy" else tate_backend

    def test_accepts_valid(self, backend, rng):
        x = backend.random_scalar(rng)
        y = backend.exp(backend.g, x)
        proof = prove_dlog_generic(backend, backend.g, y, x, rng, t())
        assert verify_dlog_generic(backend, backend.g, y, proof, t())

    def test_rejects_wrong_statement(self, backend, rng):
        x = backend.random_scalar(rng)
        y = backend.exp(backend.g, x)
        proof = prove_dlog_generic(backend, backend.g, y, x, rng, t())
        y_bad = backend.exp(backend.g, x + 1)
        assert not verify_dlog_generic(backend, backend.g, y_bad, proof, t())
