"""Tests for Camenisch–Lysyanskaya signatures over both backends."""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.crypto.cl_sig import (
    BlindIssuanceRequest,
    cl_blind_issue,
    cl_blind_request,
    cl_blind_unwrap,
    cl_keygen,
    cl_sign,
    cl_verify,
)
from repro.crypto.hashing import Transcript
from repro.crypto.pairing.curve import Point
from repro.crypto.pairing.field import Fp2
from repro.crypto.zkp.schnorr import SchnorrProof, verify_dlog_generic
from tests.conftest import random_curve


@pytest.fixture(params=["toy", "tate"])
def backend(request, toy_backend, tate_backend):
    return toy_backend if request.param == "toy" else tate_backend


@pytest.fixture()
def keypair(backend, rng):
    return cl_keygen(backend, rng)


class TestPlainScheme:
    def test_sign_verify(self, backend, keypair, rng):
        sig = cl_sign(backend, keypair, 42, rng)
        assert cl_verify(backend, keypair.public, 42, sig)

    def test_wrong_message(self, backend, keypair, rng):
        sig = cl_sign(backend, keypair, 42, rng)
        assert not cl_verify(backend, keypair.public, 43, sig)

    def test_wrong_key(self, backend, keypair, rng):
        other = cl_keygen(backend, rng)
        sig = cl_sign(backend, keypair, 42, rng)
        assert not cl_verify(backend, other.public, 42, sig)

    def test_message_reduced_mod_order(self, backend, keypair, rng):
        sig = cl_sign(backend, keypair, 5, rng)
        assert cl_verify(backend, keypair.public, 5 + backend.order, sig)

    def test_signatures_randomized(self, backend, keypair, rng):
        s1 = cl_sign(backend, keypair, 9, rng)
        s2 = cl_sign(backend, keypair, 9, rng)
        assert backend.element_encode(s1.a) != backend.element_encode(s2.a)

    def test_rerandomization_preserves_validity(self, backend, keypair, rng):
        """(a^ρ, b^ρ, c^ρ) verifies for the same message — the property
        the unlinkable spend tokens rely on."""
        sig = cl_sign(backend, keypair, 12, rng)
        rho = backend.random_scalar(rng)
        rerand = dataclasses.replace(
            sig,
            a=backend.exp(sig.a, rho),
            b=backend.exp(sig.b, rho),
            c=backend.exp(sig.c, rho),
        )
        assert cl_verify(backend, keypair.public, 12, rerand)

    def test_tampered_component_fails(self, backend, keypair, rng):
        sig = cl_sign(backend, keypair, 7, rng)
        tampered = dataclasses.replace(sig, b=backend.exp(sig.b, 2))
        assert not cl_verify(backend, keypair.public, 7, tampered)


class TestBlindIssuance:
    def test_full_flow(self, backend, keypair, rng):
        request, m = cl_blind_request(backend, 1234, rng)
        sig = cl_blind_issue(backend, keypair, request, rng)
        unwrapped = cl_blind_unwrap(backend, keypair.public, 1234, sig)
        assert cl_verify(backend, keypair.public, 1234, unwrapped)

    def test_issuer_never_sees_message(self, backend, keypair, rng):
        """The request carries only the commitment g^m, not m."""
        request, _ = cl_blind_request(backend, 777, rng)
        assert backend.element_encode(request.commitment) == backend.element_encode(
            backend.exp(backend.g, 777 % backend.order)
        )
        # the request has no attribute carrying the raw message
        assert not hasattr(request, "message")

    def test_issue_rejects_bad_proof(self, backend, keypair, rng):
        request, _ = cl_blind_request(backend, 5, rng)
        forged = dataclasses.replace(request, commitment=backend.exp(backend.g, 6))
        with pytest.raises(ValueError):
            cl_blind_issue(backend, keypair, forged, rng)

    def test_unwrap_rejects_wrong_message(self, backend, keypair, rng):
        request, _ = cl_blind_request(backend, 10, rng)
        sig = cl_blind_issue(backend, keypair, request, rng)
        with pytest.raises(ValueError):
            cl_blind_unwrap(backend, keypair.public, 11, sig)

    def test_unwrap_rejects_cheating_issuer(self, backend, keypair, rng):
        request, _ = cl_blind_request(backend, 10, rng)
        sig = cl_blind_issue(backend, keypair, request, rng)
        bad = dataclasses.replace(sig, c=backend.exp(sig.c, 3))
        with pytest.raises(ValueError):
            cl_blind_unwrap(backend, keypair.public, 10, bad)

    def test_two_requests_unlinkable(self, backend, rng):
        """Commitments to different secrets reveal no relation (smoke)."""
        r1, _ = cl_blind_request(backend, rng.randrange(1, backend.order), rng)
        r2, _ = cl_blind_request(backend, rng.randrange(1, backend.order), rng)
        assert backend.element_encode(r1.commitment) != backend.element_encode(r2.commitment)


class TestIssuanceMembership:
    """The issuer multiplies the request's points by its secrets, so it
    refuses any that is not a non-identity element of the group."""

    def test_an_all_identity_request_is_refused(self, backend, keypair):
        identity = backend.identity()
        forged = BlindIssuanceRequest(
            commitment=identity, proof=SchnorrProof(commitment=identity, response=0))
        # the proof alone holds: g^0 = O = O · O^e
        transcript = Transcript(b"cl-blind-issuance")
        for element in (backend.g, identity):
            transcript.absorb_ints(*backend.element_encode(element))
        assert verify_dlog_generic(backend, backend.g, identity, forged.proof, transcript)
        with pytest.raises(ValueError, match="outside the group"):
            cl_blind_issue(backend, keypair, forged, random.Random(1))

    @pytest.mark.parametrize("slot", ["commitment", "proof commitment"])
    @pytest.mark.parametrize(
        "hostile", ["identity", "(0, 0)", "off the curve", "imaginary", "foreign p", "g + T"])
    def test_a_point_outside_the_group_is_refused(self, tate_backend, slot, hostile, rng):
        backend = tate_backend
        keypair = cl_keygen(backend, rng)
        p, g = backend.params.p, backend.g
        order_two = Point.from_base(0, 0, p)
        point = {
            "identity": backend.identity(),
            "(0, 0)": order_two,
            "off the curve": Point(Fp2(1, 0, p), Fp2(1, 0, p), p),
            "imaginary": g.distort(),
            "foreign p": random_curve(20, random.Random(5)).generator,
            "g + T": g + order_two,
        }[hostile]
        assert not backend.member(point)
        request, _ = cl_blind_request(backend, 99, rng)
        if slot == "commitment":
            request = dataclasses.replace(request, commitment=point)
        else:
            request = dataclasses.replace(
                request, proof=dataclasses.replace(request.proof, commitment=point))
        with pytest.raises(ValueError, match="outside the group"):
            cl_blind_issue(backend, keypair, request, rng)

    @pytest.mark.parametrize("response", ["7", 7.0, True, None])
    def test_a_proof_response_that_is_not_an_int_is_refused(self, backend, keypair, rng,
                                                           response):
        request, _ = cl_blind_request(backend, 99, rng)
        forged = dataclasses.replace(
            request, proof=dataclasses.replace(request.proof, response=response))
        with pytest.raises(ValueError, match="malformed"):
            cl_blind_issue(backend, keypair, forged, rng)

    def test_honest_points_are_members(self, backend, keypair, rng):
        request, _ = cl_blind_request(backend, 31, rng)
        for point in (backend.g, keypair.public.X, request.commitment, request.proof.commitment):
            assert backend.member(point)


class TestKeygen:
    def test_public_matches_secret(self, backend, keypair):
        assert backend.element_encode(keypair.public.X) == backend.element_encode(
            backend.exp(backend.g, keypair.x)
        )
        assert backend.element_encode(keypair.public.Y) == backend.element_encode(
            backend.exp(backend.g, keypair.y)
        )

    def test_distinct_keys(self, backend, rng):
        k1, k2 = cl_keygen(backend, rng), cl_keygen(backend, rng)
        assert (k1.x, k1.y) != (k2.x, k2.y)
