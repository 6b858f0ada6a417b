"""Tests for the Tate pairing: bilinearity, non-degeneracy, backends."""

from __future__ import annotations

import random

import pytest

from repro.crypto.pairing import (
    TatePairing,
    ToyPairing,
    default_backend,
    generate_curve,
    tate_pairing,
)
from repro.crypto.pairing.curve import Point
from repro.crypto.pairing.tate import miller_loop


@pytest.fixture(scope="module")
def bp():
    return TatePairing(generate_curve(28, random.Random(77)))


class TestTatePairing:
    def test_bilinearity_left(self, bp):
        g = bp.g
        a, b = 1234, 56789
        lhs = bp.pair(bp.exp(g, a), bp.exp(g, b))
        rhs = bp.gt_exp(bp.pair(g, bp.exp(g, b)), a)
        assert bp.gt_eq(lhs, rhs)

    def test_bilinearity_right(self, bp):
        g = bp.g
        a, b = 321, 654
        lhs = bp.pair(bp.exp(g, a), bp.exp(g, b))
        rhs = bp.gt_exp(bp.pair(bp.exp(g, a), g), b)
        assert bp.gt_eq(lhs, rhs)

    def test_bilinearity_product(self, bp):
        g = bp.g
        for a, b in [(2, 3), (17, 19), (100003 % bp.order, 7)]:
            lhs = bp.pair(bp.exp(g, a), bp.exp(g, b))
            rhs = bp.gt_exp(bp.gt_generator(), a * b)
            assert bp.gt_eq(lhs, rhs)

    def test_nondegenerate(self, bp):
        assert not bp.gt_generator().is_one()

    def test_symmetric_in_the_distorted_sense(self, bp):
        """ê(P, Q) == ê(Q, P) for the modified pairing."""
        g = bp.g
        P, Q = bp.exp(g, 12), bp.exp(g, 99)
        assert bp.gt_eq(bp.pair(P, Q), bp.pair(Q, P))

    def test_identity_inputs(self, bp):
        inf = bp.identity()
        assert bp.pair(inf, bp.g).is_one()
        assert bp.pair(bp.g, inf).is_one()

    def test_target_order(self, bp):
        assert bp.gt_generator().pow(bp.order).is_one()

    def test_additive_in_first_argument(self, bp):
        g = bp.g
        P1, P2, Q = bp.exp(g, 3), bp.exp(g, 8), bp.exp(g, 5)
        lhs = bp.pair(bp.mul(P1, P2), Q)
        rhs = bp.gt_mul(bp.pair(P1, Q), bp.pair(P2, Q))
        assert bp.gt_eq(lhs, rhs)

    def test_pairing_distinguishes_messages(self, bp):
        g = bp.g
        assert not bp.gt_eq(
            bp.pair(g, bp.exp(g, 2)),
            bp.pair(g, bp.exp(g, 3)),
        )

    def test_miller_loop_rejects_infinity(self, bp):
        with pytest.raises(ValueError):
            miller_loop(Point.infinity(bp.params.p), bp.g, bp.order)

    def test_gt_generator_cached(self, bp):
        assert bp.gt_generator() is bp.gt_generator()


class TestBackendInterface:
    def test_random_scalar_range(self, bp, rng):
        for _ in range(20):
            s = bp.random_scalar(rng)
            assert 1 <= s < bp.order

    def test_random_element_in_subgroup(self, bp, rng):
        el = bp.random_element(rng)
        assert el.multiply(bp.order).is_infinity

    def test_element_encode_stable(self, bp):
        assert bp.element_encode(bp.g) == bp.element_encode(bp.g)

    def test_default_backend_real(self, rng):
        backend = default_backend(rng, security_bits=20, real=True)
        assert isinstance(backend, TatePairing)

    def test_default_backend_toy(self, rng):
        backend = default_backend(rng, security_bits=20, real=False)
        assert isinstance(backend, ToyPairing)


class TestToyBackend:
    def test_bilinearity(self, toy_backend):
        t = toy_backend
        lhs = t.pair(t.exp(t.g, 6), t.exp(t.g, 7))
        rhs = t.gt_exp(t.pair(t.g, t.g), 42)
        assert t.gt_eq(lhs, rhs)

    def test_nondegenerate(self, toy_backend):
        assert toy_backend.pair(toy_backend.g, toy_backend.g) != toy_backend.gt_one()

    def test_differential_vs_tate(self, bp, toy_backend):
        """Both backends must satisfy the same algebraic identities."""
        for backend in (bp, toy_backend):
            g = backend.g
            a, b, c = 3, 5, 7
            lhs = backend.pair(backend.exp(g, a), backend.mul(backend.exp(g, b), backend.exp(g, c)))
            rhs = backend.gt_mul(
                backend.pair(backend.exp(g, a), backend.exp(g, b)),
                backend.pair(backend.exp(g, a), backend.exp(g, c)),
            )
            assert backend.gt_eq(lhs, rhs)

    def test_identity(self, toy_backend):
        t = toy_backend
        assert t.pair(t.identity(), t.g) == t.gt_one()


class TestStandaloneFunction:
    def test_tate_pairing_function_matches_backend(self, bp):
        direct = tate_pairing(bp.params, bp.g, bp.g)
        assert bp.gt_eq(direct, bp.gt_generator())
