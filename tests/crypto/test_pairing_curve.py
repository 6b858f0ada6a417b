"""Tests for the supersingular curve group law and parameter generation."""

from __future__ import annotations

import random

import pytest

from repro.crypto.ntheory import is_probable_prime, random_prime
from repro.crypto.pairing.curve import CurveParams, Point, generate_curve
from repro.crypto.pairing.field import Fp2
from tests.conftest import random_curve


@pytest.fixture(scope="module")
def curve():
    return random_curve(24, random.Random(123))


class TestParams:
    def test_shape(self, curve):
        assert curve.p % 4 == 3
        assert curve.r * curve.cofactor == curve.p + 1

    def test_generator_on_curve_with_exact_order(self, curve):
        g = curve.generator
        assert g.on_curve() and not g.is_infinity
        assert g.multiply(curve.r).is_infinity
        assert not g.multiply(1).is_infinity

    def test_params_validation(self, curve):
        with pytest.raises(ValueError):
            CurveParams(p=curve.p, r=curve.r, cofactor=curve.cofactor + 1,
                        generator=curve.generator)


class TestGroupLaw:
    def test_identity_laws(self, curve):
        g = curve.generator
        inf = Point.infinity(curve.p)
        assert g + inf == g
        assert inf + g == g
        assert (g + (-g)).is_infinity

    def test_commutative(self, curve):
        g = curve.generator
        h = g.multiply(7)
        assert g + h == h + g

    def test_associative(self, curve):
        g = curve.generator
        a, b, c = g.multiply(3), g.multiply(5), g.multiply(11)
        assert (a + b) + c == a + (b + c)

    def test_doubling_consistent_with_addition_chain(self, curve):
        g = curve.generator
        assert g + g == g.multiply(2)
        assert g + g + g == g.multiply(3)

    def test_scalar_mult_distributes(self, curve):
        g = curve.generator
        assert g.multiply(13).multiply(7) == g.multiply(91)
        assert g.multiply(5) + g.multiply(9) == g.multiply(14)

    def test_negative_scalar(self, curve):
        g = curve.generator
        assert g.multiply(-4) == -(g.multiply(4))

    def test_subtraction(self, curve):
        g = curve.generator
        assert g.multiply(9) - g.multiply(4) == g.multiply(5)

    def test_order_annihilates(self, curve):
        g = curve.generator
        for k in (1, 2, curve.r - 1):
            assert g.multiply(k).multiply(curve.r).is_infinity

    def test_curve_mismatch_rejected(self, curve):
        other = random_curve(20, random.Random(5))
        with pytest.raises(ValueError):
            curve.generator + other.generator


class TestValidation:
    def test_from_base_rejects_off_curve(self, curve):
        with pytest.raises(ValueError):
            Point.from_base(1, 1, curve.p)

    def test_on_curve_for_multiples(self, curve):
        g = curve.generator
        for k in (2, 3, 17, 1000):
            assert g.multiply(k).on_curve()

    def test_encode_hashable_and_distinct(self, curve):
        g = curve.generator
        assert g.encode() != g.multiply(2).encode()
        assert len({g.encode(), g.multiply(2).encode(), g.encode()}) == 2


class TestDistortionMap:
    def test_image_on_curve(self, curve):
        psi = curve.generator.distort()
        assert psi.on_curve()

    def test_image_leaves_base_field(self, curve):
        g = curve.generator
        assert g.is_base_field()
        assert not g.distort().is_base_field()

    def test_distortion_is_homomorphism(self, curve):
        g = curve.generator
        assert (g + g).distort() == g.distort() + g.distort()

    def test_distorted_point_has_order_r(self, curve):
        assert curve.generator.distort().multiply(curve.r).is_infinity

    def test_infinity_fixed(self, curve):
        inf = Point.infinity(curve.p)
        assert inf.distort() is inf


class TestGeneration:
    def test_distinct_seeds_distinct_curves(self):
        c1 = random_curve(20, random.Random(1))
        c2 = random_curve(20, random.Random(2))
        assert (c1.p, c1.r) != (c2.p, c2.r)

    def test_requested_subgroup_bits(self):
        """The order is the caller's prime, at the smallest cofactor."""
        rng = random.Random(3)
        r = random_prime(20, rng)
        c = generate_curve(r, rng)
        assert c.r == r and c.p == c.cofactor * r - 1
        assert not any(is_probable_prime(k * r - 1) for k in range(4, c.cofactor, 4))

    def test_rejects_tiny_subgroup(self):
        for order in (2, 9):
            with pytest.raises(ValueError):
                generate_curve(order, random.Random(4))
