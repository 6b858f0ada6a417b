"""Unit and property tests for the number-theory substrate."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.ntheory import (
    SMALL_PRIMES,
    is_probable_prime,
    is_quadratic_residue,
    jacobi,
    miller_rabin,
    modinv,
    random_prime,
    random_safe_prime,
    sqrt_mod_prime,
)

KNOWN_PRIMES = [2, 3, 5, 7, 11, 101, 7919, 104729, (1 << 61) - 1]
KNOWN_COMPOSITES = [1, 0, -7, 4, 9, 91, 561, 6601, 41041, (1 << 61) - 2]
# 561, 6601, 41041 are Carmichael numbers — Fermat liars, Miller-Rabin must catch them


def _primes_up_to(limit):
    """The primes ``<= limit`` by trial division: an oracle independent of the module."""
    return [n for n in range(2, limit + 1)
            if all(n % d for d in range(2, math.isqrt(n) + 1))]


class TestPrimality:
    @pytest.mark.parametrize("p", KNOWN_PRIMES)
    def test_known_primes(self, p):
        assert is_probable_prime(p)

    @pytest.mark.parametrize("n", KNOWN_COMPOSITES)
    def test_known_composites(self, n):
        assert not is_probable_prime(n)

    def test_matches_sieve_below_10000(self):
        sieved = set(_primes_up_to(10_000))
        for n in range(10_000):
            assert is_probable_prime(n) == (n in sieved), n

    def test_small_primes_table(self):
        assert SMALL_PRIMES[0] == 2
        assert all(is_probable_prime(p) for p in SMALL_PRIMES[:50])

    def test_miller_rabin_detects_carmichael(self):
        # 561 = 3*11*17: Fermat test with base 2 passes, MR must not
        assert not miller_rabin(561, [2])

    def test_large_prime(self):
        # 2^127 - 1 is a Mersenne prime
        assert is_probable_prime((1 << 127) - 1)
        assert not is_probable_prime((1 << 127) + 1)


class TestRandomPrimes:
    def test_bit_length_exact(self):
        rng = random.Random(1)
        for bits in (8, 16, 48, 128):
            p = random_prime(bits, rng)
            assert p.bit_length() == bits
            assert is_probable_prime(p)

    def test_congruence_constraint(self):
        rng = random.Random(2)
        p = random_prime(64, rng, congruence=(3, 4))
        assert p % 4 == 3 and is_probable_prime(p)

    def test_safe_prime(self):
        rng = random.Random(3)
        p = random_safe_prime(32, rng)
        assert is_probable_prime(p) and is_probable_prime((p - 1) // 2)
        assert p.bit_length() == 32

    def test_rejects_tiny(self):
        rng = random.Random(5)
        with pytest.raises(ValueError):
            random_prime(1, rng)
        with pytest.raises(ValueError):
            random_safe_prime(2, rng)


class TestModular:
    @given(st.integers(min_value=1, max_value=10**9))
    def test_modinv_roundtrip(self, a):
        p = 1_000_000_007  # prime
        inv = modinv(a % p if a % p else 1, p)
        assert ((a % p if a % p else 1) * inv) % p == 1

    def test_modinv_noninvertible(self):
        with pytest.raises(ValueError):
            modinv(6, 9)

class TestJacobiAndSqrt:
    def test_jacobi_against_euler(self):
        p = 10007  # prime -> Jacobi == Legendre
        for a in range(1, 200):
            euler = pow(a, (p - 1) // 2, p)
            expected = 1 if euler == 1 else (-1 if euler == p - 1 else 0)
            assert jacobi(a, p) == expected

    def test_jacobi_rejects_even_modulus(self):
        with pytest.raises(ValueError):
            jacobi(3, 10)

    @pytest.mark.parametrize("p", [10007, 104729, 7919])  # includes p % 4 == 3 and == 1
    def test_sqrt_roundtrip(self, p):
        rng = random.Random(p)
        for _ in range(25):
            x = rng.randrange(1, p)
            a = (x * x) % p
            r = sqrt_mod_prime(a, p)
            assert (r * r) % p == a

    def test_sqrt_of_zero(self):
        assert sqrt_mod_prime(0, 10007) == 0

    def test_sqrt_nonresidue_raises(self):
        p = 10007
        nonresidue = next(a for a in range(2, p) if not is_quadratic_residue(a, p))
        with pytest.raises(ValueError):
            sqrt_mod_prime(nonresidue, p)

    @given(st.integers(min_value=1, max_value=10006))
    @settings(max_examples=50)
    def test_is_qr_consistent_with_sqrt(self, a):
        p = 10007
        if is_quadratic_residue(a, p):
            r = sqrt_mod_prime(a, p)
            assert (r * r) % p == a % p
        else:
            with pytest.raises(ValueError):
                sqrt_mod_prime(a, p)
