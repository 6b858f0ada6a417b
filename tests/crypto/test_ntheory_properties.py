"""Property tests for the number-theoretic substrate.

Runs on the in-repo :mod:`repro.testing.properties` runner — seeded
from ``REPRO_TEST_SEED``, no third-party dependency — so the algebraic
laws every upper layer leans on (inverses, square roots,
primality) are checked over hundreds of random cases on any machine.
"""

from __future__ import annotations

import math

from repro.crypto.ntheory import (
    SMALL_PRIMES,
    is_probable_prime,
    is_quadratic_residue,
    jacobi,
    miller_rabin,
    modinv,
    random_prime,
    sqrt_mod_prime,
)
from repro.testing.properties import property_test


def _primes_up_to(limit):
    """The primes ``<= limit`` by trial division: an oracle independent of the module."""
    return [n for n in range(2, limit + 1)
            if all(n % d for d in range(2, math.isqrt(n) + 1))]


def _random_odd(rng, lo=3, hi=1 << 20):
    return rng.randrange(lo, hi) | 1


@property_test(cases=128)
def test_modinv_times_a_is_one(rng):
    m = rng.randrange(2, 1 << 48)
    a = rng.randrange(1, m)
    while math.gcd(a, m) != 1:
        a = rng.randrange(1, m)
    inv = modinv(a, m)
    assert 0 <= inv < m
    assert (a * inv) % m == 1


@property_test(cases=64)
def test_modinv_rejects_noninvertible(rng):
    g = rng.randrange(2, 1 << 8)
    m = g * rng.randrange(2, 1 << 24)
    a = g * rng.randrange(1, m // g)  # gcd(a, m) >= g > 1
    try:
        modinv(a, m)
    except ValueError:
        return
    raise AssertionError(f"modinv({a}, {m}) succeeded despite gcd >= {g}")


@property_test(cases=96)
def test_sqrt_mod_p_round_trip(rng):
    p = random_prime(rng.randrange(10, 40), rng)
    if p == 2:
        return
    x = rng.randrange(1, p)
    a = (x * x) % p
    root = sqrt_mod_prime(a, p)
    assert (root * root) % p == a
    assert root in (x, p - x)


@property_test(cases=64)
def test_sqrt_mod_p_rejects_nonresidues(rng):
    p = random_prime(rng.randrange(10, 32), rng)
    if p <= 3:
        return
    # half the nonzero elements are non-residues; find one by scanning
    # from a random start (deterministic in the case RNG)
    start = rng.randrange(1, p)
    for offset in range(p - 1):
        candidate = 1 + (start + offset - 1) % (p - 1)
        if not is_quadratic_residue(candidate, p):
            try:
                sqrt_mod_prime(candidate, p)
            except ValueError:
                return
            raise AssertionError(f"non-residue {candidate} got a root mod {p}")
    raise AssertionError(f"no non-residue found mod {p}")


@property_test(cases=48)
def test_jacobi_matches_euler_for_primes(rng):
    p = random_prime(rng.randrange(8, 24), rng)
    if p == 2:
        return
    a = rng.randrange(1, p)
    euler = pow(a, (p - 1) // 2, p)
    expected = 1 if euler == 1 else -1
    assert jacobi(a, p) == expected


@property_test(cases=32)
def test_miller_rabin_agrees_with_the_sieve(rng):
    """Below the sieve limit, Miller–Rabin must match trial division."""
    limit = 3000
    sieve = set(_primes_up_to(limit))
    lo = rng.randrange(2, limit - 200)
    for n in range(lo, lo + 200):
        assert is_probable_prime(n) == (n in sieve), n


@property_test(cases=48)
def test_miller_rabin_kills_odd_composites(rng):
    a = _random_odd(rng, 3, 1 << 24)
    b = _random_odd(rng, 3, 1 << 24)
    n = a * b
    assert not miller_rabin(n, (2, 3, 5, 7, 11, 13, 17))


@property_test(cases=32)
def test_random_prime_is_prime_with_exact_bits(rng):
    bits = rng.randrange(8, 48)
    p = random_prime(bits, rng)
    assert p.bit_length() == bits
    assert is_probable_prime(p)
    # cross-check against an independent witness set
    assert miller_rabin(p, [rng.randrange(2, p - 1) for _ in range(8)])


@property_test(cases=24)
def test_small_primes_table_is_exactly_the_sieve(rng):
    limit = rng.randrange(10, 1999)
    assert _primes_up_to(limit) == [p for p in SMALL_PRIMES if p <= limit]
