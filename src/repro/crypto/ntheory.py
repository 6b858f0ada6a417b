"""Number-theoretic substrate: primality, prime generation, modular tools.

Everything the higher layers need is implemented here from scratch:

* Miller–Rabin probabilistic primality testing (with a deterministic
  small-base fast path for 64-bit inputs),
* random prime / safe-prime generation,
* modular inverse, Jacobi symbol (batched through the compiled kernel
  of :mod:`repro.crypto.fastexp` when it is loaded), Tonelli–Shanks
  square roots,
* small utilities (``is_probable_prime``, trial division tables).

The module is pure Python on arbitrary-precision ints.  Functions accept
an explicit ``random.Random`` where randomness is needed so callers stay
reproducible.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

import repro.crypto.fastexp as fastexp
from repro._util import rand_int_bits

__all__ = [
    "SMALL_PRIMES",
    "is_probable_prime",
    "miller_rabin",
    "random_prime",
    "random_safe_prime",
    "modinv",
    "jacobi",
    "legendre_all",
    "sqrt_mod_prime",
    "is_quadratic_residue",
]


def _sieve(limit: int) -> list[int]:
    """Simple sieve of Eratosthenes returning all primes ``<= limit``."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    p = 2
    while p * p <= limit:
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
        p += 1
    return [i for i, f in enumerate(flags) if f]


#: Primes below 2000, used for trial division before Miller-Rabin.
SMALL_PRIMES: tuple[int, ...] = tuple(_sieve(2000))
_SMALL_PRIME_SET = frozenset(SMALL_PRIMES)
#: their product: one gcd against it is the whole trial division
_SMALL_PRIMORIAL = math.prod(SMALL_PRIMES)

# Deterministic Miller-Rabin witness sets (Jaeschke / Sorenson-Webster).
_DETERMINISTIC_BASES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def miller_rabin(n: int, bases: Sequence[int]) -> bool:
    """Run Miller–Rabin on *n* with the given witness *bases*.

    Returns ``False`` as soon as any base proves compositeness, ``True``
    if every base passes (i.e. *n* is probably prime).
    """
    if n < 2:
        return False
    # write n-1 = d * 2^s with d odd
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        a %= n
        if a in (0, 1, n - 1):
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_probable_prime(n: int, rounds: int = 24, rng: random.Random | None = None) -> bool:
    """Probabilistic primality test.

    Trial-divides by :data:`SMALL_PRIMES` (one gcd with their
    product), then runs Miller–Rabin.  For
    ``n < 2**64`` the deterministic witness set is used, making the
    answer exact; above that, *rounds* random bases give an error
    probability ``<= 4**-rounds``.
    """
    if n < 2:
        return False
    if n in _SMALL_PRIME_SET:
        return True
    if math.gcd(n, _SMALL_PRIMORIAL) != 1:
        return False
    if n < (1 << 64):
        return miller_rabin(n, _DETERMINISTIC_BASES_64)
    rng = rng or random
    bases = [rng.randrange(2, n - 1) for _ in range(rounds)]
    return miller_rabin(n, bases)


def random_prime(bits: int, rng: random.Random, *, congruence: tuple[int, int] | None = None) -> int:
    """Random prime with exactly *bits* bits.

    When *congruence* ``(r, m)`` is given, the prime additionally
    satisfies ``p % m == r`` (e.g. ``(3, 4)`` for Tonelli-free square
    roots, used by the pairing substrate).
    """
    if bits < 2:
        raise ValueError("need at least 2 bits for a prime")
    while True:
        candidate = rand_int_bits(rng, bits) | 1
        if congruence is not None:
            r, m = congruence
            candidate += (r - candidate) % m
            if candidate.bit_length() != bits or candidate < 2:
                continue
        if is_probable_prime(candidate, rng=rng):
            return candidate


def random_safe_prime(bits: int, rng: random.Random) -> int:
    """Random safe prime ``p = 2q + 1`` (*q* prime) with *bits* bits.

    Used for Schnorr-style groups where the subgroup of order *q* has
    prime order.  This is a rejection-sampling loop; for the bit sizes
    used in tests (≤ 256) it completes quickly.
    """
    if bits < 3:
        raise ValueError("need at least 3 bits for a safe prime")
    while True:
        q = random_prime(bits - 1, rng)
        p = 2 * q + 1
        if p.bit_length() == bits and is_probable_prime(p, rng=rng):
            return p


def modinv(a: int, m: int) -> int:
    """Modular inverse of *a* modulo *m*.

    Raises :class:`ValueError` when ``gcd(a, m) != 1``.  Uses Python's
    built-in extended-gcd path (``pow(a, -1, m)``).
    """
    try:
        return pow(a, -1, m)
    except ValueError as exc:  # non-invertible
        raise ValueError(f"{a} is not invertible modulo {m}") from exc


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol ``(a/n)`` for odd positive *n*.

    For a prime *n* it is Euler's criterion ``a^((n-1)/2) mod n``
    without the exponentiation.  Each round shifts out every factor of
    two of *a* at once, then swaps by quadratic reciprocity.
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError("n must be a positive odd integer")
    a %= n
    result = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos & 1 and n & 7 in (3, 5):
            result = -result
        if a & n & 3 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def legendre_all(elements: Sequence[int], p: int) -> bool:
    """Whether ``jacobi(a, p) == 1`` for every *a* in *elements*.

    With the kernel loaded, a sequence of ints takes one kernel call
    (libgmp's ``mpz_jacobi``) for the whole batch; *p* must be an odd
    prime there, as every caller's is.
    """
    kernel = fastexp.KERNEL
    if kernel is not None and all(type(a) is int for a in elements):
        fastexp.KERNEL_CALLS["legendre_c"] += len(elements)
        return kernel.legendre_all(elements, p)
    fastexp.KERNEL_CALLS["legendre_py"] += len(elements)
    return all(jacobi(a, p) == 1 for a in elements)


def is_quadratic_residue(a: int, p: int) -> bool:
    """Whether *a* is a nonzero quadratic residue modulo prime *p*."""
    a %= p
    if a == 0:
        return False
    return pow(a, (p - 1) // 2, p) == 1


def sqrt_mod_prime(a: int, p: int) -> int:
    """A square root of *a* modulo odd prime *p* (Tonelli–Shanks).

    Raises :class:`ValueError` when *a* is a non-residue.  For
    ``p % 4 == 3`` the direct exponentiation shortcut is used.
    """
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if not is_quadratic_residue(a, p):
        raise ValueError(f"{a} is not a quadratic residue mod {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli–Shanks general case
    q = p - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    # find a non-residue z deterministically
    z = 2
    while is_quadratic_residue(z, p):
        z += 1
    m = s
    c = pow(z, q, p)
    t = pow(a, q, p)
    r = pow(a, (q + 1) // 2, p)
    while t != 1:
        # find least i with t^(2^i) == 1
        i = 0
        t2 = t
        while t2 != 1:
            t2 = (t2 * t2) % p
            i += 1
            if i == m:
                raise ValueError("square root failure (non-residue slipped through)")
        b = pow(c, 1 << (m - i - 1), p)
        m = i
        c = (b * b) % p
        t = (t * c) % p
        r = (r * b) % p
    return r
