"""Cyclic-group abstractions and the Divisible-E-cash group tower.

Two constructions live here:

* :class:`SchnorrGroup` — the prime-order subgroup of ``Z_p^*`` with
  ``p = k*q + 1``; the workhorse for commitments and ZK proofs.
* :class:`GroupTower` — the tower ``G, G_1, ..., G_{L+1}`` required by
  the binary-tree Divisible E-cash scheme (paper Section III-C1):
  ``G_1 = <g_1>`` is a subgroup of ``Z*_{o_G}``, and each ``G_i`` is a
  subgroup of ``Z*_{o_{i+1}}`` where the orders satisfy
  ``o_{i+1} = 2 o_i + 1`` — i.e. the orders form a first-kind
  Cunningham chain.  Because the order of ``Z*_{o_{i+1}}`` is
  ``o_{i+1} - 1 = 2 o_i``, it contains a subgroup of prime order
  ``o_i``, which is exactly ``G_i``.

Generators "whose discrete logarithms to their bases are unknown" are
derived by hashing a public label into the group (nothing-up-my-sleeve
construction), matching the MA's obligation in the paper's setup.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from repro._util import rand_range
from repro.crypto import fastexp
from repro.crypto.cunningham import CunninghamChain, find_chain, known_chain
from repro.crypto.hashing import hash_to_int
from repro.crypto.ntheory import is_probable_prime, legendre_all, random_safe_prime

__all__ = [
    "SchnorrGroup",
    "GroupTower",
    "build_tower",
]


@dataclass(frozen=True)
class SchnorrGroup:
    """The order-*q* subgroup of ``Z_p^*`` where ``q | p - 1``.

    Elements are plain ints in ``[1, p)``; exponents live in ``Z_q``.
    """

    p: int
    q: int
    g: int

    def __post_init__(self) -> None:
        if (self.p - 1) % self.q != 0:
            raise ValueError("q must divide p - 1")
        if not (1 < self.g < self.p):
            raise ValueError("generator out of range")
        if pow(self.g, self.q, self.p) != 1:
            raise ValueError("g does not have order dividing q")
        if self.g == 1:
            raise ValueError("g is the identity")

    # -- group operations -------------------------------------------------
    def exp(self, base: int, exponent: int) -> int:
        """``base ** exponent`` in the group (exponent reduced mod q)."""
        return pow(base, exponent % self.q, self.p)

    def power(self, exponent: int) -> int:
        """``g ** exponent`` for the canonical generator."""
        return self.exp(self.g, exponent)

    def exp_fixed(self, base: int, exponent: int) -> int:
        """:meth:`exp` through the fixed-base window-table cache.

        Bit-identical to :meth:`exp`; about 4× faster at a storey's
        70-bit modulus once *base* has been promoted (market generators,
        long-lived public keys).  Use it for bases that recur across
        calls, plain :meth:`exp` for per-proof values.
        """
        return fastexp.exp_fixed(base, self.p, exponent, order=self.q)

    def power_fixed(self, exponent: int) -> int:
        """:meth:`power` through the fixed-base window-table cache."""
        return fastexp.exp_fixed(self.g, self.p, exponent, order=self.q)

    def warm_fixed(self, *bases: int) -> None:
        """Eagerly build window tables for known-hot *bases*."""
        for base in bases:
            fastexp.warm_fixed_base(base, self.p, order=self.q)

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        return pow(a, self.p - 2, self.p)

    def contains(self, a: int) -> bool:
        """Membership test: a nonzero element of order dividing *q*."""
        return self.contains_all((a,))

    def contains_all(self, elements: Sequence[int]) -> bool:
        """Whether every element of *elements* passes :meth:`contains`.

        For a safe prime ``p = 2q + 1`` Euler's criterion ``a^q ≡ (a/p)``
        lets the Legendre symbol decide it, one batch per call
        (:func:`~repro.crypto.ntheory.legendre_all`); other moduli (the
        tower's top storey) keep the exponentiation, on the kernel
        (:func:`~repro.crypto.fastexp.powm`: elements are public).  The
        range check runs first, in Python, for every element.
        """
        p, q = self.p, self.q
        if not all(0 < a < p for a in elements):
            return False
        if p == 2 * q + 1:
            return legendre_all(elements, p)
        powm = fastexp.powm
        return all(powm(a, q, p) == 1 for a in elements)

    # -- sampling ----------------------------------------------------------
    def random_exponent(self, rng: random.Random) -> int:
        """Uniform exponent in ``[1, q)``."""
        return rand_range(rng, 1, self.q)

    def random_element(self, rng: random.Random) -> int:
        """Uniform non-identity element of the subgroup."""
        return self.power(self.random_exponent(rng))

    def derive_generator(self, label: bytes) -> int:
        """Hash *label* to an independent generator (unknown DL to ``g``).

        The cofactor exponentiation maps an arbitrary ``Z_p^*`` element
        into the order-*q* subgroup; a counter is appended until the
        result is not the identity.
        """
        cofactor = (self.p - 1) // self.q
        counter = 0
        while True:
            seed = hash_to_int(b"repro.groups.generator", label, counter.to_bytes(4, "big"))
            candidate = pow(2 + seed % (self.p - 3), cofactor, self.p)
            if candidate != 1:
                return candidate
            counter += 1

    @classmethod
    def generate(cls, bits: int, rng: random.Random) -> "SchnorrGroup":
        """Fresh safe-prime group: ``p = 2q + 1``, generator of order *q*."""
        p = random_safe_prime(bits, rng)
        q = (p - 1) // 2
        while True:
            h = rand_range(rng, 2, p - 1)
            g = pow(h, 2, p)  # cofactor 2
            if g != 1:
                return cls(p=p, q=q, g=g)

    @classmethod
    def from_order(cls, q: int, rng: random.Random, *, max_k: int = 1 << 20) -> "SchnorrGroup":
        """Group of the given prime order *q*: find ``p = k*q + 1`` prime.

        This is how each storey of the DEC tower is realized — the
        *order* is dictated by the Cunningham chain, and we search for a
        modulus that exposes a subgroup of exactly that order.
        """
        if not is_probable_prime(q):
            raise ValueError("order must be prime")
        k = 2
        while k < max_k:
            p = k * q + 1
            if is_probable_prime(p):
                cofactor = k
                while True:
                    h = rand_range(rng, 2, p - 1)
                    g = pow(h, cofactor, p)
                    if g != 1 and pow(g, q, p) == 1:
                        return cls(p=p, q=q, g=g)
            k += 2 if q % 2 == 1 else 1
        raise RuntimeError(f"no modulus found for order {q}")


@dataclass(frozen=True)
class GroupTower:
    """The DEC group tower ``G, G_1, ..., G_{L+1}``.

    ``levels[i]`` is the group ``G_{i+1}`` (0-indexed).  Orders satisfy
    ``order(levels[i+1]) = 2 * order(levels[i]) + 1``; consequently each
    group's order is an element of a Cunningham chain and the classic
    "double discrete logarithm" relation holds between adjacent storeys:
    an exponent in ``G_{i+1}`` can itself be a group element of ``G_i``.

    Attributes
    ----------
    chain:
        The first-kind Cunningham chain supplying the orders.
    levels:
        ``L + 1`` Schnorr groups, smallest order first.
    extra_generators:
        Per-level independent generators (``h`` bases) with unknown
        mutual discrete logarithms, required by the coin commitments.
    """

    chain: CunninghamChain
    levels: tuple[SchnorrGroup, ...]
    extra_generators: tuple[tuple[int, ...], ...] = field(default=())

    @property
    def depth(self) -> int:
        """Tree level L supported by this tower (``len(levels) - 1``)."""
        return len(self.levels) - 1

    def group(self, i: int) -> SchnorrGroup:
        """The group ``G_{i+1}`` (0-indexed storey *i*)."""
        return self.levels[i]

    def verify(self) -> bool:
        """Check the chain relation between consecutive storey orders."""
        orders = [grp.q for grp in self.levels]
        return all(orders[i + 1] == 2 * orders[i] + 1 for i in range(len(orders) - 1))


def build_tower(
    level: int,
    rng: random.Random,
    *,
    chain: CunninghamChain | None = None,
    chain_bits: int = 16,
    generators_per_level: int = 4,
    use_known_chain: bool = True,
) -> GroupTower:
    """Run ``Setup(DEC)``: construct the group tower for tree level *level*.

    A coin of denomination ``2^level`` needs a tree of ``level + 1``
    node layers, hence a chain of ``level + 1`` primes.  When
    *use_known_chain* is set (the default, mirroring the paper's offline
    setup) the precomputed chain table is consulted first; otherwise —
    or when the table has no entry — the randomized search runs, which
    is the expensive path Fig. 2 measures.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    length = level + 1
    if chain is None:
        if use_known_chain:
            try:
                chain = known_chain(length)
            except KeyError:
                chain = find_chain(length, chain_bits, rng)
        else:
            chain = find_chain(length, chain_bits, rng)
    if chain.length < length:
        raise ValueError(f"chain of length {chain.length} too short for level {level}")

    orders = chain.primes()[: length + 1]  # may include one extra for the top modulus
    levels = []
    extra: list[tuple[int, ...]] = []
    for idx in range(length):
        order = orders[idx]
        if idx + 1 < len(orders):
            # chain link: modulus is the NEXT chain prime, so this
            # storey's elements are exponents of the next storey —
            # the double-discrete-log relation the spend proofs need.
            p = orders[idx + 1]
            while True:
                h = rand_range(rng, 2, p - 1)
                g = pow(h, 2, p)  # cofactor 2 (p = 2*order + 1)
                if g != 1:
                    break
            grp = SchnorrGroup(p=p, q=order, g=g)
        else:
            # topmost storey hosts no further exponents; any modulus
            # exposing an order-`order` subgroup will do.
            grp = SchnorrGroup.from_order(order, rng)
        levels.append(grp)
        extra.append(
            tuple(
                grp.derive_generator(b"tower-level-%d-gen-%d" % (idx, j))
                for j in range(generators_per_level)
            )
        )
    return GroupTower(chain=chain, levels=tuple(levels), extra_generators=tuple(extra))
