"""The paper's "easy to find" bilinear map backend.

Section VI-B of the paper notes that instead of a cryptographic pairing
"it's also acceptable if anyone wants to map the multiplicative group
into an additive group, in this case, a bilinear map is very easy to
find, and the correctness of signature will still hold."  This module
is that construction: the source group is ``(Z_r, +)`` written through
the same interface as the Tate backend, and

    e(a, b) = g_T ^ (a * b mod r)

with ``g_T`` a fixed generator of a multiplicative target group.  The
map is bilinear and non-degenerate, so every CL-signature identity
holds — but discrete logs in the source group are trivial, so it offers
**no security**.  It exists (a) to mirror the paper's own shortcut, (b)
as a fast backend for protocol-level tests and benches where pairing
cost would drown the signal, and (c) as an oracle for differential
testing of the Tate backend.
"""

from __future__ import annotations

import random

from repro.crypto.groups import SchnorrGroup

__all__ = ["ToyPairing", "ToyPairingBatch"]


class ToyPairingBatch:
    """Amortized ``Π e(a_i, b_i)^{k_i} · Π t_j^{m_j} == 1`` for the toy map.

    ``e(a, b)^k = g_T^{a·b·k}``, so the whole product-of-pairings side
    collapses to ONE scalar accumulation mod *r* and a single
    fixed-base exponentiation — the toy-backend analogue of the Tate
    backend's shared final exponentiation (same :class:`PairingBatch`
    interface, consumed blindly by :mod:`repro.ecash.batch`).
    """

    def __init__(self, backend: "ToyPairing") -> None:
        self._backend = backend
        self._scalar = 0
        self._gt: list[int] = []
        self._gt_scalars: list[int] = []

    def add_pair(self, fixed: int, moving: int, exponent: int = 1) -> None:
        self._scalar = (self._scalar + fixed * moving * exponent) % self._backend.order

    def add_gt(self, element: int, exponent: int = 1) -> None:
        k = exponent % self._backend.order
        if k:
            self._gt.append(element)
            self._gt_scalars.append(k)

    def check(self) -> bool:
        target = self._backend.target
        value = target.power_fixed(self._scalar)
        if self._gt:
            value = target.mul(value, target.multi_exp(self._gt, self._gt_scalars))
        return value == 1 % target.p


class ToyPairing:
    """Structurally correct, intentionally insecure bilinear group.

    Source-group elements are ints mod *r* (exponents in disguise);
    target-group elements are elements of a Schnorr group of order *r*.
    """

    name = "toy"

    def __init__(self, target: SchnorrGroup) -> None:
        self.target = target
        self.order = target.q
        self.g = 1  # the additive generator of Z_r

    @classmethod
    def generate(cls, bits: int, rng: random.Random) -> "ToyPairing":
        """Build a toy backend whose target group has *bits*-bit modulus."""
        return cls(SchnorrGroup.generate(bits, rng))

    # -- source group -------------------------------------------------------
    def exp(self, base: int, scalar: int) -> int:
        return (base * scalar) % self.order

    def exp_fixed(self, base: int, scalar: int) -> int:
        # source-group exps are a single multiply; nothing to precompute
        return (base * scalar) % self.order

    def mul(self, a: int, b: int) -> int:
        return (a + b) % self.order

    def identity(self) -> int:
        return 0

    def multi_exp(self, bases, scalars) -> int:
        acc = 0
        for base, scalar in zip(bases, scalars):
            acc = (acc + base * scalar) % self.order
        return acc

    def random_scalar(self, rng: random.Random) -> int:
        return rng.randrange(1, self.order)

    def random_element(self, rng: random.Random) -> int:
        return rng.randrange(1, self.order)

    def element_encode(self, a: int) -> tuple:
        return (a,)

    def pairable(self, a: int) -> bool:
        return True

    def member(self, a: int) -> bool:
        """Whether *a* is a source-group element other than the identity."""
        return type(a) is int and 0 < a < self.order

    def warm_exp_fixed(self, *bases: int) -> None:
        # API parity with the Tate backend; no tables to build here
        return None

    # -- pairing / target group ----------------------------------------------
    def pair(self, a: int, b: int) -> int:
        # g_T is fixed for the backend's lifetime — the window-table
        # cache turns every pairing into table lookups once it promotes
        return self.target.power_fixed((a * b) % self.order)

    def pair_ratio(self, a: int, b: int, c: int, d: int) -> int:
        """``e(a, b) · e(c, d)^{-1} = g_T^(ab − cd)`` — one exponentiation."""
        return self.target.power_fixed((a * b - c * d) % self.order)

    def warm_pair(self, *points: int) -> None:
        """Warm the target-group generator table (the only fixed base)."""
        self.target.warm_fixed(self.target.g)

    def pairing_batch(self) -> ToyPairingBatch:
        """A fresh accumulator for one amortized product-of-pairings check."""
        return ToyPairingBatch(self)

    def gt_mul(self, a: int, b: int) -> int:
        return self.target.mul(a, b)

    def gt_exp(self, a: int, scalar: int) -> int:
        return self.target.exp(a, scalar)

    def gt_eq(self, a: int, b: int) -> bool:
        return a == b

    def gt_contains(self, a: int) -> bool:
        """Membership in the order-*q* target subgroup of Z_p^*.

        Same contract as the Tate backend's ``μ_r`` test: adversarial
        G_T values must land in the prime-order subgroup before they may
        join a random-linear-combination product (Z_p^* has a cofactor
        component whose small-order elements would escape the combined
        check).  Congruent-but-unreduced ints are accepted — every other
        target-group operation reduces mod p, so they behave identically
        to their reduced form in both sequential and batched checks.
        """
        return isinstance(a, int) and self.target.contains(a % self.target.p)

    def gt_one(self) -> int:
        return 1

    def gt_multi_exp(self, bases, scalars) -> int:
        return self.target.multi_exp(bases, scalars)

    def gt_generator(self) -> int:
        return self.target.power(1)
