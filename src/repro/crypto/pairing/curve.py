"""Supersingular elliptic curve ``y^2 = x^3 + x`` over F_p, p ≡ 3 (mod 4).

For such *p* the curve is supersingular with exactly ``p + 1`` points,
and the *distortion map* ``ψ(x, y) = (-x, i*y)`` sends F_p-rational
points to points defined over ``F_{p^2}`` that are linearly independent
of them — which is what makes the symmetric Tate pairing
``ê(P, Q) = e(P, ψ(Q))`` non-degenerate (see
:mod:`repro.crypto.pairing.tate`).

:class:`Point` carries its coordinates as
:class:`~repro.crypto.pairing.field.Fp2` elements; the point at
infinity is :meth:`Point.infinity` (``is_infinity`` flag).  Arithmetic
on F_p-rational points — all of G1 — runs on plain ints in Jacobian
coordinates: ``(X, Y, Z)`` is the affine ``(X/Z², Y/Z³)`` and ``Z = 0``
is infinity, so additions and doublings need no inversion, and a
result is normalised to affine once (one inversion; one Montgomery
batch inversion for a whole :class:`PointTable`).  The affine ``Fp2``
law, one F_{p²} inversion per addition, is left only for points off
F_p, which the distortion map makes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.crypto import fastexp
from repro.crypto.ntheory import is_probable_prime, sqrt_mod_prime
from repro.crypto.pairing.field import Fp2

__all__ = ["CurveParams", "Point", "PointTable", "generate_curve"]


@dataclass(frozen=True)
class CurveParams:
    """Parameters of the pairing group.

    Attributes
    ----------
    p:
        Field characteristic, ``p ≡ 3 (mod 4)``.
    r:
        Prime order of the pairing subgroup.
    cofactor:
        ``(p + 1) // r``.
    generator:
        A point of exact order *r* in ``E(F_p)``.
    """

    p: int
    r: int
    cofactor: int
    generator: "Point"

    def __post_init__(self) -> None:
        if self.p % 4 != 3:
            raise ValueError("p must be ≡ 3 (mod 4) for the supersingular curve")
        if (self.p + 1) != self.r * self.cofactor:
            raise ValueError("r * cofactor must equal p + 1 (the curve order)")


@dataclass(frozen=True)
class Point:
    """A point on ``y^2 = x^3 + x`` with F_{p^2} coordinates."""

    x: Fp2
    y: Fp2
    p: int
    is_infinity: bool = False

    # -- constructors -----------------------------------------------------
    @classmethod
    def infinity(cls, p: int) -> "Point":
        zero = Fp2.zero(p)
        return cls(zero, zero, p, is_infinity=True)

    @classmethod
    def from_base(cls, x: int, y: int, p: int) -> "Point":
        """Build an F_p-rational point from int coordinates (validated)."""
        pt = cls(Fp2.from_base(x, p), Fp2.from_base(y, p), p)
        if not pt.on_curve():
            raise ValueError(f"({x}, {y}) is not on y^2 = x^3 + x over F_{p}")
        return pt

    # -- predicates ----------------------------------------------------------
    def on_curve(self) -> bool:
        if self.is_infinity:
            return True
        lhs = self.y * self.y
        rhs = self.x * self.x * self.x + self.x
        return lhs == rhs

    def is_base_field(self) -> bool:
        """Whether both coordinates lie in F_p."""
        return self.is_infinity or (self.x.b == 0 and self.y.b == 0)

    # -- group law -----------------------------------------------------------
    def __neg__(self) -> "Point":
        if self.is_infinity:
            return self
        return Point(self.x, -self.y, self.p)

    def __add__(self, other: "Point") -> "Point":
        if self.p != other.p:
            raise ValueError("curve mismatch")
        if self.is_infinity:
            return other
        if other.is_infinity:
            return self
        if not (self.is_base_field() and other.is_base_field()):
            return _fp2_add(self, other)
        p = self.p
        return _point(_affine(_jadd(_jacobian(self), _jacobian(other), p), p), p)

    def __sub__(self, other: "Point") -> "Point":
        return self + (-other)

    def multiply(self, k: int) -> "Point":
        """Scalar multiplication by double-and-add (k may be negative)."""
        if k < 0:
            return (-self).multiply(-k)
        if self.is_infinity:
            return self
        if self.is_base_field():
            return _point(_affine(_jmul(_jacobian(self), k, self.p), self.p), self.p)
        result = Point.infinity(self.p)
        addend = self
        while k:
            if k & 1:
                result = result + addend
            addend = addend + addend
            k >>= 1
        return result

    def distort(self) -> "Point":
        """Distortion map ``ψ(x, y) = (-x, i*y)``.

        Maps an F_p-rational point to one over F_{p^2}; the image is on
        the curve because ``(-x)^3 + (-x) = -(x^3 + x) = -y^2 = (i y)^2``.
        """
        if self.is_infinity:
            return self
        ix_y = Fp2(-self.y.b, self.y.a, self.p)  # i * y
        return Point(-self.x, ix_y, self.p)

    def encode(self) -> tuple[int, int, int, int, bool]:
        """Canonical hashable encoding (for transcripts and dict keys)."""
        return (self.x.a, self.x.b, self.y.a, self.y.b, self.is_infinity)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_infinity:
            return "Point(infinity)"
        return f"Point({self.x!r}, {self.y!r})"


def _fp2_add(P: Point, Q: Point) -> Point:
    """The affine chord-and-tangent law on ``Fp2`` coordinates, for
    finite points off F_p (one F_{p²} inversion)."""
    if P.x == Q.x:
        if P.y == -Q.y:
            return Point.infinity(P.p)
        # doubling: λ = (3x^2 + 1) / 2y   (curve a-coefficient is 1)
        num = P.x * P.x
        num = num.scalar_mul(3) + Fp2.one(P.p)
        lam = num / P.y.scalar_mul(2)
    else:
        lam = (Q.y - P.y) / (Q.x - P.x)
    x3 = lam * lam - P.x - Q.x
    y3 = lam * (P.x - x3) - P.y
    return Point(x3, y3, P.p)


# -- G1 on ints: Jacobian (X, Y, Z) = affine (X/Z², Y/Z³); Z = 0 is O --------

_O = (1, 1, 0)


def _jacobian(P: Point) -> tuple[int, int, int]:
    """An F_p-rational point as a Jacobian triple (``Z = 1``, or ``_O``)."""
    if P.is_infinity:
        return _O
    if not P.is_base_field():
        raise ValueError("not an F_p-rational point")
    return P.x.a, P.y.a, 1


def _point(xy: tuple[int, int] | None, p: int) -> Point:
    """The :class:`Point` of an affine int pair (``None`` is infinity)."""
    if xy is None:
        return Point.infinity(p)
    return Point(Fp2(xy[0], 0, p), Fp2(xy[1], 0, p), p)


def _jdouble(P: tuple[int, int, int], p: int) -> tuple[int, int, int]:
    """``2·P``; ``Y = 0`` (order 2) and ``Z = 0`` double to ``Z = 0``."""
    X, Y, Z = P
    YY = Y * Y % p
    S = 4 * X * YY % p
    ZZ = Z * Z % p
    M = (3 * X * X + ZZ * ZZ) % p
    X3 = (M * M - 2 * S) % p
    return X3, (M * (S - X3) - 8 * YY * YY) % p, 2 * Y * Z % p


def _jadd(P: tuple[int, int, int], Q: tuple[int, int, int], p: int) -> tuple[int, int, int]:
    """``P + Q``, doubling when they are equal; a ``Z = 1`` operand
    (an affine table entry) skips its own squarings."""
    X1, Y1, Z1 = P
    X2, Y2, Z2 = Q
    if not Z1:
        return Q
    if not Z2:
        return P
    ZZ1 = Z1 * Z1 % p
    if Z2 == 1:
        U1, S1 = X1, Y1
    else:
        ZZ2 = Z2 * Z2 % p
        U1, S1 = X1 * ZZ2 % p, Y1 * Z2 * ZZ2 % p
    H = (X2 * ZZ1 - U1) % p
    R = (Y2 * Z1 * ZZ1 - S1) % p
    if not H:
        # ±P: doubled or cancelled
        return _jdouble(P, p) if not R else _O
    HH = H * H % p
    HHH = H * HH % p
    V = U1 * HH % p
    X3 = (R * R - HHH - 2 * V) % p
    return X3, (R * (V - X3) - S1 * HHH) % p, Z1 * Z2 * H % p


def _jmul(P: tuple[int, int, int], k: int, p: int) -> tuple[int, int, int]:
    """``[k]·P`` for ``k ≥ 0``: left-to-right double-and-add, no inversion."""
    if not k:
        return _O
    acc = P
    for bit in bin(k)[3:]:
        acc = _jdouble(acc, p)
        if bit == "1":
            acc = _jadd(acc, P, p)
    return acc


def _affine(P: tuple[int, int, int], p: int) -> tuple[int, int] | None:
    """Normalise a Jacobian triple with one inversion (``None`` is O)."""
    X, Y, Z = P
    if not Z:
        return None
    zi = pow(Z, -1, p)
    zz = zi * zi % p
    return X * zz % p, Y * zz * zi % p


def _batch_normalise(points: list[tuple[int, int, int]], p: int) -> list[tuple[int, int, int]]:
    """Every point rescaled to ``Z = 1`` (``_O`` stays) with one inversion:
    Montgomery's trick, invert the product of the ``Z``s, then peel it back."""
    prefix = []
    acc = 1
    for _, _, Z in points:
        if Z:
            acc = acc * Z % p
        prefix.append(acc)
    inv = pow(acc, -1, p)
    out = [_O] * len(points)
    for i in range(len(points) - 1, -1, -1):
        X, Y, Z = points[i]
        if not Z:
            continue
        zi = inv * (prefix[i - 1] if i else 1) % p
        inv = inv * Z % p
        zz = zi * zi % p
        out[i] = (X * zz % p, Y * zz * zi % p, 1)
    return out


class PointTable:
    """Fixed-window table for a fixed F_p-rational point *base*.

    Row *i* holds ``d·2^(w·i)·base`` for every digit ``d < 2^w``, as an
    affine triple ``(x, y, 1)`` (``_O`` for the identity), so
    :meth:`exp` is one mixed Jacobian addition per non-zero *w*-bit
    digit of the scalar, no doubling, and one inversion at the end.
    The build runs in Jacobian coordinates and normalises every entry
    with one batch inversion.
    """

    __slots__ = ("base", "p", "bits", "window", "_rows")

    def __init__(self, base: tuple[int, int], p: int, bits: int, *, window: int = 4) -> None:
        if bits < 1 or window < 1:
            raise ValueError("bits and window must be positive")
        self.base, self.p, self.bits, self.window = base, p, bits, window
        rows = fastexp._window_rows(_O, lambda a, b: _jadd(a, b, p), (*base, 1), bits, window)
        flat = _batch_normalise([pt for row in rows for pt in row[1:]], p)
        width = (1 << window) - 1
        self._rows = [[_O] + flat[i:i + width] for i in range(0, len(flat), width)]

    def exp(self, k: int) -> tuple[int, int] | None:
        """``[k]·base`` as an affine int pair (``None`` is infinity)."""
        if k < 0 or k.bit_length() > self.bits:
            raise ValueError("scalar outside the precomputed range")
        p = self.p
        w = self.window
        mask = (1 << w) - 1
        acc = _O
        for row in self._rows:
            if not k:
                break
            digit = k & mask
            if digit:
                acc = _jadd(acc, row[digit], p)
            k >>= w
        return _affine(acc, p)


def _random_base_point(p: int, rng: random.Random) -> Point:
    """Uniform-ish F_p-rational point: sample x until x^3+x is a square."""
    while True:
        x = rng.randrange(1, p)
        rhs = (x * x * x + x) % p
        if rhs == 0:
            continue
        if pow(rhs, (p - 1) // 2, p) != 1:
            continue
        y = sqrt_mod_prime(rhs, p)
        if rng.getrandbits(1):
            y = p - y
        return Point.from_base(x, y, p)


#: bound of the cofactor search (the known chains' storey-0 primes need at most 196)
_MAX_COFACTOR = 1 << 24


def generate_curve(r: int, rng: random.Random) -> CurveParams:
    """Generate pairing parameters whose subgroup has prime order *r*.

    Searches cofactors ``c ≡ 0 (mod 4)`` upward from 4 until
    ``p = c*r - 1`` is prime (it is then ≡ 3 (mod 4)); then clears the
    cofactor off random points until one of exact order *r* appears.
    """
    if r % 2 == 0 or not is_probable_prime(r):
        raise ValueError("subgroup order must be an odd prime")
    for c in range(4, _MAX_COFACTOR, 4):
        p = c * r - 1
        if is_probable_prime(p):
            for _ in range(64):
                pt = _random_base_point(p, rng).multiply(c)
                if not pt.is_infinity:
                    if not pt.multiply(r).is_infinity:
                        raise AssertionError("cofactor clearing failed (order bug)")
                    return CurveParams(p=p, r=r, cofactor=c, generator=pt)
    raise ValueError(f"no cofactor below {_MAX_COFACTOR} makes c*r - 1 prime")
