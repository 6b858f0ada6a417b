"""Tate pairing via Miller's algorithm.

We compute the *reduced modified Tate pairing*

    ê(P, Q) = f_{r,P}(ψ(Q)) ^ ((p² - 1) / r)   ∈ μ_r ⊂ F_{p²}*

for ``P, Q`` in the order-*r* subgroup of ``E(F_p)``, where ψ is the
distortion map of :meth:`~repro.crypto.pairing.curve.Point.distort`.
Because ψ(Q) is linearly independent of P, the map is non-degenerate
even at ``Q = P`` — giving a *symmetric* pairing ``G × G → G_T`` as the
Camenisch–Lysyanskaya signature scheme assumes.

The Miller loop drops every denominator.  At ``ψ(Q) = (−x_Q, i·y_Q)``
a vertical line ``x − x_T`` evaluates into F_p^*, which the final
exponentiation ``(p − 1)·(p + 1)/r`` sends to 1, so verticals are
skipped; the chord or tangent with slope λ through ``T`` evaluates to
``(λ·x_Q + k) + i·y_Q`` with ``k = λ·x_T − y_T`` (never 0: ``y_Q ≠ 0``
at odd order).  A step is one squaring and one line multiply on
``(a, b)`` int pairs, with no inversion.  Raw Miller values differ
from the textbook ``f_{r,P}(ψ(Q))`` by an F_p^* factor; pairing values
do not.  Arguments are read as F_p-rational points (see
:meth:`TatePairing.pairable`).
"""

from __future__ import annotations

from repro.crypto import fastexp
from repro.crypto.pairing.curve import CurveParams, Point, PointTable, _jmul, _point
from repro.crypto.pairing.field import Fp2

__all__ = [
    "miller_loop",
    "tate_pairing",
    "final_exponentiation",
    "MillerTable",
    "TatePairing",
]

_ONE = (1, 0)


def _fp2_pow(a: int, b: int, e: int, p: int) -> tuple[int, int]:
    """``(a + b·i)^e`` for ``e ≥ 0`` by square-and-multiply on ints.

    A squaring is ``((a + b)(a − b), 2ab)``: two multiplies, not four.
    With the kernel loaded, int operands with ``e, p > 0`` take its
    copy of this loop.
    """
    if not e:
        return _ONE
    kernel = fastexp.KERNEL
    if kernel is not None and type(a) is type(b) is type(e) is type(p) is int and e > 0 and p > 0:
        fastexp.KERNEL_CALLS["fp2_pow_c"] += 1
        return kernel.fp2_pow(a, b, e, p)
    fastexp.KERNEL_CALLS["fp2_pow_py"] += 1
    ra, rb = a % p, b % p
    for bit in bin(e)[3:]:
        ra, rb = (ra + rb) * (ra - rb) % p, 2 * ra * rb % p
        if bit == "1":
            ra, rb = (ra * a - rb * b) % p, (ra * b + rb * a) % p
    return ra, rb


def _add(t, u, p: int):
    """``(λ, k, t + u)`` for affine F_p points given as int pairs.

    ``None`` is the point at infinity.  λ and ``k = λ·x_t − y_t`` describe
    the chord (tangent when ``t == u``) through *t* and *u*; both are
    ``None`` when that line is vertical.  Affine, because the line
    needs λ: this is the Miller walk's step, not the group law (that is
    :mod:`~repro.crypto.pairing.curve`'s Jacobian one).
    """
    if t is None or u is None:
        return None, None, (u if t is None else t)
    (xt, yt), (xu, yu) = t, u
    if xt == xu:
        if (yt + yu) % p == 0:
            return None, None, None
        lam = (3 * xt * xt + 1) * pow(2 * yt, -1, p) % p
    else:
        lam = (yu - yt) * pow(xu - xt, -1, p) % p
    x3 = (lam * lam - xt - xu) % p
    return lam, (lam * xt - yt) % p, (x3, (lam * (xt - x3) - yt) % p)


def _line_walk(P: Point, r: int) -> list[tuple]:
    """The double-and-add walk of ``f_{r,P}`` as replayable line steps.

    One ``(is_double, λ, k)`` per chord/tangent.  A vertical on an
    addition step is left out (it contributes an F_p^* factor and
    nothing else); a vertical on a doubling step keeps its squaring as
    ``(True, None, None)``.
    """
    if P.is_infinity:
        raise ValueError("Miller loop inputs must be finite points")
    p = P.p
    start = (P.x.a, P.y.a)
    T = start
    steps: list[tuple] = []
    for bit in bin(r)[3:]:
        lam, k, T = _add(T, T, p)
        steps.append((True, lam, k))
        if bit == "1":
            lam, k, T = _add(T, start, p)
            if lam is not None:
                steps.append((False, lam, k))
    return steps


def _replay(steps: list[tuple], Q: Point, p: int) -> tuple[int, int]:
    """Evaluate a line walk at ψ(Q): the raw Miller value as an int pair."""
    fastexp.KERNEL_CALLS["replay_py"] += 1
    xq, yq = Q.x.a, Q.y.a
    fa, fb = 1, 0
    for is_double, lam, k in steps:
        if is_double:
            fa, fb = (fa + fb) * (fa - fb) % p, 2 * fa * fb % p
            if lam is None:
                continue
        la = lam * xq + k
        fa, fb = (fa * la - fb * yq) % p, (fa * yq + fb * la) % p
    return fa, fb


def miller_loop(P: Point, Q: Point, r: int) -> Fp2:
    """The denominator-free Miller value ``f_{r,P}(ψ(Q))``.

    Equal to the textbook value up to an F_p^* factor, which
    :func:`final_exponentiation` removes.  *Q* is the undistorted
    point; the loop evaluates at ``ψ(Q)`` itself.
    """
    if Q.is_infinity:
        raise ValueError("Miller loop inputs must be finite points")
    return Fp2(*_replay(_line_walk(P, r), Q, P.p), P.p)


def final_exponentiation(params: CurveParams, f: Fp2) -> Fp2:
    """Map a raw Miller value into μ_r: ``f ^ ((p² - 1) / r)``.

    This is a *multiplicative homomorphism* ``F_{p²}* → μ_r``, so a
    product of raw Miller values needs only ONE final exponentiation.
    It also commutes with conjugation, and ``conj(ê) = ê^p = ê^{-1}`` on
    μ_r, so ``finalexp(raw_1 · conj(raw_2)) = ê_1 / ê_2`` — the quotient
    :meth:`TatePairing.pair_ratio` computes.
    """
    p = params.p
    fa, fb = f.a, f.b
    norm = (fa * fa + fb * fb) % p
    if not norm:
        raise ZeroDivisionError("final exponentiation of zero")
    # x^(p-1) = conj(x)/x = conj(x)^2 / N(x)  (Frobenius is conjugation)
    inv = pow(norm, -1, p)
    ga = (fa + fb) * (fa - fb) * inv % p
    gb = -2 * fa * fb * inv % p
    return Fp2(*_fp2_pow(ga, gb, (p + 1) // params.r, p), p)


def _field_int(value, p: int) -> bool:
    return type(value) is int and 0 <= value < p


#: step flags of a packed line walk (the kernel's ``STEP_*``)
_STEP_DOUBLE, _STEP_VERTICAL = 1, 2


def _pack_steps(kernel, steps: list[tuple], p: int) -> tuple[bytes, int]:
    """A line walk as the kernel's buffer of ``(flag, λ, k)`` triples."""
    flat: list[int] = []
    for is_double, lam, k in steps:
        if lam is None:
            flat += (_STEP_DOUBLE | _STEP_VERTICAL, 0, 0)
        else:
            flat += (_STEP_DOUBLE if is_double else 0, lam, k)
    limbs = fastexp.kernel_limbs(kernel, p)
    return kernel.pack(flat, limbs), limbs


class MillerTable:
    """Precomputed Miller loop for a *fixed* first pairing argument.

    The double-and-add walk of ``f_{r,P}`` depends only on ``P`` and
    ``r``, so its line steps ``(is_double, λ, k)`` are derived once
    (:func:`_line_walk`, the walk :func:`miller_loop` runs too).
    :meth:`raw` replays them against any ``Q``: per step one squaring
    on doubling steps and one ``(λ·x_Q + k) + i·y_Q`` multiply, with no
    vertical lines and no inversion.  Results after the final
    exponentiation are bit-identical to :func:`tate_pairing`; the build
    costs about one pairing.  With the kernel loaded, replays run its
    copy of :func:`_replay` over the steps packed into one buffer, which
    the first such replay builds (never pickled or exported: a table
    rebuilt from :meth:`to_state` packs its own).
    """

    __slots__ = ("params", "point", "_steps", "_packed")

    def __init__(self, params: CurveParams, P: Point) -> None:
        if P.is_infinity:
            raise ValueError("cannot precompute the Miller loop at infinity")
        self.params = params
        self.point = P
        self._steps = _line_walk(P, params.r)
        self._packed: tuple[bytes, int] | None = None

    def raw(self, Q: Point) -> tuple[int, int]:
        """The denominator-free Miller value ``f_{r,point}(ψ(Q))`` as an
        ``(a, b)`` int pair (before the final exponentiation)."""
        if Q.is_infinity:
            return _ONE
        p = self.params.p
        kernel = fastexp.KERNEL
        xq, yq = Q.x.a, Q.y.a
        if kernel is not None and type(xq) is type(yq) is int:
            fastexp.KERNEL_CALLS["replay_c"] += 1
            if self._packed is None:
                self._packed = _pack_steps(kernel, self._steps, p)
            buf, limbs = self._packed
            return kernel.replay(buf, limbs, xq, yq, p)
        return _replay(self._steps, Q, p)

    def pair(self, Q: Point) -> Fp2:
        """``ê(point, Q)`` — bit-identical to :func:`tate_pairing`."""
        p = self.params.p
        if Q.is_infinity:
            return Fp2.one(p)
        return final_exponentiation(self.params, Fp2(*self.raw(Q), p))

    # -- serialization (shared-memory table transport) --------------------
    def to_state(self) -> dict:
        """Plain-int snapshot (the line steps ARE the payload)."""
        return {"point": self.point.encode(), "steps": list(self._steps)}

    @classmethod
    def from_state(cls, params: CurveParams, state: dict) -> "MillerTable":
        """Rebuild from :meth:`to_state`; every int must lie in ``[0, p)``."""
        p = params.p
        xa, xb, ya, yb, inf = state["point"]
        if inf:
            raise ValueError("Miller table state at infinity")
        if not all(_field_int(v, p) for v in (xa, xb, ya, yb)):
            raise ValueError("Miller table point out of range")
        steps: list[tuple] = []
        for is_double, lam, k in state["steps"]:
            if type(is_double) is not bool:
                raise ValueError("malformed Miller step")
            if lam is None and k is None and is_double:
                steps.append((True, None, None))
            elif _field_int(lam, p) and _field_int(k, p):
                steps.append((is_double, lam, k))
            else:
                raise ValueError("malformed Miller step")
        table = cls.__new__(cls)
        table.params = params
        table.point = Point(Fp2(xa, xb, p), Fp2(ya, yb, p), p)
        table._steps = steps
        table._packed = None
        return table


def tate_pairing(params: CurveParams, P: Point, Q: Point) -> Fp2:
    """The reduced modified Tate pairing ``ê(P, Q)``.

    Both inputs must lie in the order-*r* subgroup of ``E(F_p)``.  The
    result is in the order-*r* subgroup of ``F_{p²}*`` (``1`` exactly
    when either input is the identity).
    """
    if P.is_infinity or Q.is_infinity:
        return Fp2.one(params.p)
    return final_exponentiation(params, miller_loop(P, Q, params.r))


#: curve identity -> the Miller and point tables a worker adopted (or
#: warmed) at spawn, decoded once; ``TatePairing.__setstate__`` attaches
#: them to the backend unpickled with every worker *chunk*, which would
#: otherwise start cold.  The tables are read-only once built (a Miller
#: table's lazily packed kernel buffer is the same either way), so
#: every backend of the process can hold the same objects.
_SHARED_TABLES: dict[tuple, tuple[list, list]] = {}


def _table_key(params: CurveParams) -> tuple:
    return (params.p, params.r, params.generator.encode())


class TatePairing:
    """Bilinear-group backend over the supersingular Tate pairing.

    Exposes the interface consumed by :mod:`repro.crypto.cl_sig`:
    source-group elements are :class:`Point`, target-group elements are
    :class:`Fp2`, scalars live in ``Z_r``.
    """

    name = "tate"

    def __init__(self, params: CurveParams) -> None:
        self.params = params
        self.order = params.r
        self.g = params.generator
        self._gt_gen: Fp2 | None = None
        self._init_caches()

    def _init_caches(self) -> None:
        """Per-backend table caches (lazy payloads, tiny when unused)."""
        self._pair_tables = fastexp.PromotionCache(
            "tate.pair",
            lambda point: MillerTable(self.params, point),
            max_entries=8,
            promote_after=2,
        )
        # keyed by the fixed point's affine int pair
        self._point_tables = fastexp.PromotionCache(
            "tate.exp",
            lambda xy: PointTable(xy, self.params.p, self.order.bit_length()),
            max_entries=8,
            promote_after=3,
        )

    # table caches hold closures and are rebuilt cheaply — keep them out
    # of pickles (DECParams ships this backend to worker processes)
    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_pair_tables", None)
        state.pop("_point_tables", None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._init_caches()
        shared = _SHARED_TABLES.get(_table_key(self.params))
        if shared is not None and fastexp.enabled():
            self._attach(*shared)

    # -- source group -------------------------------------------------------
    def exp(self, base: Point, scalar: int) -> Point:
        return base.multiply(scalar % self.order)

    def exp_fixed(self, base: Point, scalar: int) -> Point:
        """:meth:`exp` through a per-base window table (same result).

        A table exponentiation is one mixed Jacobian addition per
        non-zero window digit (20 at most on an 80-bit ``r``, against
        ~80 doublings and ~40 additions for double-and-add) and one
        inversion.  Only the promotion threshold gates it.
        """
        s = scalar % self.order
        if not fastexp.enabled() or base.is_infinity or not base.is_base_field():
            return base.multiply(s)
        xy = (base.x.a, base.y.a)
        table = self._point_tables.get(xy, xy)
        if table is None:
            return base.multiply(s)
        return _point(table.exp(s), self.params.p)

    def warm_exp_fixed(self, *bases: Point) -> None:
        """Eagerly build window tables for known-hot *bases*."""
        if not fastexp.enabled():
            return
        for base in bases:
            if not base.is_infinity and base.is_base_field():
                xy = (base.x.a, base.y.a)
                self._point_tables.force(xy, xy)

    def mul(self, a: Point, b: Point) -> Point:
        return a + b

    def identity(self) -> Point:
        return Point.infinity(self.params.p)

    def random_scalar(self, rng) -> int:
        return rng.randrange(1, self.order)

    def random_element(self, rng) -> Point:
        return self.exp(self.g, self.random_scalar(rng))

    def element_encode(self, a: Point) -> tuple:
        return a.encode()

    def pairable(self, a: Point) -> bool:
        """Whether *a* is a point whose pairings carry information.

        Refused: infinity; a point (or coordinate) under another
        modulus; imaginary coordinates (the Miller loop reads only real
        parts); a point off ``y² = x³ + x``; and a point with
        ``[h]·a = O`` for the cofactor *h*.  Every verification pairing
        walks its fixed argument (``g``, ``X``, ``Y``) and evaluates at
        the token's point, where the reduced pairing ignores any part
        of order prime to *r*; ``gcd(h, r) = 1``, so the last check
        leaves exactly the points with a non-trivial order-*r* part.
        Without it a 2-torsion "signature" pairs to 1 everywhere and
        passes verification (``docs/threatmodel.md``).  ``[h]·a`` runs
        on ints in Jacobian coordinates: ~20 µs at an 8-bit cofactor.
        """
        P = self._on_curve(a)
        return P is not None and _jmul(P, self.params.cofactor, self.params.p)[2] != 0

    def member(self, a) -> bool:
        """Whether *a* is a point of the order-*r* group other than O.

        :meth:`pairable`'s checks, but ``[r]·a = O`` in place of the
        cofactor test: for the points an issuer multiplies by its
        secrets (a commitment, a proof's commitment), where a point with
        a part outside ``<g>`` would come back in a signature.
        """
        P = self._on_curve(a)
        return P is not None and _jmul(P, self.order, self.params.p)[2] == 0

    def _on_curve(self, a) -> tuple[int, int, int] | None:
        """*a* as a Jacobian triple when it is a finite F_p-rational
        point under this backend's *p* on ``y² = x³ + x``; else ``None``."""
        p = self.params.p
        if type(a) is not Point or a.is_infinity or a.p != p:
            return None
        if type(a.x) is not Fp2 or type(a.y) is not Fp2 or a.x.p != p or a.y.p != p:
            return None
        if a.x.b or a.y.b:
            return None
        x, y = a.x.a, a.y.a
        if type(x) is not int or type(y) is not int or (y * y - x * x * x - x) % p:
            return None
        return x, y, 1

    # -- pairing / target group ----------------------------------------------
    def pair(self, a: Point, b: Point) -> Fp2:
        """``ê(a, b)``, served from a Miller table once either argument
        promotes.

        The fixed slots of spend verification — the generator ``g`` and
        the bank key components ``X``, ``Y`` — each appear in every
        deposit, so their tables build once and every later pairing
        skips the per-step line derivations.  The pairing is symmetric
        in this distorted construction (``ê(a,b) = ê(b,a)``, see the
        backend tests), so a table for *either* argument suffices.
        """
        p = self.params.p
        if a.is_infinity or b.is_infinity:
            return Fp2.one(p)
        return final_exponentiation(self.params, Fp2(*self._raw_pair(a, b), p))

    def pair_ratio(self, a: Point, b: Point, c: Point, d: Point) -> Fp2:
        """``ê(a, b) · ê(c, d)^{-1}`` with one final exponentiation.

        ``finalexp(raw(a, b) · conj(raw(c, d)))``: the final
        exponentiation commutes with conjugation, and ``conj(ê) = ê^{-1}``
        on μ_r — so the value is the quotient of the two pairings
        exactly, at the price of one.
        """
        p = self.params.p
        na, nb = self._raw_pair(a, b)
        da, db = self._raw_pair(c, d)
        return final_exponentiation(
            self.params, Fp2(na * da + nb * db, nb * da - na * db, p)
        )

    def warm_pair(self, *points: Point) -> None:
        """Eagerly build Miller tables for known-fixed pairing arguments."""
        if not fastexp.enabled():
            return
        for point in points:
            if not point.is_infinity:
                self._pair_tables.force(point.encode(), point)

    def _raw_pair(self, a: Point, b: Point) -> tuple[int, int]:
        """A pre-final-exponentiation Miller value whose final
        exponentiation is ``ê(a, b)``, as an ``(a, b)`` int pair.

        Replayed from the table of *a*, else of *b* (``f_{r,b}(ψ(a))``
        finalexps to ``ê(b, a) = ê(a, b)``), else a fresh Miller loop.
        Only meaningful inside a product that is final-exponentiated as
        a whole — the raw value is NOT the pairing.
        """
        if a.is_infinity or b.is_infinity:
            return _ONE
        if fastexp.enabled():
            table = self._pair_tables.get(a.encode(), a)
            if table is not None:
                return table.raw(b)
            table = self._pair_tables.get(b.encode(), b)
            if table is not None:
                return table.raw(a)
        return _replay(_line_walk(a, self.params.r), b, self.params.p)

    # -- table sharing -------------------------------------------------------
    def export_tables(self) -> dict:
        """Resident Miller + point-window tables as plain picklable state."""
        return {
            "pair": [table.to_state() for _, table in self._pair_tables.snapshot()],
            "exp": [table.to_state() for _, table in self._point_tables.snapshot()],
        }

    def install_tables(self, state: dict, *, register: bool = True) -> int:
        """Adopt exported tables; returns the count installed.

        With *register* (the default) the decoded tables are also parked
        in the process-level registry so backends unpickled later for the
        same curve (one per worker chunk) attach them automatically.
        """
        if not fastexp.enabled():
            return 0
        pair = [MillerTable.from_state(self.params, s) for s in state.get("pair", ())]
        exp = [PointTable.from_state(self.params.p, s) for s in state.get("exp", ())]
        self._attach(pair, exp)
        if register:
            _SHARED_TABLES[_table_key(self.params)] = (pair, exp)
        return len(pair) + len(exp)

    def register_shared(self) -> None:
        """Park this backend's resident tables for same-curve unpickles."""
        _SHARED_TABLES[_table_key(self.params)] = (
            [table for _, table in self._pair_tables.snapshot()],
            [table for _, table in self._point_tables.snapshot()],
        )

    def _attach(self, pair: list[MillerTable], exp: list[PointTable]) -> None:
        for table in pair:
            self._pair_tables.install(table.point.encode(), table)
        for table in exp:
            self._point_tables.install(table.base, table)

    def gt_mul(self, a: Fp2, b: Fp2) -> Fp2:
        return a * b

    def gt_exp(self, a: Fp2, scalar: int) -> Fp2:
        p = self.params.p
        return Fp2(*_fp2_pow(a.a, a.b, scalar % self.order, p), p)

    def gt_eq(self, a: Fp2, b: Fp2) -> bool:
        return a == b

    def gt_contains(self, a: Fp2) -> bool:
        """Membership in ``μ_r``, the order-*r* pairing subgroup of F_{p²}^*.

        An attacker-supplied G_T value (a proof's ``R_B``) must pass
        this gate before any G_T multiplication or exponentiation: F_{p²}^*
        carries a cofactor ``(p²-1)/r`` component, and a value with a
        part there is no pairing value at all.  μ_r lies in the norm-1
        group μ_(p+1), and ``gcd(r, p − 1) = 1`` makes norm 1 a
        consequence of ``a^r = 1``; so the norm ``a² + b²`` is checked
        first (it also rejects 0), then ``a^r`` as a raw field power —
        :meth:`gt_exp` reduces exponents mod *r*, which would make
        ``a^r`` vacuously the identity.
        """
        p = self.params.p
        if (a.a * a.a + a.b * a.b) % p != 1:
            return False
        return _fp2_pow(a.a, a.b, self.order, p) == _ONE

    def gt_one(self) -> Fp2:
        return Fp2.one(self.params.p)

    def gt_generator(self) -> Fp2:
        """ê(g, g) — cached; non-degeneracy makes it a G_T generator."""
        if self._gt_gen is None:
            self._gt_gen = self.pair(self.g, self.g)
        return self._gt_gen
