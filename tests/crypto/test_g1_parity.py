"""G1 on plain ints against the affine ``Fp2`` law, bit for bit.

Every F_p-rational operation — ``Point`` addition and scalar
multiplication, the backend's ``exp``, ``exp_fixed`` (window table,
built locally or adopted from an export) and ``mul`` —
runs in Jacobian coordinates on ints.  The reference here is the affine
chord-and-tangent law on ``Fp2`` coordinates (``curve._fp2_add``, one
F_{p²} inversion per addition), driven by plain double-and-add.  Points
include infinity, the order-2 point ``(0, 0)``, points whose order
divides the cofactor and points outside the order-*r* subgroup, and
scalars include ``0, 1, r − 1, r, r + 1, −1``.
"""

from __future__ import annotations

import random

from hypothesis import example, given, settings, strategies as st

from repro.crypto.cl_sig import CLSignature, cl_blind_issue, cl_blind_request, cl_keygen
from repro.crypto.pairing import TatePairing
from repro.crypto.pairing import curve
from repro.crypto.pairing.curve import Point, PointTable, generate_curve

CURVE = generate_curve(24, random.Random(7))
P, R = CURVE.p, CURVE.r
BACKEND = TatePairing(CURVE)


def _ref_add(A: Point, B: Point) -> Point:
    if A.is_infinity:
        return B
    if B.is_infinity:
        return A
    return curve._fp2_add(A, B)


def _ref_mul(A: Point, k: int) -> Point:
    if k < 0:
        return _ref_mul(-A, -k)
    acc, addend = Point.infinity(A.p), A
    while k:
        if k & 1:
            acc = _ref_add(acc, addend)
        addend = _ref_add(addend, addend)
        k >>= 1
    return acc


def _points() -> list[Point]:
    rng = random.Random(24)
    g = CURVE.generator
    whole = [curve._random_base_point(P, rng) for _ in range(4)]  # any order
    small = [_ref_mul(A, R) for A in whole]  # order divides the cofactor
    return ([Point.infinity(P), Point.from_base(0, 0, P), g, _ref_mul(g, 5)]
            + whole + [A for A in small if not A.is_infinity])


POINTS = _points()
INFINITY, ORDER_TWO, G = POINTS[0], POINTS[1], POINTS[2]
COFACTOR_ORDER = POINTS[-1]
assert not COFACTOR_ORDER.is_infinity and _ref_mul(COFACTOR_ORDER, CURVE.cofactor).is_infinity

points = st.sampled_from(POINTS)
scalars = st.integers(-3 * R, 3 * R)


def _edge_examples(test):
    for k in (0, 1, R - 1, R, R + 1, -1):
        test = example(A=G, k=k)(test)
    for A in (INFINITY, ORDER_TWO, COFACTOR_ORDER):
        test = example(A=A, k=R + 1)(test)
    return test


@settings(max_examples=80, deadline=None)
@given(A=points, k=scalars)
@_edge_examples
def test_scalar_multiply_matches_the_fp2_law(A, k):
    assert A.multiply(k) == _ref_mul(A, k)


@settings(max_examples=80, deadline=None)
@given(A=points, k=scalars)
@_edge_examples
def test_exp_and_exp_fixed_match_the_fp2_law(A, k):
    want = _ref_mul(A, k % R)
    assert BACKEND.exp(A, k) == want
    BACKEND.warm_exp_fixed(A)
    assert BACKEND.exp_fixed(A, k) == want
    if not A.is_infinity:
        table = PointTable((A.x.a, A.y.a), P, R.bit_length())
        adopted = PointTable.from_state(P, table.to_state())
        assert curve._point(adopted.exp(k % R), P) == want


@settings(max_examples=80, deadline=None)
@given(A=points, B=points)
@example(A=G, B=-G)
@example(A=ORDER_TWO, B=ORDER_TWO)
@example(A=G, B=G)
def test_addition_matches_the_fp2_law(A, B):
    want = _ref_add(A, B)
    assert A + B == want == BACKEND.mul(A, B)
    assert A - B == _ref_add(A, -B)


def test_issued_signature_is_the_textbook_formula(tate_backend):
    """``(g^α, Y^α, X^α · M^{αxy})`` from fixed-base tables is the
    signature ``(a, a^y, a^x · M^{αxy})`` with ``a = g^α``, for the same
    ``rng`` stream — before the key's tables promote and after."""
    backend = tate_backend
    rng = random.Random(19)
    keypair = cl_keygen(backend, rng)
    request, _ = cl_blind_request(backend, 4242, rng)
    r = backend.order
    for seed in range(6):
        sig = cl_blind_issue(backend, keypair, request, random.Random(seed))
        alpha = backend.random_scalar(random.Random(seed))
        a = _ref_mul(backend.g, alpha)
        c = _ref_add(_ref_mul(a, keypair.x),
                     _ref_mul(request.commitment, alpha * keypair.x * keypair.y % r))
        assert sig == CLSignature(a=a, b=_ref_mul(a, keypair.y), c=c)
    assert backend._point_tables.stats.hits > 0
