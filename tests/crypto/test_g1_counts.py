"""G1 cost, counted rather than timed.

One warm ``cl_blind_issue`` (the MA's work per ``withdraw``) and one
``create_spend`` per node level at ``setup(3)`` (Tate pairing of order
``q0``, 67 bits, over a 72-bit ``p``),
after :func:`warm_verification_tables` with the bank key.  Counted:

* ``add`` — calls of the Jacobian addition ``curve._jadd``;
* ``double`` — calls of the Jacobian doubling ``curve._jdouble``
  (an addition of a point to itself lands there too);
* ``inv`` — field inversions ``pow(·, −1, p)`` mod the curve's *p*:
  one affine normalisation per G1 result, plus one per final
  exponentiation of a pairing.

Issuance: the two ``[r]·P = O`` membership checks, the Schnorr check
(a table exponentiation of ``g``, ``M^e``, one addition) and the
signature (three table exponentiations on ``g``, ``Y``, ``X``, ``M^{αxy}``,
one addition) — 8 inversions.  A spend: three double-and-add
re-randomisations and two final exponentiations — 5 inversions.
Before the int group law the same calls cost one affine ``Fp2``
addition, and one F_{p²} inversion, per group operation (issuance:
467 additions, 498 inversions; a spend: 342–378 and 341–377).  The
counts are deterministic for the seeds below; a change to them is a
change to the G1 cost and says so here.  Building the pairing group on
storey 0's prime (67 bits, was an independent 80-bit ``r``) shortened
every scalar: issuance 238 → 223 additions and 313 → 262 doublings, a
level-0 spend 114 → 93 and 225 → 186.
"""

from __future__ import annotations

import builtins
import random

import pytest

from repro.crypto import fastexp
from repro.crypto.cl_sig import cl_blind_issue, cl_keygen
from repro.crypto.pairing import curve
from repro.ecash.dec import begin_withdrawal, finish_withdrawal, setup
from repro.ecash.spend import create_spend, warm_verification_tables
from repro.ecash.tree import NodeId

ISSUE = {"add": 223, "double": 262, "inv": 8}
SPEND = {
    0: {"add": 93, "double": 186, "inv": 5},
    1: {"add": 93, "double": 189, "inv": 5},
    2: {"add": 108, "double": 177, "inv": 5},
    3: {"add": 117, "double": 198, "inv": 5},
}


@pytest.fixture(scope="module")
def market():
    rng = random.Random(0x61)
    params = setup(3, rng)
    keypair = cl_keygen(params.backend, rng)
    secret, request = begin_withdrawal(params, rng)
    signature = cl_blind_issue(params.backend, keypair, request, rng)
    coin = finish_withdrawal(params, keypair.public, secret, signature)
    return params, keypair, request, coin


@pytest.fixture()
def warm(market):
    params, keypair, _, _ = market
    fastexp.reset()
    warm_verification_tables(params, keypair.public)
    yield
    fastexp.reset()


def _count(params, monkeypatch, run) -> dict[str, int]:
    p = params.backend.params.p
    counts = dict.fromkeys(("add", "double", "inv"), 0)
    real_pow, real_add, real_double = builtins.pow, curve._jadd, curve._jdouble

    def counting_pow(*args):
        if args[1:] == (-1, p):
            counts["inv"] += 1
        return real_pow(*args)

    def counting_add(P, Q, p):
        counts["add"] += 1
        return real_add(P, Q, p)

    def counting_double(P, p):
        counts["double"] += 1
        return real_double(P, p)

    with monkeypatch.context() as patch:
        patch.setattr(curve, "_jadd", counting_add)
        patch.setattr(curve, "_jdouble", counting_double)
        patch.setattr(builtins, "pow", counting_pow)
        run()
    return counts


def test_issuance(market, warm, monkeypatch):
    params, keypair, request, _ = market
    assert _count(params, monkeypatch, lambda: cl_blind_issue(
        params.backend, keypair, request, random.Random(1))) == ISSUE


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_spend(market, warm, level, monkeypatch):
    params, keypair, _, coin = market
    assert _count(params, monkeypatch, lambda: create_spend(
        params, keypair.public, coin.secret, coin.signature, NodeId(level, 0),
        random.Random(level))) == SPEND[level]
