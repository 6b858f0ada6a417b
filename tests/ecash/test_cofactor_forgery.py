"""Counterfeit tokens on points with no order-*r* part.

Every pairing the verifier computes against a point of order prime to
*r* is 1.  So a "signature" ``(T, T, T)`` on such a point makes the
equality proof's statement and base both 1: it holds for any secret,
and the token needs no bank signature at all.  Three such points are
tried:

* ``T = (0, 0)``, the curve's point of order 2;
* ``(1, 0)``, which is off the curve but doubles to O like ``T``;
* ``(0, 0)`` under another modulus, whose coordinates read as ``T``'s.

Each must be refused by ``verify_spend``, by ``batch_verify_spends``
beside honest tokens, and as a deposit the service refuses without
crediting anything.  As a withdrawn "signature" ``(T, T, T)`` it must
fail ``cl_verify`` for every message, so ``finish_withdrawal`` mints
no coin on it (else an MA could debit a JO for a worthless coin).
"""

from __future__ import annotations

import random

import pytest

from repro.crypto.cl_sig import CLSignature, cl_blind_issue, cl_verify
from repro.crypto.pairing.curve import Point
from repro.crypto.pairing.field import Fp2
from repro.ecash.batch import batch_verify_spends
from repro.ecash.dec import begin_withdrawal, finish_withdrawal
from repro.ecash.spend import create_spend, verify_spend
from repro.ecash.tree import NodeId
from repro.service import MarketService, ShardedBank, VerificationBatcher

FORGED_NODE = NodeId(2, 1)


def _torsion(p: int) -> Point:
    return Point.from_base(0, 0, p)


def _off_curve(p: int) -> Point:
    return Point(Fp2(1, 0, p), Fp2(0, 0, p), p)


def _foreign(p: int) -> Point:
    q = p + 4
    while any(q % d == 0 for d in range(3, 2000, 2)) or pow(2, q - 1, q) != 1:
        q += 4  # q ≡ p ≡ 3 (mod 4), a probable prime other than p
    return _torsion(q)


POINTS = {"two-torsion": _torsion, "off-curve": _off_curve, "foreign-modulus": _foreign}


def _forge(params, bank_pk, point: Point, rng) -> object:
    """A token on the "signature" ``(point, point, point)``.

    ``create_spend`` randomizes the signature by a scalar ρ, which maps
    a point that doubles to O onto itself (ρ odd) or onto O (ρ even);
    the forger retries until the token carries the point.
    """
    secret = rng.randrange(1, params.secret_bound())
    signature = CLSignature(a=point, b=point, c=point)
    for _ in range(64):
        token = create_spend(params, bank_pk, secret, signature, FORGED_NODE, rng)
        if not token.sig_a.is_infinity:
            return token
    raise AssertionError("ρ was even 64 times running")


@pytest.fixture(scope="module")
def market(dec_params):
    rng = random.Random(0xF06E)
    bank = ShardedBank.create(dec_params, rng, n_shards=2)
    secret, request = begin_withdrawal(dec_params, rng)
    signature = cl_blind_issue(dec_params.backend, bank.keypair, request, rng)
    coin = finish_withdrawal(dec_params, bank.public_key, secret, signature)
    honest = [
        create_spend(dec_params, bank.public_key, coin.secret, coin.signature,
                     NodeId(2, i), rng)
        for i in (0, 2)
    ]
    forged = {
        name: _forge(dec_params, bank.public_key, make(dec_params.backend.params.p), rng)
        for name, make in POINTS.items()
    }
    return bank.keypair, honest, forged


@pytest.mark.parametrize("kind", sorted(POINTS))
def test_verify_spend_refuses(dec_params, market, kind):
    keypair, _, forged = market
    assert verify_spend(dec_params, keypair.public, forged[kind]) is False


@pytest.mark.parametrize("kind", sorted(POINTS))
def test_batch_refuses_beside_honest_tokens(dec_params, market, kind):
    keypair, honest, forged = market
    tokens = [honest[0], forged[kind], honest[1]]
    verdicts = batch_verify_spends(dec_params, keypair.public, tokens,
                                   random.Random(1))
    assert verdicts == [True, False, True]


@pytest.mark.parametrize("kind", sorted(POINTS))
def test_service_refuses_and_credits_nothing(dec_params, market, kind):
    keypair, honest, forged = market
    bank = ShardedBank(dec_params, keypair, random.Random(2), n_shards=2)
    service = MarketService(
        bank, batcher=VerificationBatcher(dec_params, keypair, seed=3),
        rng=random.Random(4),
    )
    replies: list[dict] = []
    service.add_reply_observer(lambda sender, reply: replies.append(reply))
    for aid in ("forger", "honest"):
        service.submit(aid, "open-account", {"aid": aid, "balance": 0})
    service.drain()  # the door checks a deposit's account at submit time
    service.submit("forger", "deposit",
                   {"aid": "forger", "token": forged[kind], "context": b""})
    service.submit("honest", "deposit",
                   {"aid": "honest", "token": honest[0], "context": b""})
    service.drain()
    # the service answers an invalid token ERROR (REJECTED is kept for
    # double spends, which carry evidence)
    assert [r["status"] for r in replies] == ["OK", "OK", "ERROR", "OK"]
    assert replies[2]["error"] == "invalid spend token"
    assert bank.balance("forger") == 0
    assert bank.balance("honest") == honest[0].denomination(dec_params.tree_level)


@pytest.mark.parametrize("kind", sorted(POINTS))
def test_cl_verify_refuses(dec_params, market, kind):
    keypair, _, _ = market
    point = POINTS[kind](dec_params.backend.params.p)
    signature = CLSignature(a=point, b=point, c=point)
    for message in (0, 1, 0xC0FFEE):
        assert cl_verify(dec_params.backend, keypair.public, message, signature) is False


@pytest.mark.parametrize("kind", sorted(POINTS))
def test_finish_withdrawal_mints_no_coin(dec_params, market, kind):
    keypair, _, _ = market
    point = POINTS[kind](dec_params.backend.params.p)
    secret, _ = begin_withdrawal(dec_params, random.Random(6))
    with pytest.raises(ValueError):
        finish_withdrawal(dec_params, keypair.public, secret,
                          CLSignature(a=point, b=point, c=point))


def test_pairable_keeps_exactly_the_points_with_an_order_r_part(dec_params):
    backend = dec_params.backend
    p, h = backend.params.p, backend.params.cofactor
    g = backend.g
    assert backend.pairable(g)
    assert backend.pairable(g + _torsion(p))  # order 2r: its r-part is g
    for make in POINTS.values():
        assert not backend.pairable(make(p))
    assert not backend.pairable(backend.identity())
    foreign_x = Point(Fp2(g.x.a, 0, p + 4), g.y, p)
    assert not backend.pairable(foreign_x)
    # a point of order dividing h, other than O: [r]·P for a curve point P
    rng = random.Random(5)
    cofactor_part = backend.identity()
    while cofactor_part.is_infinity:
        x = rng.randrange(1, p)
        rhs = (x * x * x + x) % p
        if pow(rhs, (p - 1) // 2, p) == 1:
            y = pow(rhs, (p + 1) // 4, p)
            cofactor_part = Point.from_base(x, y, p).multiply(backend.order)
    assert cofactor_part.multiply(h).is_infinity
    assert not backend.pairable(cofactor_part)
