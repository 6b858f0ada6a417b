"""Closed: the equality proof no longer accepts a CRT forgery.

The spend's equality proof shows that one secret opens the Pedersen
commitment ``C_s`` (storey 0, prime order ``q0``) and the CL statement
``V = B^s`` (G_T).  When the pairing group had its own prime order
``r``, the response ``z`` was an unreduced integer that the verifier
read only modulo ``q0`` and modulo ``r``.  The holder of one coin
certified on ``s_B`` could then commit any other ``s_A`` and answer with
the CRT solution of ``z ≡ k_A + e·s_A (mod q0)`` and
``z ≡ k_B + e·s_B (mod r)``, spending a coin the bank never certified.

``setup`` now builds the pairing group on ``q0`` itself, so the proof is
a same-order AND proof: responses are residues mod ``q0``, and two
accepting answers to one commitment extract one secret for both
statements.  The forger below still answers the storey side with
``s_A`` and the G_T side with ``s_B``; neither its lifted ``z`` nor that
``z``'s residue passes.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto.cl_sig import cl_blind_issue, cl_keygen
from repro.crypto.hashing import Transcript
from repro.crypto.zkp import equality
from repro.ecash import spend
from repro.ecash.dec import begin_withdrawal, finish_withdrawal, setup
from repro.ecash.tree import NodeId


def _crt_forger(s_b: int, q0: int):
    """A ``prove_equality`` stand-in: commits the witness it is given
    (``s_A``) on the storey side and answers with ``s_B`` on the G_T side,
    lifting the storey answer by ``q0`` times the G_T one's difference."""

    def forge(group_a, g, h, commitment, exp_b, encode_b, statement_b, witness,
              randomizer, rng, transcript):
        k_a, k_b, k_t = rng.randrange(q0), rng.randrange(q0), group_a.random_exponent(rng)
        commitment_a = group_a.mul(group_a.exp(g, k_a), group_a.exp(h, k_t))
        commitment_b = tuple(int(v) for v in encode_b(exp_b(k_b)))
        transcript.absorb_ints(g, h, commitment, commitment_a)
        transcript.absorb_ints(*(int(v) for v in encode_b(statement_b)))
        transcript.absorb_ints(*commitment_b)
        e = transcript.challenge(q0)
        z_a, z_b = (k_a + e * witness) % q0, (k_b + e * s_b) % q0
        return equality.EqualityProof(commitment_a=commitment_a, commitment_b=commitment_b,
                                      z=z_a + q0 * ((z_b - z_a) % q0),
                                      z_t=(k_t + e * randomizer) % q0)

    return forge


def _market(seed: int):
    rng = random.Random(seed)
    params = setup(3, rng)
    keypair = cl_keygen(params.backend, rng)
    secret, request = begin_withdrawal(params, rng)
    coin = finish_withdrawal(params, keypair.public, secret,
                             cl_blind_issue(params.backend, keypair, request, rng))
    return params, keypair.public, coin, rng


@pytest.mark.parametrize("level", [0, 2])
def test_a_coin_certified_on_one_secret_cannot_spend_another(level, monkeypatch):
    params, bank_pk, coin, rng = _market(0xC47 + level)
    q0 = params.tower.group(0).q
    assert params.backend.order == q0
    uncertified = rng.randrange(1, params.secret_bound())
    assert uncertified != coin.secret
    monkeypatch.setattr(spend, "prove_equality", _crt_forger(coin.secret, q0))
    token = spend.create_spend(params, bank_pk, uncertified, coin.signature,
                               NodeId(level, 0), rng)
    monkeypatch.undo()
    assert token.equality.z >= q0
    assert not spend.verify_spend(params, bank_pk, token)
    residue = dataclasses.replace(token.equality, z=token.equality.z % q0)
    assert not spend.verify_spend(params, bank_pk, dataclasses.replace(token, equality=residue))


@pytest.fixture(scope="module")
def market():
    params, bank_pk, coin, rng = _market(0x0DE)
    token = spend.create_spend(params, bank_pk, coin.secret, coin.signature, NodeId(1, 0), rng)
    return params, bank_pk, coin, token


@settings(max_examples=30,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_response_outside_the_residues_is_refused(market, path, data):
    """``z + m·q0`` for ``m ≥ 1``, any ``z ≥ q0`` and any ``z_t ≥ q0``
    are refused; the honest token verifies."""
    params, bank_pk, _coin, token = market
    q0 = params.tower.group(0).q
    proof = token.equality
    change = data.draw(st.one_of(
        st.integers(1, 1 << 80).map(lambda m: {"z": proof.z + m * q0}),
        st.integers(q0, 1 << 256).map(lambda z: {"z": z}),
        st.integers(q0, 1 << 256).map(lambda z_t: {"z_t": z_t}),
    ))
    hostile = dataclasses.replace(token, equality=dataclasses.replace(proof, **change))
    assert not spend.verify_spend(params, bank_pk, hostile)
    assert spend.verify_spend(params, bank_pk, token)


def test_two_answers_to_one_commitment_extract_the_secret(market, path):
    """Special soundness: fixed nonces, two challenges; the extracted
    ``(z₁ − z₂)/(e₁ − e₂) mod q0`` opens ``D = g^s h^t`` and ``V = B^s``."""
    params, bank_pk, coin, _token = market
    backend, grp0 = params.backend, params.tower.group(0)
    q0 = grp0.q
    g0, h0 = params.commit_bases(0)
    t = random.Random(5).randrange(q0)
    commitment = grp0.mul(grp0.exp(g0, coin.secret), grp0.exp(h0, t))
    base_gt = backend.pair(bank_pk.X, coin.signature.b)
    statement = backend.gt_exp(base_gt, coin.secret)
    encode = lambda el: spend._gt_encode(backend, el)
    exp_b = lambda k: backend.gt_exp(base_gt, k)
    answers = []
    for domain in (b"challenge one", b"challenge two"):
        proof = equality.prove_equality(
            grp0, g0, h0, commitment, exp_b=exp_b, encode_b=encode, statement_b=statement,
            witness=coin.secret, randomizer=t, rng=random.Random(7),
            transcript=Transcript(domain))
        assert equality.verify_equality(
            grp0, g0, h0, commitment, exp_b=exp_b, mul_b=backend.gt_mul,
            exp_el_b=backend.gt_exp, encode_b=encode,
            decode_b=lambda enc: spend._gt_decode(backend, enc), statement_b=statement,
            proof=proof, transcript=Transcript(domain))
        e = equality.verify_equality_deferred(grp0, g0, h0, commitment, encode, statement,
                                              proof, Transcript(domain))
        answers.append((proof, e))
    (p1, e1), (p2, e2) = answers
    assert (p1.commitment_a, p1.commitment_b) == (p2.commitment_a, p2.commitment_b)
    assert e1 != e2
    inverse = pow(e1 - e2, -1, q0)
    s = (p1.z - p2.z) * inverse % q0
    s_t = (p1.z_t - p2.z_t) * inverse % q0
    assert grp0.mul(grp0.exp(g0, s), grp0.exp(h0, s_t)) == commitment
    assert backend.gt_eq(backend.gt_exp(base_gt, s), statement)
    assert s == coin.secret
