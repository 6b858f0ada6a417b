"""Open: the cross-group equality proof accepts a CRT forgery.

The spend's equality proof shows that one integer opens the Pedersen
commitment ``C_s`` (storey 0, prime order ``q0``) and the CL statement
``V = B^s`` (G_T, prime order ``r``).  Its response ``z`` is never
reduced, but the verifier only ever uses it modulo ``q0`` (in
``g^z h^z_t``) and modulo ``r`` (in ``B^z``), and both orders are public
primes.  So the holder of one coin certified on ``s_B`` can commit any
other ``s_A``, draw separate nonces for the two groups, and answer the
challenge with the CRT solution of ``z ≡ k_A + e·s_A (mod q0)`` and
``z ≡ k_B + e·s_B (mod r)``: below ``q0·r ≈ 2^147``, well inside the
bound ``2^(witness_bits + 320)``.  The token spends a coin the bank
never certified, whose serials it has never seen, so double-spend
detection cannot catch it.

The forgery is built here from the public API (``create_spend`` with
its ``prove_equality`` swapped for the forger's).  The test asserts
the verifier's refusal and is expected to fail until the proof is
fixed (``docs/threatmodel.md``); then the marker goes.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto.cl_sig import cl_blind_issue, cl_keygen
from repro.crypto.zkp import equality
from repro.ecash import spend
from repro.ecash.dec import begin_withdrawal, finish_withdrawal, setup
from repro.ecash.tree import NodeId


def _crt_forger(s_b: int, q0: int, r: int):
    """A ``prove_equality`` stand-in: commits the witness it is given
    (``s_A``) on the storey side and answers with ``s_B`` on the G_T side."""

    def forge(group_a, g, h, commitment, exp_b, encode_b, statement_b, witness,
              randomizer, witness_bits, rng, transcript):
        k_a, k_b, k_t = rng.randrange(q0), rng.randrange(r), group_a.random_exponent(rng)
        commitment_a = group_a.mul(group_a.exp(g, k_a), group_a.exp(h, k_t))
        commitment_b = tuple(int(v) for v in encode_b(exp_b(k_b)))
        transcript.absorb_ints(g, h, commitment, commitment_a)
        transcript.absorb_ints(*(int(v) for v in encode_b(statement_b)))
        transcript.absorb_ints(*commitment_b)
        e = transcript.challenge(1 << equality._CHALLENGE_BITS)
        z_a, z_b = (k_a + e * witness) % q0, (k_b + e * s_b) % r
        z = z_a + q0 * ((z_b - z_a) * pow(q0, -1, r) % r)
        return equality.EqualityProof(commitment_a=commitment_a, commitment_b=commitment_b,
                                      z=z, z_t=(k_t + e * randomizer) % q0,
                                      witness_bits=witness_bits)

    return forge


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="open: the equality proof's integer response "
                   "is checked only modulo q0 and r, so a CRT answer passes "
                   "(docs/threatmodel.md)")
@pytest.mark.parametrize("level", [0, 2])
def test_a_coin_certified_on_one_secret_cannot_spend_another(level, monkeypatch):
    rng = random.Random(0xC47 + level)
    params = setup(3, rng)
    keypair = cl_keygen(params.backend, rng)
    secret, request = begin_withdrawal(params, rng)
    coin = finish_withdrawal(params, keypair.public, secret,
                             cl_blind_issue(params.backend, keypair, request, rng))
    q0, r = params.tower.group(0).q, params.backend.order
    uncertified = rng.randrange(1, params.secret_bound())
    assert uncertified != coin.secret
    monkeypatch.setattr(spend, "prove_equality", _crt_forger(coin.secret, q0, r))
    token = spend.create_spend(params, keypair.public, uncertified, coin.signature,
                               NodeId(level, 0), rng)
    monkeypatch.undo()
    assert token.equality.z < q0 * r
    assert not spend.verify_spend(params, keypair.public, token)
