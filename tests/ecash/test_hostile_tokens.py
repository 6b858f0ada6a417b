"""A spend token's attacker-chosen values are refused, never raised on.

Each of the first values below once made ``verify_spend`` raise instead
of returning ``False``: a negative int where the transcript absorbs one
(``int_to_bytes`` refuses it), a ``str`` where a commitment goes; and a
node level of ``2^40`` made ``NodeId`` itself build ``1 << 2^40``.  The
verifier screens every attacker int by type and range before it is
absorbed, and the equality proof's responses ``z`` and ``z_t`` must be
residues mod storey 0's prime ``q0``: one at ``q0``, or ``z`` moved
below 0 by ``q0``, is refused.  Every case runs on the kernel and on
the Python loops (``tests/service/test_hostile_deposit.py`` sends some
of the same values through the front door).
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.crypto.cl_sig import cl_blind_issue, cl_keygen
from repro.ecash.dec import begin_withdrawal, finish_withdrawal, setup
from repro.ecash.spend import create_spend, verify_spend
from repro.ecash.tree import NodeId

_replace = dataclasses.replace


def _equality(token, **changes):
    return _replace(token, equality=_replace(token.equality, **changes))


#: name → the hostile token made from an honest one and storey 0's order
HOSTILE = {
    "negative node_key": lambda t, q0: _replace(t, node_key=-1),
    "negative commitment_s": lambda t, q0: _replace(t, commitment_s=-t.commitment_s),
    "negative key commitment": lambda t, q0: _replace(
        t, key_commitments=(-1, *t.key_commitments[1:])),
    "negative R_B entry": lambda t, q0: _equality(
        t, commitment_b=(-1, *t.equality.commitment_b[1:])),
    "str key commitment": lambda t, q0: _replace(
        t, key_commitments=("7", *t.key_commitments[1:])),
    "str R_B entry": lambda t, q0: _equality(
        t, commitment_b=("7", *t.equality.commitment_b[1:])),
    "z at q0": lambda t, q0: _equality(t, z=q0),
    "z negative": lambda t, q0: _equality(t, z=t.equality.z - q0),
    "z_t at q0": lambda t, q0: _equality(t, z_t=q0),
    "node level 2^40": lambda t, q0: _replace(t, node=NodeId(2**40, 0)),
}


@pytest.fixture(scope="module")
def market():
    rng = random.Random(0x4057)
    params = setup(3, rng)
    keypair = cl_keygen(params.backend, rng)
    secret, request = begin_withdrawal(params, rng)
    coin = finish_withdrawal(params, keypair.public, secret,
                             cl_blind_issue(params.backend, keypair, request, rng))
    token = create_spend(params, keypair.public, coin.secret, coin.signature,
                         NodeId(2, 1), rng)
    return params, keypair.public, token


def test_the_honest_token_verifies(market, path):
    params, bank_pk, token = market
    assert verify_spend(params, bank_pk, token)


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_a_hostile_value_is_refused(market, path, name):
    params, bank_pk, token = market
    hostile = HOSTILE[name](token, params.tower.group(0).q)
    assert verify_spend(params, bank_pk, hostile) is False


def test_a_node_level_is_checked_without_building_two_to_the_level():
    """``NodeId`` bounds its index by bit length: a decoded level of
    ``2^40`` must not make the constructor build ``1 << 2^40``."""
    assert NodeId(2**40, 0).level == 2**40
    assert NodeId(3, 7).index == 7
    for level, index in ((3, 8), (3, -1), (0, 1), (-1, 0)):
        with pytest.raises(ValueError):
            NodeId(level, index)
