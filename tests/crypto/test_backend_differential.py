"""Toy vs Tate pairing backends must agree on every decision.

Differential parity suite: the same logical spend/verify vectors run
through a DEC instance on the *toy* symmetric pairing and one on the
real (small) *Tate* pairing, and the resulting accept/reject decision
vectors must be identical — valid tokens accepted, each tampering
rejected, on both backends.  The whole matrix additionally runs with
fixed-base exponentiation tables forced and withheld (reusing
:func:`tests.crypto.test_fastexp_toggle._run_both`), so backend choice
and the table path are shown to be jointly decision-invariant.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.crypto.cl_sig import cl_keygen
from repro.ecash.batch import batch_verify_spends
from repro.ecash.dec import begin_withdrawal, cl_blind_issue, finish_withdrawal, setup
from repro.ecash.spend import create_spend, verify_spend
from repro.ecash.tree import NodeId
from tests.crypto.test_fastexp_toggle import _run_both


@pytest.fixture(scope="module")
def toy3_params(session_rng):
    """Toy-backend twin of the session ``dec_params`` (both level 3)."""
    return setup(3, session_rng, real_pairing=False, edge_rounds=8)


def _decision_vector(params, seed: int) -> tuple:
    """One full withdraw→spend→verify run reduced to its decisions.

    The returned tuple is backend-independent by construction: booleans
    and labels only, no group elements.
    """
    rng = random.Random(seed)
    bank = cl_keygen(params.backend, rng)
    other_bank = cl_keygen(params.backend, rng)
    secret, request = begin_withdrawal(params, rng)
    signature = cl_blind_issue(params.backend, bank, request, rng)
    coin = finish_withdrawal(params, bank.public, secret, signature)

    tokens = [
        create_spend(params, bank.public, coin.secret, coin.signature, NodeId(2, i), rng)
        for i in range(3)
    ]
    valid = tokens[0]
    tampered_key = replace(valid, node_key=valid.node_key + 1)
    tampered_node = replace(valid, node=NodeId(2, (valid.node.index + 1) % 4))
    swapped_edges = replace(valid, edges=tuple(reversed(valid.edges)))

    decisions = (
        ("valid", verify_spend(params, bank.public, valid)),
        ("valid-sibling", verify_spend(params, bank.public, tokens[1])),
        ("wrong-bank-key", verify_spend(params, other_bank.public, valid)),
        ("tampered-node-key", verify_spend(params, bank.public, tampered_key)),
        ("tampered-node-id", verify_spend(params, bank.public, tampered_node)),
        ("swapped-edge-proofs", verify_spend(params, bank.public, swapped_edges)),
        ("wrong-context", verify_spend(params, bank.public, valid, context=b"spv")),
        ("batch", tuple(batch_verify_spends(
            params, bank.public, [tokens[2], tampered_key], rng))),
    )
    return decisions


EXPECTED = (
    ("valid", True),
    ("valid-sibling", True),
    ("wrong-bank-key", False),
    ("tampered-node-key", False),
    ("tampered-node-id", False),
    ("swapped-edge-proofs", False),
    ("wrong-context", False),
    ("batch", (True, False)),
)


class TestBackendParity:
    def test_decision_vectors_match_across_backends(self, dec_params, toy3_params):
        tate = _decision_vector(dec_params, seed=2001)
        toy = _decision_vector(toy3_params, seed=2001)
        assert tate == toy
        assert tate == EXPECTED

    def test_parity_holds_under_fastexp_toggle(self, dec_params, toy3_params,
                                               monkeypatch):
        """The full matrix: {toy, tate} x {tables forced, tables withheld}."""
        tate_on, tate_off = _run_both(lambda: _decision_vector(dec_params, seed=2002),
                                      monkeypatch)
        toy_on, toy_off = _run_both(lambda: _decision_vector(toy3_params, seed=2002),
                                    monkeypatch)
        assert tate_on == tate_off == toy_on == toy_off
        assert tate_on == EXPECTED

    def test_parity_across_independent_seeds(self, dec_params, toy3_params):
        for seed in (7, 99, 31337):
            assert (_decision_vector(dec_params, seed=seed)
                    == _decision_vector(toy3_params, seed=seed) == EXPECTED), seed
