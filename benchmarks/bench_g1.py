"""The MA's and the SP's hot crypto calls, in µs per call.

One command gives the withdraw, spend and deposit figures
``docs/performance.md`` quotes::

    PYTHONPATH=src python -m pytest benchmarks/bench_g1.py --benchmark-only

Inputs are a ``setup(3)`` market (80-bit, real Tate pairing) after
``warm_verification_tables`` with the bank key, as on the end-to-end
server.  Measured:

* ``cl_blind_issue`` — the MA's work per ``withdraw``: membership
  checks, the proof of knowledge, the signature from fixed-base tables;
* ``create_spend`` at node levels 0-3 — the SP's work per token;
* ``verify_spend`` at node levels 0-3 — the MA's work per ``deposit``,
  the check the service's batch worker runs on every token.

Each figure lands in ``benchmark.extra_info`` as ``us_per_call``.
``REPRO_BENCH_SMOKE=1`` runs fewer rounds; nothing here is gated (the
operation counts are: ``tests/crypto/test_g1_counts.py`` and
``tests/ecash/test_verify_counts.py``).
"""

from __future__ import annotations

import os
import random

import pytest

from repro.crypto.cl_sig import cl_blind_issue, cl_keygen
from repro.ecash.dec import begin_withdrawal, finish_withdrawal, setup
from repro.ecash.spend import create_spend, verify_spend, warm_verification_tables
from repro.ecash.tree import NodeId

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
ROUNDS, ITERATIONS = (3, 1) if SMOKE else (30, 5)
LEVELS = range(4)


@pytest.fixture(scope="module")
def market():
    """A warm ``setup(3)`` market, one withdrawal request and one coin."""
    rng = random.Random("bench-g1")
    params = setup(3, rng)
    keypair = cl_keygen(params.backend, rng)
    warm_verification_tables(params, keypair.public)
    secret, request = begin_withdrawal(params, rng)
    coin = finish_withdrawal(params, keypair.public, secret,
                             cl_blind_issue(params.backend, keypair, request, rng))
    return params, keypair, request, coin


def _run(benchmark, fn, **info) -> None:
    benchmark.pedantic(fn, rounds=ROUNDS, iterations=ITERATIONS, warmup_rounds=1)
    benchmark.extra_info.update(
        us_per_call=round(benchmark.stats.stats.median * 1e6, 1),
        smoke=SMOKE, **info)


def test_cl_blind_issue(benchmark, market):
    params, keypair, request, _ = market
    rng = random.Random(1)
    _run(benchmark, lambda: cl_blind_issue(params.backend, keypair, request, rng))


@pytest.mark.parametrize("level", LEVELS)
def test_create_spend(benchmark, market, level):
    params, keypair, _, coin = market
    rng = random.Random(level)
    node = NodeId(level, 0)
    _run(benchmark, lambda: create_spend(params, keypair.public, coin.secret,
                                         coin.signature, node, rng), level=level)


@pytest.mark.parametrize("level", LEVELS)
def test_verify_spend(benchmark, market, level):
    params, keypair, _, coin = market
    token = create_spend(params, keypair.public, coin.secret, coin.signature,
                         NodeId(level, 0), random.Random(level))
    assert verify_spend(params, keypair.public, token)
    _run(benchmark, lambda: verify_spend(params, keypair.public, token), level=level)
