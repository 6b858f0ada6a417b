"""Pool workers keep the market they were started with.

A :class:`~repro.service.workers.PooledBackend` worker holds the
``params`` and bank key its initializer received, warm; a shipped
chunk names those two by reference instead of carrying them.  These
tests hold the three sides of that: the bytes of a deposit chunk carry
no pairing backend, a forked worker verifies on the tables it
inherited without building one, and a market that is not the pool's
still ships in full and verifies like the inline path.
"""

from __future__ import annotations

import multiprocessing
import pickle
import pickletools
import random

import pytest

from repro.crypto import fastexp
from repro.crypto.cl_sig import cl_keygen
from repro.ecash.spend import warm_verification_tables
from repro.metrics.parallel import sweep_points
from repro.service import InlineBackend, OfflineIssuer, PooledBackend, mint_deposit_traffic
from repro.service.batcher import _batch_worker


def _table_builds(params) -> tuple[int, int, int]:
    """Builds so far of the Miller, point-window and integer caches
    that *params*' verification reads."""
    backend = params.backend
    return (backend._pair_tables.stats.builds, backend._point_tables.stats.builds,
            fastexp._INT_TABLES.stats.builds)


def _verify_counting_builds(point):
    """Module-level (picklable) worker: a deposit chunk's verdicts, with
    the table builds of its market before and after."""
    params = point.params[1]
    before = _table_builds(params)
    verdicts = _batch_worker(point)
    return verdicts, before, _table_builds(params)


def _names(data: bytes) -> set[str]:
    """Every global and string a pickle stream names."""
    return {str(arg) for op, arg, _ in pickletools.genops(data)
            if op.name in ("GLOBAL", "SHORT_BINUNICODE", "BINUNICODE", "UNICODE")}


@pytest.fixture(scope="module")
def market(dec_params):
    keypair = cl_keygen(dec_params.backend, random.Random(0x9001))
    deposits = mint_deposit_traffic(OfflineIssuer(dec_params, keypair),
                                    random.Random(0x9002), n_accounts=1, n_deposits=2)
    return dec_params, keypair, tuple(r.payload["token"] for r in deposits)


def _deposit_grid(params, bank_pk, tokens):
    return [("deposit", params, bank_pk, tokens, b""),
            ("deposit", params, bank_pk, tokens, b"another context")]


def test_a_shipped_deposit_chunk_names_no_pairing_backend(market):
    params, keypair, tokens = market
    backend = PooledBackend(params, keypair.public, processes=2)
    try:
        point = sweep_points(_deposit_grid(params, keypair.public, tokens), 1)[0]
        shipped = _names(backend._ship(_batch_worker, point))
    finally:
        backend.close()
    assert "_resident" in shipped
    assert not shipped & {"TatePairing", "DECParams", "CLPublicKey"}
    # the scan sees the market where it is shipped in full
    assert {"TatePairing", "DECParams"} <= _names(pickle.dumps((_batch_worker, point)))


def test_a_pooled_worker_verifies_with_no_table_builds_of_its_own(market):
    params, keypair, tokens = market
    fastexp.reset()
    warm_verification_tables(params, keypair.public)
    warm = _table_builds(params)
    grid = _deposit_grid(params, keypair.public, tokens)
    backend = PooledBackend(params, keypair.public, processes=2)
    try:
        results = backend.run(_verify_counting_builds, grid, seed=1)
    finally:
        backend.close()
    for (verdicts, before, after), context in zip(results, (b"", b"another context")):
        assert [valid for valid, _, _ in verdicts] == [context == b""] * len(tokens)
        # verifying built nothing in the worker ...
        assert after == before
        if multiprocessing.get_start_method() == "fork":
            # ... and neither did its start: it inherited the parent's tables
            assert before == warm
    assert _table_builds(params) == warm


def test_a_market_that_is_not_the_pools_ships_in_full_and_verifies(market):
    params, keypair, tokens = market
    foreign = pickle.loads(pickle.dumps(params))
    grid = _deposit_grid(foreign, keypair.public, tokens)
    backend = PooledBackend(params, keypair.public, processes=2)
    try:
        point = sweep_points(grid, 1)[0]
        assert "DECParams" in _names(backend._ship(_batch_worker, point))
        pooled = backend.run(_batch_worker, grid, seed=1)
    finally:
        backend.close()
    inline = InlineBackend().run(_batch_worker, grid, seed=1)
    assert pooled == inline
    assert [[valid for valid, _, _ in chunk] for chunk in pooled] == [
        [True] * len(tokens), [False] * len(tokens)]
