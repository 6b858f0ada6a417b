"""Batcher flushes with warmed vs cold fixed-base table caches.

Correctness must be cache-independent: the same job set flushed through
a warmed batcher and a cold one (and with fast-exp disabled entirely)
must produce identical outcomes.  With tables forced on, the opcount
metrics surface must show the warm-up builds and the flush-time hits.
"""

from __future__ import annotations

import pytest

from repro.crypto import fastexp
from repro.service import DepositJob, VerificationBatcher

from tests.service.conftest import mint_tokens


@pytest.fixture()
def forced_tables():
    """Force the table path for the small test groups; restore after."""
    previous = fastexp.configure(enabled=True, promote_after=0)
    fastexp.reset()
    yield
    fastexp.configure(**previous)
    fastexp.reset()


def _jobs(service, rng, n=6):
    requests = mint_tokens(service, rng, n, node_level=1)
    return [
        DepositJob(seq=i, aid=r.sender, token=r.payload["token"])
        for i, r in enumerate(requests)
    ]


def _flush(service, jobs, *, warm_tables):
    batcher = VerificationBatcher(
        service.bank.params, service.bank.keypair,
        max_batch=len(jobs), seed=7, warm_tables=warm_tables,
    )
    for job in jobs:
        batcher.submit(job)
    return batcher.flush()


def test_warm_and_cold_flush_identical(forced_tables, service, rng):
    jobs = _jobs(service, rng)
    warm = _flush(service, jobs, warm_tables=True)
    fastexp.reset()
    cold = _flush(service, jobs, warm_tables=False)
    assert warm == cold
    assert all(o.valid for o in warm)


def test_disabled_tables_flush_identical(forced_tables, service, rng):
    jobs = _jobs(service, rng)
    with_tables = _flush(service, jobs, warm_tables=True)
    fastexp.configure(enabled=False)
    fastexp.reset()
    without_tables = _flush(service, jobs, warm_tables=False)
    assert with_tables == without_tables


def test_warm_builds_and_flush_hits_visible_in_opcount(forced_tables, service, rng):
    jobs = _jobs(service, rng)
    batcher = VerificationBatcher(
        service.bank.params, service.bank.keypair,
        max_batch=len(jobs), seed=7, warm_tables=True,
    )
    after_warm = fastexp.stats()
    builds = sum(row["builds"] for row in after_warm.values())
    assert builds > 0, "warm-up must build tables"

    for job in jobs:
        batcher.submit(job)
    outcomes = batcher.flush()
    assert all(o.valid for o in outcomes)

    after_flush = fastexp.stats()
    assert sum(row["hits"] for row in after_flush.values()) > 0, (
        "flush must hit the warmed tables"
    )
    # a warmed steady-state flush should not rebuild what was warmed
    assert after_flush["fastexp.int"]["hits"] > 0


def test_warm_tables_flag_off_builds_nothing(forced_tables, service):
    fastexp.reset()  # discard tables built while constructing the fixture
    VerificationBatcher(
        service.bank.params, service.bank.keypair, warm_tables=False
    )
    assert sum(row["builds"] for row in fastexp.stats().values()) == 0
