"""Batcher flushes with warmed vs cold fixed-base table caches.

Correctness must be cache-independent: the same job set flushed through
a warmed batcher and a cold one (and with every table withheld) must
produce identical outcomes.  With tables forced, the opcount metrics
surface must show the warm-up builds and the flush-time hits.
"""

from __future__ import annotations

from repro.crypto import fastexp
from repro.service import DepositJob, VerificationBatcher

from tests.conftest import withhold_tables
from tests.service.conftest import mint_tokens


def _jobs(service, rng, n=6):
    requests = mint_tokens(service, rng, n, node_level=1)
    return [
        DepositJob(seq=i, aid=r.sender, token=r.payload["token"])
        for i, r in enumerate(requests)
    ]


def _flush(service, jobs, *, cold=False):
    """Flush *jobs* through a fresh batcher; *cold* drops the tables its
    construction warmed."""
    batcher = VerificationBatcher(
        service.bank.params, service.bank.keypair,
        max_batch=len(jobs), seed=7,
    )
    if cold:
        fastexp.reset()
    for job in jobs:
        batcher.submit(job)
    return batcher.flush()


def test_warm_and_cold_flush_identical(tables_forced, service, rng):
    jobs = _jobs(service, rng)
    warm = _flush(service, jobs)
    cold = _flush(service, jobs, cold=True)
    assert warm == cold
    assert all(o.valid for o in warm)


def test_disabled_tables_flush_identical(tables_forced, service, rng, monkeypatch):
    jobs = _jobs(service, rng)
    with_tables = _flush(service, jobs)
    with monkeypatch.context() as patch:
        withhold_tables(patch)
        without_tables = _flush(service, jobs)
    assert with_tables == without_tables


def test_warm_builds_and_flush_hits_visible_in_opcount(tables_forced, service, rng):
    jobs = _jobs(service, rng)
    fastexp.reset()  # discard tables built while minting the jobs
    batcher = VerificationBatcher(
        service.bank.params, service.bank.keypair,
        max_batch=len(jobs), seed=7,
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
