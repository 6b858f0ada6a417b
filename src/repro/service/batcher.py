"""Coalescing batcher for the bank's crypto hot loop.

Deposit verification and blind withdrawal issuance are the two
operations whose cost is pure bigint arithmetic — work that neither
releases the GIL nor shares state between requests.  The batcher
exploits both properties:

* **Coalescing** — pending jobs accumulate until a batch is full (or
  the server forces a flush), and the whole batch is verified and
  issued at one instant.  Each deposit token is checked on its own by
  :func:`~repro.ecash.spend.verify_spend` against the warm tables, so a
  verdict is exact: there is no random linear combination across
  tokens and no probability of a forged token riding a batch.
* **Process-pool dispatch** — batches are split into per-worker chunks
  and handed to a :class:`~repro.service.workers.VerificationBackend`:
  inline for one worker (the test-suite/profiling path), the
  persistent warm pool of :class:`~repro.service.workers.PooledBackend`
  for many.  Chunk seeds come from
  :func:`repro.metrics.parallel.sweep_points` either way, so outcomes
  are bit-identical regardless of backend or worker scheduling.

The batcher only does the *pure* part — verification verdicts, leaf-
serial expansion, signature issuance.  All state mutation (conflict
checks, credits, debits) stays with the caller, which applies results
serially in submission order; that split is what makes parallel
verification safe without any locking.
"""

from __future__ import annotations

import logging
import math
import random
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import repro.obs as obs
from repro.crypto.cl_sig import CLKeyPair, CLPublicKey, CLSignature, cl_blind_issue
from repro.ecash.dec import BlindIssuanceRequest
from repro.ecash.spend import (
    DECParams,
    SpendToken,
    verify_spend,
    warm_verification_tables,
)
from repro.ecash.tree import leaf_serials
from repro.metrics.parallel import SweepPoint
from repro.service.workers import VerificationBackend, make_backend

_log = logging.getLogger(__name__)

__all__ = [
    "DepositJob",
    "WithdrawJob",
    "DepositOutcome",
    "WithdrawOutcome",
    "VerificationBatcher",
]


@dataclass(frozen=True)
class DepositJob:
    """A deposit awaiting verification.

    ``trace`` is the request's telemetry trace id (already redacted —
    a digest of the rid, never the rid itself); the flush attributes
    its wall time to every job it verified under that id.
    """

    seq: int
    aid: str
    token: SpendToken
    context: bytes = b""
    trace: str = ""


@dataclass(frozen=True)
class WithdrawJob:
    """A withdrawal awaiting blind issuance."""

    seq: int
    aid: str
    request: BlindIssuanceRequest
    trace: str = ""


@dataclass(frozen=True)
class DepositOutcome:
    """Verification verdict plus the expanded leaf serials (if valid)."""

    seq: int
    valid: bool
    serials: tuple[int, ...] | None


@dataclass(frozen=True)
class WithdrawOutcome:
    """The blindly issued signature for a withdrawal job (``None``: the
    request's proof of knowledge failed, or issuance raised)."""

    seq: int
    signature: CLSignature | None


def _batch_worker(point: SweepPoint) -> list:
    """Process one chunk (module-level for picklability).

    ``point.params`` is a tagged tuple.  A deposit chunk verifies its
    tokens one by one and draws nothing; the point's deterministic seed
    drives the blind-issuance randomness of a withdrawal chunk, so a
    flush's outcome is independent of how chunks land on workers.

    Each job's result ends with ``None``, or with the traceback of an
    exception its crypto raised: that job alone is refused (a token
    invalid, a withdrawal unsigned), and the flush counts and logs it.
    """
    tag = point.params[0]
    if tag == "deposit":
        _, params, bank_pk, tokens, context = point.params
        out = []
        for token in tokens:
            try:
                valid = verify_spend(params, bank_pk, token, context=context)
                serials = (
                    tuple(leaf_serials(params.tower, token.node, token.node_key,
                                       params.tree_level))
                    if valid
                    else None
                )
            except Exception:  # a bug in one token's check: refuse it alone
                out.append((False, None, traceback.format_exc()))
            else:
                out.append((valid, serials, None))
        return out
    if tag == "withdraw":
        _, params, keypair, requests = point.params
        rng = random.Random(point.seed)
        return [_issue(params.backend, keypair, request, rng) for request in requests]
    raise ValueError(f"unknown batch chunk tag {tag!r}")


def _issue(backend, keypair: CLKeyPair, request,
           rng) -> tuple[CLSignature | None, str | None]:
    try:
        return cl_blind_issue(backend, keypair, request, rng), None
    except ValueError:  # the request's proof failed: one refused withdrawal
        return None, None
    except Exception:  # a bug in issuance: refuse this withdrawal alone
        return None, traceback.format_exc()


class VerificationBatcher:
    """Accumulates crypto jobs and flushes them through a process pool.

    A flush verifies every deposit token by token with
    :func:`~repro.ecash.spend.verify_spend`, so each verdict is exact
    (no batch-wide random linear combination), and the caller applies
    the whole batch's outcomes at one instant.
    """

    def __init__(
        self,
        params: DECParams,
        keypair: CLKeyPair,
        *,
        max_batch: int = 32,
        processes: int = 1,
        seed: int = 0,
        telemetry: "obs.Telemetry | None" = None,
        backend: VerificationBackend | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        if processes < 1:
            raise ValueError("processes must be positive")
        self.params = params
        self.keypair = keypair
        self._bind_obs(telemetry)
        # build the fixed-base/Miller tables for the bank key and the
        # tower generators up front: steady-state flushes (at least the
        # in-process ones) then never pay table-build cost
        warm_verification_tables(params, keypair.public)
        self.max_batch = max_batch
        # an explicit backend wins; otherwise processes>1 builds the
        # warm persistent pool (falling back to inline if the host
        # cannot spawn processes) and processes=1 stays in-process
        if backend is None:
            backend = make_backend(params, keypair.public, processes=processes,
                                   telemetry=telemetry)
        self.backend = backend
        self.processes = backend.workers
        self._pending: deque[DepositJob | WithdrawJob] = deque()
        self._flush_seed = seed
        self.flushes = 0
        self.jobs_processed = 0

    def _bind_obs(self, telemetry: "obs.Telemetry | None") -> None:
        self.obs = telemetry if telemetry is not None else obs.get_default()
        registry = self.obs.registry
        self._m_flushes = registry.counter(
            "repro_batcher_flushes_total", "batches flushed through the pool"
        )
        self._m_jobs = registry.counter(
            "repro_batcher_jobs_total", "crypto jobs processed by flushes"
        )
        self._m_batch_size = registry.histogram(
            "repro_batch_size", "jobs per flushed batch",
            buckets=obs.SIZE_BUCKETS,
        )
        self._m_occupancy = registry.gauge(
            "repro_batcher_occupancy", "jobs waiting in the batcher"
        )
        self._m_job_errors = registry.counter(
            "repro_batcher_job_errors_total",
            "crypto jobs refused because their check or issuance raised",
        )

    def __len__(self) -> int:
        return len(self._pending)

    def close(self) -> None:
        """Release the dispatch backend's worker pool (idempotent)."""
        self.backend.close()

    @property
    def public_key(self) -> CLPublicKey:
        return self.keypair.public

    def submit(self, job: DepositJob | WithdrawJob) -> None:
        self._pending.append(job)
        self._m_occupancy.set(len(self._pending))

    @property
    def batch_ready(self) -> bool:
        return len(self._pending) >= self.max_batch

    def _chunk(self, items: Sequence, n_chunks: int) -> list[Sequence]:
        size = math.ceil(len(items) / n_chunks)
        return [items[i : i + size] for i in range(0, len(items), size)]

    def flush(self) -> list[DepositOutcome | WithdrawOutcome]:
        """Run up to ``max_batch`` pending jobs; outcomes in job order.

        Deposits sharing a verification context are batched together
        (a chunk carries one context);
        withdrawals chunk freely.  Chunks from one flush run in
        parallel across the pool.
        """
        take = min(self.max_batch, len(self._pending))
        if take == 0:
            return []
        jobs = [self._pending.popleft() for _ in range(take)]

        deposit_groups: dict[bytes, list[DepositJob]] = {}
        withdraws: list[WithdrawJob] = []
        for job in jobs:
            if isinstance(job, DepositJob):
                deposit_groups.setdefault(job.context, []).append(job)
            else:
                withdraws.append(job)

        grid: list[tuple] = []
        chunk_jobs: list[list[DepositJob | WithdrawJob]] = []
        # spread each group across the pool, but never below ~4 jobs per
        # chunk — a tiny chunk pays a dispatch for little work
        for context, group in deposit_groups.items():
            n_chunks = max(1, min(self.processes, len(group) // 4 or 1))
            for chunk in self._chunk(group, n_chunks):
                grid.append(
                    (
                        "deposit",
                        self.params,
                        self.public_key,
                        tuple(job.token for job in chunk),
                        context,
                    )
                )
                chunk_jobs.append(list(chunk))
        if withdraws:
            n_chunks = max(1, min(self.processes, len(withdraws) // 4 or 1))
            for chunk in self._chunk(withdraws, n_chunks):
                grid.append(
                    ("withdraw", self.params, self.keypair,
                     tuple(job.request for job in chunk))
                )
                chunk_jobs.append(list(chunk))

        self._flush_seed += 1
        tracer = self.obs.tracer
        traced = tracer.enabled
        t0 = tracer.clock() if traced else 0.0
        chunk_results = self.backend.run(
            _batch_worker, grid, seed=self._flush_seed
        )
        if traced:
            t1 = tracer.clock()
            # one lane for the batcher itself, plus — for every job that
            # belongs to a traced request — a span on *that request's*
            # trace covering the flush it rode in: queueing-behind-a-batch
            # shows up inside the request timeline, where it belongs
            tracer.emit("batch_flush", trace="batcher", start=t0, end=t1,
                        batch=take, withdraws=len(withdraws), chunks=len(grid))
            for job in jobs:
                if job.trace:
                    tracer.emit(
                        "verify_spend" if isinstance(job, DepositJob)
                        else "blind_issue",
                        trace=job.trace, start=t0, end=t1, batch=take,
                    )

        by_seq: dict[int, DepositOutcome | WithdrawOutcome] = {}
        for chunk, results in zip(chunk_jobs, chunk_results):
            for job, result in zip(chunk, results):
                if isinstance(job, DepositJob):
                    valid, serials, error = result
                    by_seq[job.seq] = DepositOutcome(
                        seq=job.seq, valid=valid, serials=serials
                    )
                else:
                    signature, error = result
                    by_seq[job.seq] = WithdrawOutcome(seq=job.seq, signature=signature)
                if error is not None:
                    self._m_job_errors.inc()
                    _log.error("crypto job %d refused, its check raised:\n%s",
                               job.seq, error)
        self.flushes += 1
        self.jobs_processed += take
        self._m_flushes.inc()
        self._m_jobs.inc(take)
        self._m_batch_size.observe(take)
        self._m_occupancy.set(len(self._pending))
        return [by_seq[job.seq] for job in jobs]
