"""Persistent process-pool backend for verification batches.

The :class:`~repro.service.batcher.VerificationBatcher` splits each
flush into per-chunk jobs whose outcomes depend only on the chunk and
its deterministic seed — never on which process ran it.  This module
supplies the *executors* for those chunks:

* :class:`InlineBackend` — runs every chunk in the calling process
  (the test-suite/profiling path, and the ``REPRO_PROCESSES=1`` path);
* :class:`PooledBackend` — a persistent
  :class:`~concurrent.futures.ProcessPoolExecutor` whose workers keep
  the market (``params`` and bank key) they were started with, warm:
  forked, a worker inherits the parent's tables; spawned, it builds
  them **once at start**.  Each chunk names that market by reference
  instead of shipping it, so every chunk runs on the resident tables.
  The backend **degrades to inline** — permanently, with a counter
  bumped — the moment the pool breaks, so a crashed worker costs one
  retried flush, never a lost verdict.

Both backends derive per-chunk seeds through
:func:`repro.metrics.parallel.sweep_points`, which is what makes the
pooled path *bit-identical* to the inline one: same chunks, same
seeds, same merge order (the pool's ``map`` preserves input order).
The cross-process parity suite (``tests/service/test_worker_parity.py``)
holds this line.

:func:`make_backend` is the policy entry point: it resolves the worker
count (explicit argument, else ``REPRO_PROCESSES``, else serial),
returns inline for one worker, and falls back to inline when the pool
cannot be spawned at all.
"""

from __future__ import annotations

import io
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Sequence

import repro.obs as obs
from repro.crypto.cl_sig import CLPublicKey
from repro.ecash.spend import DECParams, warm_verification_tables
from repro.metrics.parallel import SweepPoint, env_processes, sweep_points

__all__ = [
    "VerificationBackend",
    "InlineBackend",
    "PooledBackend",
    "make_backend",
]


#: the market this worker process was started with, under the names a
#: shipped chunk refers to it by (see :class:`_ChunkPickler`)
_RESIDENT: dict[str, Any] = {}


def _warm_worker(params: DECParams, bank_pk: CLPublicKey | None) -> None:
    """Pool initializer: run once in every worker process at start.

    Keeps *params* and *bank_pk* as the worker's resident market and
    readies their fixed-base/Miller tables, so the first chunk a worker
    sees already runs on warm tables.  A forked worker holds the
    parent's own, already warm objects, and the warm-up finds every
    table resident; a spawned one builds them here, once.
    """
    _RESIDENT.update(params=params, bank_pk=bank_pk)
    warm_verification_tables(params, bank_pk)


def _resident(ref: str) -> Any:
    """The resident object a shipped chunk refers to as *ref*."""
    return _RESIDENT[ref]


class _ChunkPickler(pickle.Pickler):
    """Pickles a chunk with the pool's own market as a short reference.

    *refs* maps ``id()`` of the pool's ``params`` and bank key to the
    names :data:`_RESIDENT` holds them under; each pickles as a call
    of :func:`_resident`, and any other object pickles in full.  Both
    are alive for the whole dump, so an ``id`` match is the object
    itself.  The hook is ``reducer_override``, which the pickler calls
    only for objects that are not ints, strings, bytes or containers:
    ``persistent_id`` runs on every object and made a deposit chunk's
    dump 2.7x slower than a plain ``pickle.dumps``.
    """

    def __init__(self, file, refs: dict[int, str]) -> None:
        super().__init__(file, pickle.HIGHEST_PROTOCOL)
        self._refs = refs

    def reducer_override(self, obj: Any) -> Any:
        ref = self._refs.get(id(obj))
        return NotImplemented if ref is None else (_resident, (ref,))


def _pool_ping(_: int) -> int:
    """Trivial pool task used to force workers up at construction."""
    return os.getpid()


def _run_point(chunk: bytes) -> tuple[int, Any]:
    """Evaluate one shipped ``(worker, point)`` chunk in a worker; tag
    the result with the worker pid.

    The pid tag feeds the per-worker dispatch gauges — it never leaves
    the process as telemetry (worker ids are exported as dense indices,
    not pids).
    """
    worker, point = pickle.loads(chunk)
    return os.getpid(), worker(point)


class VerificationBackend:
    """Executor interface the batcher dispatches flushes through."""

    #: Worker processes this backend fans out across (1 = inline).
    workers: int = 1

    def run(self, worker: Callable[[SweepPoint], Any], grid: Sequence[Any],
            *, seed: int = 0) -> list[Any]:
        """Evaluate *worker* at every grid point; results in grid order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any pooled resources (idempotent)."""

    def __enter__(self) -> "VerificationBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class InlineBackend(VerificationBackend):
    """Run every chunk in the calling process (the serial reference)."""

    workers = 1

    def run(self, worker: Callable[[SweepPoint], Any], grid: Sequence[Any],
            *, seed: int = 0) -> list[Any]:
        return [worker(point) for point in sweep_points(grid, seed)]


class PooledBackend(VerificationBackend):
    """A persistent, warm worker pool with graceful inline degradation.

    Construction is eager: the pool is spawned and every worker runs
    the fast-exp warm-up before the constructor returns, so spawn
    failures surface here (where :func:`make_backend` can fall back)
    rather than mid-flush.  If the pool breaks later — a worker
    segfaults, the OS reaps it — the failing dispatch is re-run inline
    (identical seeds, identical results) and the backend stays inline
    for good: correctness never waits on a pool restart.
    """

    def __init__(
        self,
        params: DECParams,
        bank_pk: CLPublicKey | None,
        *,
        processes: int,
        telemetry: "obs.Telemetry | None" = None,
    ) -> None:
        if processes < 2:
            raise ValueError("PooledBackend needs at least 2 workers; "
                             "use InlineBackend for serial dispatch")
        self.workers = processes
        self.params = params
        self.bank_pk = bank_pk
        self.degraded = False
        self.dispatches = 0
        self.fallbacks = 0
        self._bind_obs(telemetry)
        self._worker_ids: dict[int, int] = {}  # pid -> dense worker index
        self._refs = {id(params): "params"}
        if bank_pk is not None:
            self._refs[id(bank_pk)] = "bank_pk"
        self._pool = ProcessPoolExecutor(
            max_workers=processes,
            initializer=_warm_worker,
            initargs=(params, bank_pk),
        )
        # force the workers up (and warmed) now: a pool that cannot
        # spawn fails construction, not the first real flush
        try:
            pids = set(self._pool.map(_pool_ping, range(processes * 2)))
        except Exception:
            self._pool.shutdown(wait=False, cancel_futures=True)
            raise
        for pid in sorted(pids):
            self._worker_ids.setdefault(pid, len(self._worker_ids))
        self._m_workers.set(len(self._worker_ids))

    def _bind_obs(self, telemetry: "obs.Telemetry | None") -> None:
        self.obs = telemetry if telemetry is not None else obs.get_default()
        registry = self.obs.registry
        self._m_workers = registry.gauge(
            "repro_pool_workers", "live worker processes in the verify pool"
        )
        self._m_dispatches = registry.counter(
            "repro_pool_dispatches_total", "chunk grids dispatched to the pool"
        )
        self._m_fallbacks = registry.counter(
            "repro_pool_fallbacks_total",
            "dispatches degraded to inline after a pool failure",
        )
        self._m_worker_chunks: dict[int, obs.Counter] = {}

    def _count_chunk(self, pid: int) -> None:
        index = self._worker_ids.setdefault(pid, len(self._worker_ids))
        counter = self._m_worker_chunks.get(index)
        if counter is None:
            counter = self._m_worker_chunks[index] = self.obs.registry.counter(
                "repro_pool_worker_chunks_total",
                "chunks executed, by worker", worker=str(index),
            )
        counter.inc()

    def run(self, worker: Callable[[SweepPoint], Any], grid: Sequence[Any],
            *, seed: int = 0) -> list[Any]:
        points = sweep_points(grid, seed)
        if self.degraded or not points:
            return [worker(point) for point in points]
        tracer = self.obs.tracer
        t0 = tracer.clock() if tracer.enabled else 0.0
        chunks = [self._ship(worker, point) for point in points]
        try:
            tagged = list(self._pool.map(_run_point, chunks))
        except (BrokenProcessPool, OSError, RuntimeError) as exc:
            # the pool is gone (worker killed, executor shut down, fd
            # exhaustion); nothing was applied — chunk work is pure —
            # so the inline re-run is safe and bit-identical.  A worker
            # exception of these types re-raises identically inline.
            self._degrade(exc)
            return [worker(point) for point in points]
        self.dispatches += 1
        self._m_dispatches.inc()
        results = []
        for pid, result in tagged:
            self._count_chunk(pid)
            results.append(result)
        if tracer.enabled:
            tracer.emit("pool_dispatch", trace="pool", start=t0,
                        end=tracer.clock(), chunks=len(points),
                        workers=self.workers)
        self._m_workers.set(len(self._worker_ids))
        return results

    def _ship(self, worker: Callable[[SweepPoint], Any], point: SweepPoint) -> bytes:
        """The chunk's bytes, the pool's market sent by reference."""
        buf = io.BytesIO()
        _ChunkPickler(buf, self._refs).dump((worker, point))
        return buf.getvalue()

    def _degrade(self, exc: Exception) -> None:
        self.degraded = True
        self.fallbacks += 1
        self._m_fallbacks.inc()
        self._m_workers.set(0)
        self._pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        self._pool.shutdown(wait=True, cancel_futures=True)
        self._m_workers.set(0)


def make_backend(
    params: DECParams,
    bank_pk: CLPublicKey | None = None,
    *,
    processes: int | None = None,
    telemetry: "obs.Telemetry | None" = None,
) -> VerificationBackend:
    """The right backend for *processes* workers, degrading gracefully.

    ``processes=None`` resolves through ``REPRO_PROCESSES`` (unset →
    serial: a library import must never spawn a pool uninvited).  One
    worker — or a pool that fails to spawn — yields the inline backend,
    so callers always get *a* working executor; whether it is pooled is
    visible via :attr:`VerificationBackend.workers`.
    """
    n = processes if processes is not None else env_processes(1)
    if n <= 1:
        return InlineBackend()
    try:
        return PooledBackend(params, bank_pk, processes=n, telemetry=telemetry)
    except Exception:
        # no multiprocessing on this host (sandbox, missing /dev/shm,
        # fork bombs disallowed...): serve inline rather than not at all
        tel = telemetry if telemetry is not None else obs.get_default()
        tel.registry.counter(
            "repro_pool_fallbacks_total",
            "dispatches degraded to inline after a pool failure",
        ).inc()
        return InlineBackend()
