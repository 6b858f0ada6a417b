"""The verification worker backends: dispatch, warm-up, fallback.

Cross-process *result* parity is held by ``test_worker_parity.py``;
this module covers the backend machinery itself — seed derivation
shared with the inline path, the ``REPRO_PROCESSES`` policy in
:func:`repro.service.workers.make_backend`, and the graceful
degradation paths (spawn failure at construction, pool breakage
mid-run).
"""

from __future__ import annotations

import pytest

import repro.obs as obs
from repro.metrics.parallel import SweepPoint, sweep, sweep_points
from repro.service import workers
from repro.service.workers import (
    InlineBackend,
    PooledBackend,
    VerificationBackend,
    make_backend,
)


def _square(point: SweepPoint) -> tuple[int, int]:
    """Module-level (picklable) worker: echoes the point's seed."""
    return point.params * point.params, point.seed


@pytest.fixture(scope="module")
def pooled(dec_params_toy) -> PooledBackend:
    backend = PooledBackend(dec_params_toy, None, processes=2)
    yield backend
    backend.close()


class TestInlineBackend:
    def test_matches_sweep_serial_path(self):
        grid = list(range(7))
        assert InlineBackend().run(_square, grid, seed=3) == sweep(
            _square, grid, seed=3, processes=1
        )

    def test_reports_one_worker(self):
        assert InlineBackend().workers == 1

    def test_close_is_idempotent(self):
        backend = InlineBackend()
        backend.close()
        backend.close()


class TestSweepPointSharing:
    def test_points_are_the_sweep_seed_derivation(self):
        points = sweep_points(["a", "b"], 9)
        assert [p.params for p in points] == ["a", "b"]
        assert [p.index for p in points] == [0, 1]
        # the exact constants the serial sweep has always used
        assert points[0].seed == (9 * 1_000_003) & 0x7FFFFFFF
        assert points[1].seed == (9 * 1_000_003 + 7919) & 0x7FFFFFFF

    def test_empty_grid(self):
        assert sweep_points([], 0) == []


class TestPooledBackend:
    def test_results_in_grid_order_with_inline_seeds(self, pooled):
        grid = list(range(11))
        assert pooled.run(_square, grid, seed=5) == InlineBackend().run(
            _square, grid, seed=5
        )

    def test_empty_grid_short_circuits(self, pooled):
        assert pooled.run(_square, [], seed=0) == []

    def test_counts_dispatches(self, dec_params_toy):
        telemetry = obs.Telemetry.enabled()
        backend = PooledBackend(dec_params_toy, None, processes=2,
                                telemetry=telemetry)
        try:
            backend.run(_square, [1, 2, 3], seed=1)
            assert backend.dispatches == 1
            snapshot = telemetry.registry.snapshot()
            counters = {
                (m["name"], tuple(sorted(m["labels"].items()))): m["value"]
                for m in snapshot["counters"]
            }
            gauges = {m["name"]: m["value"] for m in snapshot["gauges"]}
            assert counters[("repro_pool_dispatches_total", ())] == 1
            assert gauges["repro_pool_workers"] >= 1
            worker_chunks = sum(
                value
                for (name, _), value in counters.items()
                if name == "repro_pool_worker_chunks_total"
            )
            assert worker_chunks == 3
        finally:
            backend.close()

    def test_rejects_single_worker(self, dec_params_toy):
        with pytest.raises(ValueError):
            PooledBackend(dec_params_toy, None, processes=1)

    def test_broken_pool_degrades_to_inline(self, dec_params_toy):
        backend = PooledBackend(dec_params_toy, None, processes=2)
        try:
            # simulate every worker dying: results must still be the
            # inline ones, and the backend must stay degraded
            backend._pool.shutdown(wait=True, cancel_futures=True)
            grid = list(range(5))
            assert backend.run(_square, grid, seed=2) == InlineBackend().run(
                _square, grid, seed=2
            )
            assert backend.degraded
            assert backend.fallbacks == 1
            # subsequent runs stay inline without touching the dead pool
            assert backend.run(_square, grid, seed=3) == InlineBackend().run(
                _square, grid, seed=3
            )
            assert backend.fallbacks == 1
        finally:
            backend.close()


class TestMakeBackend:
    def test_explicit_serial_is_inline(self, dec_params_toy):
        backend = make_backend(dec_params_toy, processes=1)
        assert isinstance(backend, InlineBackend)

    def test_env_processes_one_is_inline(self, dec_params_toy, monkeypatch):
        monkeypatch.setenv("REPRO_PROCESSES", "1")
        backend = make_backend(dec_params_toy)
        assert isinstance(backend, InlineBackend)

    def test_env_unset_defaults_serial(self, dec_params_toy, monkeypatch):
        monkeypatch.delenv("REPRO_PROCESSES", raising=False)
        backend = make_backend(dec_params_toy)
        assert isinstance(backend, InlineBackend)

    def test_env_processes_pools(self, dec_params_toy, monkeypatch):
        monkeypatch.setenv("REPRO_PROCESSES", "2")
        backend = make_backend(dec_params_toy)
        try:
            assert isinstance(backend, PooledBackend)
            assert backend.workers == 2
        finally:
            backend.close()

    def test_spawn_failure_falls_back_inline(self, dec_params_toy, monkeypatch):
        def explode(*args, **kwargs):
            raise OSError("no processes on this host")

        monkeypatch.setattr(workers, "PooledBackend", explode)
        telemetry = obs.Telemetry.enabled()
        backend = make_backend(dec_params_toy, processes=4, telemetry=telemetry)
        assert isinstance(backend, InlineBackend)
        fallbacks = telemetry.registry.counter(
            "repro_pool_fallbacks_total",
            "dispatches degraded to inline after a pool failure",
        )
        assert fallbacks.value == 1
        # the fallback backend still serves work
        assert backend.run(_square, [4], seed=0)[0][0] == 16


class TestBatcherIntegration:
    def test_batcher_adopts_backend_worker_count(self, sharded_bank):
        from repro.service import VerificationBatcher

        backend = InlineBackend()
        batcher = VerificationBatcher(
            sharded_bank.params, sharded_bank.keypair,
            processes=7, backend=backend,
        )
        assert batcher.backend is backend
        assert batcher.processes == 1  # backend wins over the hint

    def test_batcher_default_is_inline(self, sharded_bank):
        from repro.service import VerificationBatcher

        batcher = VerificationBatcher(
            sharded_bank.params, sharded_bank.keypair
        )
        assert isinstance(batcher.backend, InlineBackend)
        batcher.close()

    def test_backend_is_a_context_manager(self):
        with InlineBackend() as backend:
            assert isinstance(backend, VerificationBackend)
