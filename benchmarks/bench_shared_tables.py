"""Worker warm-up: adopting the parent's verification tables vs rebuilding.

The acceptance experiment for the shared-table transport
(:mod:`repro.crypto.tablestore`, used by the worker pool): the
per-worker table warm-up with the parent's blob adopted over shared
memory versus rebuilt locally (plus the end-to-end 2-worker pool spawn
walls, recorded).  Gate: adoption strictly faster than the local
rebuild.

All measured numbers land in ``benchmark.extra_info``.
``REPRO_BENCH_SMOKE=1`` shrinks the parameters and records the ratio
without gating on it.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.crypto import fastexp
from repro.crypto.cl_sig import cl_keygen
from repro.ecash.dec import setup
from repro.ecash.spend import (
    adopt_verification_tables,
    export_verification_tables,
    warm_verification_tables,
)
from repro.service.workers import PooledBackend

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

SECURITY_BITS = 48 if SMOKE else 64


@pytest.fixture(autouse=True)
def _default_fastexp_config():
    previous = fastexp.configure()
    fastexp.reset()
    yield
    fastexp.configure(**previous)
    fastexp.reset()


@pytest.fixture(scope="module")
def bank(bench_rng):
    """Parameters at the bench's security level and a bank key."""
    params = setup(3, bench_rng, security_bits=SECURITY_BITS, edge_rounds=6)
    return params, cl_keygen(params.backend, bench_rng)


def _best_of(fn, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_worker_warmup_with_shared_tables(benchmark, bank):
    """Acceptance: adopting published tables beats rebuilding them.

    The pool initializer either attaches to the parent's blob
    (`adopt_verification_tables`, which still builds the integer window
    tables) or re-derives every window and Miller table
    (`warm_verification_tables`) — this is the
    per-worker warm-up the shared transport exists to cut.  Both paths
    are timed from a cold cache, exactly as a freshly spawned worker
    sees them; end-to-end 2-worker pool spawn walls are recorded
    alongside (they carry OS process-start noise, so the gate is on
    the warm-up itself).
    """
    params, keypair = bank
    blob = export_verification_tables(params, keypair.public)

    def local_build() -> None:
        fastexp.reset()
        warm_verification_tables(params, keypair.public)

    def adopt() -> None:
        fastexp.reset()
        adopt_verification_tables(params, blob)

    local_wall = _best_of(local_build)
    benchmark.pedantic(adopt, rounds=3, iterations=1)
    adopt_wall = benchmark.stats.stats.min
    gain = local_wall / adopt_wall

    def spawn(share: bool) -> float | None:
        start = time.perf_counter()
        try:
            backend = PooledBackend(params, keypair.public, processes=2,
                                    share_tables=share)
        except Exception:
            return None
        wall = time.perf_counter() - start
        backend.close()
        return wall

    spawn_shared = spawn(True)
    spawn_unshared = spawn(False)
    benchmark.extra_info.update(
        workers=2,
        security_bits=SECURITY_BITS,
        table_blob_bytes=len(blob),
        local_warmup_s=round(local_wall, 4),
        adopt_warmup_s=round(adopt_wall, 4),
        warmup_gain=round(gain, 3),
        pool_spawn_shared_s=(
            None if spawn_shared is None else round(spawn_shared, 4)
        ),
        pool_spawn_unshared_s=(
            None if spawn_unshared is None else round(spawn_unshared, 4)
        ),
        smoke=SMOKE,
    )
    if not SMOKE:
        assert gain > 1.0, (
            f"adopting shared tables was slower than rebuilding "
            f"({gain:.2f}x)"
        )
