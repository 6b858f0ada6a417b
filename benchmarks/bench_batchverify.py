"""RLC batch verification: batch-size→throughput curve + warm spawn.

The acceptance experiments for :mod:`repro.crypto.batchverify` and the
shared-table transport:

* **batch curve** — deposit-verify throughput of the sigma-equation
  RLC path (`batch_verify_spends`) at batch sizes 1/2/7/32 versus
  sequential `verify_spend` (the oracle) on the same tokens.
  Gate: **≥ 1.5×** at batch 32.
* **shared warm-up** — the per-worker table warm-up with the parent's
  blob adopted over shared memory versus rebuilt locally (plus the
  end-to-end 2-worker pool spawn walls, recorded).  Gate: adoption
  strictly faster than the local rebuild.

All measured numbers land in ``benchmark.extra_info`` so that
``make batchverify-bench`` persists them in ``BENCH_batchverify.json``.

``REPRO_BENCH_SMOKE=1`` shrinks workloads and records ratios without
gating on them.
"""

from __future__ import annotations

import os
import random
import time

import pytest

from repro.crypto import fastexp
from repro.crypto.cl_sig import cl_blind_issue, cl_keygen
from repro.ecash.batch import batch_verify_spends
from repro.ecash.dec import begin_withdrawal, finish_withdrawal, setup
from repro.ecash.spend import (
    adopt_verification_tables,
    create_spend,
    export_verification_tables,
    verify_spend,
    warm_verification_tables,
)
from repro.ecash.tree import NodeId
from repro.service.workers import PooledBackend

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

BATCH_SIZES = (1, 2, 7, 32)
SECURITY_BITS = 48 if SMOKE else 64
N_DISTINCT_TOKENS = 4 if SMOKE else 8
REQUIRED_SPEEDUP_AT_32 = 1.5


@pytest.fixture(autouse=True)
def _default_fastexp_config():
    previous = fastexp.configure()
    fastexp.reset()
    yield
    fastexp.configure(**previous)
    fastexp.reset()


@pytest.fixture(scope="module")
def deposit_stack(bench_rng):
    """One certified coin and a ring of distinct honest spend tokens."""
    params = setup(3, bench_rng, security_bits=SECURITY_BITS, edge_rounds=6)
    keypair = cl_keygen(params.backend, bench_rng)
    secret, request = begin_withdrawal(params, bench_rng)
    signature = cl_blind_issue(params.backend, keypair, request, bench_rng)
    coin = finish_withdrawal(params, keypair.public, secret, signature)
    tokens = [
        create_spend(params, keypair.public, coin.secret, coin.signature,
                     NodeId(3, i), bench_rng)
        for i in range(N_DISTINCT_TOKENS)
    ]
    return params, keypair, tokens


def _best_of(fn, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_batch_size_throughput_curve(benchmark, deposit_stack):
    """Acceptance: RLC path ≥ 1.5× sequential verification at batch 32."""
    params, keypair, tokens = deposit_stack
    bank_pk = keypair.public
    curve = {}
    for size in BATCH_SIZES:
        batch = [tokens[i % len(tokens)] for i in range(size)]
        sequential_wall = _best_of(lambda: [
            verify_spend(params, bank_pk, token) for token in batch])
        rlc_wall = _best_of(lambda: batch_verify_spends(
            params, bank_pk, batch, random.Random(7)))
        assert batch_verify_spends(params, bank_pk, batch, random.Random(7)) \
            == [True] * size
        curve[size] = {
            "sequential_tokens_per_s": round(size / sequential_wall, 2),
            "rlc_tokens_per_s": round(size / rlc_wall, 2),
            "speedup": round(sequential_wall / rlc_wall, 3),
        }

    batch32 = [tokens[i % len(tokens)] for i in range(32)]
    benchmark.pedantic(
        lambda: batch_verify_spends(params, bank_pk, batch32, random.Random(7)),
        rounds=3, iterations=1,
    )
    benchmark.extra_info.update(
        security_bits=SECURITY_BITS,
        distinct_tokens=N_DISTINCT_TOKENS,
        batch_curve=curve,
        speedup_at_32=curve[32]["speedup"],
        smoke=SMOKE,
    )
    if not SMOKE:
        assert curve[32]["speedup"] >= REQUIRED_SPEEDUP_AT_32, (
            f"RLC path reached only {curve[32]['speedup']:.2f}x over "
            f"sequential verify_spend at batch 32 "
            f"(required {REQUIRED_SPEEDUP_AT_32}x)"
        )


def test_worker_warmup_with_shared_tables(benchmark, deposit_stack):
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
    params, keypair, _tokens = deposit_stack
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
