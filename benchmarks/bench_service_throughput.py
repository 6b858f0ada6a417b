"""Service-level deposit replays: worker scaling, tracing cost, overload.

The same minted deposit workload is replayed through the
market service with ``max_batch=64`` — every token checked by
:func:`~repro.ecash.spend.verify_spend` — in the configuration the MA
ships: fixed-base and Miller tables warm.  Each replay builds its
service (its batcher's table warm-up included) outside the timed
region, which is ``run_trace`` alone.

* **worker scaling** — the replay at 1, 2 and 4 pool workers; the
  4-vs-1 ratio is asserted on hosts with at least four cores;
* **tracing overhead** — plain and fully traced replays alternate, and
  their medians may differ by at most **3 %**;
* **overload** (non-timed) — the service driven past its admission
  bound with guaranteed double-spend replays must shed with explicit
  ``BUSY`` replies, admit **zero** double-deposits and still pass the
  bank's audit.

Walls, throughputs and ratios land in ``benchmark.extra_info`` (the
``--benchmark-json`` output).  The tables' own end-to-end effect is
measured by :mod:`benchmarks.bench_fastexp`.
"""

from __future__ import annotations

import os
import random
import statistics

import pytest

import repro.obs as obs
from repro.crypto.cl_sig import cl_keygen
from repro.ecash.dec import setup
from repro.service import (
    AdmissionController,
    MarketService,
    ShardedBank,
    VerificationBatcher,
    make_backend,
)
from repro.service.loadgen import BankIssuer, mint_deposit_traffic, run_trace

#: deposits per replay; also the batched configuration's batch size
N_DEPOSITS = 64


@pytest.fixture(scope="module")
def service_workload(bench_rng):
    """One minted deposit workload, shared by every configuration.

    Tokens bind to the bank keypair, so both configurations are built
    around the same keypair and the same pre-funded account book.
    """
    params = setup(3, bench_rng, edge_rounds=6)
    keypair = cl_keygen(params.backend, bench_rng)
    mint_bank = ShardedBank(params, keypair, random.Random(1))
    requests = mint_deposit_traffic(
        BankIssuer(mint_bank),
        random.Random(2),
        n_accounts=8,
        n_deposits=N_DEPOSITS,
        node_level=1,
    )
    arrivals = [0.002 * i for i in range(len(requests))]
    return params, keypair, mint_bank.book, requests, arrivals


def _make_service(workload, *, max_batch,
                  admission=None, telemetry=None, backend=None) -> MarketService:
    params, keypair, book, _, _ = workload
    bank = ShardedBank(params, keypair, random.Random(3))
    for aid, balance in book.accounts.items():
        bank.open_account(aid, balance)
    for aid in book.withdrawals:
        bank.book.withdrawals.append(aid)
    batcher = VerificationBatcher(
        params, keypair, max_batch=max_batch, processes=1,
        seed=5, backend=backend,
    )
    return MarketService(
        bank, batcher=batcher,
        admission=admission if admission is not None else AdmissionController(),
        telemetry=telemetry,
    )


def _replay(workload, *, telemetry=None, **config) -> float:
    """Wall seconds ``run_trace`` takes to serve the whole workload
    under *config*; building the service is outside it."""
    _, _, _, requests, arrivals = workload
    service = _make_service(workload, telemetry=telemetry, **config)
    report = run_trace(service, requests, arrivals)
    assert report.ok == len(requests), report
    return report.wall_elapsed


BATCHED = dict(max_batch=N_DEPOSITS)


#: worker counts for the scaling curve; the 4-vs-1 ratio is asserted
WORKER_COUNTS = (1, 2, 4)
#: required verify-throughput ratio, 4 workers vs 1 (multicore hosts)
REQUIRED_WORKER_SPEEDUP = 2.0


def test_worker_scaling_curve(benchmark, service_workload):
    """Process-pool scaling: deposit throughput at 1/2/4 workers.

    Verification is pure bigint arithmetic dispatched through
    :func:`repro.service.make_backend`, so on a multicore host four
    workers must clear **2×** the single-worker throughput.  The
    assertion is gated on ``os.cpu_count() >= 4`` — on smaller hosts
    (CI runners included) the curve is still measured and recorded in
    ``extra_info``, it just cannot be expected to scale.  Pools are
    spawned (and their tables warmed) *outside* the timed region:
    steady-state throughput is the quantity, not cold start.
    """
    params, keypair, _, _, _ = service_workload

    def curve() -> dict[int, float]:
        walls: dict[int, float] = {}
        for n in WORKER_COUNTS:
            backend = make_backend(params, keypair.public, processes=n)
            try:
                if getattr(backend, "workers", 1) != n and n > 1:
                    pytest.skip(f"host cannot spawn a {n}-process pool")
                walls[n] = min(
                    _replay(service_workload, backend=backend, **BATCHED)
                    for _ in range(2)
                )
            finally:
                backend.close()
        return walls

    walls = benchmark.pedantic(curve, rounds=1, iterations=1)
    throughputs = {
        f"throughput_rps_{n}w": round(N_DEPOSITS / wall, 2)
        for n, wall in walls.items()
    }
    speedup_4v1 = walls[1] / walls[max(WORKER_COUNTS)]
    benchmark.extra_info.update(
        BATCHED, deposits=N_DEPOSITS, cpu_count=os.cpu_count(),
        worker_counts=list(WORKER_COUNTS),
        speedup_4v1=round(speedup_4v1, 3), **throughputs,
    )
    if (os.cpu_count() or 1) >= max(WORKER_COUNTS):
        assert speedup_4v1 >= REQUIRED_WORKER_SPEEDUP, (
            f"4-worker pool reached only {speedup_4v1:.2f}x over one "
            f"worker on a {os.cpu_count()}-core host "
            f"(required {REQUIRED_WORKER_SPEEDUP}x)"
        )


#: tracing-on may cost at most this fraction over tracing-off
MAX_TRACING_OVERHEAD = 0.03
#: replays per side of the overhead comparison, alternating
OVERHEAD_ROUNDS = 20


def test_tracing_overhead_under_three_percent(benchmark, service_workload):
    """Observability acceptance: full tracing ≤ 3% wall overhead.

    The same batched replay runs with the module-default telemetry
    (metrics counting, tracing off) and with a fully enabled stack
    sized to hold every span, alternating so that drift in the host's
    load hits both sides alike; the medians of the two sides are
    compared.  One untimed replay first warms the tables.
    """
    _replay(service_workload, **BATCHED)

    def alternate() -> tuple[float, float]:
        plain, traced = [], []
        for _ in range(OVERHEAD_ROUNDS):
            plain.append(_replay(service_workload, **BATCHED))
            telemetry = obs.Telemetry.enabled(capacity=65536)
            traced.append(_replay(service_workload, telemetry=telemetry, **BATCHED))
        return statistics.median(plain), statistics.median(traced)

    plain_wall, traced_wall = benchmark.pedantic(alternate, rounds=1, iterations=1)
    overhead = traced_wall / plain_wall - 1.0
    benchmark.extra_info.update(
        BATCHED,
        deposits=N_DEPOSITS,
        rounds=OVERHEAD_ROUNDS,
        plain_wall_s=round(plain_wall, 4),
        traced_wall_s=round(traced_wall, 4),
        tracing_overhead=round(overhead, 4),
    )
    assert overhead <= MAX_TRACING_OVERHEAD, (
        f"traced replay cost {overhead:.1%} over plain, median of "
        f"{OVERHEAD_ROUNDS} each (budget {MAX_TRACING_OVERHEAD:.0%})"
    )


def test_overload_sheds_busy_and_admits_no_double_deposit(benchmark, service_workload):
    """Overload: replays past the admission bound shed as BUSY; every
    admitted replay is REJECTED; the bank's audit stays clean."""
    _, _, _, requests, _ = service_workload

    def overload_run():
        service = _make_service(
            service_workload,
            **BATCHED,
            admission=AdmissionController(max_queue_depth=4),
        )
        # phase 1: the fresh workload, paced (queue never hits the bound)
        for request in requests:
            service.submit(request.sender, request.kind, request.payload)
            service.step(force=True)
        assert service.shed == 0

        # phase 2: replay every token in one burst — all double spends
        statuses: list[str] = []
        service.add_reply_observer(lambda _sender, reply: statuses.append(reply["status"]))
        for request in requests:
            service.submit(request.sender, request.kind, request.payload)
        service.drain()
        return service, statuses

    service, statuses = benchmark.pedantic(overload_run, rounds=1, iterations=1)

    assert statuses.count("BUSY") == service.shed > 0
    assert statuses.count("REJECTED") == len(requests) - statuses.count("BUSY")
    assert "OK" not in statuses  # zero double-deposits admitted
    report = service.bank.audit()
    assert report.clean, report.findings
    benchmark.extra_info.update(
        replayed=len(requests),
        shed_busy=statuses.count("BUSY"),
        rejected_double_spends=statuses.count("REJECTED"),
        double_deposits_admitted=statuses.count("OK"),
        audit_clean=report.clean,
    )
