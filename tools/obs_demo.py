#!/usr/bin/env python
"""Traced demo run: load the market service, export all telemetry.

The ``make obs-demo`` entry point.  Builds a toy-pairing market
service with a fully-enabled telemetry stack, replays a minted deposit
workload (plus a few guaranteed double-spend replays and an admission
overload burst so every reply status appears), and writes the three
export artefacts into ``./telemetry/``:

* ``trace.json``    — Chrome/Perfetto trace (open in ui.perfetto.dev)
* ``metrics.json``  — the registry snapshot (schema-checked in CI by
  ``tools/check_telemetry.py``)
* ``metrics.prom``  — Prometheus text exposition

Runs on the toy backend in a few seconds; pass ``--deposits`` to
scale.  See docs/observability.md for how to read the trace.
"""

from __future__ import annotations

import argparse
import pathlib
import random
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro import obs  # noqa: E402
from repro.ecash.dec import setup  # noqa: E402
from repro.service import (  # noqa: E402
    AdmissionController,
    Journal,
    MarketService,
    VerificationBatcher,
    ShardedBank,
)
from repro.service.loadgen import (  # noqa: E402
    BankIssuer,
    mint_deposit_traffic,
    run_trace,
)
from repro.workloads.arrivals import poisson_arrivals  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="telemetry",
                        help="output directory (default: ./telemetry)")
    parser.add_argument("--deposits", type=int, default=24,
                        help="fresh deposits to replay (default: 24)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    telemetry = obs.Telemetry.enabled(capacity=65536)

    print(f"building toy market (seed {args.seed}) ...")
    params = setup(3, rng, security_bits=64, real_pairing=False, edge_rounds=4)
    bank = ShardedBank.create(params, rng, n_shards=4, journal=Journal())
    batcher = VerificationBatcher(params, bank.keypair, max_batch=8, seed=1)
    service = MarketService(
        bank,
        batcher=batcher,
        admission=AdmissionController(max_queue_depth=4 * args.deposits),
        rng=random.Random(1),
        telemetry=telemetry,
    )

    print(f"minting {args.deposits} deposits (plus 1-in-5 double-spend replays) ...")
    requests = mint_deposit_traffic(
        BankIssuer(service.bank), random.Random(2),
        n_accounts=4, n_deposits=args.deposits, replay_fraction=0.2,
    )
    arrivals = poisson_arrivals(
        random.Random(3), rate=200.0, horizon=len(requests) / 200.0
    )
    while len(arrivals) < len(requests):
        arrivals.append((arrivals[-1] if arrivals else 0.0) + 0.005)

    print("replaying under trace ...")
    report = run_trace(service, requests, arrivals)

    paths = service.dump_telemetry(args.out)
    tracer = telemetry.tracer
    print(
        f"served {report.submitted} requests: {report.ok} OK, "
        f"{report.rejected} REJECTED, {report.shed} BUSY, "
        f"{report.errors} ERROR"
    )
    if report.latency is not None:
        print(f"p50 {report.latency.p50_ms:.2f} ms   "
              f"p99 {report.latency.p99_ms:.2f} ms   "
              f"throughput {report.latency.throughput:.1f} req/s")
    print(f"{len(tracer.records())} spans recorded "
          f"({tracer.dropped} dropped by the ring)")
    for kind, path in paths.items():
        print(f"  {kind:<10} -> {path}")
    print("load trace.json at https://ui.perfetto.dev (or chrome://tracing)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
