#!/usr/bin/env python3
"""A busy day at the market administrator: bursty load, SLOs, overload.

The paper's MA is one logical party; :mod:`repro.service` rebuilds it
as a production service — a 4-shard bank behind a verification batcher
and admission control.  This example runs it through the shapes a real
sensing market produces:

1. **A bursty morning** — Markov-modulated on/off deposit traffic
   (:func:`repro.workloads.arrivals.bursty_arrivals`), with a few
   double-spend replays mixed in.  The service batches the pairing
   crypto, rejects every replay with evidence, and we print the
   operator's view: p50/p95/p99 latency, throughput, SLO verdicts.
2. **An overload spike** — arrivals far past the admission
   controller's rate and queue bounds.  The service sheds the excess
   with explicit ``BUSY`` replies *before* spending crypto budget on
   it, and everything it did admit is still exactly-once.
3. **The audit** — cross-shard placement invariants plus the merged
   ledger books, clean after both phases.

Runs on the toy pairing backend so it finishes in seconds; the real
Tate backend is measured in ``benchmarks/bench_service_throughput.py``.

Usage::

    python examples/busy_market_service.py
"""

from __future__ import annotations

import random

from repro.ecash import setup
from repro.metrics.latency import SLOTarget, format_latency_report
from repro.service import (
    AdmissionController,
    MarketService,
    ShardedBank,
    VerificationBatcher,
)
from repro.service.loadgen import BankIssuer, mint_deposit_traffic, run_trace
from repro.workloads.arrivals import bursty_arrivals

N_SHARDS = 4
N_ACCOUNTS = 6
N_DEPOSITS = 48
REPLAY_FRACTION = 0.125  # 6 of 48 requests are double-spend replays


def main() -> None:
    rng = random.Random(2026)
    params = setup(level=3, rng=rng, real_pairing=False, edge_rounds=6)
    bank = ShardedBank.create(params, rng, n_shards=N_SHARDS)
    print(f"market administrator up: {N_SHARDS} shards, "
          f"coin value {1 << params.tree_level}, toy pairing backend")

    # ---- phase 1: a bursty morning under an SLO --------------------------
    service = MarketService(
        bank,
        batcher=VerificationBatcher(params, bank.keypair, max_batch=8, seed=9),
        admission=AdmissionController(rate=400.0, burst=32.0),
        rng=random.Random(1),
    )
    requests = mint_deposit_traffic(
        BankIssuer(service.bank), rng, n_accounts=N_ACCOUNTS,
        n_deposits=N_DEPOSITS, node_level=1, replay_fraction=REPLAY_FRACTION,
    )
    arrivals = bursty_arrivals(
        random.Random(7), rate_on=120.0, rate_off=4.0,
        mean_on=0.4, mean_off=0.6, horizon=60.0,
    )[: len(requests)]
    slo = SLOTarget(p95=0.5, min_throughput=20.0)
    report = run_trace(service, requests, arrivals, slo=slo)

    print(f"\n=== phase 1: bursty deposits "
          f"({report.submitted} submitted, {report.rejected} are replays) ===")
    print(format_latency_report(report.latency, title="deposit latency"))
    print(f"  shed       {report.shed}")
    print(f"  ok / rejected / errors: "
          f"{report.ok} / {report.rejected} / {report.errors}")
    print(f"  SLO (p95 <= 500 ms, >= 20 req/s): "
          f"{'MET' if report.slo_met else '; '.join(report.slo_findings)}")
    for failure in list(service.failures)[:2]:
        print(f"  e.g. {failure.sender}#{failure.seq}: {failure.error}")

    # ---- phase 2: overload spike -----------------------------------------
    print("\n=== phase 2: overload spike ===")
    spike_bank = ShardedBank.create(params, rng, n_shards=N_SHARDS)
    spike = MarketService(
        spike_bank,
        batcher=VerificationBatcher(params, spike_bank.keypair, max_batch=8, seed=9),
        admission=AdmissionController(rate=30.0, burst=8.0, max_queue_depth=8),
        rng=random.Random(2),
    )
    spike_requests = mint_deposit_traffic(
        BankIssuer(spike.bank), rng, n_accounts=N_ACCOUNTS,
        n_deposits=N_DEPOSITS, node_level=1,
    )
    # everyone shows up in the same 100 ms — far past rate * horizon
    spike_arrivals = [0.002 * i for i in range(len(spike_requests))]
    spike_report = run_trace(spike, spike_requests, spike_arrivals)
    admission = spike.admission
    print(f"  submitted  {spike_report.submitted}")
    print(f"  admitted   {spike_report.ok}  (every one applied exactly once)")
    print(f"  shed BUSY  {spike_report.shed}  "
          f"(rate: {admission.shed_by_rate}, queue: {admission.shed_by_queue})")
    assert spike_report.shed > 0, "spike was supposed to overload admission"
    assert spike_report.ok + spike_report.shed == spike_report.submitted

    # ---- phase 3: the books ----------------------------------------------
    print()
    for label, book in (("bursty-morning", bank), ("overload-spike", spike_bank)):
        audit = book.audit()
        print(f"cross-shard audit [{label}]: "
              f"{'CLEAN' if audit.clean else audit.findings} "
              f"({book.deposit_seq} deposits applied)")
    print(f"double spends admitted: 0 "
          f"(all {report.rejected} replays rejected with evidence)")


if __name__ == "__main__":
    main()
