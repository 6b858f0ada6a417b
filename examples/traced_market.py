#!/usr/bin/env python3
"""Watching one deposit cross the market, end to end.

The observability layer (:mod:`repro.obs`) gives every request a trace
id derived from its request id, and every layer the request crosses —
admission, the write-ahead journal, batched spend verification, the
bank shard, the reply — hangs its span on that same id.  This example
runs a small traced market and then *reads the trace back*: it picks
one deposit, derives its trace id with :func:`obs.trace_id`, and prints
the request's full lifecycle with timings, exactly what you would see
as one lane in Perfetto after ``make obs-demo``.

It also shows the redaction gate at work: the sender name we submit
with never appears in the telemetry — only a salted digest does.
"""

from __future__ import annotations

import random
import sys

import repro.obs as obs
from repro.ecash.dec import setup
from repro.service import Journal, MarketService, ShardedBank, VerificationBatcher
from repro.service.loadgen import BankIssuer, mint_deposit_traffic


def main() -> int:
    rng = random.Random(7)
    telemetry = obs.Telemetry.enabled(capacity=8192)

    params = setup(3, rng, real_pairing=False, edge_rounds=4)
    bank = ShardedBank.create(params, rng, n_shards=2, journal=Journal())
    service = MarketService(
        bank,
        batcher=VerificationBatcher(params, bank.keypair, max_batch=4, seed=1),
        rng=random.Random(1),
        telemetry=telemetry,
    )

    requests = mint_deposit_traffic(
        BankIssuer(service.bank), random.Random(2), n_accounts=2, n_deposits=4
    )
    rids = []
    for i, request in enumerate(requests):
        rid = f"day0:dep:{i}"
        rids.append(rid)
        service.submit(request.sender, "deposit", request.payload, rid=rid)
    service.drain()

    # -- follow one request by its trace id ---------------------------
    rid = rids[0]
    lane = obs.trace_id(rid)
    print(f"request {rid!r} -> trace {lane}")
    spans = [r for r in telemetry.tracer.records() if r.trace == lane]
    base = min(r.start for r in spans)
    for record in sorted(spans, key=lambda r: r.start):
        offset_us = (record.start - base) * 1e6
        attrs = " ".join(f"{k}={v}" for k, v in sorted(record.attrs.items()))
        print(f"  +{offset_us:9.1f}us {record.name:<16}"
              f" {record.duration * 1e6:8.1f}us  {attrs}")

    # -- the redaction gate: raw identities never reach an export -----
    blob = telemetry.tracer.export_jsonl() + telemetry.registry.to_prometheus()
    sender = requests[0].sender
    assert sender not in blob, "redaction gate failed"
    print(f"\nsender {sender!r} appears nowhere in the exports "
          f"(only its salted digest does)")

    # -- and the registry kept the operator's counters ----------------
    registry = telemetry.registry
    ok = registry.counter("repro_service_replies_total", status="OK").value
    lat = registry.histogram("repro_request_latency_seconds")
    print(f"{ok} deposits OK; p50 <= {lat.quantile(0.5) * 1e3:.1f} ms "
          f"(bucket bound), journal at lsn "
          f"{registry.gauge('repro_journal_lsn').value:.0f}")
    print("\nrun `make obs-demo` for the same thing at scale, exported "
          "to ./telemetry/ for Perfetto")
    return 0


if __name__ == "__main__":
    sys.exit(main())
