"""End-to-end telemetry through the serving stack.

The acceptance bar for the observability layer: one deposit submitted
to :class:`MarketService` yields a *single* trace id whose spans cover
admission → batch verification → shard apply → journal append → reply,
exported as trace JSON Perfetto loads; the planted request/account
material never appears in any export; and the tracing-off path hands
out the shared no-op span (no per-request allocation) while the
counters still count.
"""

from __future__ import annotations

import json
import random

import pytest

from repro import obs
from repro.crypto import fastexp
from repro.service import (
    AdmissionController,
    Journal,
    MarketService,
    VerificationBatcher,
)
from repro.service.loadgen import BankIssuer, mint_deposit_traffic

from .conftest import mint_tokens


@pytest.fixture()
def traced_service(sharded_bank):
    telemetry = obs.Telemetry.enabled()
    batcher = VerificationBatcher(
        sharded_bank.params, sharded_bank.keypair, max_batch=8, seed=1
    )
    service = MarketService(
        sharded_bank,
        batcher=batcher,
        rng=random.Random(5),
        journal=Journal(),
        telemetry=telemetry,
    )
    return service, telemetry


#: every phase of the request path the acceptance criterion names
PIPELINE_SPANS = {
    "submit", "admission", "verify_spend", "apply", "shard_apply",
    "journal_append", "reply",
}


def test_one_deposit_yields_one_trace_through_every_phase(traced_service, rng):
    service, telemetry = traced_service
    request = mint_tokens(service, rng, 1)[0]
    rid = "obs:dep:0"
    service.submit(request.sender, "deposit", request.payload, rid=rid)
    service.drain()

    expected = obs.trace_id(rid)
    records = [r for r in telemetry.tracer.records() if r.trace == expected]
    names = {r.name for r in records}
    assert PIPELINE_SPANS <= names, f"missing {PIPELINE_SPANS - names}"

    # the request's timeline is internally consistent
    for record in records:
        assert record.end >= record.start
    # nested spans acknowledge their parents within the trace
    by_id = {r.span_id: r for r in records}
    for record in records:
        if record.parent is not None:
            assert record.parent in by_id

    # and it is the ONLY request trace — minting/bank setup traffic
    # lands on background ("bg*") lanes, not on a request id
    request_traces = {
        r.trace for r in telemetry.tracer.records()
        if not r.trace.startswith("bg") and r.trace != "batcher"
    }
    assert request_traces == {expected}


def test_trace_export_is_perfetto_loadable_and_secret_free(traced_service, rng):
    service, telemetry = traced_service
    requests = mint_tokens(service, rng, 2)
    for i, request in enumerate(requests):
        service.submit(request.sender, "deposit", request.payload,
                       rid=f"obs:dep:{i}")
    service.drain()

    blob = telemetry.tracer.export_jsonl()
    events = json.loads(blob)
    assert events, "no events exported"
    for event in events:
        assert event["ph"] in ("X", "M")
        if event["ph"] == "X":
            assert event["ts"] >= 0 and event["dur"] >= 0

    # the rid and the account ids must never reach the export
    assert "obs:dep" not in blob
    for aid in ("sp0", "sp1", "sp2"):
        assert f'"{aid}"' not in blob


def test_busy_and_status_counters_land_in_the_registry(sharded_bank):
    telemetry = obs.Telemetry.enabled()
    batcher = VerificationBatcher(
        sharded_bank.params, sharded_bank.keypair, max_batch=8, seed=1
    )
    service = MarketService(
        sharded_bank,
        batcher=batcher,
        admission=AdmissionController(max_queue_depth=1),
        rng=random.Random(5),
        journal=Journal(),
        telemetry=telemetry,
    )
    rng = random.Random(11)
    requests = mint_deposit_traffic(BankIssuer(service.bank), rng,
                                    n_accounts=2, n_deposits=4)
    for i, request in enumerate(requests):
        service.submit(request.sender, "deposit", request.payload,
                       rid=f"busy:{i}")
    service.drain()

    registry = telemetry.registry
    assert registry.counter("repro_service_requests_total").value == 4
    shed = registry.counter("repro_admission_shed_total", reason="queue").value
    busy = registry.counter("repro_service_replies_total", status="BUSY").value
    ok = registry.counter("repro_service_replies_total", status="OK").value
    assert shed == busy == service.shed > 0
    assert ok == 4 - busy
    assert registry.counter("repro_journal_appends_total", kind="accept").value > 0
    assert registry.counter("repro_batcher_flushes_total").value >= 1
    latency = registry.histogram("repro_request_latency_seconds")
    assert latency.count == ok


def test_dump_telemetry_writes_all_three_exports(traced_service, rng, tmp_path):
    service, telemetry = traced_service
    request = mint_tokens(service, rng, 1)[0]
    service.submit(request.sender, "deposit", request.payload, rid="obs:d0")
    service.drain()

    paths = service.dump_telemetry(tmp_path)
    assert json.loads(open(paths["trace"]).read())
    metrics = json.loads(open(paths["metrics"]).read())
    assert any(e["name"] == "repro_service_requests_total"
               for e in metrics["counters"])
    # fastexp cache counters are published on dump
    assert any(e["name"].startswith("repro_fastexp_")
               for e in metrics["gauges"])
    # ... and so is which verification path ran: the kernel row
    kernel = {e["name"]: e["value"] for e in metrics["gauges"]
              if e["labels"] == {"cache": "kernel"}}
    assert kernel["repro_fastexp_loaded"] == int(fastexp.KERNEL is not None)
    path = "c" if fastexp.KERNEL is not None else "py"
    assert kernel[f"repro_fastexp_legendre_{path}"] > 0
    prom = open(paths["prometheus"]).read()
    assert "# TYPE repro_service_requests_total counter" in prom

    # without a directory the same exports come back in-memory
    exports = service.dump_telemetry()
    assert set(exports) == {"trace", "metrics", "prometheus"}


def test_recovery_spans_and_counters(dec_params_toy):
    # built locally: recovery needs a journal that outlives the first
    # incarnation
    from repro.service.shard import ShardedBank

    rng = random.Random(3)
    params = dec_params_toy
    telemetry = obs.Telemetry.enabled()
    journal = Journal()
    bank = ShardedBank.create(params, rng, journal=journal)
    service = MarketService(bank, rng=random.Random(4), telemetry=telemetry)
    service.submit("acct", "open-account", {"aid": "a0", "balance": 4},
                   rid="open:0")
    service.drain()

    recovered = MarketService.recover(
        params, bank.keypair, journal, telemetry=telemetry
    )
    assert recovered.bank.balance("a0") == 4
    names = {r.name for r in telemetry.tracer.records()}
    assert {"recover", "bank_replay"} <= names
    assert telemetry.registry.counter("repro_recoveries_total").value == 1
    replayed = telemetry.registry.counter("repro_recovery_replayed_total").value
    assert replayed >= 1


def test_toggles_off_path_allocates_no_spans(service, rng):
    # the default-built service falls back to the module default, whose
    # tracer is off unless REPRO_TRACE says otherwise; metrics always count
    telemetry = service.obs
    if telemetry.tracing:
        pytest.skip("REPRO_TRACE enabled in this environment")
    assert telemetry.tracer.span("submit", kind="deposit") is obs.NOOP_SPAN
    requests = telemetry.registry.counter("repro_service_requests_total")
    ok = telemetry.registry.counter("repro_service_replies_total", status="OK")
    before = (requests.value, ok.value)
    request = mint_tokens(service, rng, 1)[0]
    service.submit(request.sender, "deposit", request.payload, rid="off:0")
    service.drain()
    assert telemetry.tracer.records() == []
    assert (requests.value - before[0], ok.value - before[1]) == (1, 1)
