"""Metric instruments: typing, toggles, merge, and both exporters."""

from __future__ import annotations

import json
import math

import pytest

from repro.obs import LATENCY_BUCKETS, SIZE_BUCKETS, MetricsRegistry


def test_counter_accumulates_and_rejects_negative():
    registry = MetricsRegistry()
    c = registry.counter("repro_requests_total", "requests")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_sets_and_moves():
    registry = MetricsRegistry()
    g = registry.gauge("repro_queue_depth")
    g.set(7)
    g.inc(2)
    g.dec()
    assert g.value == 8


def test_histogram_buckets_and_quantile():
    registry = MetricsRegistry()
    h = registry.histogram("repro_batch_size", buckets=(1.0, 2.0, 4.0, 8.0))
    for v in (1, 2, 3, 5, 100):
        h.observe(v)
    assert h.count == 5
    assert h.sum == 111
    assert h.counts == [1, 1, 1, 1, 1]  # last slot is the +inf overflow
    assert h.quantile(0.5) == 4.0  # bucket upper bound, not exact value
    assert h.quantile(1.0) == math.inf


def test_histogram_rejects_unsorted_ladder():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.histogram("repro_bad", buckets=(4.0, 1.0))


def test_get_or_create_is_keyed_on_name_and_labels():
    registry = MetricsRegistry()
    a = registry.counter("repro_sheds_total", reason="rate")
    b = registry.counter("repro_sheds_total", reason="queue")
    c = registry.counter("repro_sheds_total", reason="rate")
    assert a is c and a is not b


def test_type_clash_raises():
    registry = MetricsRegistry()
    registry.counter("repro_thing")
    with pytest.raises(ValueError):
        registry.gauge("repro_thing")


def test_invalid_metric_name_rejected():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.counter("repro thing")


def test_disabled_registry_records_nothing_but_still_builds():
    # there is no disabled registry any more: every registry counts
    registry = MetricsRegistry()
    assert not hasattr(registry, "enabled")
    c = registry.counter("repro_requests_total")
    h = registry.histogram("repro_latency")
    c.inc(10)
    h.observe(0.5)
    assert c.value == 10 and h.count == 1
    assert registry.counter("repro_requests_total") is c  # same instrument


def test_label_values_pass_the_redaction_gate():
    registry = MetricsRegistry()
    c = registry.counter("repro_by_sender_total", sender="sp0")
    assert c.labels["sender"].startswith("#")
    assert "sp0" not in registry.to_prometheus()


def test_snapshot_merge_adds_counters_and_histograms():
    a = MetricsRegistry()
    a.counter("repro_requests_total").inc(3)
    a.gauge("repro_depth").set(5)
    h = a.histogram("repro_batch_size", buckets=SIZE_BUCKETS)
    h.observe(4)
    h.observe(100)

    b = MetricsRegistry()
    b.counter("repro_requests_total").inc(10)
    b.merge(a.snapshot())
    b.merge(a.snapshot())

    assert b.counter("repro_requests_total").value == 16
    assert b.gauge("repro_depth").value == 5  # gauges overwrite
    merged = b.histogram("repro_batch_size", buckets=SIZE_BUCKETS)
    assert merged.count == 4 and merged.sum == 208


def test_merge_rejects_mismatched_ladders():
    a = MetricsRegistry()
    a.histogram("repro_h", buckets=(1.0, 2.0)).observe(1)
    b = MetricsRegistry()
    b.histogram("repro_h", buckets=(1.0, 2.0, 4.0))
    with pytest.raises(ValueError):
        b.merge(a.snapshot())


def test_merge_works_on_a_disabled_aggregator():
    # an aggregator that never recorded anything itself still folds
    source = MetricsRegistry()
    source.counter("repro_requests_total").inc(7)
    source.histogram("repro_latency").observe(0.5)
    sink = MetricsRegistry()
    sink.merge(source.snapshot())
    assert sink.counter("repro_requests_total").value == 7
    assert sink.histogram("repro_latency").count == 1


def test_to_json_round_trips_the_snapshot():
    registry = MetricsRegistry()
    registry.counter("repro_requests_total", "requests", kind="deposit").inc(2)
    data = json.loads(registry.to_json())
    assert data == registry.snapshot()
    (entry,) = data["counters"]
    assert entry["value"] == 2 and entry["labels"] == {"kind": "deposit"}


def test_prometheus_text_format():
    registry = MetricsRegistry()
    registry.counter("repro_requests_total", "requests seen",
                     kind="deposit").inc(2)
    registry.counter("repro_requests_total", "requests seen",
                     kind="withdraw").inc(1)
    registry.gauge("repro_depth", "queue depth").set(4)
    h = registry.histogram("repro_latency_seconds", "latency",
                           buckets=(0.1, 1.0))
    h.observe(0.05)
    h.observe(0.5)
    h.observe(30.0)
    text = registry.to_prometheus()
    lines = text.splitlines()
    # HELP/TYPE emitted once per metric name, not once per label set
    assert lines.count("# TYPE repro_requests_total counter") == 1
    assert 'repro_requests_total{kind="deposit"} 2' in lines
    assert 'repro_requests_total{kind="withdraw"} 1' in lines
    assert "repro_depth 4" in lines
    # histogram buckets are cumulative and end at +Inf == count
    assert 'repro_latency_seconds_bucket{le="0.1"} 1' in lines
    assert 'repro_latency_seconds_bucket{le="1"} 2' in lines
    assert 'repro_latency_seconds_bucket{le="+Inf"} 3' in lines
    assert "repro_latency_seconds_count 3" in lines
    assert any(line.startswith("repro_latency_seconds_sum ") for line in lines)


def test_default_ladders_are_fixed_and_ascending():
    assert list(LATENCY_BUCKETS) == sorted(LATENCY_BUCKETS)
    assert list(SIZE_BUCKETS) == sorted(SIZE_BUCKETS)
    assert LATENCY_BUCKETS[0] < 1e-5 and LATENCY_BUCKETS[-1] >= 16.0
    assert SIZE_BUCKETS[0] == 1.0
