"""Latency recorder, quantiles, SLO checks."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.metrics.latency import (
    LatencyRecorder,
    SLOTarget,
    _nearest_rank,
    _quantile,
    format_latency_report,
)


class TestQuantile:
    def test_endpoints_and_median(self):
        data = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert _quantile(data, 0.0) == 1.0
        assert _quantile(data, 0.5) == 3.0
        assert _quantile(data, 1.0) == 5.0

    def test_linear_interpolation(self):
        assert _quantile([0.0, 10.0], 0.25) == pytest.approx(2.5)

    def test_single_sample(self):
        assert _quantile([7.0], 0.99) == 7.0

    def test_validation(self):
        with pytest.raises(ValueError):
            _quantile([], 0.5)
        with pytest.raises(ValueError):
            _quantile([1.0], 1.5)


class TestNearestRank:
    def test_returns_an_order_statistic(self):
        data = [1.0, 2.0, 3.0, 4.0]
        # ceil(q*n)-th sample, 1-indexed
        assert _nearest_rank(data, 0.0) == 1.0
        assert _nearest_rank(data, 0.25) == 1.0
        assert _nearest_rank(data, 0.26) == 2.0
        assert _nearest_rank(data, 0.5) == 2.0
        assert _nearest_rank(data, 0.99) == 4.0
        assert _nearest_rank(data, 1.0) == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            _nearest_rank([], 0.5)
        with pytest.raises(ValueError):
            _nearest_rank([1.0], -0.1)

    def test_soak_client_percentile_is_nearest_rank_too(self):
        # the regression this guards: tools/async_soak_client.py indexed
        # int(q*n), so p99 of 100 samples was the maximum, not the 99th
        path = Path(__file__).resolve().parents[2] / "tools" / "async_soak_client.py"
        spec = importlib.util.spec_from_file_location("async_soak_client", path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        data = [float(i) for i in range(1, 101)]
        assert tool._percentile(data, 0.99) == 99.0
        assert tool._percentile(data, 0.50) == 50.0
        for sample in (data, data[:10], [4.0, 1.0, 3.0, 2.0], [7.0]):
            for q in (0.0, 0.25, 0.5, 0.95, 0.99, 1.0):
                assert tool._percentile(sample, q) == \
                    _nearest_rank(sorted(sample), q)
        assert tool._percentile([], 0.99) == 0.0

    def test_small_sample_tail_is_the_observed_worst_case(self):
        # the regression this guards: interpolation on 10 samples
        # reported p99 = 0.059 — a latency NO request experienced —
        # where the honest answer is the slowest observation
        recorder = LatencyRecorder()
        for v in [0.010] * 9 + [0.500]:
            recorder.record(v)
        report = recorder.report()
        assert report.p99 == 0.500  # rank ceil(0.99*10) = 10th sample
        assert report.p95 == 0.500  # rank ceil(0.95*10) = 10th sample
        assert report.p50 == 0.010  # rank ceil(0.50*10) = 5th sample
        assert report.p99 in recorder._samples

    def test_large_samples_keep_interpolation(self):
        recorder = LatencyRecorder()
        for i in range(100):
            recorder.record(float(i + 1))
        report = recorder.report()
        # 100 samples: the interpolated path, pos = 0.99 * 99 = 98.01
        assert report.p99 == pytest.approx(99.01)
        assert report.p50 == pytest.approx(50.5)


class TestRecorder:
    def test_report_statistics(self):
        recorder = LatencyRecorder()
        for v in (0.030, 0.010, 0.020):
            recorder.record(v)
        report = recorder.report()
        assert report.count == 3
        assert report.mean == pytest.approx(0.020)
        assert report.p50 == pytest.approx(0.020)
        assert report.maximum == pytest.approx(0.030)
        assert report.p50_ms == pytest.approx(20.0)

    def test_throughput_uses_marked_span(self):
        recorder = LatencyRecorder()
        recorder.record(0.001)
        recorder.record(0.001)
        recorder.mark_span(10.0, 14.0)
        assert recorder.report().throughput == pytest.approx(0.5)

    def test_span_only_widens(self):
        recorder = LatencyRecorder()
        recorder.record(0.001)
        recorder.mark_span(5.0, 6.0)
        recorder.mark_span(5.5, 5.8)  # inside: no effect
        recorder.mark_span(4.0, 7.0)  # wider: wins
        assert recorder.report().elapsed == pytest.approx(3.0)

    def test_empty_report_raises(self):
        with pytest.raises(ValueError):
            LatencyRecorder().report()

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(-0.1)

    def test_len(self):
        recorder = LatencyRecorder()
        assert len(recorder) == 0
        recorder.record(0.5)
        assert len(recorder) == 1


class TestSLO:
    def _report(self):
        recorder = LatencyRecorder()
        for v in (0.010, 0.020, 0.100):
            recorder.record(v)
        recorder.mark_span(0.0, 1.0)
        return recorder.report()

    def test_met(self):
        report = self._report()
        assert SLOTarget(p99=0.2, min_throughput=1.0).check(report) == ()

    def test_latency_objective_missed(self):
        findings = SLOTarget(p95=0.010).check(self._report())
        assert len(findings) == 1 and "p95" in findings[0]

    def test_throughput_objective_missed(self):
        findings = SLOTarget(min_throughput=100.0).check(self._report())
        assert len(findings) == 1 and "throughput" in findings[0]

    def test_none_objectives_skipped(self):
        assert SLOTarget().check(self._report()) == ()


def test_format_latency_report_renders_fields():
    recorder = LatencyRecorder()
    recorder.record(0.042)
    recorder.mark_span(0.0, 1.0)
    text = format_latency_report(recorder.report(), title="deposits")
    assert "[deposits]" in text
    assert "p99" in text and "42.00 ms" in text
