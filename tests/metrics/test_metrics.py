"""Tests for the instrumentation layer: op counts, traffic, timing."""

from __future__ import annotations

import time

import pytest

from repro.metrics.opcount import OPS, OpCounter, format_table
from repro.metrics.timing import time_operation
from repro.metrics.traffic import TrafficMeter, format_traffic_table


class TestOpCounter:
    def test_record_and_get(self):
        c = OpCounter()
        c.record("JO", "Enc")
        c.record("JO", "Enc", 3)
        assert c.get("JO", "Enc") == 4
        assert c.get("JO", "Dec") == 0
        assert c.get("SP", "Enc") == 0

    def test_rejects_unknown_op(self):
        c = OpCounter()
        with pytest.raises(ValueError):
            c.record("JO", "Sign")

    def test_rejects_negative(self):
        c = OpCounter()
        with pytest.raises(ValueError):
            c.record("JO", "Enc", -1)

    def test_party_row_zero_filled(self):
        c = OpCounter()
        c.record("MA", "H", 2)
        assert c.party_row("MA") == {"ZKP": 0, "Enc": 0, "Dec": 0, "H": 2}

    def test_summary_format(self):
        c = OpCounter()
        c.record("JO", "ZKP", 9)
        c.record("JO", "Enc", 4)
        assert c.summary("JO") == "9ZKP+4Enc"
        assert c.summary("SP") == "0"

    def test_merged(self):
        a, b = OpCounter(), OpCounter()
        a.record("JO", "Enc", 2)
        b.record("JO", "Enc", 3)
        b.record("SP", "Dec")
        m = a.merged(b)
        assert m.get("JO", "Enc") == 5 and m.get("SP", "Dec") == 1
        assert a.get("JO", "Enc") == 2  # originals untouched

    def test_reset(self):
        c = OpCounter()
        c.record("JO", "Enc")
        c.reset()
        assert c.get("JO", "Enc") == 0

    def test_format_table_contains_all_parties(self):
        c = OpCounter()
        c.record("JO", "ZKP", 5)
        text = format_table(c, ["JO", "SP", "MA"], title="Table I")
        assert "Table I" in text and "JO" in text and "MA" in text
        for op in OPS:
            assert op in text


class TestTrafficMeter:
    def test_record(self):
        m = TrafficMeter()
        m.record("JO", "MA", 100)
        assert m.output_bytes("JO") == 100
        assert m.input_bytes("MA") == 100
        assert m.total_bytes() == 100

    def test_total_counts_each_message_once(self):
        m = TrafficMeter()
        m.record("A", "B", 50)
        m.record("B", "A", 70)
        assert m.total_bytes() == 120
        assert m.total_kb() == pytest.approx(120 / 1024)

    def test_rejects_negative(self):
        m = TrafficMeter()
        with pytest.raises(ValueError):
            m.record("A", "B", -1)

    def test_reset(self):
        m = TrafficMeter()
        m.record("A", "B", 10)
        m.reset()
        assert m.total_bytes() == 0 and m.messages == 0

    def test_format_table(self):
        m = TrafficMeter()
        m.record("JO", "MA", 664)
        text = format_traffic_table(m, ["JO", "MA"], title="Table II")
        assert "Table II" in text and "664" in text and "total" in text


class TestTiming:
    def test_time_operation_counts(self):
        calls = []
        result = time_operation(lambda: calls.append(1), repeats=5, warmup=2)
        assert len(calls) == 7
        assert result.repeats == 5
        assert result.mean >= 0 and result.minimum <= result.mean <= result.maximum

    def test_measures_real_time(self):
        result = time_operation(lambda: time.sleep(0.002), repeats=3, warmup=0)
        assert result.mean >= 0.0015
        assert result.mean_ms >= 1.5

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            time_operation(lambda: None, repeats=0)

    def test_str_mentions_ms(self):
        result = time_operation(lambda: None, repeats=2, warmup=0)
        assert "ms" in str(result)
