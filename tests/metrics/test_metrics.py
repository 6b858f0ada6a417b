"""Tests for the instrumentation layer: op counts, traffic, timing."""

from __future__ import annotations

import time

import pytest

from repro.metrics.opcount import OPS, OpCounter, format_table, format_traffic_table
from repro.metrics.timing import time_operation
from repro.net.codec import encode
from repro.net.transport import Transport


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
    """Table II is the transport's envelope log summed."""

    def test_record(self):
        t = Transport()
        t.send("JO", "MA", "k", b"x" * 90)
        n = len(encode(b"x" * 90))
        assert t.output_bytes("JO") == n
        assert t.input_bytes("MA") == n
        assert t.total_bytes() == n

    def test_total_counts_each_message_once(self):
        t = Transport()
        t.send("A", "B", "k", b"x" * 50)
        t.send("B", "A", "k", b"y" * 70)
        assert t.total_bytes() == sum(e.wire_bytes for e in t.log)
        assert t.total_bytes() == t.output_bytes("A") + t.output_bytes("B")
        assert t.total_bytes() == t.input_bytes("A") + t.input_bytes("B")

    def test_rejects_negative(self):
        # sizes come from the encoding, never from the caller: a party
        # with no traffic reads zero both ways
        t = Transport()
        t.send("A", "B", "k", b"")
        assert t.output_bytes("C") == t.input_bytes("C") == 0
        assert t.output_bytes("A") == len(encode(b"")) > 0

    def test_reset(self):
        t = Transport()
        t.send("A", "B", "k", 10)
        t.reset()
        assert t.total_bytes() == 0 and not t.log

    def test_format_table(self):
        t = Transport()
        t.send("JO", "MA", "k", b"x" * 660)
        text = format_traffic_table(t, ["JO", "MA"], title="Table II")
        assert "Table II" in text and str(t.output_bytes("JO")) in text
        assert "total" in text


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
