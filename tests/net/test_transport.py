"""Tests for the accounted transport."""

from __future__ import annotations

import pytest

from repro.net.codec import encode
from repro.net.transport import Transport


class TestDelivery:
    def test_returns_decoded_copy(self):
        t = Transport()
        payload = {"coins": [1, 2, 3]}
        delivered = t.send("A", "B", "test", payload)
        assert delivered == payload
        assert delivered is not payload  # a copy, not the same object

    def test_mutation_does_not_leak(self):
        t = Transport()
        payload = {"xs": [1]}
        delivered = t.send("A", "B", "test", payload)
        delivered["xs"].append(2)
        assert payload == {"xs": [1]}

    def test_unencodable_fails_loudly(self):
        t = Transport()
        with pytest.raises(TypeError):
            t.send("A", "B", "bad", object())


class TestAccounting:
    def test_meter_matches_encoding(self):
        t = Transport()
        payload = b"hello" * 100
        t.send("A", "B", "k", payload)
        assert t.output_bytes("A") == len(encode(payload))
        assert t.input_bytes("B") == len(encode(payload))
        assert t.log[0].wire_bytes == len(encode(payload))

    def test_accumulates(self):
        t = Transport()
        t.send("A", "B", "k", 1)
        t.send("A", "B", "k", 2)
        assert len(t.log) == 2
        assert t.total_bytes() == t.output_bytes("A")

    def test_multiple_parties(self):
        t = Transport()
        t.send("A", "B", "k", b"x" * 10)
        t.send("B", "C", "k", b"y" * 20)
        assert t.output_bytes("B") > 0
        assert t.input_bytes("C") == t.output_bytes("B")
        assert t.input_bytes("B") == t.output_bytes("A")
        assert t.total_bytes() == t.output_bytes("A") + t.output_bytes("B")


class TestLog:
    def test_envelopes_recorded_in_order(self):
        t = Transport()
        t.send("A", "B", "first", 1)
        t.send("B", "A", "second", 2)
        assert [e.kind for e in t.log] == ["first", "second"]
        assert [e.seq for e in t.log] == [0, 1]

    def test_messages_between(self):
        t = Transport()
        t.send("A", "B", "k", 1)
        t.send("B", "A", "k", 2)
        t.send("A", "C", "k", 3)
        assert len(t.messages_between("A", "B")) == 2
        assert len(t.messages_between("A", "C")) == 1

    def test_observer_called(self):
        t = Transport()
        seen = []
        t.add_observer(lambda env: seen.append(env.kind))
        t.send("A", "B", "watched", 1)
        assert seen == ["watched"]

    def test_reset(self):
        t = Transport()
        t.send("A", "B", "k", 1)
        t.reset()
        assert not t.log and t.total_bytes() == 0
        t.send("A", "B", "k", 1)
        assert t.log[0].seq == 0
