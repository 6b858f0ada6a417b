"""Tests for the mix-network anonymization model."""

from __future__ import annotations

import random

from repro.net.mix import MixNetwork
from repro.net.transport import Transport


def make_mix(seed=0):
    return MixNetwork(transport=Transport(), rng=random.Random(seed))


class TestBatching:
    def test_flush_delivers_everything(self):
        mix = make_mix()
        for i in range(5):
            mix.enqueue(f"sp-{i}", "MA", "report", {"i": i})
        delivered = mix.flush()
        assert len(delivered) == 5
        assert not mix.pending

    def test_flush_empty_batch(self):
        mix = make_mix()
        assert mix.flush() == []
        assert mix.observations[-1].batch_size == 0

    def test_shuffling_changes_order(self):
        """Across seeds, delivery order must vary — the anonymity property."""
        orders = set()
        for seed in range(20):
            mix = make_mix(seed)
            for i in range(6):
                mix.enqueue(f"sp-{i}", "MA", "report", i)
            mix.flush()
            orders.add(tuple(e.payload for e in mix.transport.log))
        assert len(orders) > 1

    def test_transport_still_accounts(self):
        mix = make_mix()
        mix.enqueue("sp-0", "MA", "report", b"x" * 100)
        mix.flush()
        assert mix.transport.output_bytes("sp-0") > 100


class TestObserverView:
    def test_observation_records_multiset_only(self):
        """The eavesdropper sees sorted lengths, not sender order."""
        mix = make_mix()
        mix.enqueue("sp-0", "MA", "r", b"a" * 10)
        mix.enqueue("sp-1", "MA", "r", b"b" * 200)
        mix.flush()
        obs = mix.observations[-1]
        assert obs.batch_size == 2
        assert obs.message_lengths == tuple(sorted(obs.message_lengths))

    def test_equal_length_messages_indistinguishable(self):
        """When all messages have the same length the observation carries
        zero distinguishing information — the fake-coin padding goal."""
        mix_a, mix_b = make_mix(1), make_mix(2)
        for mix, senders in ((mix_a, ["x", "y"]), (mix_b, ["p", "q"])):
            for s in senders:
                mix.enqueue(s, "MA", "r", b"z" * 64)
            mix.flush()
        assert mix_a.observations[-1] == mix_b.observations[-1]
