"""Tests for fake-coin padding (the denomination-attack length defence)."""

from __future__ import annotations

import random

import pytest

from repro.ecash.fake import make_fake_blob, pad_payment
from repro.net.codec import encode


class TestFakeBlob:
    def test_length(self, rng):
        assert len(make_fake_blob(100, rng)) == 100

    def test_random(self, rng):
        assert make_fake_blob(64, rng) != make_fake_blob(64, rng)

    def test_rejects_empty(self, rng):
        with pytest.raises(ValueError):
            make_fake_blob(0, rng)


class TestPadPayment:
    def test_slot_count(self, rng):
        padded = pad_payment([b"x" * 50], slots=5, rng=rng)
        assert len(padded) == 5

    def test_preserves_real_blobs(self, rng):
        real = [b"coin-A" * 10, b"coin-B" * 10]
        padded = pad_payment(real, slots=6, rng=rng)
        for blob in real:
            assert blob in padded

    def test_fakes_match_longest_real(self, rng):
        real = [b"a" * 80, b"b" * 120]
        padded = pad_payment(real, slots=5, rng=rng)
        fakes = [b for b in padded if b not in real]
        assert all(len(b) == 120 for b in fakes)

    def test_explicit_reference_length(self, rng):
        padded = pad_payment([], slots=3, rng=rng, reference_length=99)
        assert all(len(b) == 99 for b in padded)

    def test_rejects_too_few_slots(self, rng):
        with pytest.raises(ValueError):
            pad_payment([b"a", b"b"], slots=1, rng=rng)

    def test_no_fakes_when_full(self, rng):
        real = [b"a" * 10, b"b" * 10]
        padded = pad_payment(real, slots=2, rng=rng)
        assert sorted(padded) == sorted(real)


class TestLengthIndistinguishability:
    def test_wire_size_independent_of_real_count(self):
        """The whole point: the MA cannot tell 1 real coin from 5 by size."""
        rng = random.Random(1)
        ref = 200
        sizes = set()
        for n_real in (0, 1, 3, 5):
            blobs = [bytes(rng.getrandbits(8) for _ in range(ref)) for _ in range(n_real)]
            padded = pad_payment(blobs, slots=5, rng=rng, reference_length=ref)
            sizes.add(len(encode(padded)))
        assert len(sizes) == 1

    def test_shuffled_positions(self):
        """Real coins must not sit at predictable positions."""
        real = b"\x01" * 32
        first_positions = set()
        for seed in range(30):
            rng = random.Random(seed)
            padded = pad_payment([real], slots=4, rng=rng, reference_length=32)
            first_positions.add(padded.index(real))
        assert len(first_positions) > 1
