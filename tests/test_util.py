"""Tests for the shared helpers in repro._util."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import (
    bytes_to_int,
    int_to_bytes,
    rand_int_bits,
    rand_range,
)


class TestIntBytes:
    @given(st.integers(min_value=0, max_value=10**50))
    def test_roundtrip_minimal(self, v):
        assert bytes_to_int(int_to_bytes(v)) == v

    def test_zero_encodes_to_one_byte(self):
        assert int_to_bytes(0) == b"\x00"

    def test_fixed_length(self):
        assert int_to_bytes(1, 4) == b"\x00\x00\x00\x01"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            int_to_bytes(-1)

    def test_overflowing_length_rejected(self):
        with pytest.raises(OverflowError):
            int_to_bytes(256, 1)


class TestRng:
    def test_rand_int_bits_exact(self):
        rng = random.Random(1)
        for bits in (1, 2, 8, 64):
            for _ in range(20):
                assert rand_int_bits(rng, bits).bit_length() == bits

    def test_rand_int_bits_rejects_zero(self):
        with pytest.raises(ValueError):
            rand_int_bits(random.Random(1), 0)

    def test_rand_range(self):
        rng = random.Random(3)
        assert all(3 <= rand_range(rng, 3, 9) < 9 for _ in range(50))
        with pytest.raises(ValueError):
            rand_range(rng, 5, 5)
