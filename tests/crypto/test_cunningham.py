"""Tests for Cunningham-chain search and the precomputed table."""

from __future__ import annotations

import random

import pytest

from repro.crypto.cunningham import (
    KNOWN_CHAINS,
    CunninghamChain,
    find_chain,
    find_chain_with_stats,
    is_first_kind_chain,
    known_chain,
)
from repro.crypto.ntheory import is_probable_prime


class TestChainDataclass:
    def test_primes_materialization(self):
        chain = CunninghamChain(2, 5)
        assert chain.primes() == [2, 5, 11, 23, 47]

    def test_verify_classic_chain(self):
        assert CunninghamChain(89, 6).verify()

    def test_verify_detects_break(self):
        assert not CunninghamChain(89, 7).verify()  # 89-chain is length 6

    def test_validation(self):
        with pytest.raises(ValueError):
            CunninghamChain(7, 0)
        with pytest.raises(ValueError):
            CunninghamChain(1, 3)


class TestPredicates:
    def test_is_first_kind_chain(self):
        assert is_first_kind_chain(2, 5)
        assert is_first_kind_chain(1122659, 7)
        assert not is_first_kind_chain(4, 1)
        assert not is_first_kind_chain(13, 2)  # 27 composite


class TestSearch:
    def test_find_chain_small(self):
        rng = random.Random(7)
        chain = find_chain(2, 10, rng)
        assert chain.length == 2 and chain.verify()
        assert chain.start.bit_length() == 10

    def test_find_chain_length3(self):
        rng = random.Random(8)
        chain = find_chain(3, 12, rng)
        assert chain.verify()

    def test_find_chain_with_stats_counts_attempts(self):
        rng = random.Random(9)
        chain, attempts = find_chain_with_stats(2, 12, rng)
        assert attempts >= 1 and chain.verify()

    def test_search_effort_grows_with_length(self):
        """The Fig. 2 phenomenon: longer chains need far more samples."""
        rng = random.Random(10)
        short = sum(find_chain_with_stats(1, 14, rng)[1] for _ in range(5))
        long = sum(find_chain_with_stats(3, 14, rng)[1] for _ in range(5))
        assert long > short

    def test_rejects_bad_arguments(self):
        rng = random.Random(11)
        with pytest.raises(ValueError):
            find_chain(0, 16, rng)
        with pytest.raises(ValueError):
            find_chain(2, 2, rng)


class TestKnownChains:
    @pytest.mark.parametrize("length", sorted(KNOWN_CHAINS))
    def test_table_entries_are_chains(self, length):
        assert is_first_kind_chain(KNOWN_CHAINS[length], length)

    @pytest.mark.parametrize("length", range(1, 15))
    def test_known_chain_every_length(self, length):
        chain = known_chain(length)
        assert chain.length == length
        assert chain.verify()

    @pytest.mark.parametrize("length", range(1, 15))
    def test_tail_derivation_gives_large_starts(self, length):
        """Coin-secret space must stay cryptographically meaningful."""
        assert known_chain(length).start.bit_length() >= 35

    def test_known_chain_too_long_raises(self):
        with pytest.raises(KeyError):
            known_chain(99)

    def test_known_chain_rejects_nonpositive(self):
        with pytest.raises(KeyError):
            known_chain(0)

    def test_tail_relation(self):
        """A tail chain's start is 2*previous+1 of the longer chain."""
        longer = known_chain(14).primes()
        shorter = known_chain(13).primes()
        assert shorter == longer[1:]

    def test_chain_elements_all_prime(self):
        for p in known_chain(10).primes():
            assert is_probable_prime(p)


class TestWindowWidening:
    def test_empty_window_widens_instead_of_looping(self):
        """No length-5 chain starts with a 12-bit prime; the search must
        widen the window and still terminate."""
        rng = random.Random(77)
        chain, attempts = find_chain_with_stats(5, 12, rng)
        assert chain.verify()
        assert chain.start.bit_length() > 12  # forced out of the window
        assert attempts > (8 << 12) * 0.5  # it really exhausted the window

    def test_bits_is_a_minimum(self):
        rng = random.Random(78)
        chain = find_chain(2, 10, rng)
        assert chain.start.bit_length() >= 10
