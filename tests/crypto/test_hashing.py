"""Tests for hashing helpers and the Fiat–Shamir transcript."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import int_to_bytes
from repro.crypto.hashing import Transcript, hash_to_int, hash_to_range, sha256


class TestSha256:
    def test_deterministic(self):
        assert sha256(b"a", b"b") == sha256(b"a", b"b")

    def test_length_prefixing_blocks_concat_ambiguity(self):
        # ("ab", "c") must differ from ("a", "bc")
        assert sha256(b"ab", b"c") != sha256(b"a", b"bc")

    def test_digest_size(self):
        assert len(sha256(b"x")) == 32


class TestHashToRange:
    @given(st.integers(min_value=1, max_value=10**30), st.binary(max_size=64))
    @settings(max_examples=50)
    def test_in_range(self, upper, data):
        v = hash_to_range(upper, data)
        assert 0 <= v < upper

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            hash_to_range(0, b"x")

    def test_spread_over_small_range(self):
        """Counter-mode extension should cover a small range uniformly-ish."""
        seen = {hash_to_range(10, b"x", i.to_bytes(4, "big")) for i in range(200)}
        assert seen == set(range(10))

    def test_hash_to_int_256bits(self):
        assert 0 <= hash_to_int(b"q") < (1 << 256)


class TestTranscript:
    def test_same_absorptions_same_challenge(self):
        t1, t2 = Transcript(b"d"), Transcript(b"d")
        for t in (t1, t2):
            t.absorb_int(42)
            t.absorb(b"hello")
        assert t1.challenge(10**9) == t2.challenge(10**9)

    def test_domain_separation(self):
        t1, t2 = Transcript(b"alpha"), Transcript(b"beta")
        t1.absorb_int(1)
        t2.absorb_int(1)
        assert t1.challenge(10**9) != t2.challenge(10**9)

    def test_absorption_order_matters(self):
        t1, t2 = Transcript(b"d"), Transcript(b"d")
        t1.absorb_int(1)
        t1.absorb_int(2)
        t2.absorb_int(2)
        t2.absorb_int(1)
        assert t1.challenge(10**9) != t2.challenge(10**9)

    def test_sequential_challenges_differ(self):
        t = Transcript(b"d")
        t.absorb_int(7)
        assert t.challenge(10**12) != t.challenge(10**12)

    def test_challenge_after_divergence_differs(self):
        t1, t2 = Transcript(b"d"), Transcript(b"d")
        t1.absorb_int(1)
        c1 = t1.challenge(10**9)
        t2.absorb_int(1)
        c2 = t2.challenge(10**9)
        assert c1 == c2
        t1.absorb_int(5)
        t2.absorb_int(6)
        assert t1.challenge(10**9) != t2.challenge(10**9)

    def test_challenge_bytes_length(self):
        t = Transcript(b"d")
        assert len(t.challenge_bytes(100)) == 100

    def test_fork_independent(self):
        t = Transcript(b"d")
        t.absorb_int(3)
        f1 = t.fork(b"left")
        f2 = t.fork(b"right")
        assert f1.challenge(10**9) != f2.challenge(10**9)
        # forking must not disturb the parent
        t_again = Transcript(b"d")
        t_again.absorb_int(3)
        assert t.challenge(10**9) == t_again.challenge(10**9)

    def test_absorb_ints_equivalent(self):
        t1, t2 = Transcript(b"d"), Transcript(b"d")
        t1.absorb_ints(1, 2, 3)
        for v in (1, 2, 3):
            t2.absorb_int(v)
        assert t1.challenge(997) == t2.challenge(997)


class _FromScratch:
    """The transcript as a list of parts, every output hashed over the
    whole list again: the reference the running hash state must equal."""

    def __init__(self, domain: bytes, parts: list[bytes] | None = None) -> None:
        self.parts = parts if parts is not None else [b"repro.transcript", domain]
        self.challenges = 0

    def absorb(self, data: bytes) -> None:
        self.parts.append(data)

    def absorb_int(self, value: int) -> None:
        self.parts.append(int_to_bytes(value))

    def challenge(self, upper: int) -> int:
        self.challenges += 1
        return hash_to_range(upper, *self.parts, b"challenge", self.challenges.to_bytes(4, "big"))

    def challenge_bytes(self, length: int) -> bytes:
        self.challenges += 1
        out, counter = b"", 0
        while len(out) < length:
            out += sha256(*self.parts, b"challenge-bytes", self.challenges.to_bytes(4, "big"),
                          counter.to_bytes(4, "big"))
            counter += 1
        return out[:length]

    def fork(self, domain: bytes) -> "_FromScratch":
        return _FromScratch(domain, self.parts + [b"fork", domain])


_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("absorb"), st.binary(max_size=80)),
        st.tuples(st.just("absorb_int"), st.integers(min_value=0, max_value=1 << 700)),
        st.tuples(st.just("absorb_ints"),
                  st.lists(st.integers(min_value=0, max_value=1 << 90), max_size=6)),
        st.tuples(st.just("challenge"), st.integers(min_value=1, max_value=1 << 1100)),
        st.tuples(st.just("challenge_bytes"), st.integers(min_value=0, max_value=100)),
        st.tuples(st.just("fork"), st.binary(max_size=12)),
    ),
    max_size=30,
)


class TestTranscriptFromScratch:
    @settings(max_examples=200, deadline=None)
    @given(domain=st.binary(max_size=16), steps=_STEPS)
    def test_every_output_equals_the_from_scratch_hash(self, domain, steps):
        live, ref = [Transcript(domain)], [_FromScratch(domain)]
        for op, arg in steps:
            t, r = live[-1], ref[-1]
            if op == "absorb":
                t.absorb(arg)
                r.absorb(arg)
            elif op == "absorb_int":
                t.absorb_int(arg)
                r.absorb_int(arg)
            elif op == "absorb_ints":
                t.absorb_ints(*arg)
                for v in arg:
                    r.absorb_int(v)
            elif op == "challenge":
                assert t.challenge(arg) == r.challenge(arg)
            elif op == "challenge_bytes":
                assert t.challenge_bytes(arg) == r.challenge_bytes(arg)
            else:
                # work on the fork from here; the parent must be untouched
                live.append(t.fork(arg))
                ref.append(r.fork(arg))
                assert t.challenge(1 << 64) == r.challenge(1 << 64)
