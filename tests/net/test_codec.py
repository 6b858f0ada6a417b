"""Unit + property tests for the canonical codec."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.net  # noqa: F401 — registers wire types
from repro.ecash.tree import NodeId
from repro.net.codec import decode, encode, encoded_size, register

# recursive strategy over the codec's type universe
scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.binary(max_size=64)
    | st.text(max_size=32)
)
values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


class TestRoundTrip:
    @given(values)
    @settings(max_examples=150)
    def test_roundtrip(self, value):
        assert decode(encode(value)) == value

    @given(values)
    @settings(max_examples=50)
    def test_canonical(self, value):
        assert encode(value) == encode(value)

    def test_big_integers(self):
        big = 1 << 4096
        assert decode(encode(big)) == big
        assert decode(encode(-big)) == -big

    def test_dict_key_order_irrelevant(self):
        assert encode({"a": 1, "b": 2}) == encode({"b": 2, "a": 1})

    def test_list_tuple_distinguished(self):
        assert decode(encode([1, 2])) == [1, 2]
        assert decode(encode((1, 2))) == (1, 2)
        assert encode([1]) != encode((1,))

    def test_encoded_size(self):
        assert encoded_size(b"1234") == len(encode(b"1234"))


class TestErrorHandling:
    def test_unencodable_type(self):
        with pytest.raises(TypeError):
            encode(object())

    def test_non_str_dict_key(self):
        with pytest.raises(TypeError):
            encode({1: "a"})

    def test_trailing_garbage(self):
        with pytest.raises(ValueError):
            decode(encode(1) + b"\x00")

    def test_truncated(self):
        blob = encode(b"hello world")
        with pytest.raises(ValueError):
            decode(blob[:-3])

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            decode(b"\xff")

    def test_empty(self):
        with pytest.raises(ValueError):
            decode(b"")


class TestDataclassSupport:
    def test_registered_roundtrip(self):
        node = NodeId(3, 5)
        assert decode(encode(node)) == node

    def test_nested_registered(self):
        payload = {"nodes": [NodeId(1, 0), NodeId(2, 3)], "tag": b"x"}
        assert decode(encode(payload)) == payload

    def test_unregistered_dataclass_rejected(self):
        @dataclasses.dataclass
        class Unregistered:
            x: int

        with pytest.raises(TypeError):
            encode(Unregistered(1))

    def test_register_non_dataclass_rejected(self):
        with pytest.raises(TypeError):
            register(int)

    def test_register_idempotent(self):
        register(NodeId)  # already registered by repro.net
        register(NodeId)

    def test_register_name_collision_rejected(self):
        @register
        @dataclasses.dataclass
        class Collider:
            x: int

        @dataclasses.dataclass
        class Other:
            x: int

        with pytest.raises(ValueError):
            register(Other, name=f"{Collider.__module__}.{Collider.__qualname__}")

    def test_unknown_tag_name_rejected(self):
        blob = bytearray(encode(NodeId(0, 0)))
        # corrupt the registered tag name
        idx = bytes(blob).find(b"NodeId")
        blob[idx : idx + 6] = b"NoSuch"
        with pytest.raises(ValueError):
            decode(bytes(blob))


class TestWireTypes:
    def test_spend_token_like_structures(self, dec_params, rng):
        """All registered protocol types round-trip (smoke via SpendToken
        covered in ecash tests; here: points and proofs)."""
        from repro.crypto.pairing.curve import Point
        from repro.crypto.pairing.field import Fp2

        p = 10007
        x = Fp2(3, 4, p)
        assert decode(encode(x)) == x
        pt = Point(Fp2(1, 0, p), Fp2(2, 0, p), p, is_infinity=True)
        assert decode(encode(pt)) == pt


class TestFuzzing:
    """decode() must reject garbage with ValueError — never crash oddly."""

    @given(st.binary(min_size=0, max_size=200))
    @settings(max_examples=200)
    def test_random_bytes_never_crash(self, blob):
        try:
            decode(blob)
        except ValueError:
            pass  # the only acceptable failure mode

    @given(values, st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=255))
    @settings(max_examples=100)
    def test_single_byte_corruption_never_crashes(self, value, pos, new_byte):
        blob = bytearray(encode(value))
        if not blob:
            return
        blob[pos % len(blob)] = new_byte
        try:
            decode(bytes(blob))
        except ValueError:
            pass
