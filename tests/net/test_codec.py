"""Unit + property tests for the canonical codec."""

from __future__ import annotations

import dataclasses
import enum
import random
import zlib
from collections import namedtuple

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.net  # noqa: F401 — registers wire types
from repro.crypto.pairing.field import Fp2
from repro.ecash.tree import NodeId
from repro.net.codec import (
    Encoded,
    decode,
    decode_with_span,
    encode,
    encoded_size,
    register,
)
from repro.net.wire import WireError, decode_payload

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

    def test_field_count_mismatch_rejected(self):
        blob = encode(NodeId(1, 1))
        assert blob.endswith(bytes([2, 3, 1, 1, 3, 1, 1]))
        with pytest.raises(ValueError, match="field count"):
            decode(blob[:-7] + bytes([1, 3, 1, 1]))

    def test_constructor_validation_is_a_value_error(self):
        blob = encode(NodeId(1, 1))
        with pytest.raises(ValueError, match="out of range"):
            decode(blob[:-1] + bytes([5]))  # NodeId(1, 5)

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


# -- the decode contract: decode accepts exactly the image of encode ---------
#: forms the decoder once accepted although no value encodes to them
NON_CANONICAL = {
    "leading zero byte": bytes.fromhex("03020005"),
    "empty int": bytes.fromhex("0300"),
    "negative zero": bytes.fromhex("040100"),
    "overlong length": bytes.fromhex("078000"),
    # the same int forms inside a sequence, where ints are decoded inline
    "leading zero byte in a list": bytes.fromhex("070103020005"),
    "empty int in a tuple": bytes.fromhex("08010300"),
    "keys out of order": bytes([9, 2]) + encode("b") + encode(1)
    + encode("a") + encode(2),
    "duplicate key": bytes([9, 2]) + encode("a") + encode(1)
    + encode("a") + encode(2),
    # Fp2.__post_init__ would reduce a = 10 to 3 mod 7
    "Fp2 with a >= p": encode(Fp2(3, 4, 7)).replace(
        encode(3) + encode(4) + encode(7), encode(10) + encode(4) + encode(7)),
}


def _image_only(blob: bytes) -> None:
    """The contract for one byte string: refused, or re-encodes to itself."""
    try:
        value = decode(blob)
    except ValueError:
        return
    assert encode(value) == blob


class TestFuzzing:
    """decode() accepts only encodings: garbage is a ValueError, never
    another exception, and every accepted string re-encodes to itself."""

    @given(st.binary(min_size=0, max_size=200))
    @settings(max_examples=300)
    @example(NON_CANONICAL["leading zero byte"])
    @example(NON_CANONICAL["empty int"])
    @example(NON_CANONICAL["negative zero"])
    @example(NON_CANONICAL["overlong length"])
    @example(NON_CANONICAL["keys out of order"])
    @example(NON_CANONICAL["duplicate key"])
    @example(NON_CANONICAL["Fp2 with a >= p"])
    @example(NON_CANONICAL["leading zero byte in a list"])
    @example(NON_CANONICAL["empty int in a tuple"])
    @example(bytes([11]) + (0x7FF0000000000001).to_bytes(8, "big"))  # sNaN
    def test_random_bytes_never_crash(self, blob):
        _image_only(blob)

    @given(values, st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=255))
    @settings(max_examples=100)
    def test_single_byte_corruption_never_crashes(self, value, pos, new_byte):
        blob = bytearray(encode(value))
        blob[pos % len(blob)] = new_byte
        _image_only(bytes(blob))


@pytest.fixture(scope="module")
def token_blobs(dec_params):
    """Encoded spend tokens for nodes at levels 0-3 of one coin."""
    from repro.crypto.cl_sig import cl_blind_issue, cl_keygen
    from repro.ecash.dec import begin_withdrawal, finish_withdrawal
    from repro.ecash.spend import create_spend

    rng = random.Random(0xC0DEC)
    keypair = cl_keygen(dec_params.backend, rng)
    secret, request = begin_withdrawal(dec_params, rng)
    coin = finish_withdrawal(dec_params, keypair.public, secret,
                             cl_blind_issue(dec_params.backend, keypair,
                                            request, rng))
    return [encode(create_spend(dec_params, keypair.public, coin.secret,
                                coin.signature, NodeId(level, 0), rng))
            for level in range(4)]


#: one edit of a byte string: overwrite, insert or delete at a position
edits = st.lists(
    st.tuples(st.sampled_from("oid"), st.integers(min_value=0),
              st.integers(min_value=0, max_value=255)),
    min_size=1, max_size=3,
)


def _mutate(blob: bytes, plan) -> bytes:
    out = bytearray(blob)
    for op, pos, byte in plan:
        if op == "i":
            out.insert(pos % (len(out) + 1), byte)
        elif out and op == "o":
            out[pos % len(out)] = byte
        elif out:
            del out[pos % len(out)]
    return bytes(out)


class TestDecodeContract:
    @pytest.mark.parametrize("name", sorted(NON_CANONICAL))
    def test_each_non_canonical_form_is_refused(self, name):
        blob = NON_CANONICAL[name]
        with pytest.raises(ValueError):
            decode(blob)
        # the door answers it like a bad checksum: a WireError
        with pytest.raises(WireError, match="does not decode"):
            decode_payload(blob, zlib.crc32(blob))

    def test_the_canonical_neighbours_still_decode(self):
        assert decode(bytes.fromhex("030105")) == 5
        assert decode(bytes.fromhex("030100")) == 0
        assert decode(bytes.fromhex("040105")) == -5
        assert decode(bytes.fromhex("0700")) == []
        assert decode(bytes([7, 0x80, 0x01]) + b"\x00" * 128) == [None] * 128
        assert decode(encode(Fp2(6, 4, 7))) == Fp2(6, 4, 7)

    @given(st.sampled_from(range(4)), edits)
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutated_token_frames_decode_only_to_themselves(
            self, token_blobs, index, plan):
        _image_only(_mutate(token_blobs[index], plan))

    def test_a_tag_name_decodes_only_under_its_current_registration(self):
        @dataclasses.dataclass
        class Renamed:
            x: int

        register(Renamed, name="codec-test.renamed.v1")
        old = encode(Renamed(1))
        register(Renamed, name="codec-test.renamed.v2")
        with pytest.raises(ValueError, match="unknown codec tag"):
            decode(old)
        assert decode(encode(Renamed(1))) == Renamed(1)

    def test_deep_nesting_is_a_value_error(self):
        with pytest.raises(ValueError):
            decode(b"\x07\x01" * 100_000 + b"\x00")


class TestSpans:
    @given(values, values)
    @settings(max_examples=100)
    def test_the_span_is_the_entrys_encoding(self, payload, other):
        request = {"kind": "x", "payload": payload, "z": other}
        blob = encode(request)
        value, span = decode_with_span(blob, "payload")
        assert value == request
        assert span == encode(payload)
        assert encode({**value, "payload": Encoded(span)}) == blob

    def test_no_span_without_the_key(self):
        assert decode_with_span(encode({"kind": "x"}), "payload")[1] is None
        assert decode_with_span(encode([1, 2]), "payload") == ([1, 2], None)

    def test_a_token_splices_back_byte_for_byte(self, token_blobs):
        token = decode(token_blobs[3])
        blob = encode({"kind": "deposit", "payload": {"aid": "a", "token": token}})
        _value, span = decode_with_span(blob, "payload")
        assert token_blobs[3] in span


class TestEncodeUnchanged:
    """The flat encoder writes the bytes the recursive one did."""

    def test_reference_bytes(self):
        assert encode(None) == b"\x00"
        assert encode([True, False]) == bytes.fromhex("07020201")
        assert encode(300) == bytes.fromhex("0302012c")
        assert encode(-1) == bytes.fromhex("040101")
        assert encode(1.5) == bytes.fromhex("0b3ff8000000000000")
        assert encode({"b": b"", "a": "\u00e9"}) == bytes.fromhex(
            "0902060161060 2c3a9060162 0500".replace(" ", ""))
        assert encode(list(range(200)))[:3] == bytes([7, 0xC8, 0x01])
        assert encode(NodeId(2, 1)) == (
            bytes([10, len(b"repro.ecash.tree.NodeId")]) + b"repro.ecash.tree.NodeId"
            + bytes.fromhex("02 030102 030101".replace(" ", "")))

    def test_long_ints_and_lengths(self):
        big = 1 << 1100  # a 138-byte magnitude: two-byte length, not inline
        blob = encode((big, -big))
        assert blob[:4] == bytes([8, 2, 3, 0x8A]) and decode(blob) == (big, -big)
        assert decode(encode("x" * 300)) == "x" * 300

    def test_subclasses_encode_as_their_builtin_base(self):
        class Level(enum.IntEnum):
            TOP = 3

        Pair = namedtuple("Pair", "a b")
        assert encode(Level.TOP) == encode(3)
        assert encode(Pair(1, 2)) == encode((1, 2))

    def test_encoded_is_copied_verbatim(self):
        assert encode([Encoded(encode(NodeId(1, 1)))]) == encode([NodeId(1, 1)])
