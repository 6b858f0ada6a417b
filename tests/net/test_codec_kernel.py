"""The codec's integer runs decode alike on the kernel and in Python.

With the verification kernel loaded, :func:`repro.net.codec.decode`
hands each run of short non-negative ints (and of tuples or lists made
only of them) to the kernel's ``int_run``; with ``fastexp.KERNEL`` set
to ``None`` the Python loop decodes every item.  The Python loop is the
oracle: for any bytes, both paths return equal values of equal types,
or both raise ``ValueError``.  The inputs are encoded values, mutated
the ways a hostile peer would (truncations, flipped, inserted and
deleted bytes, overlong and zero lengths, leading zeros, 127- and
128-byte ints, negative ints inside runs), plus the real deposit frames
at every node level.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import fastexp
from repro.crypto.cl_sig import cl_blind_issue, cl_keygen
from repro.crypto.pairing.field import Fp2
from repro.ecash.dec import begin_withdrawal, finish_withdrawal, setup
from repro.ecash.spend import create_spend
from repro.ecash.tree import NodeId
from repro.net.codec import decode, decode_with_span, encode
from repro.net.wire import HEADER_SIZE, decode_frame, encode_frame

pytestmark = pytest.mark.skipif(fastexp.KERNEL is None,
                                reason="the verification kernel is not built")

_INT_POS, _LIST, _TUPLE = 3, 7, 8


def _outcome(data: bytes):
    """``("value", repr)`` of what decode returns, or ``("raises", class)``."""
    try:
        return "value", repr(decode(data))
    except ValueError as exc:
        return "raises", type(exc)


def _both_paths(data: bytes):
    kernel = fastexp.KERNEL
    on_kernel = _outcome(data)
    fastexp.KERNEL = None
    try:
        on_python = _outcome(data)
    finally:
        fastexp.KERNEL = kernel
    return on_kernel, on_python


def _int_bytes(bits: int):
    return st.integers(min_value=0, max_value=(1 << bits) - 1)


_ints = st.one_of(
    _int_bytes(8), _int_bytes(80), _int_bytes(1016),  # up to 127 bytes: short
    st.integers(min_value=1 << 1016, max_value=(1 << 1032) - 1),  # 128-129 bytes
    st.integers(max_value=-1, min_value=-(1 << 90)),
    st.sampled_from([0, 1, 255, 256, (1 << 1016) - 1, 1 << 1016, -1]),
)
_leaves = st.one_of(_ints, st.none(), st.booleans(), st.binary(max_size=8),
                    st.text(max_size=4), st.floats(allow_nan=False),
                    st.builds(NodeId, st.just(2), st.integers(0, 3)),
                    st.builds(Fp2, _int_bytes(60), _int_bytes(60), st.just((1 << 61) - 1)))
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        st.lists(st.lists(_ints, max_size=4).map(tuple), max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), inner, max_size=4),
    ),
    max_leaves=24,
)


@st.composite
def _mutated(draw):
    """An encoding, then up to three hostile edits."""
    data = bytearray(encode(draw(_values)))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["truncate", "flip", "insert", "delete"]))
        if edit == "truncate":
            del data[at:]
        elif edit == "flip" and at < len(data):
            data[at] = draw(st.integers(0, 255))
        elif edit == "insert":
            data[at:at] = draw(st.sampled_from(
                [b"\x00", b"\x80", b"\x80\x00", b"\x03\x00", b"\x03\x02\x00\x01",
                 b"\x04\x01\x05", b"\x08\x7f", bytes(draw(st.binary(max_size=3)))]))
        elif edit == "delete" and at < len(data):
            del data[at]
    return bytes(data)


@settings(max_examples=400, deadline=None)
@given(data=_mutated())
def test_mutated_encodings_decode_alike(data):
    on_kernel, on_python = _both_paths(data)
    assert on_kernel == on_python, data


@st.composite
def _int_runs(draw):
    """A tuple whose body is hand-built short ints and int tuples, some
    of them malformed: an empty int, a leading zero byte, a length past
    the end, a length byte of 128, or a negative int inside the run."""
    items = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(
            ["int", "int", "empty", "zero-led", "neg", "long", "seq", "past-end"]))
        raw = draw(st.binary(min_size=1, max_size=127))
        if kind == "int":
            raw = raw.lstrip(b"\x00") or b"\x00"
            items.append(bytes((_INT_POS, len(raw))) + raw)
        elif kind == "empty":
            items.append(bytes((_INT_POS, 0)))
        elif kind == "zero-led":
            items.append(bytes((_INT_POS, len(raw) + 1, 0)) + raw)
        elif kind == "neg":
            items.append(encode(-int.from_bytes(raw, "big") or -1))
        elif kind == "long":
            items.append(bytes((_INT_POS, 0x80, 0x01)) + b"\x01" * 128)
        elif kind == "seq":
            inner = draw(st.lists(st.integers(0, 1 << 70), max_size=5))
            tag = draw(st.sampled_from([_TUPLE, _LIST]))
            items.append(bytes((tag, len(inner))) + b"".join(map(encode, inner)))
        else:
            items.append(bytes((_INT_POS, 100)) + raw[:50])
    count = draw(st.integers(max(0, len(items) - 1), len(items) + 1))
    return bytes((_TUPLE, count)) + b"".join(items)


@settings(max_examples=400, deadline=None)
@given(data=_int_runs())
def test_hand_built_runs_decode_alike(data):
    on_kernel, on_python = _both_paths(data)
    assert on_kernel == on_python, data


@pytest.mark.parametrize("value", [
    tuple(range(300)),
    [(1 << 1015, 1 << 1016)],
    tuple((i, i + 1, i + 2) for i in range(0, 3 << 10, 3)),
    ((((((1, 2),),),),),),
    (0, 1, -1, 2, "x", 3, [4, 5], {"k": (6, 7)}),
    [(), []],
])
def test_boundary_values_round_trip_on_both_paths(value):
    on_kernel, on_python = _both_paths(encode(value))
    assert on_kernel == on_python == ("value", repr(value))


@pytest.fixture(scope="module")
def deposit_frames():
    """One deposit frame per node level, from a ``setup(3)`` market."""
    rng = random.Random("codec-kernel")
    params = setup(3, rng)
    keypair = cl_keygen(params.backend, rng)
    secret, request = begin_withdrawal(params, rng)
    coin = finish_withdrawal(params, keypair.public, secret,
                             cl_blind_issue(params.backend, keypair, request, rng))
    frames = []
    for level in range(4):
        token = create_spend(params, keypair.public, coin.secret, coin.signature,
                             NodeId(level, 0), rng)
        frames.append(encode_frame({
            "cid": 3, "kind": "deposit", "sender": "sp0", "rid": f"sp0:{level}",
            "now": 1.5, "payload": {"aid": "sp0", "token": token}}))
    return frames


@pytest.mark.parametrize("level", range(4))
def test_deposit_frames_decode_alike(deposit_frames, level):
    frame = deposit_frames[level]
    on_kernel = decode_frame(frame), decode_with_span(frame[HEADER_SIZE:], "payload")
    kernel, fastexp.KERNEL = fastexp.KERNEL, None
    try:
        on_python = decode_frame(frame), decode_with_span(frame[HEADER_SIZE:], "payload")
    finally:
        fastexp.KERNEL = kernel
    assert on_kernel == on_python
    assert repr(on_kernel) == repr(on_python)
    assert encode_frame(on_kernel[0][0]) == frame
