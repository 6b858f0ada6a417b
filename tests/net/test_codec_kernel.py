"""The codec's two walks agree: the kernel's and the Python reference.

With the verification kernel loaded, :func:`repro.net.codec.encode` and
:func:`~repro.net.codec.decode` run its ``codec_encode`` and
``codec_decode``; with ``fastexp.KERNEL`` set to ``None`` the Python
walk (``_put``, ``_take``) runs.  The Python walk is the oracle: for any
value both paths return equal bytes, and for any bytes equal values of
equal types (compared by ``repr``), or both raise the same exception
class with the same message.  The inputs:

* values over the whole type universe: registered objects (one whose
  constructor refuses, one that changes a field), ``IntEnum``,
  namedtuple and ``str``-subclass values and keys, a ``bytes`` subclass
  whose ``__bytes__`` returns its own class, :class:`Encoded`,
  ``nan``/``-0.0``/``inf``, ints at every width boundary, non-str dict
  keys and unencodable types;
* their encodings mutated the ways a hostile peer would: truncations
  (every one, for a few values), flipped, inserted and deleted bytes,
  huge and overlong varints, hand-built malformed int runs;
* nesting at :data:`~repro.net.codec.MAX_DEPTH` and one past it;
* :func:`~repro.net.codec.decode_with_span`'s spans;
* the real frames a server reads and writes: deposits at every node
  level, an open-account request, a reply, ``accept`` and ``apply``
  journal records, a shard snapshot and a cluster bootstrap.
"""

from __future__ import annotations

import random
from collections import namedtuple
from dataclasses import dataclass
from enum import IntEnum
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import launcher
from repro.core.ledger import _MAGIC as _SNAPSHOT_MAGIC
from repro.crypto import fastexp
from repro.crypto.cl_sig import cl_blind_issue, cl_keygen
from repro.crypto.pairing.field import Fp2
from repro.ecash.dec import begin_withdrawal, finish_withdrawal, setup
from repro.ecash.spend import create_spend
from repro.ecash.tree import NodeId
from repro.net import codec
from repro.net.codec import MAX_DEPTH, Encoded, decode, decode_with_span, encode, register
from repro.net.wire import HEADER_SIZE, decode_frame, encode_frame
from repro.service import InProcessGateway, Journal, MarketService, ShardedBank, \
    VerificationBatcher
from repro.service.storage import MemoryStorage, StorageWrapper

pytestmark = pytest.mark.skipif(fastexp.KERNEL is None,
                                reason="the verification kernel is not built")

_INT_POS, _LIST, _TUPLE, _DICT = 3, 7, 8, 9


@dataclass(frozen=True)
class _Pair:
    left: Any
    right: Any


@dataclass(frozen=True)
class _Reduced:
    """Reduces an int field modulo 7: a decoded 9 comes back changed
    (``_Reduced(Encoded(encode(9)))`` puts one on the wire)."""

    value: Any

    def __post_init__(self) -> None:
        if type(self.value) is int:
            object.__setattr__(self, "value", self.value % 7)


@dataclass(frozen=True)
class _Picky:
    """Refuses ``"no"`` with a ``TypeError`` (``_Picky(Encoded(encode("no")))``
    puts one on the wire)."""

    value: Any

    def __post_init__(self) -> None:
        if type(self.value) is str and self.value == "no":
            raise TypeError("not that")


@dataclass(frozen=True)
class _Empty:
    pass


for _cls in (_Pair, _Reduced, _Picky, _Empty):
    register(_cls, f"tests.codec-kernel.{_cls.__name__}")


class _Colour(IntEnum):
    RED = 1
    BIG = 1 << 70


class _Name(str):
    pass


_Point = namedtuple("_Point", "x y")


class _SelfBytes(bytes):
    """``bytes(self)`` is another ``_SelfBytes``: refused, not converted
    forever."""

    def __bytes__(self) -> bytes:
        return _SelfBytes(b"again")


def _outcome(fn, *args):
    """``("value", repr)`` of what *fn* returns, or ``("raises", class,
    message)``."""
    try:
        return "value", repr(fn(*args))
    except Exception as exc:  # the oracle compares whatever either path raises
        return "raises", type(exc), str(exc)


def _both(fn, *args):
    """*fn*'s outcome on the kernel, then on the Python walk."""
    kernel = fastexp.KERNEL
    on_kernel = _outcome(fn, *args)
    fastexp.KERNEL = None
    try:
        on_python = _outcome(fn, *args)
    finally:
        fastexp.KERNEL = kernel
    return on_kernel, on_python


def _both_paths(data: bytes):
    return _both(decode, data)


def _int_bytes(bits: int):
    return st.integers(min_value=0, max_value=(1 << bits) - 1)


_ints = st.one_of(
    _int_bytes(8), _int_bytes(80), _int_bytes(1016),  # up to 127 bytes: short
    st.integers(min_value=1 << 1016, max_value=(1 << 1032) - 1),  # 128-129 bytes
    st.integers(max_value=-1, min_value=-(1 << 90)),
    st.integers(min_value=-(1 << 1101), max_value=1 << 1101),
    st.sampled_from([0, 1, 255, 256, (1 << 1016) - 1, 1 << 1016, -1,
                     (1 << 63) - 1, 1 << 63, (1 << 64) - 1, 1 << 64, -(1 << 63),
                     -(1 << 63) - 1, -(1 << 64), (1 << 127) - 1, 1 << 127,
                     (1 << 128) - 1, 1 << 128, (1 << 1100) - 1, -(1 << 1100)]),
)
_floats = st.one_of(st.floats(), st.sampled_from(
    [float("nan"), -0.0, 0.0, float("inf"), float("-inf")]))
_texts = st.one_of(st.text(max_size=4), st.sampled_from(["é", "\U0001f600", "\ud800"]))
_leaves = st.one_of(
    _ints, st.none(), st.booleans(), st.binary(max_size=8), _texts, _floats,
    st.builds(NodeId, st.just(2), st.integers(0, 3)),
    st.builds(Fp2, _int_bytes(60), _int_bytes(60), st.just((1 << 61) - 1)),
    st.builds(_Reduced, st.integers(-3, 9)), st.builds(_Picky, st.integers(0, 3)),
    st.sampled_from([_Reduced(Encoded(encode(9))), _Reduced(Encoded(encode(-3))),
                     _Reduced(Encoded(encode(5))), _Picky(Encoded(encode("no")))]),
    st.just(_Empty()), st.sampled_from(list(_Colour)), st.builds(_Name, _texts),
    st.builds(_Point, _ints, st.none()),
    st.sampled_from([Encoded(encode((1, "x"))), Encoded(bytearray(b"\x00")),
                     Encoded("not bytes"), object(), {1, 2}, 3j, bytearray(b"ab"),
                     _SelfBytes(b"x")]),
)
_keys = st.one_of(st.text(max_size=3), st.builds(_Name, st.text(max_size=3)))
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        st.lists(st.lists(_ints, max_size=4).map(tuple), max_size=4).map(tuple),
        st.dictionaries(_keys, inner, max_size=4),
        st.dictionaries(st.one_of(st.integers(0, 3), st.text(max_size=2)), inner,
                        max_size=3),
        st.builds(_Pair, inner, inner),
        st.builds(_Point, inner, inner),
        inner.filter(lambda v: not (type(v) is str and v == "no")).map(_Picky),
    ),
    max_leaves=24,
)


@settings(max_examples=600, deadline=None)
@given(value=_values)
def test_values_encode_and_decode_alike(value):
    on_kernel, on_python = _both(encode, value)
    assert on_kernel == on_python, value
    if on_kernel[0] == "value":
        on_kernel, on_python = _both(decode, encode(value))
        assert on_kernel == on_python, value


@st.composite
def _mutated(draw):
    """An encoding, then up to three hostile edits."""
    value = draw(_values)
    try:
        data = bytearray(encode(value))
    except (TypeError, ValueError):
        data = bytearray(encode([None, value is None]))
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
                 b"\x04\x01\x05", b"\x08\x7f", b"\x05\x80\x00", b"\x0a\x03abc\x00",
                 b"\x08" + b"\xff" * 12 + b"\x01", b"\x06\x8f" + b"\xff" * 9 + b"\x7f",
                 b"\x0b", b"\x06\x02\xc3\x28", bytes(draw(st.binary(max_size=3)))]))
        elif edit == "delete" and at < len(data):
            del data[at]
    return bytes(data)


@settings(max_examples=600, deadline=None)
@given(data=_mutated())
def test_mutated_encodings_decode_alike(data):
    on_kernel, on_python = _both_paths(data)
    assert on_kernel == on_python, data
    on_kernel, on_python = _both(decode_with_span, data, "")
    assert on_kernel == on_python, data


@pytest.mark.parametrize("value", [
    {"a": [1, -2, (3, 1 << 1100)], "b": b"xy", "c": "hé", "d": None, "e": 1.5},
    _Pair(NodeId(3, 5), _Pair(_Empty(), {"k": [True, False]})),
    (Fp2(5, 6, 7), -(1 << 64), float("-inf"), _Reduced(4)),
])
def test_every_truncation_decodes_alike(value):
    data = encode(value)
    for end in range(len(data)):
        on_kernel, on_python = _both_paths(data[:end])
        assert on_kernel == on_python, end
        assert on_kernel[0] == "raises"


@settings(max_examples=300, deadline=None)
@given(value=st.dictionaries(st.sampled_from(["", "a", "payload", "z"]), _values,
                             max_size=4),
       key=st.sampled_from(["", "a", "payload", "z", "zz"]))
def test_spans_alike(value, key):
    try:
        data = encode(value)
    except (TypeError, ValueError):
        return
    on_kernel, on_python = _both(decode_with_span, data, key)
    assert on_kernel == on_python
    if on_kernel[0] == "value":
        _value, span = decode_with_span(data, key)
        assert span == (encode(value[key]) if key in value else None)


_WRAP = {"list": lambda v: [v], "tuple": lambda v: (v,), "dict": lambda v: {"k": v},
         "object": lambda v: _Pair(v, None), "namedtuple": lambda v: _Point(v, 1)}


@pytest.mark.parametrize("kind", list(_WRAP))
@pytest.mark.parametrize("depth", [MAX_DEPTH, MAX_DEPTH + 1])
def test_the_nesting_bound_is_the_same_on_both_paths(kind, depth):
    wrap, value = _WRAP[kind], 0
    for _ in range(depth):
        value = wrap(value)
    too_deep = ("raises", ValueError, "value nested too deeply")
    on_kernel, on_python = _both(encode, value)
    assert on_kernel == on_python
    assert (on_kernel == too_deep) == (depth > MAX_DEPTH)
    # the same nesting as bytes, built past what encode writes:
    # wrap(v) encodes as head + encode(v) + tail
    head, _zero, tail = encode(wrap(0)).partition(encode(0))
    on_kernel, on_python = _both_paths(head * depth + encode(0) + tail * depth)
    assert on_kernel == on_python
    assert (on_kernel == too_deep) == (depth > MAX_DEPTH)


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


@st.composite
def _dict_bodies(draw):
    """A dict built entry by entry: keys from a small alphabet, so some
    repeat or fall out of order, some not str at all, and a count that
    may be one off."""
    keys = st.one_of(st.sampled_from(["", "a", "b", "payload", "é"]),
                     st.sampled_from([0, b"a", None, ("a",), NodeId(1, 0)]))
    entries = draw(st.lists(st.tuples(keys, _values), max_size=5))
    body = b""
    for key, value in entries:
        try:
            body += encode(key) + encode(value)
        except (TypeError, ValueError):
            body += encode(key) + encode(None)
    count = draw(st.integers(max(0, len(entries) - 1), len(entries) + 1))
    return bytes((_DICT, count)) + body


@settings(max_examples=400, deadline=None)
@given(data=_dict_bodies())
def test_hand_built_dicts_decode_alike(data):
    on_kernel, on_python = _both_paths(data)
    assert on_kernel == on_python, data
    on_kernel, on_python = _both(decode_with_span, data, "payload")
    assert on_kernel == on_python, data


@st.composite
def _object_bodies(draw):
    """A registered object's header with a field count that may be off,
    then some of its items, more of them, or none."""
    value = draw(st.sampled_from([_Pair(1, "x"), _Empty(), NodeId(2, 1), Fp2(1, 2, 7),
                                  _Reduced(3), _Picky(1)]))
    head = codec._by_type[type(value)].head
    count = draw(st.sampled_from([0, 1, 2, 3, 127, 128, 1 << 20]))
    raw = bytearray()
    codec._put_len(raw, count)
    body = encode(value)[len(head):]
    tail = draw(st.sampled_from([body, body[:1], b"", body + encode(None)]))
    tag = head[:-1] if draw(st.booleans()) else head[:-1] + b"x"  # or an unknown tag
    return tag + bytes(raw) + tail


@settings(max_examples=300, deadline=None)
@given(data=_object_bodies())
def test_hand_built_objects_decode_alike(data):
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
    assert _both(encode, value) == (("value", repr(encode(value))),) * 2


@pytest.fixture(scope="module")
def market():
    """A ``setup(3)`` market: parameters, the MA's keys and one coin."""
    rng = random.Random("codec-kernel")
    params = setup(3, rng)
    keypair = cl_keygen(params.backend, rng)
    secret, request = begin_withdrawal(params, rng)
    coin = finish_withdrawal(params, keypair.public, secret,
                             cl_blind_issue(params.backend, keypair, request, rng))
    return params, keypair, coin, rng


def _deposit(market, level: int, rid: str) -> dict:
    params, keypair, coin, rng = market
    token = create_spend(params, keypair.public, coin.secret, coin.signature,
                         NodeId(level, 0), rng)
    return {"cid": 3, "kind": "deposit", "sender": "sp0", "rid": rid,
            "now": 1.5, "payload": {"aid": "sp0", "token": token}}


@pytest.fixture(scope="module")
def deposit_frames(market):
    """One deposit frame per node level."""
    return [encode_frame(_deposit(market, level, f"sp0:{level}")) for level in range(4)]


@pytest.mark.parametrize("level", range(4))
def test_deposit_frames_decode_alike(deposit_frames, level):
    frame = deposit_frames[level]
    on_kernel = decode_frame(frame), decode_with_span(frame[HEADER_SIZE:], "payload")
    kernel, fastexp.KERNEL = fastexp.KERNEL, None
    try:
        on_python = decode_frame(frame), decode_with_span(frame[HEADER_SIZE:], "payload")
        assert encode_frame(on_python[0][0]) == frame
    finally:
        fastexp.KERNEL = kernel
    assert on_kernel == on_python
    assert repr(on_kernel) == repr(on_python)
    assert encode_frame(on_kernel[0][0]) == frame


class _Appends(StorageWrapper):
    """Keeps the body of every journal frame appended."""

    def __init__(self) -> None:
        super().__init__(MemoryStorage())
        self.bodies: list[bytes] = []

    def mutate(self, op: str, args: tuple) -> None:
        if op == "append":  # a u32 length, an 8-byte digest, the body
            self.bodies.append(bytes(args[1])[12:])
        super().mutate(op, args)


@pytest.fixture(scope="module")
def server_frames(market, tmp_path_factory):
    """The bodies a server writes and reads, by name."""
    params, keypair, _coin, _rng = market
    storage = _Appends()
    bank = ShardedBank(params, keypair, random.Random(3), n_shards=2,
                       journal=Journal(storage))
    service = MarketService(bank, batcher=VerificationBatcher(params, keypair, seed=1),
                            rng=random.Random(5))
    gateway = InProcessGateway(service)
    opened = gateway.request("open-account", {"aid": "sp0", "balance": 7}, sender="sp0",
                             rid="open:sp0")
    deposit = _deposit(market, 1, "deposit:sp0")
    deposited = gateway.request("deposit", deposit["payload"], sender="sp0",
                                rid="deposit:sp0")
    assert opened["status"] == deposited["status"] == "OK"
    records = {f"{record['kind']}:{record['op']}": body for body in storage.bodies
               if "op" in (record := decode(body))}  # the rest are segment headers
    path = tmp_path_factory.mktemp("boot") / "bootstrap.bin"
    launcher.write_bootstrap(str(path), params, keypair, nodes=["n0", "n1", "n2"])
    skip = len(launcher._BOOT_MAGIC) + 32
    return {
        "open-account request": encode({"cid": 1, "kind": "open-account", "now": 0.0,
                                        "payload": {"aid": "sp9", "balance": 5},
                                        "rid": "open:sp9", "sender": "sp9"}),
        "reply": encode({"cid": 7, "req": 12, "status": "OK", "amount": 4}),
        "deposit reply": encode({"cid": 3, "req": 2, **deposited}),
        "accept record": records["accept:deposit"],
        "apply record": records["apply:deposit"],
        "open-account apply record": records["apply:open-account"],
        "shard snapshot": bank.snapshot()[0][len(_SNAPSHOT_MAGIC) + 32:],
        "cluster bootstrap": path.read_bytes()[skip:],
    }


@pytest.mark.parametrize("name", [
    "open-account request", "reply", "deposit reply", "accept record", "apply record",
    "open-account apply record", "shard snapshot", "cluster bootstrap"])
def test_server_frames_are_byte_identical(server_frames, name):
    body = server_frames[name]
    on_kernel, on_python = _both(decode, body)
    assert on_kernel == on_python
    assert on_kernel[0] == "value"
    on_kernel, on_python = _both(decode_with_span, body, "payload")
    assert on_kernel == on_python
    value = decode(body)
    assert _both(encode, value) == (("value", repr(body)),) * 2
