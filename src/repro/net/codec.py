"""Canonical binary codec for protocol messages.

The market protocols need real byte strings for two reasons:

* **Padding** — PPMSdec's fake coins ``E(0)`` must be length-
  indistinguishable from real coins inside the encrypted payment, so
  real coins must have a well-defined wire encoding to match.
* **Accounting** — Table II of the paper reports communication traffic
  in bytes; measuring serialized messages is the honest way to
  reproduce it.

The codec covers a small type universe — ``None``, ``bool``, ``int``
(arbitrary precision, signed), ``float`` (IEEE-754 binary64), ``bytes``,
``str``, sequences, string-keyed dicts — plus any *registered dataclass* (encoded as its tag and
its fields in declaration order).  Encoding is canonical: equal values
produce identical bytes, so encodings are safe to hash into
transcripts.

Use :func:`register` (it also works as a decorator) once per
dataclass; :func:`encode` / :func:`decode` round-trip any value
built from the universe.

**The decode contract.**  :func:`decode` accepts exactly the image of
:func:`encode`: for every byte string ``b`` it accepts,
``encode(decode(b)) == b``.  Anything else raises ``ValueError``:

* a truncated value, or bytes trailing the value;
* an int with a leading zero byte, an empty int, or negative zero;
* an overlong length (a varint ending in a zero continuation byte);
* dict keys that are not ``str`` or not strictly ascending — so a
  duplicate key is refused instead of the last value silently winning;
* an unknown tag byte, a tag name no class is registered under *now*,
  or a field count that does not match the class;
* a registered object whose constructor raises, or changes a decoded
  field (an ``Fp2`` with ``a >= p``, which would come back reduced).

With the verification kernel loaded (``repro.crypto.fastexp.KERNEL``),
a sequence body's runs of short non-negative ints, and of tuples or
lists of them, decode in C (``int_run``) under the same checks; the
Python loop decodes the rest, and all of it without the kernel.

That contract is what lets a decoded value's bytes be reused instead of
re-encoded: :func:`decode_with_span` also returns the input slice one
entry of a top-level dict was decoded from, and :class:`Encoded` writes
such a slice back verbatim (the service's ``accept`` record splices a
request's payload this way).

**Sealed blobs.**  Every state blob the stack writes — bank and wallet
snapshots, parameter exports, the cluster bootstrap, journal manifests
— is :func:`seal`'s ``magic ‖ sha256(magic, body) ‖ body``, opened by
:func:`unseal`.
"""

from __future__ import annotations

import dataclasses
import operator
import struct
from typing import Any, Callable

from repro.crypto import fastexp
from repro.crypto.hashing import sha256

__all__ = ["encode", "decode", "decode_with_span", "register", "encoded_size",
           "Encoded", "seal", "unseal"]

(_NONE, _FALSE, _TRUE, _INT_POS, _INT_NEG, _BYTES, _STR, _LIST, _TUPLE,
 _DICT, _OBJ, _FLOAT) = range(12)

#: ``_HEAD[tag][n]``: a tag byte and its single-byte length ``n < 128``
_HEAD = tuple(tuple(bytes((tag, n)) for n in range(128)) for tag in range(12))
_POS_HEAD = _HEAD[_INT_POS]
#: non-negative ints below this have a single-byte length (< 128 bytes)
_SHORT_INT = 1 << (127 * 8)
_DOUBLE = struct.Struct(">d")
#: field types a constructor may rebuild as an equal, same-typed object
#: without changing the encoding (``x % p`` returns a new int when x < p)
_EQUAL_IS_SAME = (int, str, bytes)


class Encoded:
    """Bytes that already are one value's canonical encoding.

    :func:`encode` copies :attr:`data` in verbatim where the value would
    go.  Only bytes this codec produced qualify — a
    :func:`decode_with_span` slice, for one; anything else makes the
    output non-canonical.
    """

    __slots__ = ("data",)

    def __init__(self, data: bytes) -> None:
        self.data = data


class _Spec:
    """A registered dataclass: its tag, header bytes and field names."""

    __slots__ = ("cls", "name", "tag", "names", "head", "fields")

    def __init__(self, cls: type, name: str) -> None:
        self.cls = cls
        self.name = name
        self.tag = name.encode("utf-8")
        self.names = tuple(f.name for f in dataclasses.fields(cls))
        head = bytearray((_OBJ,))
        _put_len(head, len(self.tag))
        head += self.tag
        _put_len(head, len(self.names))
        self.head = bytes(head)
        # every field value in one C call, always as a tuple
        self.fields: Callable[[Any], tuple]
        if len(self.names) > 1:
            self.fields = operator.attrgetter(*self.names)
        elif self.names:
            only = self.names[0]
            self.fields = lambda obj: (getattr(obj, only),)
        else:
            self.fields = lambda obj: ()


_registry_by_name: dict[str, type] = {}
_by_type: dict[type, _Spec] = {}
_by_tag: dict[bytes, _Spec] = {}  # only each class's current tag decodes


def register(cls: type, name: str | None = None) -> type:
    """Register a dataclass for codec support (idempotent)."""
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"{cls!r} is not a dataclass")
    tag = name or f"{cls.__module__}.{cls.__qualname__}"
    existing = _registry_by_name.get(tag)
    if existing is not None and existing is not cls:
        raise ValueError(f"codec tag {tag!r} already registered for {existing!r}")
    _registry_by_name[tag] = cls
    old = _by_type.get(cls)
    if old is not None:
        del _by_tag[old.tag]
    spec = _by_type[cls] = _Spec(cls, tag)
    _by_tag[spec.tag] = spec
    return cls


# -- encode -------------------------------------------------------------------
def _put_len(out: bytearray, n: int) -> None:
    # varint-style: 7 bits per byte, MSB = continuation
    while n > 0x7F:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)


def _put_head(out: bytearray, tag: int, n: int) -> None:
    if n < 128:
        out += _HEAD[tag][n]
    else:
        out.append(tag)
        _put_len(out, n)


def _put(out: bytearray, value: Any) -> None:
    t = type(value)
    if t is tuple or t is list:
        _put_head(out, _TUPLE if t is tuple else _LIST, len(value))
        items = value
    elif (spec := _by_type.get(t)) is not None:
        out += spec.head
        items = spec.fields(value)
    else:
        if t is int:
            tag, mag = (_INT_POS, value) if value >= 0 else (_INT_NEG, -value)
            raw = mag.to_bytes((mag.bit_length() + 7) // 8 or 1, "big")
            _put_head(out, tag, len(raw))
            out += raw
        elif t is bytes:
            _put_head(out, _BYTES, len(value))
            out += value
        elif t is str:
            raw = value.encode("utf-8")
            _put_head(out, _STR, len(raw))
            out += raw
        elif value is None:
            out.append(_NONE)
        elif t is bool:
            out.append(_TRUE if value else _FALSE)
        elif t is dict:
            keys = sorted(value)  # canonical ordering
            _put_head(out, _DICT, len(keys))
            for key in keys:
                if not isinstance(key, str):
                    raise TypeError("codec dicts must have str keys")
                _put(out, key)
                _put(out, value[key])
        elif t is float:
            out.append(_FLOAT)
            out += _DOUBLE.pack(value)
        elif t is Encoded:
            out += value.data
        else:
            _put(out, _builtin(value))
        return
    for item in items:
        if type(item) is int and 0 <= item < _SHORT_INT:
            raw = item.to_bytes((item.bit_length() + 7) // 8 or 1, "big")
            out += _POS_HEAD[len(raw)]
            out += raw
        else:
            _put(out, item)


def _builtin(value: Any) -> Any:
    """A subclass instance (an ``IntEnum``, a namedtuple) as its builtin base."""
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    if isinstance(value, bytes):
        return bytes(value)
    if isinstance(value, str):
        return str.__str__(value)
    if isinstance(value, list):
        return list(value)
    if isinstance(value, tuple):
        return tuple(value)
    if isinstance(value, dict):
        return dict(value)
    raise TypeError(f"cannot encode value of type {type(value)!r}")


def encode(value: Any) -> bytes:
    """Canonically serialize *value* to bytes."""
    out = bytearray()
    _put(out, value)
    return bytes(out)


def encoded_size(value: Any) -> int:
    """Byte length of the canonical encoding (Table II's unit)."""
    return len(encode(value))


# -- decode -------------------------------------------------------------------
def _take_len(data: bytes, pos: int) -> tuple[int, int]:
    """A multi-byte length at *pos*; refuses an overlong one."""
    n = shift = 0
    while True:
        byte = data[pos]
        pos += 1
        n |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if not byte and shift:
                raise ValueError("overlong length")
            return n, pos
        shift += 7


def _take(data: bytes, pos: int) -> tuple[Any, int]:
    """The value at *pos* and the offset after it (``IndexError`` past
    the end: :func:`_decode` reports it as truncation)."""
    size = len(data)
    tag = data[pos]
    if tag == _TUPLE or tag == _LIST or tag == _OBJ:
        n = data[pos + 1]
        pos += 2
        if n > 0x7F:
            n, pos = _take_len(data, pos - 1)
        spec = None
        if tag == _OBJ:
            end = pos + n
            spec = _by_tag.get(data[pos:end])
            if spec is None:
                if end > size:
                    raise ValueError("truncated codec tag")
                raise ValueError(f"unknown codec tag {data[pos:end].decode('utf-8')!r}")
            n = data[end]
            pos = end + 1
            if n > 0x7F:
                n, pos = _take_len(data, end)
            if n != len(spec.names):
                raise ValueError(f"field count mismatch for {spec.name!r}")
        elif n > size - pos:
            raise ValueError("truncated sequence")
        items = []
        append = items.append
        kernel = fastexp.KERNEL
        if kernel is not None:
            # the kernel takes each run of short ints (and of int tuples
            # or lists), this loop every item between runs
            while True:
                pos = kernel.int_run(data, pos, n - len(items), items)
                if len(items) == n:
                    break
                item, pos = _take(data, pos)
                append(item)
        else:
            for _ in range(n):
                if data[pos] == _INT_POS and (m := data[pos + 1]) < 0x80:
                    start = pos + 2
                    pos = start + m
                    if pos > size:
                        raise ValueError("truncated int")
                    if m != 1 and (not m or not data[start]):
                        raise ValueError("non-canonical int")
                    append(int.from_bytes(data[start:pos], "big"))
                else:
                    item, pos = _take(data, pos)
                    append(item)
        if spec is None:
            return (tuple(items) if tag == _TUPLE else items), pos
        try:
            obj = spec.cls(**dict(zip(spec.names, items)))
        except ValueError:
            raise
        except Exception as exc:  # constructor validation on hostile input
            raise ValueError(f"invalid field values for {spec.name!r}: {exc}") from exc
        for got, item in zip(spec.fields(obj), items):
            if got is not item and not (type(got) is type(item)
                                        and type(item) in _EQUAL_IS_SAME
                                        and got == item):
                raise ValueError(f"{spec.name!r} changed a decoded field")
        return obj, pos
    pos += 1
    if tag == _INT_POS or tag == _INT_NEG:
        n = data[pos]
        pos += 1
        if n > 0x7F:
            n, pos = _take_len(data, pos - 1)
        end = pos + n
        if end > size:
            raise ValueError("truncated int")
        if not n or (not data[pos] and (tag == _INT_NEG or n != 1)):
            raise ValueError("non-canonical int")
        value = int.from_bytes(data[pos:end], "big")
        return (value if tag == _INT_POS else -value), end
    if tag == _BYTES or tag == _STR:
        n = data[pos]
        pos += 1
        if n > 0x7F:
            n, pos = _take_len(data, pos - 1)
        end = pos + n
        if end > size:
            raise ValueError("truncated bytes" if tag == _BYTES else "truncated str")
        raw = data[pos:end]
        return (raw if tag == _BYTES else str(raw, "utf-8")), end
    if tag == _DICT:
        value, pos, _span = _take_dict(data, pos, None)
        return value, pos
    if tag == _NONE:
        return None, pos
    if tag == _TRUE:
        return True, pos
    if tag == _FALSE:
        return False, pos
    if tag == _FLOAT:
        if pos + 8 > size:
            raise ValueError("truncated float")
        return _DOUBLE.unpack_from(data, pos)[0], pos + 8
    raise ValueError(f"unknown tag byte {bytes((tag,))!r}")


def _take_dict(data: bytes, pos: int,
               span_key: str | None) -> tuple[dict, int, tuple[int, int] | None]:
    """The dict whose length is at *pos*, the offset after it, and the
    byte span of *span_key*'s value (``None`` when absent)."""
    n = data[pos]
    pos += 1
    if n > 0x7F:
        n, pos = _take_len(data, pos - 1)
    if n > (len(data) - pos) // 2:
        raise ValueError("truncated dict")
    result: dict[str, Any] = {}
    prev = span = None
    for _ in range(n):
        key, pos = _take(data, pos)
        if type(key) is not str:
            raise ValueError("codec dict key must decode to str")
        if prev is not None and key <= prev:
            raise ValueError("codec dict keys must be strictly ascending")
        start = pos
        result[key], pos = _take(data, pos)
        if key == span_key:
            span = (start, pos)
        prev = key
    return result, pos, span


def _decode(data: bytes, span_key: str | None) -> tuple[Any, bytes | None]:
    if type(data) is not bytes:
        data = bytes(data)
    try:
        if span_key is not None and data and data[0] == _DICT:
            value, pos, span = _take_dict(data, 1, span_key)
        else:
            (value, pos), span = _take(data, 0), None
    except IndexError:
        raise ValueError("truncated value") from None
    except RecursionError:
        raise ValueError("value nested too deeply") from None
    if pos != len(data):
        raise ValueError("trailing bytes after value")
    return value, (None if span is None else data[span[0]:span[1]])


def decode(data: bytes) -> Any:
    """Invert :func:`encode`; accepts nothing but its image."""
    return _decode(data, None)[0]


def decode_with_span(data: bytes, key: str) -> tuple[Any, bytes | None]:
    """:func:`decode`, plus the bytes *key*'s value was decoded from.

    The second item is ``None`` unless *data* is a dict holding *key*.
    By the decode contract it equals ``encode(value[key])``, so wrapping
    it in :class:`Encoded` writes the same bytes a fresh encode would.
    """
    return _decode(data, key)


def seal(magic: bytes, value: Any) -> bytes:
    """``magic ‖ sha256(magic, body) ‖ body``, where body is ``encode(value)``."""
    body = encode(value)
    return magic + sha256(magic, body) + body


def unseal(magic: bytes, blob: bytes, what: str,
           error: Callable[[str], Exception]) -> Any:
    """The value of a :func:`seal`-ed *blob*.

    Anything else raises ``error(message)``: "not a <what> (bad magic)",
    "<what> integrity digest mismatch" or "<what> body undecodable".
    """
    if not blob.startswith(magic):
        raise error(f"not a {what} (bad magic)")
    body = blob[len(magic) + 32 :]
    if sha256(magic, body) != blob[len(magic) : len(magic) + 32]:
        raise error(f"{what} integrity digest mismatch")
    try:
        return decode(body)
    except ValueError as exc:
        raise error(f"{what} body undecodable: {exc}") from exc
