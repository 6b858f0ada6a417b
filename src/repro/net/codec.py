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
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Any

__all__ = ["encode", "decode", "register", "encoded_size"]

_TAG_NONE = b"\x00"
_TAG_FALSE = b"\x01"
_TAG_TRUE = b"\x02"
_TAG_INT_POS = b"\x03"
_TAG_INT_NEG = b"\x04"
_TAG_BYTES = b"\x05"
_TAG_STR = b"\x06"
_TAG_LIST = b"\x07"
_TAG_TUPLE = b"\x08"
_TAG_DICT = b"\x09"
_TAG_OBJ = b"\x0a"
_TAG_FLOAT = b"\x0b"

_registry_by_name: dict[str, type] = {}
_registry_by_type: dict[type, str] = {}


def register(cls: type, name: str | None = None) -> type:
    """Register a dataclass for codec support (idempotent)."""
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"{cls!r} is not a dataclass")
    tag = name or f"{cls.__module__}.{cls.__qualname__}"
    existing = _registry_by_name.get(tag)
    if existing is not None and existing is not cls:
        raise ValueError(f"codec tag {tag!r} already registered for {existing!r}")
    _registry_by_name[tag] = cls
    _registry_by_type[cls] = tag
    return cls


def _write_len(out: bytearray, n: int) -> None:
    # varint-style: 7 bits per byte, MSB = continuation
    if n < 0:
        raise ValueError("length must be non-negative")
    while True:
        byte = n & 0x7F
        n >>= 7
        if n:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_len(data: bytes, pos: int) -> tuple[int, int]:
    n = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise ValueError("truncated length")
        byte = data[pos]
        pos += 1
        n |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return n, pos
        shift += 7


def _encode_into(out: bytearray, value: Any) -> None:
    if value is None:
        out += _TAG_NONE
    elif value is True:
        out += _TAG_TRUE
    elif value is False:
        out += _TAG_FALSE
    elif isinstance(value, int):
        mag = value if value >= 0 else -value
        raw = mag.to_bytes((mag.bit_length() + 7) // 8 or 1, "big")
        out += _TAG_INT_POS if value >= 0 else _TAG_INT_NEG
        _write_len(out, len(raw))
        out += raw
    elif isinstance(value, float):
        out += _TAG_FLOAT
        out += struct.pack(">d", value)
    elif isinstance(value, bytes):
        out += _TAG_BYTES
        _write_len(out, len(value))
        out += value
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += _TAG_STR
        _write_len(out, len(raw))
        out += raw
    elif isinstance(value, (list, tuple)):
        out += _TAG_LIST if isinstance(value, list) else _TAG_TUPLE
        _write_len(out, len(value))
        for item in value:
            _encode_into(out, item)
    elif isinstance(value, dict):
        out += _TAG_DICT
        keys = sorted(value)  # canonical ordering
        _write_len(out, len(keys))
        for key in keys:
            if not isinstance(key, str):
                raise TypeError("codec dicts must have str keys")
            _encode_into(out, key)
            _encode_into(out, value[key])
    elif type(value) in _registry_by_type:
        tag = _registry_by_type[type(value)].encode("utf-8")
        out += _TAG_OBJ
        _write_len(out, len(tag))
        out += tag
        fields = dataclasses.fields(value)
        _write_len(out, len(fields))
        for f in fields:
            _encode_into(out, getattr(value, f.name))
    else:
        raise TypeError(f"cannot encode value of type {type(value)!r}")


def encode(value: Any) -> bytes:
    """Canonically serialize *value* to bytes."""
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


def encoded_size(value: Any) -> int:
    """Byte length of the canonical encoding (Table II's unit)."""
    return len(encode(value))


def _decode_from(data: bytes, pos: int) -> tuple[Any, int]:
    if pos >= len(data):
        raise ValueError("truncated value")
    tag = data[pos : pos + 1]
    pos += 1
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_TRUE:
        return True, pos
    if tag == _TAG_FALSE:
        return False, pos
    if tag in (_TAG_INT_POS, _TAG_INT_NEG):
        n, pos = _read_len(data, pos)
        raw = data[pos : pos + n]
        if len(raw) != n:
            raise ValueError("truncated int")
        value = int.from_bytes(raw, "big")
        return (value if tag == _TAG_INT_POS else -value), pos + n
    if tag == _TAG_FLOAT:
        if pos + 8 > len(data):
            raise ValueError("truncated float")
        return struct.unpack(">d", data[pos : pos + 8])[0], pos + 8
    if tag == _TAG_BYTES:
        n, pos = _read_len(data, pos)
        raw = data[pos : pos + n]
        if len(raw) != n:
            raise ValueError("truncated bytes")
        return bytes(raw), pos + n
    if tag == _TAG_STR:
        n, pos = _read_len(data, pos)
        raw = data[pos : pos + n]
        if len(raw) != n:
            raise ValueError("truncated str")
        return raw.decode("utf-8"), pos + n
    if tag in (_TAG_LIST, _TAG_TUPLE):
        n, pos = _read_len(data, pos)
        items = []
        for _ in range(n):
            item, pos = _decode_from(data, pos)
            items.append(item)
        return (items if tag == _TAG_LIST else tuple(items)), pos
    if tag == _TAG_DICT:
        n, pos = _read_len(data, pos)
        result: dict[str, Any] = {}
        for _ in range(n):
            key, pos = _decode_from(data, pos)
            if not isinstance(key, str):
                raise ValueError("codec dict key must decode to str")
            val, pos = _decode_from(data, pos)
            result[key] = val
        return result, pos
    if tag == _TAG_OBJ:
        n, pos = _read_len(data, pos)
        name = data[pos : pos + n].decode("utf-8")
        pos += n
        cls = _registry_by_name.get(name)
        if cls is None:
            raise ValueError(f"unknown codec tag {name!r}")
        nfields, pos = _read_len(data, pos)
        fields = dataclasses.fields(cls)
        if nfields != len(fields):
            raise ValueError(f"field count mismatch for {name!r}")
        kwargs = {}
        for f in fields:
            val, pos = _decode_from(data, pos)
            kwargs[f.name] = val
        try:
            return cls(**kwargs), pos
        except ValueError:
            raise
        except Exception as exc:  # constructor validation on hostile input
            raise ValueError(f"invalid field values for {name!r}: {exc}") from exc
    raise ValueError(f"unknown tag byte {tag!r}")


def decode(data: bytes) -> Any:
    """Invert :func:`encode`; rejects trailing garbage."""
    value, pos = _decode_from(data, 0)
    if pos != len(data):
        raise ValueError("trailing bytes after value")
    return value
