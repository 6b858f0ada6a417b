"""Small shared helpers used across the ``repro`` package.

Everything here is dependency-free and deliberately boring: byte/int
conversions, the verifiers' int type screens and random integers from
a passed ``random.Random``.
Keeping them in one private module avoids circular imports between the
crypto substrates.
"""

from __future__ import annotations

import random

__all__ = [
    "naturals",
    "int_seq",
    "int_to_bytes",
    "bytes_to_int",
    "rand_int_bits",
    "rand_range",
]


def naturals(*values: object) -> bool:
    """Whether every value is an ``int >= 0`` (a ``bool`` is not one):
    what a transcript may absorb and a shift may take."""
    return all(type(v) is int and v >= 0 for v in values)


def int_seq(values: object) -> bool:
    """Whether *values* is a tuple or list of ints (no ``bool``)."""
    return type(values) in (tuple, list) and {*map(type, values)} <= {int}


def int_to_bytes(value: int, length: int | None = None) -> bytes:
    """Encode a non-negative integer big-endian.

    When *length* is omitted the minimal number of bytes is used (with
    ``0`` encoding to a single zero byte so round-trips are stable).
    """
    if value < 0:
        raise ValueError("cannot encode negative integer")
    if length is None:
        length = max(1, (value.bit_length() + 7) // 8)
    return value.to_bytes(length, "big")


def bytes_to_int(data: bytes) -> int:
    """Decode a big-endian byte string into a non-negative integer."""
    return int.from_bytes(data, "big")


def rand_int_bits(rng: random.Random, bits: int) -> int:
    """Uniform random integer with exactly *bits* bits (MSB set)."""
    if bits <= 0:
        raise ValueError("bit count must be positive")
    if bits == 1:
        return 1
    return (1 << (bits - 1)) | rng.getrandbits(bits - 1)


def rand_range(rng: random.Random, lower: int, upper: int) -> int:
    """Uniform random integer in ``[lower, upper)``."""
    if upper <= lower:
        raise ValueError("empty range")
    return rng.randrange(lower, upper)
