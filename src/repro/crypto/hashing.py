"""Hashing utilities and the Fiat–Shamir transcript.

All proofs in the library are made non-interactive with the Fiat–Shamir
heuristic (paper ref [39]).  :class:`Transcript` provides a misuse-
resistant way to derive challenges: every absorbed item is length-
prefixed and domain-tagged so distinct transcripts can never collide by
concatenation ambiguity.

SHA-256 from :mod:`hashlib` is the only off-the-shelf primitive used in
the entire library.
"""

from __future__ import annotations

import hashlib
from typing import Callable

from repro._util import int_to_bytes

__all__ = [
    "sha256",
    "hash_to_int",
    "hash_to_range",
    "Transcript",
]


def sha256(*parts: bytes) -> bytes:
    """SHA-256 of the length-prefixed concatenation of *parts*."""
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.digest()


def hash_to_int(*parts: bytes) -> int:
    """Hash *parts* to a 256-bit integer."""
    return int.from_bytes(sha256(*parts), "big")


def hash_to_range(upper: int, *parts: bytes) -> int:
    """Hash *parts* to an integer in ``[0, upper)``.

    Uses counter-mode extension so the output has negligible modulo
    bias even for ``upper`` much larger than 256 bits.
    """
    return _expand(upper, lambda counter: sha256(*parts, counter))


def _expand(upper: int, block: Callable[[bytes], bytes]) -> int:
    """:func:`hash_to_range`'s counter mode over ``block(counter)``."""
    if upper <= 0:
        raise ValueError("upper bound must be positive")
    need_bits = upper.bit_length() + 128  # 128 extra bits kill the bias
    acc = 0
    counter = 0
    while acc.bit_length() < need_bits:
        acc = (acc << 256) | int.from_bytes(block(counter.to_bytes(4, "big")), "big")
        counter += 1
    return acc % upper


def _framed(part: bytes) -> bytes:
    """One part as :func:`sha256` feeds it: length prefix, then bytes."""
    return len(part).to_bytes(8, "big") + part


class Transcript:
    """A Fiat–Shamir transcript.

    Typical prover flow::

        t = Transcript(b"schnorr-pok")
        t.absorb_int(group.p); t.absorb_int(statement)
        t.absorb_int(commitment)
        e = t.challenge(group.q)

    The verifier rebuilds the same transcript and must obtain the same
    challenge.  Challenges are stateful: each call folds a counter into
    the hash so multiple challenges from one transcript are independent.

    The transcript is one running SHA-256 state over the length-prefixed
    parts absorbed so far: each absorb feeds it once, and a challenge
    hashes a copy of it plus the suffix parts.  The bytes hashed are the
    ones :func:`hash_to_range` / :func:`sha256` would hash over the whole
    part list, so every challenge equals that from-scratch value.
    """

    def __init__(self, domain: bytes) -> None:
        self._state = hashlib.sha256(_framed(b"repro.transcript") + _framed(domain))
        self._challenges = 0

    def absorb(self, data: bytes) -> None:
        """Append raw bytes to the transcript."""
        self._state.update(_framed(data))

    def absorb_int(self, value: int) -> None:
        """Append an integer (canonical big-endian encoding)."""
        self._state.update(_framed(int_to_bytes(value)))

    def absorb_ints(self, *values: int) -> None:
        """Append each integer in turn, as :meth:`absorb_int` does, framed
        in one loop; refuses what :func:`int_to_bytes` refuses."""
        parts: list[bytes] = []
        append = parts.append
        try:
            for v in values:
                raw = v.to_bytes((v.bit_length() + 7) // 8 or 1, "big")
                append(len(raw).to_bytes(8, "big"))
                append(raw)
        except (OverflowError, AttributeError):
            for v in values:
                int_to_bytes(v)  # raises int_to_bytes's own error
            raise
        self._state.update(b"".join(parts))

    def _digest(self, *suffix: bytes) -> bytes:
        h = self._state.copy()
        h.update(b"".join(_framed(part) for part in suffix))
        return h.digest()

    def challenge(self, upper: int) -> int:
        """Derive the next challenge in ``[0, upper)`` from the state
        (:func:`hash_to_range` over the parts, ``b"challenge"`` and the
        challenge counter)."""
        self._challenges += 1
        ctr = self._challenges.to_bytes(4, "big")
        return _expand(upper, lambda counter: self._digest(b"challenge", ctr, counter))

    def challenge_bytes(self, length: int) -> bytes:
        """Derive *length* challenge bytes from the state."""
        self._challenges += 1
        tag = (b"challenge-bytes", self._challenges.to_bytes(4, "big"))
        out = b""
        counter = 0
        while len(out) < length:
            out += self._digest(*tag, counter.to_bytes(4, "big"))
            counter += 1
        return out[:length]

    def fork(self, domain: bytes) -> "Transcript":
        """Clone the transcript under a sub-domain (for parallel proofs)."""
        child = Transcript.__new__(Transcript)
        child._state = self._state.copy()
        child._state.update(_framed(b"fork") + _framed(domain))
        child._challenges = 0
        return child
