"""Length-prefixed wire framing for the canonical codec.

The simulated :class:`~repro.net.transport.Transport` hands decoded
copies around inside one process; a real network peer needs *frames* —
a way to find message boundaries in a byte stream and to reject a
damaged message before any of it is acted on.  This module frames the
existing canonical codec over any byte stream (the socket front-end in
:mod:`repro.service.frontend` is the first consumer):

``frame := MAGIC(4) | length u32 | crc32 u32 | payload``

* **MAGIC** (``b"RPW1"``) pins protocol + version; a peer speaking
  anything else fails on the first four bytes instead of misparsing.
* **length** is the payload byte count, capped at :data:`MAX_FRAME` —
  an oversized (or corrupted-to-oversized) prefix is rejected *before*
  any buffering, so a hostile 2 GiB announcement costs nothing.
* **crc32** covers the payload.  The codec alone cannot detect every
  single-byte corruption (flipping a digit inside an int yields a
  different valid int); the checksum makes any bit damage a loud
  :class:`WireError`, never a silently different value.  It is an
  integrity check against *accidents* only — authenticity is the
  protocol layer's job (signatures, proofs), not the framing's.

Decoding is incremental and torn-tolerant: :class:`FrameDecoder`
buffers partial frames across ``feed()`` calls and only yields whole,
checksum-verified, codec-decoded values.  A frame is therefore applied
completely or not at all — there is no partial-apply window.

Two read paths share the format.  The blocking helpers
(:func:`read_frame` / :func:`write_frame`) serve blocking clients and
the replication links; :func:`read_frame_async` /
:func:`write_frame_async` are the same contract over :mod:`asyncio`
streams for event-loop clients.  :meth:`FrameDecoder.raw_frames`
exposes complete frames *undecoded* — header plus payload bytes — so
an overloaded server can answer ``BUSY`` from the header alone without
spending decode (or even CRC) work on a payload it is about to shed.
"""

from __future__ import annotations

import asyncio
import struct
import zlib
from typing import Any, Iterator

from repro.net.codec import decode, encode

__all__ = [
    "WireError",
    "MAGIC",
    "HEADER_SIZE",
    "MAX_FRAME",
    "encode_frame",
    "decode_frame",
    "parse_header",
    "decode_payload",
    "FrameDecoder",
    "read_frame",
    "write_frame",
    "read_frame_async",
    "write_frame_async",
]

MAGIC = b"RPW1"
_HEADER = struct.Struct(">4sII")  # magic, payload length, payload crc32
HEADER_SIZE = _HEADER.size

#: Hard cap on one frame's payload.  Generous for this protocol (the
#: largest message is a spend token, a few KiB); small enough that a
#: corrupted length prefix can never make a peer buffer gigabytes.
MAX_FRAME = 1 << 24  # 16 MiB


class WireError(ValueError):
    """A frame violated the wire format (bad magic/length/checksum/codec)."""


def encode_frame(value: Any) -> bytes:
    """One complete frame for *value* (canonical codec + header)."""
    payload = encode(value)
    if len(payload) > MAX_FRAME:
        raise WireError(f"payload of {len(payload)} bytes exceeds MAX_FRAME")
    return _HEADER.pack(MAGIC, len(payload), zlib.crc32(payload)) + payload


def parse_header(header: bytes) -> tuple[int, int]:
    """Validate one frame header; returns ``(payload_length, crc32)``.

    The whole pre-parse admission story rests on this being safe to run
    on hostile input: magic and length are checked before any payload
    byte is buffered or decoded.
    """
    magic, length, crc = _HEADER.unpack(header)
    if magic != MAGIC:
        raise WireError(f"bad frame magic {magic!r}")
    if length > MAX_FRAME:
        raise WireError(f"frame length {length} exceeds MAX_FRAME ({MAX_FRAME})")
    return length, crc


def decode_payload(payload: bytes, crc: int) -> Any:
    if zlib.crc32(payload) != crc:
        raise WireError("frame checksum mismatch")
    try:
        return decode(payload)
    except WireError:
        raise
    except ValueError as exc:
        raise WireError(f"frame payload does not decode: {exc}") from exc


def decode_frame(data: bytes) -> tuple[Any, int]:
    """Decode one *complete* frame at the head of *data*.

    Returns ``(value, bytes_consumed)``.  Raises :class:`WireError` on
    any violation, including a frame that claims more bytes than *data*
    holds — the strict form used when the whole message is already in
    hand (tests, files).  For streams, use :class:`FrameDecoder`.
    """
    if len(data) < HEADER_SIZE:
        raise WireError("truncated frame header")
    length, crc = parse_header(data[:HEADER_SIZE])
    end = HEADER_SIZE + length
    if len(data) < end:
        raise WireError(
            f"truncated frame: header promises {length} payload bytes, "
            f"{len(data) - HEADER_SIZE} present"
        )
    return decode_payload(data[HEADER_SIZE:end], crc), end


class FrameDecoder:
    """Incremental frame parser for a byte stream.

    ``feed()`` bytes as they arrive (in any fragmentation); iterate
    :meth:`frames` for every value completed so far.  Partial frames
    stay buffered; format violations raise :class:`WireError` as early
    as the header allows and poison the decoder (a byte stream is
    unsynchronized after damage — the connection must be dropped).
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self._poisoned: WireError | None = None

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buf)

    def feed(self, data: bytes) -> None:
        if self._poisoned is not None:
            raise self._poisoned
        self._buf += data

    def raw_frames(self) -> Iterator[tuple[int, int, bytes]]:
        """Yield ``(length, crc, payload)`` for every complete frame.

        The undecoded sibling of :meth:`frames`: the header is
        validated (magic, length cap) but the payload is handed back
        as raw bytes — neither CRC-checked nor codec-decoded.  This is
        the pre-parse admission hook: an overloaded front door consumes
        the frame (staying synchronized on the stream) and sheds it for
        the cost of a 12-byte header parse.  Callers that do want the
        value pass the tuple to :func:`decode_payload`.
        """
        if self._poisoned is not None:
            raise self._poisoned
        while True:
            if len(self._buf) < HEADER_SIZE:
                return
            try:
                length, crc = parse_header(bytes(self._buf[:HEADER_SIZE]))
            except WireError as exc:
                self._poisoned = exc
                raise
            end = HEADER_SIZE + length
            if len(self._buf) < end:
                return
            payload = bytes(self._buf[HEADER_SIZE:end])
            del self._buf[:end]
            yield length, crc, payload

    def frames(self) -> Iterator[Any]:
        """Yield every complete value buffered; keep the torn tail."""
        for _length, crc, payload in self.raw_frames():
            try:
                value = decode_payload(payload, crc)
            except WireError as exc:
                self._poisoned = exc
                raise
            yield value


def write_frame(sock, value: Any) -> int:
    """Frame *value* onto a socket; returns the bytes sent."""
    frame = encode_frame(value)
    sock.sendall(frame)
    return len(frame)


def _recv_exact(sock, n: int) -> bytes | None:
    """Exactly *n* bytes from *sock*; ``None`` on clean EOF at a frame
    boundary; :class:`WireError` on EOF mid-frame."""
    chunks = bytearray()
    while len(chunks) < n:
        chunk = sock.recv(n - len(chunks))
        if not chunk:
            if not chunks:
                return None
            raise WireError(
                f"connection closed mid-frame ({len(chunks)}/{n} bytes)"
            )
        chunks += chunk
    return bytes(chunks)


def read_frame(sock) -> Any:
    """Read one complete frame from a socket.

    Returns the decoded value, or ``None`` on a clean EOF *between*
    frames.  EOF inside a frame — the mid-frame disconnect case — is a
    :class:`WireError`, never a hang or a partially-applied message.
    """
    header = _recv_exact(sock, HEADER_SIZE)
    if header is None:
        return None
    length, crc = parse_header(header)
    payload = _recv_exact(sock, length) if length else b""
    if payload is None:
        raise WireError("connection closed before frame payload")
    return decode_payload(payload, crc)


async def read_frame_async(reader: "asyncio.StreamReader") -> Any:
    """One complete frame from an asyncio stream.

    The event-loop twin of :func:`read_frame`, with the identical
    contract: the decoded value, ``None`` on a clean EOF *between*
    frames, and a :class:`WireError` on EOF inside a frame or any
    format violation — never a hang, never a partial apply.
    """
    try:
        header = await reader.readexactly(HEADER_SIZE)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise WireError(
            f"connection closed mid-frame "
            f"({len(exc.partial)}/{HEADER_SIZE} bytes)"
        ) from exc
    length, crc = parse_header(header)
    if length:
        try:
            payload = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise WireError("connection closed before frame payload") from exc
    else:
        payload = b""
    return decode_payload(payload, crc)


async def write_frame_async(writer: "asyncio.StreamWriter", value: Any) -> int:
    """Frame *value* onto an asyncio stream; returns the bytes sent.

    ``drain()`` is awaited, so a slow peer exerts backpressure on the
    writing coroutine instead of growing an unbounded transport buffer.
    """
    frame = encode_frame(value)
    writer.write(frame)
    await writer.drain()
    return len(frame)
