"""Wire framing robustness: torn frames, oversize, corruption, disconnects.

The framing layer's contract is binary: a frame is either delivered
whole and intact, or rejected with a clean :class:`WireError` — never a
hang, never a partially-applied message, never a silently different
value.  The corruption sweep runs over every golden fixture in
``tests/fixtures/`` (the pinned byte formats real peers exchange) and
flips every single byte of every frame; the CRC makes each flip loud.

The socket half exercises the front-end from
:mod:`repro.service.frontend` against real TCP connections, including
the ``FaultyTransport``-style scenario of a client dying mid-frame.
"""

from __future__ import annotations

import pathlib
import random
import socket

import pytest

from repro.net.codec import encode
from repro.net.wire import (
    HEADER_SIZE,
    MAGIC,
    MAX_FRAME,
    FrameDecoder,
    WireError,
    decode_frame,
    encode_frame,
    read_frame,
    write_frame,
)

FIXTURES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "fixtures").glob("*.bin")
)

SAMPLE_VALUES = [
    None,
    True,
    -(1 << 200),
    3.5,
    b"\x00" * 17,
    "unicode ❤",
    {"nested": [1, {"k": (2, 3)}], "empty": {}},
]


class TestRoundTrip:
    @pytest.mark.parametrize("value", SAMPLE_VALUES, ids=repr)
    def test_values_survive_framing(self, value):
        frame = encode_frame(value)
        decoded, consumed = decode_frame(frame)
        assert decoded == value
        assert consumed == len(frame)

    def test_frame_layout(self):
        frame = encode_frame(b"x")
        assert frame[:4] == MAGIC
        assert len(frame) == HEADER_SIZE + len(encode(b"x"))

    @pytest.mark.parametrize("fixture", FIXTURES, ids=lambda p: p.name)
    def test_golden_fixtures_survive_framing(self, fixture):
        """The committed export blobs ship over the wire byte-exact."""
        blob = fixture.read_bytes()
        decoded, _ = decode_frame(encode_frame(blob))
        assert decoded == blob

    def test_back_to_back_frames(self):
        data = encode_frame(1) + encode_frame("two")
        first, consumed = decode_frame(data)
        second, rest = decode_frame(data[consumed:])
        assert (first, second) == (1, "two")
        assert consumed + rest == len(data)

    def test_oversized_payload_refused_at_encode(self):
        blob = b"\x00" * (MAX_FRAME + 1)
        with pytest.raises(WireError, match="MAX_FRAME"):
            encode_frame(blob)


class TestTornFrames:
    def test_every_split_point_buffers_cleanly(self):
        """A frame delivered in two fragments at *any* split yields the
        value exactly once, no matter where the tear lands."""
        frame = encode_frame({"k": [1, 2, 3], "v": b"payload"})
        for split in range(len(frame) + 1):
            decoder = FrameDecoder()
            decoder.feed(frame[:split])
            early = list(decoder.frames())
            decoder.feed(frame[split:])
            late = list(decoder.frames())
            assert early + late == [{"k": [1, 2, 3], "v": b"payload"}], split

    def test_byte_at_a_time(self):
        frame = encode_frame([1, "x", None])
        decoder = FrameDecoder()
        seen = []
        for i in range(len(frame)):
            decoder.feed(frame[i : i + 1])
            seen.extend(decoder.frames())
            if i < len(frame) - 1:
                assert seen == []
        assert seen == [[1, "x", None]]

    def test_torn_tail_is_pending_not_error(self):
        decoder = FrameDecoder()
        decoder.feed(encode_frame(0) + encode_frame(1)[:5])
        assert list(decoder.frames()) == [0]
        assert decoder.pending_bytes == 5

    def test_strict_decode_rejects_truncation(self):
        frame = encode_frame({"a": 1})
        for cut in range(len(frame)):
            with pytest.raises(WireError, match="truncated"):
                decode_frame(frame[:cut])


class TestOversizedPrefix:
    def test_rejected_from_header_alone(self):
        """An announced length over the cap fails before any payload
        arrives — no buffering toward a 2 GiB promise."""
        import struct
        import zlib

        header = struct.pack(">4sII", MAGIC, MAX_FRAME + 1, zlib.crc32(b""))
        decoder = FrameDecoder()
        decoder.feed(header)
        with pytest.raises(WireError, match="exceeds MAX_FRAME"):
            list(decoder.frames())

    def test_poisoned_decoder_stays_poisoned(self):
        import struct

        decoder = FrameDecoder()
        decoder.feed(struct.pack(">4sII", MAGIC, MAX_FRAME + 1, 0))
        with pytest.raises(WireError):
            list(decoder.frames())
        with pytest.raises(WireError):
            decoder.feed(b"more")
        with pytest.raises(WireError):
            list(decoder.frames())

    def test_bad_magic_rejected(self):
        frame = bytearray(encode_frame(1))
        frame[0] ^= 0xFF
        with pytest.raises(WireError, match="magic"):
            decode_frame(bytes(frame))


class TestCorruptionSweep:
    """Flip every byte of every golden fixture's frame: all rejected."""

    @pytest.mark.parametrize("fixture", FIXTURES, ids=lambda p: p.name)
    def test_single_byte_corruption_always_rejected(self, fixture):
        frame = bytearray(encode_frame(fixture.read_bytes()))
        for position in range(len(frame)):
            corrupted = bytearray(frame)
            corrupted[position] ^= 0x01
            with pytest.raises(WireError):
                decode_frame(bytes(corrupted))

    @pytest.mark.parametrize("fixture", FIXTURES, ids=lambda p: p.name)
    def test_single_byte_corruption_never_partially_applies(self, fixture):
        """Through the incremental decoder too: a corrupt frame yields
        zero values (not a different one), then poisons the stream."""
        frame = bytearray(encode_frame(fixture.read_bytes()))
        rng = random.Random(0xBAD)
        for position in rng.sample(range(len(frame)), min(32, len(frame))):
            corrupted = bytearray(frame)
            corrupted[position] ^= 0x80
            decoder = FrameDecoder()
            decoder.feed(bytes(corrupted))
            with pytest.raises(WireError):
                list(decoder.frames())


@pytest.fixture()
def wire_service(dec_params_toy):
    """A small live service behind the socket front-end."""
    import repro.service as svc

    bank = svc.ShardedBank.create(dec_params_toy, random.Random(1))
    batcher = svc.VerificationBatcher(
        bank.params, bank.keypair, max_batch=4, seed=1
    )
    service = svc.MarketService(bank, batcher=batcher, rng=random.Random(5))
    frontend = svc.ServiceFrontend(service).start()
    yield frontend
    frontend.close()


class TestSocketFrontendDisconnects:
    def test_mid_frame_disconnect_leaves_service_alive(self, wire_service):
        """The FaultyTransport scenario over a real socket: a client
        dies mid-frame; nothing applies, the next client is served."""
        frontend = wire_service
        before = frontend.service.completions
        torn = encode_frame({"cid": 0, "kind": "balance",
                             "payload": {"aid": "sp0"}})
        with socket.create_connection(frontend.address) as sock:
            sock.sendall(torn[: len(torn) // 2])
        # the torn half-frame must not reach the service at all
        with socket.create_connection(frontend.address, timeout=10) as sock:
            write_frame(sock, {"cid": 1, "kind": "audit", "payload": {}})
            reply = read_frame(sock)
        assert reply["status"] == "OK" and reply["clean"] is True
        assert frontend.service.completions == before + 1
        assert frontend.conn_errors >= 1

    def test_mid_frame_server_eof_raises_clean_wire_error(self):
        """Client side of the same coin: reading a torn reply raises
        WireError, never hangs."""
        listener = socket.create_server(("127.0.0.1", 0))
        try:
            peer = socket.create_connection(
                listener.getsockname()[:2], timeout=10)
            victim, _ = listener.accept()
            victim.sendall(encode_frame(42)[:7])  # 7 of 12 header bytes
            victim.close()
            peer.settimeout(10)
            with pytest.raises(WireError, match="mid-frame"):
                read_frame(peer)
            peer.close()
        finally:
            listener.close()

    def test_corrupt_frame_gets_error_and_close(self, wire_service):
        frontend = wire_service
        frame = bytearray(encode_frame({"cid": 9, "kind": "audit",
                                        "payload": {}}))
        frame[-1] ^= 0xFF  # payload corruption -> checksum mismatch
        with socket.create_connection(frontend.address, timeout=10) as sock:
            sock.sendall(bytes(frame))
            reply = read_frame(sock)
            # best-effort error frame, then EOF
            assert reply is None or reply["status"] == "ERROR"
        assert frontend.service.completions == 0

    def test_oversized_announcement_costs_nothing(self, wire_service):
        import struct

        frontend = wire_service
        header = struct.pack(">4sII", MAGIC, MAX_FRAME + 1, 0)
        with socket.create_connection(frontend.address, timeout=10) as sock:
            sock.sendall(header)
            reply = read_frame(sock)
            assert reply is None or reply["status"] == "ERROR"
        # service never saw a request
        assert frontend.service.completions == 0
