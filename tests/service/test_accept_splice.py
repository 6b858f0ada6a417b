"""The ``accept`` record splices the request frame's payload bytes.

The front door decodes a request once.  Its ``accept`` record carries
the frame's slice for ``request["payload"]`` instead of a second
encode of the decoded value.  That is sound only because the codec's
decoder accepts nothing but the image of its encoder, so these tests
pin three things over real sockets:

* on honest traffic the record holds the frame's slice and equals its
  own re-encoding (the journal is byte-identical to one that encodes);
* a deposit whose bytes are not canonical is answered as a wire error
  and journals nothing;
* the exact count: one decode of the token and no encode of it before
  the ``accept`` record is appended, on either codec walk.
"""

from __future__ import annotations

import random
import socket
import struct
import zlib

import pytest

from repro.ecash.spend import SpendToken
from repro.net import codec
from repro.net.codec import decode, decode_with_span, encode
from repro.net.wire import HEADER_SIZE, MAGIC, encode_frame, read_frame
from repro.service import (
    Journal,
    MarketService,
    ServiceFrontend,
    ShardedBank,
    VerificationBatcher,
)
from repro.service.storage import MemoryStorage, StorageWrapper
from tests.service.conftest import mint_tokens


class _Recorder(StorageWrapper):
    """Keeps every appended journal frame; calls *on_append* first."""

    def __init__(self) -> None:
        super().__init__(MemoryStorage())
        self.appends: list[bytes] = []
        self.on_append = lambda: None

    def mutate(self, op: str, args: tuple) -> None:
        if op == "append":
            self.on_append()
            self.appends.append(bytes(args[1]))
        super().mutate(op, args)

    def bodies(self) -> list[bytes]:
        # a journal frame is a u32 length, an 8-byte digest, the body
        return [frame[12:] for frame in self.appends]


@pytest.fixture()
def stack(dec_params_toy):
    storage = _Recorder()
    journal = Journal(storage)
    bank = ShardedBank.create(dec_params_toy, random.Random(3),
                              journal=journal)
    batcher = VerificationBatcher(bank.params, bank.keypair, max_batch=4,
                                  seed=1)
    service = MarketService(bank, batcher=batcher, rng=random.Random(5))
    front = ServiceFrontend(service).start()
    yield service, storage, front
    front.close()


def _deposit_request(service, rid: str) -> dict:
    deposit = mint_tokens(service, random.Random(0xACC), 1, node_level=1)[0]
    return {"cid": 1, "kind": "deposit", "payload": deposit.payload,
            "sender": deposit.sender, "rid": rid, "now": 0.0}


def _frame(payload: bytes) -> bytes:
    return struct.pack(">4sII", MAGIC, len(payload), zlib.crc32(payload)) + payload


def _exchange(front, frame: bytes) -> dict:
    with socket.create_connection(front.address, timeout=30) as sock:
        sock.sendall(frame)
        return read_frame(sock)


def _accept_bodies(storage: _Recorder) -> list[bytes]:
    return [body for body in storage.bodies()
            if decode(body).get("kind") == "accept"]


class TestHonestTraffic:
    def test_the_accept_record_holds_the_frames_payload_slice(self, stack):
        service, storage, front = stack
        request = _deposit_request(service, "splice:1")
        frame = encode_frame(request)
        _value, span = decode_with_span(frame[HEADER_SIZE:], "payload")
        assert span == encode(request["payload"])
        storage.appends.clear()
        assert _exchange(front, frame)["status"] == "OK"
        [body] = _accept_bodies(storage)
        assert span in body
        record = decode(body)
        assert record["rid"] == "splice:1"
        assert encode(record["payload"]["payload"]) == span
        assert encode(record) == body  # byte-identical to an encoding journal

    def test_one_deposit_decodes_its_token_once_and_never_encodes_it(
            self, stack, monkeypatch):
        """The exact codec count of one deposit through the door, taken
        when the ``accept`` record is appended.  Both codec walks (the
        kernel's and the Python one) build a decoded token through
        ``codec._build`` and read a token's fields through its spec's
        ``fields``: once to encode it, and once in ``_build``'s
        changed-field check."""
        service, storage, front = stack
        frame = encode_frame(_deposit_request(service, "count:1"))
        spec = codec._by_type[SpendToken]
        counts = {"built": 0, "fields": 0}
        build, fields = codec._build, spec.fields

        def counting_build(of, items):
            counts["built"] += of is spec
            return build(of, items)

        def counting_fields(obj):
            counts["fields"] += 1
            return fields(obj)

        seen: list[dict] = []
        storage.appends.clear()
        storage.on_append = lambda: seen.append(
            {"decoded": counts["built"], "encoded": counts["fields"] - counts["built"]})
        monkeypatch.setattr(codec, "_build", counting_build)
        monkeypatch.setattr(spec, "fields", counting_fields)
        reply = _exchange(front, frame)
        monkeypatch.undo()
        assert reply["status"] == "OK"
        kinds = [decode(body).get("kind") for body in storage.bodies()]
        assert seen[kinds.index("accept")] == {"decoded": 1, "encoded": 0}


#: ways to make a deposit's bytes non-canonical while keeping the CRC valid
def _leading_zero_in_node_key(request: dict, payload: bytes) -> bytes:
    key = encode(request["payload"]["token"].node_key)
    assert payload.count(key) == 1 and key[1] < 127
    return payload.replace(key, bytes([key[0], key[1] + 1, 0]) + key[2:])


def _duplicate_aid(request: dict, payload: bytes) -> bytes:
    body = request["payload"]
    forged = (bytes([9, 3]) + encode("aid") + encode("mallory")
              + encode("aid") + encode(body["aid"])
              + encode("token") + encode(body["token"]))
    return payload.replace(encode(body), forged)


class TestNonCanonicalDeposits:
    @pytest.mark.parametrize("forge", [_leading_zero_in_node_key, _duplicate_aid])
    def test_no_accept_record_and_the_journal_is_unchanged(self, stack, forge):
        service, storage, front = stack
        request = _deposit_request(service, "forged:1")
        payload = encode(request)
        forged = forge(request, payload)
        assert forged != payload
        before = storage.snapshot()
        reply = _exchange(front, _frame(forged))
        assert reply["status"] == "ERROR"
        assert reply["error"].startswith("wire: frame payload does not decode")
        # a later request through the same dispatcher, then compare: had
        # the forged frame been enqueued it would have been applied first
        audit = _exchange(front, encode_frame({"cid": 2, "kind": "audit",
                                               "payload": {}, "sender": "a"}))
        assert audit["status"] == "OK"
        assert storage.snapshot() == before
        assert not _accept_bodies(storage)
        assert service.completions == 1  # the audit alone
