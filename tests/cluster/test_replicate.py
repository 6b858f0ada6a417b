"""Journal-storage shipping: op streams, spooling, cursors, refusal."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.cluster.node import open_dump
from repro.cluster.replicate import (
    JournalShipper,
    ReplicaReceiver,
    ReplicaSlot,
    control_call,
)
from repro.net.wire import WireError, encode_frame
from repro.service.journal import (
    DEFAULT_SEGMENT_RECORDS,
    Checkpoint,
    Journal,
    JournalError,
    JournalMaintenance,
)
from repro.service.storage import MemoryStorage


def _wait(predicate, *, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError("condition not reached in time")


def _records(journal: Journal, n: int, *, start: int = 0) -> None:
    for i in range(start, start + n):
        journal.append("apply", f"rid{i}", "open-account",
                       {"aid": f"sp{i}", "balance": i})


def _shipped(address, *, segment_records: int = DEFAULT_SEGMENT_RECORDS,
             **options):
    """A journal over a shipper connected to *address*, and the shipper."""
    shipper = JournalShipper("src", MemoryStorage(), **options)
    shipper.connect(address)
    return Journal(shipper, segment_records=segment_records), shipper


def _contents(storage) -> dict[str, bytes]:
    return {name: storage.read(name) for name in storage.names()}


def _caught_up(slot, shipper) -> bool:
    return slot.applied == shipper._ops


def test_records_ship_synchronously_and_in_order():
    with ReplicaReceiver() as receiver:
        journal, shipper = _shipped(receiver.address)
        assert shipper.healthy
        _records(journal, 5)  # one roll (write + header) + five appends
        assert shipper.shipped_ops == 7
        slot = receiver.slot("src")
        _wait(lambda: slot.applied == 7)
        # the replica is the source's storage, byte for byte
        assert _contents(slot.storage) == _contents(shipper.inner)
        assert [r.lsn for r in Journal(slot.storage).records()] \
            == [0, 1, 2, 3, 4]
        assert receiver.sources() == ["src"]
        shipper.close()


def test_duplicate_lsns_are_dropped_by_the_receiver():
    slot = ReplicaSlot("src")
    frames = [{"type": "op", "node": "src", "n": n, "op": "append",
               "args": ["seg-00000000.wal", bytes([n])]} for n in (1, 2, 3)]
    for frame in frames:
        slot.apply(frame)
    # reconnect overlap: every op at or below the cursor is skipped
    for frame in frames:
        slot.apply(frame)
    assert slot.applied == 3
    assert slot.storage.read("seg-00000000.wal") == b"\x01\x02\x03"


def test_checkpoint_ships_when_segment_budget_is_spent():
    with ReplicaReceiver() as receiver:
        journal, shipper = _shipped(receiver.address)
        maintenance = JournalMaintenance(
            journal, lambda: Checkpoint(lsn=journal.last_lsn, blobs=(b"snap",)),
            checkpoint_every=4)
        slot = receiver.slot("src")
        _records(journal, 3)
        assert maintenance.run() is False  # 3 < 4, not due yet
        _records(journal, 1, start=3)
        assert maintenance.run() is True
        _wait(lambda: _caught_up(slot, shipper))
        # the checkpoint reached the peer as the node's own blobs and
        # manifest: the replica loads it
        restored = Journal(slot.storage).load_checkpoint()
        assert restored.lsn == 3 and restored.blobs == (b"snap",)
        # forcing always cuts; the newest supersedes and the older
        # manifest is collected on both copies
        _records(journal, 1, start=4)
        assert maintenance.run(force=True) is True
        _wait(lambda: _caught_up(slot, shipper))
        manifests = sorted(n for n in slot.storage.names()
                           if n.startswith("ckpt-"))
        assert manifests == ["ckpt-0000000000000004.mf"]
        assert _contents(slot.storage) == _contents(shipper.inner)
        shipper.close()


def test_close_unbinds_the_port_and_joins_every_thread():
    """``close()`` returns with the listener gone: a dial is refused and
    neither the accept thread nor a live stream's thread is left behind
    (a thread parked in ``accept()`` used to keep the port answering)."""
    receiver = ReplicaReceiver()
    _journal, shipper = _shipped(receiver.address)
    _wait(lambda: receiver.slot("src").streams == 1)
    receiver.close()
    with pytest.raises(OSError):
        socket.create_connection(receiver.address, timeout=1.0)
    assert not [t for t in threading.enumerate()
                if t.name.startswith("replica-") and t.is_alive()]
    shipper.close()


def test_spool_drains_after_peer_comes_back():
    with ReplicaReceiver() as probe:
        address = probe.address
    # the shipper spools from birth, and the peer is down when it
    # connects: every op spools for the reconnect thread
    shipper = JournalShipper("src", MemoryStorage(), reconnect_backoff=0.02)
    journal = Journal(shipper)
    _records(journal, 2)
    shipper.connect(address)
    _records(journal, 2, start=2)
    assert not shipper.healthy and shipper.shipped_ops == 0
    # bring a receiver up on the same port; the reconnect thread must
    # replay the whole spool (in order) before going healthy
    with ReplicaReceiver(host=address[0], port=address[1]) as receiver:
        _wait(lambda: shipper.healthy)
        slot = receiver.slot("src")
        _wait(lambda: slot.applied == 6)
        assert shipper.shipped_ops == 6
        assert _contents(slot.storage) == _contents(shipper.inner)
        # live ops after recovery ship on the hot path again
        _records(journal, 2, start=4)
        _wait(lambda: slot.applied == 8)
        assert Journal(slot.storage).last_lsn == 5
        shipper.close()


def test_wait_drained_waits_for_stream_eof():
    with ReplicaReceiver() as receiver:
        journal, shipper = _shipped(receiver.address)
        _records(journal, 2)
        slot = receiver.slot("src")
        _wait(lambda: slot.streams == 1)
        shipper.close()  # abrupt: the receiver sees EOF and decrements
        drained = receiver.wait_drained("src")
        assert drained.streams == 0
        assert drained.applied == 4  # sent bytes survived the close


def _dump(journal: Journal) -> dict:
    """*journal*'s storage as one slice of a ``dump`` control frame."""
    return {"segment_records": journal.segment_records,
            "storage": _contents(journal.storage)}


def test_journal_from_records_preserves_the_stream_verbatim():
    """A storage copy reopens to exactly the live journal's records —
    what the benchmark's record view (``ProcessCluster.dump_journals``)
    sizes, so its byte count cannot drift from the appended stream."""
    source = Journal(segment_records=2)
    _records(source, 3)
    reopened = open_dump(_dump(source))
    assert [r.to_state() for r in reopened.records()] \
        == [r.to_state() for r in source.records()]
    assert reopened.last_lsn == 2


def test_control_frames_ride_the_replication_listener():
    seen = []

    def control(frame):
        seen.append(frame)
        return {"ok": True, "echo": frame["type"]}

    with ReplicaReceiver(control=control) as receiver:
        reply = control_call(receiver.address, {"type": "ping"})
        assert reply == {"ok": True, "echo": "ping"}
        assert seen == [{"type": "ping"}]


def test_control_errors_answer_instead_of_killing_the_connection():
    def control(frame):
        raise ValueError("boom")

    with ReplicaReceiver(control=control) as receiver:
        reply = control_call(receiver.address, {"type": "anything"})
        assert reply["ok"] is False and "boom" in reply["error"]


def test_receiver_without_control_rejects_unknown_frames():
    with ReplicaReceiver() as receiver:
        reply = control_call(receiver.address, {"type": "mystery"})
        assert reply["ok"] is False


# -- the op stream (see docs/storage.md §Shipping the storage) -------------

def test_record_frames_carry_their_segment_id():
    with ReplicaReceiver() as receiver:
        journal, shipper = _shipped(receiver.address, segment_records=2)
        _records(journal, 5)
        slot = receiver.slot("src")
        _wait(lambda: _caught_up(slot, shipper))
        # appends name the segment file their LSN lives in: lsn 4 is in
        # segment [4, 6)
        assert sorted(slot.storage.names()) == [
            "seg-00000000.wal", "seg-00000001.wal", "seg-00000002.wal"]
        replica = Journal(slot.storage, segment_records=2)
        assert [replica.segment_of(r.lsn) for r in replica.records()] \
            == [0, 0, 1, 1, 2]
        shipper.close()


def test_sync_hello_answers_with_the_receiver_cursor():
    with ReplicaReceiver() as receiver:
        journal, shipper = _shipped(receiver.address, segment_records=2)
        _records(journal, 3)  # two rolls of two ops each, three appends
        slot = receiver.slot("src")
        _wait(lambda: slot.applied == 7)
        cursor = control_call(receiver.address,
                              {"type": "hello", "node": "src", "sync": True})
        assert cursor == {"ok": True, "type": "cursor", "node": "src",
                          "ops": 7}
        shipper.close()


class _SentThenRaised:
    """A socket whose next ``sendall`` delivers, then raises anyway."""

    def __init__(self, sock, delivered):
        self.sock, self.delivered = sock, delivered

    def sendall(self, data):
        self.sock.sendall(data)
        _wait(self.delivered)
        raise OSError("connection reset after the bytes left")

    def close(self):
        self.sock.close()


def test_reconnect_prunes_the_spool_to_the_peer_cursor():
    with ReplicaReceiver() as receiver:
        journal, shipper = _shipped(receiver.address, segment_records=2,
                                    reconnect_backoff=0.02)
        _records(journal, 4)  # ops 1-8 arrive on the hot path
        slot = receiver.slot("src")
        _wait(lambda: slot.applied == 8)
        # a flaky link: op 9 reaches the peer but the send raises, so it
        # is spooled as well — overlap — and ops 10-12 spool behind it
        with shipper._lock:
            shipper._sock = _SentThenRaised(shipper._sock,
                                            lambda: slot.applied == 9)
        _records(journal, 2, start=4)
        _wait(lambda: shipper.healthy)
        _wait(lambda: slot.applied == 12)
        # the cursor (9) pruned the overlap: only ops 10-12 were resent
        assert shipper.shipped_ops == 11
        assert _contents(slot.storage) == _contents(shipper.inner)
        shipper.close()


def test_trim_on_checkpoint_bounds_the_slot_and_keeps_the_cursor():
    with ReplicaReceiver() as receiver:
        journal, shipper = _shipped(receiver.address, segment_records=2)
        maintenance = JournalMaintenance(
            journal, lambda: Checkpoint(lsn=journal.last_lsn, blobs=(b"snap",)),
            checkpoint_every=4, retain_segments=0)
        _records(journal, 4)
        assert maintenance.run() is True
        slot = receiver.slot("src")
        _wait(lambda: _caught_up(slot, shipper))
        # the source's compaction reached the replica as unlinks, after
        # the manifest that covers them: no segment left, cursor intact
        assert not [n for n in slot.storage.names() if n.startswith("seg-")]
        assert slot.applied == shipper._ops
        _records(journal, 2, start=4)
        _wait(lambda: _caught_up(slot, shipper))
        # checkpoint + tail is exactly what adoption reopens
        replica = Journal(slot.storage, segment_records=2)
        assert replica.first_lsn == replica.load_checkpoint().lsn + 1 == 4
        assert [r.lsn for r in replica.records()] == [4, 5]
        shipper.close()


def test_a_gap_or_an_adopted_source_closes_the_stream():
    def send(address, frames):
        with socket.create_connection(address, timeout=5.0) as sock:
            for frame in frames:
                sock.sendall(encode_frame(frame))
            sock.settimeout(5.0)
            assert sock.recv(1) == b""  # the receiver hung up

    op = {"type": "op", "node": "src", "op": "write",
          "args": ["seg-00000000.wal", b"x"]}
    with ReplicaReceiver() as receiver:
        slot = receiver.slot("src")
        # op 2 before op 1
        send(receiver.address, [{"type": "hello", "node": "src"},
                                {**op, "n": 2}])
        assert slot.applied == 0 and slot.storage.names() == []
        send(receiver.address, [{**op, "n": 1}, {**op, "n": 2, "op": "rm"}])
        assert slot.applied == 1
        # adoption took the replica: a stream frame changes nothing more
        taken = receiver.take("src")
        send(receiver.address, [{**op, "n": 2, "args": ["late", b"y"]}])
        send(receiver.address, [{"type": "hello", "node": "src"}])
        assert taken.names() == ["seg-00000000.wal"]
        with pytest.raises(LookupError, match="already in progress"):
            receiver.take("src")
    with pytest.raises(WireError, match="adopted"):
        slot.apply({**op, "n": 2})


#: frames that break their row of STREAM or CONTROL; ``"n": None`` is
#: replaced by the op the replica expects next, so only the schema
#: stands between the frame and the replica's storage
_HOSTILE = {
    "hello-without-node": {"type": "hello", "sync": True},
    "hello-node-is-a-list": {"type": "hello", "node": ["n0"], "sync": True},
    "op-args-not-a-list": {"type": "op", "node": "n0", "n": None,
                           "op": "write", "args": "seg"},
    "op-unknown-operation": {"type": "op", "node": "n0", "n": None,
                             "op": "rmtree", "args": ["seg-00000000.wal"]},
    "set-map-not-a-dict": {"type": "set-map", "map": "everything"},
    "adopt-without-node": {"type": "adopt"},
}


@pytest.mark.parametrize("name", sorted(_HOSTILE))
def test_a_hostile_frame_costs_only_its_own_connection(
        name, dec_params_toy, cluster_keypair, monkeypatch):
    """Each frame is answered ``{ok: false}`` or closes its own socket;
    no thread dies, the node still answers, and the replica keeps
    applying its real peer's stream."""
    from repro.cluster import LocalCluster
    from repro.net.wire import read_frame
    from repro.service.frontend import ServiceClient

    died = []
    monkeypatch.setattr(threading, "excepthook", died.append)
    with LocalCluster(dec_params_toy, cluster_keypair, n_nodes=2) as cluster:
        source = cluster.nodes["n0"]
        node = cluster.nodes[cluster.map.replica_peer("n0")]
        slot = node.receiver.slot("n0")
        _wait(lambda: _caught_up(slot, source.shipper))
        frame = dict(_HOSTILE[name])
        if "n" in frame:
            frame["n"] = slot.applied + 1
        with socket.create_connection(node.replica_address, timeout=5.0) as sock:
            sock.sendall(encode_frame(frame))
            try:
                reply = read_frame(sock)  # None: the receiver hung up
            except ConnectionError:  # ... with our bytes still unread
                reply = None
        assert reply is None or reply["ok"] is False, reply
        assert control_call(node.replica_address, {"type": "ping"})["ok"]
        with ServiceClient(source.address, timeout=30.0) as client:
            opened = client.request("open-account", {"aid": "late", "balance": 1})
        assert opened["status"] == "OK"
        _wait(lambda: _caught_up(slot, source.shipper))
        assert _contents(slot.storage) == _contents(source.shipper.inner)
    assert died == []


class _LosesOneFrame:
    """A socket whose next frame is "sent" but never arrives; then it resets.

    What a connection that dies with bytes still in the kernel does:
    ``sendall`` returned, so the frame is not spooled, yet the peer
    never applies it.
    """

    def __init__(self, sock):
        self.sock, self.lost = sock, False

    def sendall(self, data):
        if self.lost:
            raise OSError("connection reset")
        self.lost = True

    def close(self):
        self.sock.close()


def test_a_frame_lost_after_sending_resyncs_the_replica_from_the_store():
    with ReplicaReceiver() as receiver:
        journal, shipper = _shipped(receiver.address, segment_records=2,
                                    reconnect_backoff=0.02)
        _records(journal, 4)  # ops 1-8 arrive on the hot path
        slot = receiver.slot("src")
        _wait(lambda: slot.applied == 8)
        with shipper._lock:
            shipper._sock = _LosesOneFrame(shipper._sock)
        # op 9 is lost on the wire; op 10 hits the reset and spools, so
        # the peer's cursor (8) is behind the spool (10): no replay can
        # close that gap, the shipper resends its store instead
        _records(journal, 2, start=4)
        _wait(lambda: shipper.healthy)
        _wait(lambda: _caught_up(slot, shipper))
        assert slot.resync_ops == len(shipper.inner.names())
        assert _contents(slot.storage) == _contents(shipper.inner)
        # live again: ops after the snapshot number on from it
        _records(journal, 1, start=6)
        _wait(lambda: _caught_up(slot, shipper))
        shipper.close()
        # op 9's record (lsn 4) is in the adopted copy
        adopted = Journal(receiver.take("src"), segment_records=2)
        assert [r.lsn for r in adopted.records()] == list(range(7))


def test_a_resyncing_replica_refuses_adoption_until_the_snapshot_is_whole():
    def send(address, frames):
        with socket.create_connection(address, timeout=5.0) as sock:
            for frame in frames:
                sock.sendall(encode_frame(frame))

    def write(n, name):
        return {"type": "op", "node": "src", "n": n, "op": "write",
                "args": [name, name.encode()]}

    with ReplicaReceiver() as receiver:
        slot = receiver.slot("src")
        send(receiver.address, [{"type": "hello", "node": "src"},
                                write(1, "stale")])
        _wait(lambda: slot.applied == 1 and slot.streams == 0)
        # a reset empties the slot; two of the three snapshot ops arrive
        send(receiver.address, [{"type": "hello", "node": "src", "reset": 3},
                                write(1, "a"), write(2, "b")])
        _wait(lambda: slot.applied == 2 and slot.streams == 0)
        assert sorted(slot.storage.names()) == ["a", "b"]
        with pytest.raises(LookupError, match="resyncing: 2 of 3"):
            receiver.take("src")
        assert sorted(slot.storage.names()) == ["a", "b"]  # left in place
        send(receiver.address, [{"type": "hello", "node": "src"},
                                write(3, "c")])
        _wait(lambda: slot.applied == 3)
        assert sorted(receiver.take("src").names()) == ["a", "b", "c"]


def _compacted(n: int, cut: int, *, segment_records: int = 2) -> Journal:
    """*n* records, a checkpoint at lsn *cut*, compacted with no slack."""
    source = Journal(segment_records=segment_records)
    _records(source, n)
    source.write_checkpoint(Checkpoint(lsn=cut, blobs=(b"snap",)))
    source.compact(retain_segments=0)
    return source


def test_journal_from_records_keeps_a_nonzero_base_lsn():
    source = _compacted(7, 5)  # the three segments of lsns 0-5 go
    reopened = open_dump(_dump(source))
    assert reopened.first_lsn == source.first_lsn == 6
    assert [r.lsn for r in reopened.records()] == [6]
    assert reopened.load_checkpoint().lsn == 5


def test_a_journal_from_records_is_a_store_that_reopens():
    """A copy compaction emptied of segments reopens right after its
    checkpoint's cut and keeps numbering from there, also across a
    second reopen of what was appended on top."""
    source = _compacted(8, 7)
    assert not [name for name in source.storage.names()
                if name.startswith("seg-")]
    copy = open_dump(_dump(source))
    assert (copy.first_lsn, copy.last_lsn) == (8, 7)
    _records(copy, 3, start=8)
    reopened = Journal(copy.storage, segment_records=2)
    assert (reopened.first_lsn, reopened.last_lsn) == (8, 10)
    assert [r.to_state() for r in reopened.records()] == [
        r.to_state() for r in copy.records()]
    assert not reopened.torn_tail


def test_journal_from_records_rejects_gapped_streams():
    source = Journal(segment_records=2)
    _records(source, 6)
    dump = _dump(source)
    del dump["storage"]["seg-00000001.wal"]
    with pytest.raises(JournalError, match="segment gap"):
        open_dump(dump)
