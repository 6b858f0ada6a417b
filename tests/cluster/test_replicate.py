"""Checkpoint/journal shipping: streams, spooling, idempotence."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.cluster.replicate import (
    JournalShipper,
    ReplicaReceiver,
    control_call,
)
from repro.service.journal import Checkpoint, Journal, JournalError


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


def test_records_ship_synchronously_and_in_order():
    with ReplicaReceiver() as receiver:
        journal = Journal()
        shipper = JournalShipper("src", receiver.address)
        journal.add_observer(shipper.on_record)
        _records(journal, 5)
        assert shipper.healthy and shipper.shipped_records == 5
        slot = receiver.slot("src")
        _wait(lambda: slot.last_lsn == 4)
        assert [r["lsn"] for r in slot.records] == [0, 1, 2, 3, 4]
        assert receiver.sources() == ["src"]
        shipper.close()


def test_duplicate_lsns_are_dropped_by_the_receiver():
    with ReplicaReceiver() as receiver:
        journal = Journal()
        shipper = JournalShipper("src", receiver.address)
        journal.add_observer(shipper.on_record)
        _records(journal, 3)
        slot = receiver.slot("src")
        _wait(lambda: slot.last_lsn == 2)
        # a reconnecting shipper may replay overlap; LSN gates the append
        for record in list(journal.records()):
            shipper.on_record(record)
        _wait(lambda: shipper.shipped_records == 6)
        time.sleep(0.05)
        assert [r["lsn"] for r in slot.records] == [0, 1, 2]
        shipper.close()


def test_checkpoint_ships_when_segment_budget_is_spent():
    with ReplicaReceiver() as receiver:
        journal = Journal()
        shipper = JournalShipper("src", receiver.address, checkpoint_every=4)
        shipper.bind_checkpoints(
            lambda: Checkpoint(lsn=journal.last_lsn, blobs=(b"snap",))
        )
        journal.add_observer(shipper.on_record)
        _records(journal, 3)
        assert shipper.maybe_checkpoint() is False  # 3 < 4, not due yet
        _records(journal, 1, start=3)
        assert shipper.maybe_checkpoint() is True
        slot = receiver.slot("src")
        _wait(lambda: slot.checkpoint is not None)
        restored = Checkpoint.from_bytes(slot.checkpoint)
        assert restored.lsn == 3 and restored.blobs == (b"snap",)
        # forcing always ships, and newest supersedes
        _records(journal, 1, start=4)
        assert shipper.maybe_checkpoint(force=True) is True
        _wait(lambda: slot.checkpoint is not None
              and Checkpoint.from_bytes(slot.checkpoint).lsn == 4)
        assert shipper.shipped_checkpoints == 2
        shipper.close()


def test_close_unbinds_the_port_and_joins_every_thread():
    """``close()`` returns with the listener gone: a dial is refused and
    neither the accept thread nor a live stream's thread is left behind
    (a thread parked in ``accept()`` used to keep the port answering)."""
    receiver = ReplicaReceiver()
    shipper = JournalShipper("src", receiver.address)
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
    # peer is down from the start: constructor degrades, records spool
    journal = Journal()
    shipper = JournalShipper("src", address, reconnect_backoff=0.02)
    journal.add_observer(shipper.on_record)
    _records(journal, 4)
    assert not shipper.healthy and shipper.shipped_records == 0
    # bring a receiver up on the same port; the reconnect thread must
    # replay the whole spool (in order) before going healthy
    with ReplicaReceiver(host=address[0], port=address[1]) as receiver:
        _wait(lambda: shipper.healthy)
        slot = receiver.slot("src")
        _wait(lambda: slot.last_lsn == 3)
        assert [r["lsn"] for r in slot.records] == [0, 1, 2, 3]
        # live records after recovery ship on the hot path again
        _records(journal, 2, start=4)
        _wait(lambda: slot.last_lsn == 5)
        # the degraded window marked a checkpoint due: the next
        # maybe_checkpoint ships even though checkpoint_every is large
        shipper.bind_checkpoints(
            lambda: Checkpoint(lsn=journal.last_lsn, blobs=(b"post",))
        )
        assert shipper.maybe_checkpoint() is True
        shipper.close()


def test_wait_drained_waits_for_stream_eof():
    with ReplicaReceiver() as receiver:
        journal = Journal()
        shipper = JournalShipper("src", receiver.address)
        journal.add_observer(shipper.on_record)
        _records(journal, 2)
        slot = receiver.slot("src")
        _wait(lambda: slot.streams == 1)
        shipper.close()  # abrupt: the receiver sees EOF and decrements
        drained = receiver.wait_drained("src")
        assert drained.streams == 0
        assert drained.last_lsn == 1  # sent bytes survived the close


def test_journal_from_records_preserves_the_stream_verbatim():
    source = Journal()
    _records(source, 3)
    states = [r.to_state() for r in source.records()]
    rebuilt = Journal.from_records(states)
    assert [r.to_state() for r in rebuilt.records()] == states
    assert rebuilt.last_lsn == 2


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


# -- segment-aware shipping (see docs/storage.md) --------------------------

def test_record_frames_carry_their_segment_id():
    with ReplicaReceiver() as receiver:
        journal = Journal(segment_records=2)
        shipper = JournalShipper("src", receiver.address, segment_records=2)
        journal.add_observer(shipper.on_record)
        _records(journal, 5)
        slot = receiver.slot("src")
        _wait(lambda: slot.last_lsn == 4)
        assert slot.last_segment == 2  # lsn 4 lives in segment [4, 6)
        shipper.close()


def test_sync_hello_answers_with_the_receiver_cursor():
    with ReplicaReceiver() as receiver:
        journal = Journal(segment_records=2)
        shipper = JournalShipper("src", receiver.address, segment_records=2)
        journal.add_observer(shipper.on_record)
        _records(journal, 3)
        slot = receiver.slot("src")
        _wait(lambda: slot.last_lsn == 2)
        cursor = control_call(receiver.address,
                              {"type": "hello", "node": "src", "sync": True})
        assert cursor == {"ok": True, "type": "cursor", "node": "src",
                          "segment": 1, "lsn": 2}
        shipper.close()


def test_reconnect_prunes_the_spool_to_the_peer_cursor():
    with ReplicaReceiver() as receiver:
        journal = Journal(segment_records=2)
        shipper = JournalShipper("src", receiver.address, segment_records=2,
                                 reconnect_backoff=0.02)
        journal.add_observer(shipper.on_record)
        _records(journal, 4)  # lsns 0-3 arrive on the hot path
        slot = receiver.slot("src")
        _wait(lambda: slot.last_lsn == 3)
        # simulate a flaky link: drop the socket, spool overlap + news
        with shipper._lock:
            shipper._drop_locked()
        for record in list(journal.records()):   # overlap: lsns 0-3
            shipper.on_record(record)
        _records(journal, 2, start=4)            # news: lsns 4-5 spool too
        shipped_before = shipper.shipped_records
        _wait(lambda: shipper.healthy)
        _wait(lambda: slot.last_lsn == 5)
        # the cursor ack (lsn 3) pruned the overlap: only 4 and 5 resent
        assert shipper.shipped_records == shipped_before + 2
        assert [r["lsn"] for r in slot.records] == [0, 1, 2, 3, 4, 5]
        shipper.close()


def test_trim_on_checkpoint_bounds_the_slot_and_keeps_the_cursor():
    with ReplicaReceiver(trim_on_checkpoint=True) as receiver:
        journal = Journal(segment_records=2)
        shipper = JournalShipper("src", receiver.address, segment_records=2,
                                 checkpoint_every=4)
        shipper.bind_checkpoints(
            lambda: Checkpoint(lsn=journal.last_lsn, blobs=(b"snap",))
        )
        journal.add_observer(shipper.on_record)
        _records(journal, 4)
        assert shipper.maybe_checkpoint() is True
        assert shipper.last_checkpoint_lsn == 3
        slot = receiver.slot("src")
        _wait(lambda: slot.checkpoint is not None)
        _wait(lambda: slot.records == [])  # lsns 0-3 are inside the snapshot
        assert slot.checkpoint_lsn == 3
        assert slot.last_lsn == 3  # the cursor survives the trim
        _records(journal, 2, start=4)
        _wait(lambda: [r["lsn"] for r in slot.records] == [4, 5])
        # checkpoint + tail is exactly what adoption needs
        restored = Checkpoint.from_bytes(slot.checkpoint)
        tail = Journal.from_records(slot.records)
        assert tail.first_lsn == restored.lsn + 1
        shipper.close()


def test_journal_from_records_keeps_a_nonzero_base_lsn():
    source = Journal()
    _records(source, 6)
    states = [r.to_state() for r in source.records(after=3)]
    rebuilt = Journal.from_records(states)
    assert rebuilt.first_lsn == 4 and rebuilt.last_lsn == 5
    assert [r.lsn for r in rebuilt.records()] == [4, 5]


def test_a_journal_from_records_is_a_store_that_reopens():
    """Installed records are framed like appended ones — also when the
    stream starts mid-segment, and also for what is appended on top."""
    source = Journal()
    _records(source, 11)
    states = [r.to_state() for r in source.records(after=5)]
    rebuilt = Journal.from_records(states)
    fired = []
    rebuilt.add_observer(fired.append)
    _records(rebuilt, 2, start=11)  # the adopter keeps serving the slice
    assert [r.lsn for r in fired] == [11, 12]
    reopened = Journal(rebuilt.storage)
    assert (reopened.first_lsn, reopened.last_lsn) == (6, 12)
    assert [r.to_state() for r in reopened.records()] == [
        r.to_state() for r in rebuilt.records()]
    assert not reopened.torn_tail


def test_journal_from_records_rejects_gapped_streams():
    source = Journal()
    _records(source, 4)
    states = [r.to_state() for r in source.records()]
    del states[1]
    with pytest.raises(JournalError, match="gap"):
        Journal.from_records(states)
