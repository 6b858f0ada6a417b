"""The storage seam: both backends behave alike, and the format holds still.

* **conformance** — one scripted operation sequence leaves identical
  ``names()``/``read()`` on :class:`MemoryStorage` and
  :class:`DirectoryStorage`, including the corners the journal leans
  on: re-``append`` after ``truncate``/``unlink``/``write`` (the
  directory backend keeps an open handle across appends), ``replace``
  over an existing name, ``truncate`` past the end, and what a missing
  name does;
* **deletion is best effort** — compaction survives a name the OS will
  not remove;
* **the crasher is a storage** — it records every mutating call, dies
  *before* the scheduled one, and passes everything else through;
* **a wrapper's snapshot is a crash point** — copied under the lock
  every mutating call holds, it reopens while a writer compacts;
* **golden digest** — a fixed three-segment, two-checkpoint workload
  produces byte-for-byte the files the parent of the one-journal
  refactor produced (digest computed on a checkout of that parent).
"""

from __future__ import annotations

import hashlib
import threading
import time

import pytest

from repro.net.codec import encode
from repro.service import (
    Checkpoint,
    DirectoryStorage,
    Journal,
    MemoryStorage,
)
from repro.service.journal import Run, Runs
from repro.service.storage import StorageWrapper
from repro.testing.faults import CrashPoint, StorageCrasher


def _script(storage) -> list:
    """Every operation, in an order that crosses the handle-keeping paths."""
    seen = []
    storage.append("a", b"one")           # append creates
    storage.append("a", b"two")
    storage.append("b", b"other")         # the open handle moves to b ...
    storage.append("a", b"three")         # ... and back
    seen.append(storage.size("a"))
    storage.truncate("a", 4)
    storage.append("a", b"+")             # lands at the cut, not past it
    seen.append(storage.read("a"))
    storage.write("a.tmp", b"staged")
    storage.replace("a.tmp", "a")         # over a name with an open handle
    storage.append("a", b"!")
    seen.append(storage.read("a"))
    storage.write("b", b"")               # write replaces, also with nothing
    storage.append("b", b"again")
    storage.truncate("b", 7)              # past the end zero-fills (os.truncate)
    storage.append("b", b".")
    storage.unlink("a")
    storage.append("a", b"reborn")        # append after unlink re-creates
    storage.unlink("never-there")         # not an error
    for missing in (lambda: storage.read("gone"), lambda: storage.size("gone"),
                    lambda: storage.truncate("gone", 0),
                    lambda: storage.replace("gone", "b")):
        with pytest.raises(FileNotFoundError):
            missing()
    storage.close()
    storage.append("b", b"+after-close")  # close gives up handles, not data
    seen.append(sorted(storage.names()))
    seen.append({name: storage.read(name) for name in storage.names()})
    return seen


def test_both_storages_answer_one_script_identically(tmp_path):
    memory = _script(MemoryStorage())
    directory = _script(DirectoryStorage(tmp_path / "store"))
    assert memory == directory
    assert memory[-1] == {"a": b"reborn", "b": b"again\0\0.+after-close"}
    # and the directory leg really is files: a second opener sees them
    again = DirectoryStorage(tmp_path / "store")
    assert {n: again.read(n) for n in again.names()} == memory[-1]


def test_compaction_leaves_what_the_directory_will_not_delete(tmp_path):
    """``unlink`` is best effort, as deletion was before the seam: a stray
    the OS refuses to remove (here a directory: EISDIR) stays for the
    next pass instead of failing the cut."""
    journal = Journal.open(tmp_path / "wal", segment_records=2)
    (tmp_path / "wal" / "stray.tmp").mkdir()
    for i in range(5):
        journal.append("apply", f"rid{i}", "open-account", {"aid": f"a{i}"})
    journal.write_checkpoint(Checkpoint(lsn=4, blobs=(b"shard",)))
    assert journal.compact(retain_segments=0) == [0, 1]
    assert "stray.tmp" in journal.storage.names()
    journal.close()


def test_crasher_records_mutations_and_dies_before_the_scheduled_one():
    inner = MemoryStorage()
    recorder = StorageCrasher(inner)
    recorder.write("x.tmp", b"1")
    recorder.replace("x.tmp", "x")
    recorder.append("x", b"2")
    recorder.truncate("x", 1)
    assert (recorder.read("x"), recorder.size("x"), recorder.names()) == (
        b"1", 1, ["x"])  # reads pass through and are not points
    recorder.unlink("x")
    assert recorder.steps == ["write:x.tmp", "replace:x", "append:x",
                              "truncate:x", "unlink:x"]
    assert recorder.fired is None and inner.names() == []

    inner = MemoryStorage()
    crasher = StorageCrasher(inner, crash_at=1)
    crasher.write("x.tmp", b"1")
    with pytest.raises(CrashPoint) as crash:
        crasher.replace("x.tmp", "x")
    assert crash.value.label == crasher.fired == "replace:x"
    assert inner.names() == ["x.tmp"]  # written, never renamed
    crasher.append("y", b"later")  # the schedule fires once
    assert inner.read("y") == b"later"


class _SlowReads(MemoryStorage):
    """Yields to other threads on every read, so a copy spans many writes."""

    def read(self, name: str) -> bytes:
        time.sleep(1e-4)
        return super().read(name)


def test_a_snapshot_is_taken_between_two_operations():
    """A writer appends, checkpoints and compacts through a wrapper while
    another thread copies it: every copy reopens, and its log starts no
    later than its newest checkpoint covers.  A copy taken across
    operations reads names that compaction deletes under it."""
    journal = Journal(StorageWrapper(_SlowReads()), segment_records=1)
    stop = threading.Event()

    def write() -> None:  # one segment, one cut, one unlink per record
        while not stop.is_set():
            lsn = journal.append("apply", "", "open-account", {}).lsn
            journal.write_checkpoint(Checkpoint(lsn=lsn, blobs=(b"s",)))
            journal.compact(retain_segments=8)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        for _ in range(50):
            copy = MemoryStorage()
            for name, data in journal.storage.snapshot().items():
                copy.write(name, data)
            reopened = Journal(copy, segment_records=1)
            checkpoint = reopened.load_checkpoint()
            assert reopened.first_lsn <= (checkpoint.lsn + 1 if checkpoint else 0)
    finally:
        stop.set()
        writer.join(timeout=10.0)
    assert not writer.is_alive()


#: sha256 over the sorted (name, bytes) of the workload below, computed
#: on a checkout of the parent commit (``SegmentedFileJournal``, 2a55575)
GOLDEN = "bf4d04da8d58d84e9826435ef5ff69065813a46a4d78056809ca3435d811203a"


def _golden_workload(journal: Journal) -> None:
    for i in range(10):
        journal.append("apply", f"rid{i}", "open-account",
                       {"aid": f"a{i}", "balance": i})
    run = Run(encode([(rid, "OK", {"balance": 1}) for rid in ("a", "b", "c")]))
    journal.write_checkpoint(Checkpoint(lsn=3, blobs=(b"cold", b"hot-v1")))
    journal.write_checkpoint(Checkpoint(
        lsn=9, blobs=(b"cold", b"hot-v2"),
        replies=Runs(sealed=(run,), skip=1, tail=(("late", "OK", {}),)),
        pending=({"rid": "r2", "sender": "s", "kind": "deposit", "seq": 9,
                  "payload": {"aid": "a"}},),
        evicted=Runs(tail=("bb" * 8,)), next_seq=10))
    journal.close()


@pytest.mark.parametrize("backend", ["directory", "memory"])
def test_on_disk_format_did_not_move(tmp_path, backend):
    storage = (DirectoryStorage(tmp_path / "wal") if backend == "directory"
               else MemoryStorage())
    _golden_workload(Journal(storage, segment_records=4))
    digest = hashlib.sha256()
    names = sorted(storage.names())
    for name in names:
        data = storage.read(name)
        digest.update(len(name).to_bytes(4, "big") + name.encode()
                      + len(data).to_bytes(8, "big") + data)
    assert len(names) == 10  # 3 segments, 2 manifests, 5 blobs
    assert digest.hexdigest() == GOLDEN
