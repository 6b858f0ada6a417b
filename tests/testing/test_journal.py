"""Write-ahead journal: append discipline, file durability, checkpoints."""

from __future__ import annotations

import pytest

from repro.service import Checkpoint, Journal, JournalError
from tests.conftest import InMemory


class TestJournal:
    def test_lsns_are_dense_from_zero(self):
        journal = Journal()
        assert journal.last_lsn == -1
        for i in range(5):
            record = journal.append("apply", f"r{i}", "deposit", {"i": i})
            assert record.lsn == i
        assert journal.last_lsn == 4
        assert len(journal) == 5

    def test_records_after_cursor(self):
        journal = Journal()
        for i in range(4):
            journal.append("apply", f"r{i}", "op", i)
        assert [r.lsn for r in journal.records()] == [0, 1, 2, 3]
        assert [r.lsn for r in journal.records(after=1)] == [2, 3]
        assert list(journal.records(after=3)) == []

    def test_unknown_kind_rejected(self):
        with pytest.raises(JournalError, match="kind"):
            Journal().append("mutate", "r", "op", {})

    def test_unencodable_payload_rejected_and_not_appended(self):
        journal = Journal()
        with pytest.raises(JournalError, match="unjournalable"):
            journal.append("apply", "r", "op", object())
        assert len(journal) == 0

    def test_payload_is_decoupled_from_the_caller(self):
        """A journaled payload is a codec copy, not a shared reference."""
        journal = Journal()
        payload = {"serials": [1, 2, 3]}
        record = journal.append("apply", "r", "deposit", payload)
        payload["serials"].append(4)
        assert record.payload == {"serials": [1, 2, 3]}


class TestFileJournal:
    """The journal in a store at its default geometry: one segment."""

    SEGMENT = "seg-00000000.wal"

    def _fill(self, journal: Journal, n: int = 4) -> None:
        for i in range(n):
            journal.append("apply", f"r{i}", "deposit", {"aid": "a", "i": i})

    def test_reload_round_trip(self, reopen):
        journal = Journal(reopen())
        self._fill(journal)
        journal.close()
        reloaded = Journal(reopen())
        assert [r.to_state() for r in reloaded.records()] == [
            {"lsn": i, "kind": "apply", "rid": f"r{i}", "op": "deposit",
             "payload": {"aid": "a", "i": i}}
            for i in range(4)
        ]
        assert not reloaded.torn_tail

    def test_appends_survive_reopen(self, reopen):
        journal = Journal(reopen())
        self._fill(journal, 2)
        journal.close()
        reloaded = Journal(reopen())
        reloaded.append("apply", "r2", "deposit", {"aid": "a", "i": 2})
        reloaded.close()
        final = Journal(reopen())
        assert [r.lsn for r in final.records()] == [0, 1, 2]

    def test_torn_tail_is_dropped_not_fatal(self, reopen):
        """A crash mid-append loses at most the record being written."""
        journal = Journal(reopen())
        self._fill(journal)
        journal.close()
        storage = reopen()
        # tear the last frame's body
        storage.truncate(self.SEGMENT, storage.size(self.SEGMENT) - 3)
        reloaded = Journal(reopen())
        assert reloaded.torn_tail
        assert [r.lsn for r in reloaded.records()] == [0, 1, 2]
        # the torn bytes were truncated: appends land on a clean frame
        reloaded.append("apply", "r3b", "deposit", {"aid": "a"})
        reloaded.close()
        final = Journal(reopen())
        assert [r.rid for r in final.records()] == ["r0", "r1", "r2", "r3b"]
        assert not final.torn_tail

    def test_mid_file_corruption_is_fatal(self, reopen):
        journal = Journal(reopen())
        self._fill(journal)
        journal.close()
        storage = reopen()
        data = bytearray(storage.read(self.SEGMENT))
        data[data.index(b"r0")] ^= 0xFF  # inside the first record, far from the tail
        storage.write(self.SEGMENT, bytes(data))
        with pytest.raises(JournalError, match="digest"):
            Journal(reopen())

    def test_bad_magic_rejected(self, reopen):
        reopen().write(self.SEGMENT, b"not a journal at all")
        with pytest.raises(JournalError, match="magic"):
            Journal(reopen())


class TestFileJournalInMemory(InMemory, TestFileJournal):
    pass


class TestCheckpoint:
    """The one checkpoint format: ``write_checkpoint`` → ``load_checkpoint``."""

    MANIFEST = "ckpt-0000000000000003.mf"

    def test_round_trip(self):
        journal = Journal()
        ckpt = Checkpoint(lsn=17, blobs=(b"shard-0", b"shard-1"))
        journal.write_checkpoint(ckpt)
        assert journal.load_checkpoint() == ckpt

    def test_corruption_detected(self):
        journal = Journal()
        journal.write_checkpoint(Checkpoint(lsn=3, blobs=(b"x",)))
        manifest = bytearray(journal.storage.read(self.MANIFEST))
        manifest[-1] ^= 0x01
        journal.storage.write(self.MANIFEST, bytes(manifest))
        assert journal.load_checkpoint() is None
        assert journal.checkpoint_fallbacks == 1

    def test_bad_magic_rejected(self):
        journal = Journal()
        journal.storage.write(self.MANIFEST, b"junk")
        assert journal.load_checkpoint() is None
        assert journal.checkpoint_fallbacks == 1
