"""Segment/epoch journal store: geometry, durability, compaction.

The on-disk contract under test is the one ``docs/storage.md``
specifies byte-for-byte:

* LSNs are global and dense; segment ``k`` holds ``[k*N, (k+1)*N)``
  and compaction only ever advances ``first_lsn`` — nothing is
  renumbered, so every cursor and checkpoint cut stays valid;
* only the *newest* segment may end in a torn frame (truncated on
  load); any damage before the tail is corruption and refuses to load;
* checkpoints are copy-on-write — unchanged shard blobs cost zero new
  bytes — and the manifest is published last by atomic rename, so the
  newest manifest on disk always validates;
* compaction deletes covered segment files, superseded manifests and
  unreferenced blobs, in that order, and a reload after any prefix of
  that deletion sequence still recovers (the crash sweeps live in
  ``tests/testing/test_storage_faults.py``).

One :class:`Journal` does all of this over either storage, so the
store-level classes run twice: on a directory (the ``reopen`` fixture
hands out a fresh ``DirectoryStorage`` per call — a restarted process)
and, through the ``...InMemory`` subclasses, on one ``MemoryStorage``.
"""

from __future__ import annotations

import importlib.util
import os
import random

import pytest

import repro.obs as obs
import repro.service.journal as journal_mod
from repro.crypto.hashing import sha256
from repro.net.codec import encode
from repro.service import (
    Checkpoint,
    Journal,
    JournalError,
    JournalMaintenance,
    MarketService,
    ShardedBank,
)
from repro.service.journal import Run, Runs
from tests.conftest import InMemory


def _fill(journal: Journal, n: int, *, start: int = 0) -> None:
    for i in range(start, start + n):
        journal.append("apply", f"rid{i}", "open-account",
                       {"aid": f"a{i}", "balance": i})


# -- in-memory segment math ------------------------------------------------

class TestSegmentMath:
    def test_appends_assign_global_lsns_across_segments(self):
        journal = Journal(segment_records=4)
        _fill(journal, 10)
        assert journal.first_lsn == 0 and journal.last_lsn == 9
        assert journal.segments_retained == 3  # [0,4) [4,8) [8,10)
        assert journal.segment_of(0) == 0
        assert journal.segment_of(7) == 1
        assert journal.segment_of(8) == 2

    def test_compact_drops_only_fully_covered_sealed_segments(self):
        journal = Journal(segment_records=4)
        _fill(journal, 10)
        # durable through lsn 5: only segment 0 ([0,4)) is fully covered,
        # and retain_segments=1 keeps it anyway
        assert journal.compact(5) == []
        # durable through lsn 7 covers segments 0 and 1; retention keeps 1
        assert journal.compact(7) == [0]
        assert journal.first_lsn == 4 and journal.last_lsn == 9
        assert [r.lsn for r in journal.records()] == list(range(4, 10))
        # recompacting at the same cut is a no-op
        assert journal.compact(7) == []

    def test_retain_segments_keeps_a_coverable_tail(self):
        journal = Journal(segment_records=4)
        _fill(journal, 16)
        # all four segments are covered; retention keeps the newest two
        assert journal.compact(15, retain_segments=2) == [0, 1]
        assert journal.first_lsn == 8
        assert journal.compact(15, retain_segments=0) == [2, 3]
        assert journal.first_lsn == 16 and len(journal) == 0
        # LSNs never restart after a full drop
        _fill(journal, 1, start=16)
        assert journal.last_lsn == 16

    def test_durable_lsn_beyond_the_log_is_clamped(self):
        journal = Journal(segment_records=4)
        _fill(journal, 6)
        journal.compact(10_000, retain_segments=0)
        assert journal.first_lsn == 4  # segment 1 is unsealed, kept

    def test_cursor_inside_the_compacted_prefix_starts_at_first_retained(self):
        journal = Journal(segment_records=4)
        _fill(journal, 12)
        journal.compact(11, retain_segments=1)
        assert journal.first_lsn == 8
        assert [r.lsn for r in journal.records(after=-1)] == list(range(8, 12))
        assert [r.lsn for r in journal.records(after=9)] == list(range(10, 12))

    def test_compaction_telemetry_counters(self):
        journal = Journal(segment_records=2)
        _fill(journal, 8)
        journal.compact(7, retain_segments=1)
        assert journal.compactions == 1
        assert journal.segments_dropped == 3  # segments 0-2; 3 is retained

    def test_bad_geometry_and_retention_are_rejected(self):
        with pytest.raises(JournalError):
            Journal(segment_records=0)
        journal = Journal(segment_records=4)
        with pytest.raises(JournalError):
            journal.compact(0, retain_segments=-1)


# -- segments in a store: every test on a directory and in memory -----------

MAGIC = b"repro-journal-seg-v1\n"


def _tamper(storage, name, edit) -> None:
    """Rewrite *name* as *edit(old bytes)* — damage done behind the journal."""
    storage.write(name, edit(storage.read(name)))


def _torn_roll_shapes(storage) -> dict[str, bytes]:
    """What a crash during segment roll can leave, cut from a real segment."""
    data = storage.read("seg-00000000.wal")
    header_end = len(MAGIC) + 12 + int.from_bytes(
        data[len(MAGIC):len(MAGIC) + 4], "big")
    return {"empty": b"", "magic-cut-short": MAGIC[:7], "magic-only": MAGIC,
            "torn-header": data[:header_end - 3]}


SHAPES = ["empty", "magic-cut-short", "magic-only", "torn-header"]


class TestSegmentedFileJournal:
    def test_roundtrip_reload(self, reopen):
        journal = Journal(reopen(), segment_records=4)
        _fill(journal, 10)
        journal.close()
        assert sorted(reopen().names()) == [
            "seg-00000000.wal", "seg-00000001.wal", "seg-00000002.wal"]
        reloaded = Journal(reopen(), segment_records=4)
        assert not reloaded.torn_tail
        assert [r.to_state() for r in reloaded.records()] == [
            r.to_state() for r in journal.records()
        ]
        # appends continue with the next global lsn, into the tail segment
        _fill(reloaded, 1, start=10)
        assert reloaded.last_lsn == 10
        reloaded.close()

    def test_torn_tail_in_newest_segment_is_truncated(self, reopen):
        journal = Journal(reopen(), segment_records=4)
        _fill(journal, 6)
        journal.close()
        _tamper(reopen(), "seg-00000001.wal",
                lambda data: data + b"\x00\x00\x00\x40partial-frame")
        reloaded = Journal(reopen(), segment_records=4)
        assert reloaded.torn_tail
        assert reloaded.last_lsn == 5  # the torn frame cost nothing durable
        _fill(reloaded, 1, start=6)   # and appends continue on a clean frame
        reloaded.close()
        again = Journal(reopen(), segment_records=4)
        assert not again.torn_tail and again.last_lsn == 6
        again.close()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_crash_during_segment_roll_is_a_torn_tail(self, reopen, shape):
        """A newest segment that stops before its header is complete is
        what a kill inside the roll leaves: dropped, never fatal."""
        journal = Journal(reopen(), segment_records=4)
        _fill(journal, 8)  # segments 0 and 1, both full: the next append rolls
        journal.close()
        storage = reopen()
        storage.write("seg-00000002.wal", _torn_roll_shapes(storage)[shape])
        reloaded = Journal(reopen(), segment_records=4)
        assert reloaded.torn_tail
        assert (reloaded.first_lsn, reloaded.last_lsn) == (0, 7)
        assert "seg-00000002.wal" not in reopen().names()
        _fill(reloaded, 1, start=8)  # re-creates the segment, header and all
        reloaded.close()
        again = Journal(reopen(), segment_records=4)
        assert not again.torn_tail and again.last_lsn == 8
        again.close()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_torn_roll_of_the_only_segment_keeps_the_lsn_position(
            self, reopen, shape):
        journal = Journal(reopen(), segment_records=4)
        _fill(journal, 1)
        journal.close()
        storage = reopen()
        torn = _torn_roll_shapes(storage)[shape]
        storage.unlink("seg-00000000.wal")
        storage.write("seg-00000003.wal", torn)  # all before it compacted
        reloaded = Journal(reopen(), segment_records=4)
        assert reloaded.torn_tail and len(reloaded) == 0
        assert (reloaded.first_lsn, reloaded.last_lsn) == (12, 11)
        _fill(reloaded, 1)
        assert reloaded.last_lsn == 12  # LSNs never restart
        reloaded.close()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_headerless_segment_before_the_newest_is_corruption(
            self, reopen, shape):
        journal = Journal(reopen(), segment_records=4)
        _fill(journal, 10)
        journal.close()
        storage = reopen()
        storage.write("seg-00000001.wal", _torn_roll_shapes(storage)[shape])
        with pytest.raises(JournalError, match="torn segment header"):
            Journal(reopen(), segment_records=4)

    def test_damaged_header_followed_by_more_bytes_is_corruption(self, reopen):
        """The torn-roll tolerance ends where the file goes on: never a
        ``KeyError``, never a silent drop of the records behind it."""
        journal = Journal(reopen(), segment_records=4)
        _fill(journal, 6)
        journal.close()
        storage = reopen()
        intact = storage.read("seg-00000001.wal")
        header_end = len(_torn_roll_shapes(storage)["torn-header"]) + 3
        # header frame cut out: magic, then record frames
        storage.write("seg-00000001.wal", MAGIC + intact[header_end:])
        with pytest.raises(JournalError, match="malformed segment header"):
            Journal(reopen(), segment_records=4)
        # header frame present but failing its digest, records behind it
        flipped = bytearray(intact)
        flipped[header_end - 1] ^= 0x01
        storage.write("seg-00000001.wal", bytes(flipped))
        with pytest.raises(JournalError, match="digest"):
            Journal(reopen(), segment_records=4)

    def test_damage_before_the_tail_is_corruption(self, reopen):
        journal = Journal(reopen(), segment_records=4)
        _fill(journal, 10)
        journal.close()
        # torn frame in a *sealed* segment
        _tamper(reopen(), "seg-00000001.wal", lambda data: data[:-3])
        with pytest.raises(JournalError, match="sealed segment"):
            Journal(reopen(), segment_records=4)

    def test_segment_gap_refuses_to_load(self, reopen):
        journal = Journal(reopen(), segment_records=4)
        _fill(journal, 12)
        journal.close()
        reopen().unlink("seg-00000001.wal")
        with pytest.raises(JournalError, match="segment gap"):
            Journal(reopen(), segment_records=4)

    def test_geometry_mismatch_refuses_to_load(self, reopen):
        journal = Journal(reopen(), segment_records=4)
        _fill(journal, 2)
        journal.close()
        with pytest.raises(JournalError, match="capacity"):
            Journal(reopen(), segment_records=8)

    def test_compacted_store_reloads_with_advanced_first_lsn(self, reopen):
        journal = Journal(reopen(), segment_records=4)
        _fill(journal, 12)
        journal.write_checkpoint(Checkpoint(lsn=11, blobs=(b"snap",)))
        dropped = journal.compact(retain_segments=1)
        assert dropped == [0, 1]
        journal.close()
        names = reopen().names()
        assert "seg-00000000.wal" not in names
        assert "seg-00000001.wal" not in names
        reloaded = Journal(reopen(), segment_records=4)
        assert reloaded.first_lsn == 8 and reloaded.last_lsn == 11
        reloaded.close()

    def test_store_compaction_emptied_of_segments_reopens_after_its_cut(
            self, reopen):
        """No segment left, a checkpoint at lsn N: the log resumes at
        N + 1 — reopening at 0 would re-use LSNs the checkpoint covers."""
        journal = Journal(reopen(), segment_records=4)
        _fill(journal, 8)
        journal.write_checkpoint(Checkpoint(lsn=7, blobs=(b"snap",)))
        assert journal.compact(retain_segments=0) == [0, 1]
        journal.close()
        assert not [n for n in reopen().names() if n.startswith("seg-")]
        reloaded = Journal(reopen(), segment_records=4)
        assert (reloaded.first_lsn, reloaded.last_lsn) == (8, 7)
        assert reloaded.append("apply", "r8", "op", 8).lsn == 8
        reloaded.close()
        again = Journal(reopen(), segment_records=4)
        assert (again.first_lsn, again.last_lsn) == (8, 8)
        assert again.load_checkpoint().lsn == 7
        again.close()


class TestSegmentedFileJournalInMemory(InMemory, TestSegmentedFileJournal):
    pass


# -- copy-on-write checkpoints --------------------------------------------

class TestCheckpoints:
    def test_roundtrip_including_lifecycle_state(self, reopen):
        journal = Journal(reopen(), segment_records=4)
        _fill(journal, 5)
        checkpoint = Checkpoint(
            lsn=4, blobs=(b"shard0", b"shard1"),
            replies=Runs(tail=(("r1", "OK", {"balance": 3}),)),
            pending=({"rid": "r2", "sender": "s", "kind": "deposit",
                      "seq": 9, "payload": {"aid": "a"}},),
            evicted=Runs(tail=("aa" * 8,)),
            next_seq=10,
        )
        journal.write_checkpoint(checkpoint)
        assert journal.load_checkpoint() == checkpoint
        journal.close()
        # and a restarted process finds it
        assert Journal(reopen(), segment_records=4).load_checkpoint() == checkpoint

    def test_unchanged_blobs_are_shared_between_checkpoints(self, reopen):
        journal = Journal(reopen(), segment_records=4)
        _fill(journal, 8)
        journal.write_checkpoint(Checkpoint(lsn=3, blobs=(b"cold", b"hot-v1")))
        blobs_after_first = {n for n in reopen().names()
                             if n.startswith("blob-")}
        assert len(blobs_after_first) == 2
        # one shard unchanged, one rewritten: exactly one new blob file
        journal.write_checkpoint(Checkpoint(lsn=7, blobs=(b"cold", b"hot-v2")))
        blobs_after_second = {n for n in reopen().names()
                              if n.startswith("blob-")}
        assert len(blobs_after_second) == 3
        assert blobs_after_first < blobs_after_second
        journal.close()

    def test_corrupt_newest_manifest_falls_back_to_older(self, reopen):
        journal = Journal(reopen(), segment_records=4)
        _fill(journal, 8)
        journal.write_checkpoint(Checkpoint(lsn=3, blobs=(b"old",)))
        journal.write_checkpoint(Checkpoint(lsn=7, blobs=(b"new",)))
        _tamper(reopen(), "ckpt-0000000000000007.mf",
                lambda data: data[:-1] + bytes([data[-1] ^ 0xFF]))
        loaded = journal.load_checkpoint()
        assert loaded is not None and loaded.lsn == 3
        assert journal.checkpoint_fallbacks == 1
        journal.close()

    def test_missing_blob_invalidates_its_manifest(self, reopen):
        journal = Journal(reopen(), segment_records=4)
        _fill(journal, 8)
        journal.write_checkpoint(Checkpoint(lsn=3, blobs=(b"kept",)))
        journal.write_checkpoint(Checkpoint(lsn=7, blobs=(b"doomed",)))
        reopen().unlink(f"blob-{sha256(b'doomed').hex()[:16]}.bin")
        loaded = journal.load_checkpoint()
        assert loaded is not None and loaded.lsn == 3
        journal.close()

    def test_compact_gcs_superseded_manifests_and_blobs(self, reopen):
        journal = Journal(reopen(), segment_records=4)
        _fill(journal, 12)
        journal.write_checkpoint(Checkpoint(lsn=3, blobs=(b"v1",)))
        journal.write_checkpoint(Checkpoint(lsn=11, blobs=(b"v2",)))
        before = journal.disk_usage()
        journal.compact(retain_segments=0, retain_checkpoints=1)
        assert sorted(reopen().names()) == [
            f"blob-{sha256(b'v2').hex()[:16]}.bin",
            "ckpt-0000000000000011.mf"]
        assert journal.disk_usage() < before
        journal.close()

    def _sealed_checkpoint(self, lsn, blob, rids):
        """A checkpoint whose reply cache holds one sealed run + a tail."""
        run = Run(encode([(rid, "OK", {"balance": 1}) for rid in rids]))
        return run, Checkpoint(
            lsn=lsn, blobs=(blob,),
            replies=Runs(sealed=(run,), skip=1, tail=(("late", "OK", {}),)),
            evicted=Runs(tail=("bb" * 8,)), next_seq=lsn + 1,
        )

    def test_sealed_runs_are_stored_once_by_digest(self, reopen):
        journal = Journal(reopen(), segment_records=4)
        _fill(journal, 8)
        run, first = self._sealed_checkpoint(3, b"s", ["a", "b", "c"])
        journal.write_checkpoint(first)
        assert reopen().read(f"blob-{run.digest}.bin") == run.data
        loaded = journal.load_checkpoint()
        assert loaded == first
        assert [rid for rid, _s, _b in loaded.replies] == ["b", "c", "late"]
        # the same run under a later checkpoint costs no new run blob:
        # only the manifest is new (shard and tail blobs are unchanged)
        written = journal.checkpoint_bytes
        before = set(reopen().names())
        _run, second = self._sealed_checkpoint(7, b"s", ["a", "b", "c"])
        journal.write_checkpoint(second)
        assert set(reopen().names()) - before == {"ckpt-0000000000000007.mf"}
        assert journal.checkpoint_bytes - written == reopen().size(
            "ckpt-0000000000000007.mf")
        journal.close()

    @pytest.mark.parametrize("damage", ["missing", "bit-flip"])
    def test_damaged_run_or_tail_blob_falls_back(self, reopen, damage):
        for which in ("run", "tail"):
            storage = reopen()
            for name in storage.names():  # a fresh store per round
                storage.unlink(name)
            journal = Journal(reopen(), segment_records=4)
            _fill(journal, 8)
            journal.write_checkpoint(Checkpoint(lsn=3, blobs=(b"old",)))
            before = set(storage.names())
            run, newest = self._sealed_checkpoint(7, b"old", ["a", "b"])
            journal.write_checkpoint(newest)
            if which == "run":
                victim = f"blob-{run.digest}.bin"
            else:
                (victim,) = [n for n in set(storage.names()) - before
                             if n.startswith("blob-")
                             and n != f"blob-{run.digest}.bin"]
            if damage == "missing":
                storage.unlink(victim)
            else:
                data = bytearray(storage.read(victim))
                data[len(data) // 2] ^= 0x01
                storage.write(victim, bytes(data))
            loaded = journal.load_checkpoint()
            assert loaded is not None and loaded.lsn == 3, which
            assert journal.checkpoint_fallbacks == 1, which
            journal.close()

    def test_gc_keeps_every_blob_the_retained_manifest_names(self, reopen):
        journal = Journal(reopen(), segment_records=4)
        _fill(journal, 12)
        _old_run, old = self._sealed_checkpoint(3, b"v1", ["x", "y"])
        journal.write_checkpoint(old)
        run, newest = self._sealed_checkpoint(11, b"v2", ["a", "b", "c"])
        journal.write_checkpoint(newest)
        journal.compact(retain_segments=0, retain_checkpoints=1)
        names = set(reopen().names())
        # shard blob + run blob + tail blob + manifest, nothing older
        assert len(names) == 4
        assert {f"blob-{sha256(b'v2').hex()[:16]}.bin",
                f"blob-{run.digest}.bin",
                "ckpt-0000000000000011.mf"} < names
        assert journal.load_checkpoint() == newest
        journal.close()


class TestCheckpointsInMemory(InMemory, TestCheckpoints):
    pass


# -- maintenance cadence + recovery guard ---------------------------------

class TestMaintenanceAndRecovery:
    def _bank(self, dec_params_toy, journal):
        return ShardedBank.create(dec_params_toy, random.Random(7),
                                  n_shards=3, journal=journal)

    def test_maintenance_cuts_and_compacts_on_cadence(self, reopen,
                                                      dec_params_toy):
        journal = Journal(reopen(), segment_records=4)
        bank = self._bank(dec_params_toy, journal)
        maintenance = JournalMaintenance(
            journal,
            lambda: Checkpoint(lsn=journal.last_lsn,
                               blobs=tuple(bank.snapshot())),
            checkpoint_every=8, retain_segments=1,
        )
        for i in range(6):
            bank.open_account(f"acct{i}", i)
        assert maintenance.run() is False  # 6 records < cadence of 8
        for i in range(6, 12):
            bank.open_account(f"acct{i}", i)
        assert maintenance.run() is True
        assert maintenance.checkpoints_cut == 1
        assert maintenance.last_checkpoint_lsn == 11
        assert journal.first_lsn == 8  # segs 0-1 deleted, seg 2 retained
        assert maintenance.segments_deleted == 2
        assert len(journal) == 4  # what is retained is what is held
        assert sum(n.startswith("seg-") for n in reopen().names()) == 1
        journal.close()

    def test_maintenance_resumes_from_an_existing_checkpoint(self, reopen,
                                                             dec_params_toy):
        journal = Journal(reopen(), segment_records=4)
        _fill(journal, 9)
        journal.write_checkpoint(Checkpoint(lsn=8, blobs=(b"s",)))
        journal.close()
        reopened = Journal(reopen(), segment_records=4)
        maintenance = JournalMaintenance(reopened, lambda: None,
                                         checkpoint_every=8)
        assert maintenance.last_checkpoint_lsn == 8
        assert maintenance.run() is False  # nothing appended since the cut
        reopened.close()

    def test_recover_needs_the_checkpoint_a_compaction_was_cut_against(
            self, reopen, dec_params_toy):
        journal = Journal(reopen(), segment_records=4)
        bank = self._bank(dec_params_toy, journal)
        for i in range(10):
            bank.open_account(f"acct{i}", 100 + i)
        journal.write_checkpoint(
            Checkpoint(lsn=journal.last_lsn, blobs=tuple(bank.snapshot())))
        journal.compact(retain_segments=0)
        assert journal.first_lsn == 8
        with pytest.raises(JournalError, match="compacted"):
            ShardedBank.recover(bank.params, bank.keypair, random.Random(0),
                                journal, n_shards=3)
        checkpoint = journal.load_checkpoint()
        recovered = ShardedBank.recover(
            bank.params, bank.keypair, random.Random(0), journal,
            checkpoint=checkpoint, n_shards=3,
        )
        assert [dict(s.accounts) for s in recovered.shards] == [
            dict(s.accounts) for s in bank.shards
        ]
        journal.close()

    def test_incremental_snapshot_only_reserializes_dirty_shards(
            self, dec_params_toy):
        bank = ShardedBank.create(dec_params_toy, random.Random(7), n_shards=4)
        first = bank.snapshot()
        second = bank.snapshot()  # nothing touched in between
        assert first == second
        bank.open_account("fresh", 5)
        third = bank.snapshot()
        changed = sum(1 for a, b in zip(second, third) if a != b)
        # one account landed on one shard; serial homes are untouched
        assert changed == 1
        # and restore of an incremental snapshot is still complete
        clone = ShardedBank.create(dec_params_toy, random.Random(7), n_shards=4)
        clone.restore(third)
        assert [dict(s.accounts) for s in clone.shards] == [
            dict(s.accounts) for s in bank.shards
        ]


class TestMaintenanceAndRecoveryInMemory(InMemory, TestMaintenanceAndRecovery):
    """`JournalMaintenance(Journal())`: cuts, compacts, bounds ``len``."""


# -- what a checkpoint costs ----------------------------------------------

class TestCheckpointCost:
    """Counts, not timings: a cut costs what changed since the last one."""

    def _service(self, dec_params_toy, directory, telemetry=None):
        journal = Journal.open(directory, telemetry=telemetry)
        bank = ShardedBank.create(dec_params_toy, random.Random(7),
                                  n_shards=4, journal=journal)
        bank.open_account("taken", 1)
        service = MarketService(bank, journal=journal, rng=random.Random(8),
                                telemetry=telemetry)
        return journal, service, JournalMaintenance(journal,
                                                    service.checkpoint)

    @staticmethod
    def _complete(service, start, n):
        """*n* journaled completions that leave the books untouched."""
        for i in range(start, start + n):
            service.submit("ops", "open-account",
                           {"aid": "taken", "balance": 1}, rid=f"dup:{i:05d}")
        service.drain()

    def _bytes_written_by_next_checkpoint(self, dec_params_toy, directory,
                                          cached):
        journal, service, maintenance = self._service(dec_params_toy,
                                                      directory)
        self._complete(service, 0, cached)
        assert maintenance.run(force=True)
        before = set(os.listdir(directory))
        counted = journal.checkpoint_bytes
        self._complete(service, cached, 100)
        assert maintenance.run(force=True)
        assert len(service._replies) == cached + 100
        new = {n for n in set(os.listdir(directory)) - before
               if n.startswith(("blob-", "ckpt-"))}
        written = sum(os.path.getsize(os.path.join(directory, n))
                      for n in new)
        assert journal.checkpoint_bytes - counted == written
        manifest = max(n for n in new if n.endswith(".mf"))
        manifest_bytes = os.path.getsize(os.path.join(directory, manifest))
        journal.close()
        return written, manifest_bytes

    def test_checkpoint_bytes_do_not_grow_with_the_reply_cache(
            self, tmp_path, dec_params_toy):
        small, small_mf = self._bytes_written_by_next_checkpoint(
            dec_params_toy, tmp_path / "1k", 1000)
        large, large_mf = self._bytes_written_by_next_checkpoint(
            dec_params_toy, tmp_path / "8k", 8000)
        entry = len(encode(("dup:00000", "ERROR",
                            {"error": "account 'taken' already exists"})))
        one_run = journal_mod.RUN_ENTRIES * entry
        # the same 100 completions cost the same bytes whatever is cached
        # (at the parent the 8k manifest alone was ~8x the 1k one)
        assert abs(large - small) <= one_run
        assert max(small, large) <= 3 * one_run
        # a manifest names digests only: O(shards + runs), 17 bytes a run
        assert large_mf - small_mf <= 20 * (7000 // journal_mod.RUN_ENTRIES + 1)
        assert large_mf < 2048

    def test_each_manifest_is_read_at_most_once_per_pass(self, tmp_path,
                                                         dec_params_toy,
                                                         monkeypatch):
        journal, service, maintenance = self._service(dec_params_toy,
                                                      tmp_path / "wal")
        maintenance.retain_checkpoints = 2
        reads: list[int] = []
        real = journal._read_manifest
        monkeypatch.setattr(journal, "_read_manifest",
                            lambda lsn: (reads.append(lsn), real(lsn))[1])
        for cycle in range(4):
            self._complete(service, cycle * 300, 300)
            reads.clear()
            assert maintenance.run(force=True)
            assert len(reads) == len(set(reads)), reads
            assert len(reads) <= 2
        # the standalone entry point (no durable_lsn given) too
        reads.clear()
        journal.compact(retain_checkpoints=2)
        assert len(reads) == len(set(reads)) and len(reads) <= 2
        journal.close()

    def test_maintenance_publishes_its_stall_and_its_bytes(self, tmp_path,
                                                           dec_params_toy):
        journal, service, maintenance = self._service(
            dec_params_toy, tmp_path / "wal", obs.Telemetry.enabled())
        registry = journal.obs.registry
        seconds = registry.histogram("repro_journal_maintenance_seconds")
        written = registry.counter("repro_journal_checkpoint_bytes_total")
        runs_before, bytes_before = seconds.count, written.value
        self._complete(service, 0, 10)
        assert maintenance.run() is False  # not due: nothing observed
        assert seconds.count == runs_before
        assert maintenance.run(force=True)
        assert seconds.count == runs_before + 1
        assert written.value - bytes_before == journal.checkpoint_bytes > 0
        journal.close()
        # both names are registered in tools/telemetry_schema.json: the
        # export passes the CI checker, and the wrong kind would not
        spec = importlib.util.spec_from_file_location(
            "check_telemetry", os.path.join(os.path.dirname(__file__), "..",
                                            "..", "tools", "check_telemetry.py"))
        checker = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checker)
        snapshot = registry.snapshot()
        assert checker.check_metrics(snapshot) == []
        snapshot["gauges"].append(
            {"name": "repro_journal_checkpoint_bytes_total", "labels": {},
             "value": 1})
        assert any("registered under counters" in finding
                   for finding in checker.check_metrics(snapshot))
