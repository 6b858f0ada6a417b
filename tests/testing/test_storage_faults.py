"""Crash injection *inside* checkpointing and compaction.

The envelope-clock sweeps (``test_recovery.py``) prove crashes between
requests recover cleanly; these sweeps prove the same for crashes in
the middle of the storage maintenance path itself — after a blob is
written but before the manifest, between two segment unlinks, mid
checkpoint-GC.  The method:

1. one **recording run** executes a fixed workload against a
   :class:`SegmentedFileJournal` and lets
   :class:`~repro.testing.StorageCrasher` enumerate every named step a
   full checkpoint + compaction cycle performs, capturing the
   reference books and the complete *uncompacted* record stream;
2. one **sweep run per step** replays the identical workload in a
   fresh directory, kills the process (``CrashPoint``) at exactly that
   step, then recovers from whatever the crash left on disk;
3. **recovery equivalence**: the recovered books must equal both the
   reference books and an uncompacted shadow replay of the full record
   stream — nothing a maintenance-path crash can do is allowed to
   change state, and a second maintenance pass after recovery must
   converge (no strays, store still loads).

The run length is patched down to 2 and the reply cache to 3, so the
five deposits seal reply and tombstone runs, evict past a run boundary
and leave a tail: the sweep crashes at every ``checkpoint:run:*`` and
``checkpoint:tail`` step as well.
"""

from __future__ import annotations

import os
import random

import pytest

import repro.service.journal as journal_mod
from repro.service import (
    Journal,
    JournalMaintenance,
    MarketService,
    SegmentedFileJournal,
    ShardedBank,
    VerificationBatcher,
)
from repro.service.journal import JournalRecord
from repro.testing import check_recovery_invariants
from repro.testing.faults import CrashPoint, StorageCrasher

SEGMENT_RECORDS = 4
REPLY_CACHE = 3


@pytest.fixture(scope="module", autouse=True)
def short_runs():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(journal_mod, "RUN_ENTRIES", 2)
        yield


def _run_workload(kit, directory, crasher, holder) -> tuple:
    """The fixed workload: fund accounts, deposit, then maintenance.

    Returns ``(journal, service)``.  *holder* is a dict the caller
    keeps: ``holder["records"]`` accumulates the complete uncompacted
    record stream as states — when the crasher raises
    :class:`CrashPoint` mid-maintenance, the holder is what survives
    (it plays the role of the crash-free twin's log), while the journal
    directory holds whatever the "process" left behind.
    """
    journal = SegmentedFileJournal(directory, segment_records=SEGMENT_RECORDS,
                                   crash_hook=crasher)
    full_records = holder.setdefault("records", [])
    journal.add_observer(lambda r: full_records.append(r.to_state()))
    bank = ShardedBank(kit.params, kit.keypair, random.Random(1), n_shards=3,
                       journal=journal)
    for aid, balance, coins in kit.funding:
        bank.open_account(aid, balance)
        for _ in range(coins):
            bank.apply_withdrawal(aid)
    service = MarketService(
        bank, journal=journal,
        batcher=VerificationBatcher(kit.params, kit.keypair, max_batch=4,
                                    seed=7, warm_tables=False),
        rng=random.Random(2), reply_cache=REPLY_CACHE,
    )
    for i, request in enumerate(kit.requests[:3]):
        service.submit(request.aid, "deposit",
                       {"aid": request.aid,
                        "token": kit.tokens[request.token_index]},
                       rid=f"s:{i}")
    service.drain()
    maintenance = JournalMaintenance(journal, service.checkpoint,
                                     retain_segments=1)
    maintenance.run(force=True)
    # a second cycle after more traffic: the sweep also covers crashing
    # while *older* checkpoints and their blobs are being GC'd
    for i, request in enumerate(kit.requests[3:5]):
        service.submit(request.aid, "deposit",
                       {"aid": request.aid,
                        "token": kit.tokens[request.token_index]},
                       rid=f"t:{i}")
    service.drain()
    maintenance.run(force=True)
    return journal, service


def _books(bank: ShardedBank):
    return (
        [dict(s.accounts) for s in bank.shards],
        [list(s.withdrawals) for s in bank.shards],
        [dict(s._seen_serials) for s in bank.shards],
        bank.deposit_seq,
    )


def _recover_from_disk(kit, directory) -> tuple:
    """Reopen the store cold and recover — the post-SIGKILL path."""
    journal = SegmentedFileJournal(directory,
                                   segment_records=SEGMENT_RECORDS)
    checkpoint = journal.load_checkpoint()
    service = MarketService.recover(
        kit.params, kit.keypair, journal, checkpoint=checkpoint, n_shards=3,
        batcher=VerificationBatcher(kit.params, kit.keypair, max_batch=4,
                                    seed=7, warm_tables=False),
        reply_cache=REPLY_CACHE,
    )
    return journal, checkpoint, service


def _assert_verdicts_survive(service, full_records, context):
    """Every journaled verdict is still cached, or tombstoned — never lost."""
    for state in full_records:
        if state["kind"] != "reply":
            continue
        cached = service.reply_for(state["rid"])
        if cached is None:
            assert service._tombstone(state["rid"]) in service._evicted, \
                f"{context}: verdict of {state['rid']} lost"
        else:
            assert cached == (state["payload"]["status"],
                              state["payload"]["body"]), context


def _shadow_books(kit, full_records):
    """Replay the complete uncompacted stream into a fresh bank."""
    shadow_journal = Journal()
    shadow_journal._records.extend(
        JournalRecord.from_state(s) for s in full_records
    )
    shadow = ShardedBank.recover(kit.params, kit.keypair, random.Random(0),
                                 shadow_journal, n_shards=3)
    return _books(shadow)


@pytest.fixture(scope="module")
def reference(deposit_kit, tmp_path_factory, short_runs):
    """The crash-free run: step labels, books, full record stream."""
    recorder = StorageCrasher()
    directory = tmp_path_factory.mktemp("storage-ref")
    holder: dict = {}
    journal, service = _run_workload(deposit_kit, directory, recorder, holder)
    books = _books(service.bank)
    # the workload really exercises sealing and eviction across a run
    # boundary: one whole reply run is gone, the next is partly live
    final = service.checkpoint()
    assert service.reply_evictions == 2 and len(final.replies.sealed) == 1
    assert final.replies.tail and final.evicted.sealed
    journal.close()
    assert recorder.steps, "maintenance must expose crash steps"
    return recorder.steps, books, holder["records"]


def test_the_sweep_covers_checkpoint_and_compaction_steps(reference):
    steps, _books_, _records = reference
    families = {label.split(":")[0] for label in steps}
    assert families == {"checkpoint", "compact"}
    # both maintenance halves expose interior steps, not just one point
    assert any(label.startswith("checkpoint:blob:") for label in steps)
    # reply runs from both cycles, a tombstone run, and a tail each cycle
    assert sum(label.startswith("checkpoint:run:") for label in steps) >= 3
    assert steps.count("checkpoint:tail") == 2
    assert "checkpoint:manifest" in steps
    assert "checkpoint:publish" in steps
    assert any(label.startswith("compact:segment:") for label in steps)
    assert any(label.startswith("compact:manifest:") for label in steps)


def test_crash_at_every_storage_step_recovers_equivalently(
        deposit_kit, reference, tmp_path):
    steps, reference_books, full_records = reference
    assert _shadow_books(deposit_kit, full_records) == reference_books
    for index, label in enumerate(steps):
        directory = tmp_path / f"crash-{index:02d}"
        crasher = StorageCrasher(crash_at=index)
        holder: dict = {}
        with pytest.raises(CrashPoint):
            _run_workload(deposit_kit, directory, crasher, holder)
        assert crasher.fired == label
        journal, checkpoint, recovered = _recover_from_disk(deposit_kit,
                                                            directory)
        context = f"crash at step {index} ({label})"
        # equivalence vs the uncompacted shadow: replaying every record
        # the crashed run ever appended (the holder survives the crash,
        # like the crash-free twin's log) must land on exactly the
        # recovered books — the maintenance-path crash changed nothing
        expected = _shadow_books(deposit_kit, holder["records"])
        assert _books(recovered.bank) == expected, context
        report = check_recovery_invariants(recovered.bank, journal,
                                           checkpoint=checkpoint)
        assert report.clean, f"{context}: {report.findings}"
        _assert_verdicts_survive(recovered, holder["records"], context)
        # maintenance converges after the interrupted cycle: strays are
        # collected, the store still loads, and state is unchanged
        maintenance = JournalMaintenance(journal, recovered.checkpoint,
                                         retain_segments=1)
        maintenance.run(force=True)
        journal.close()
        reopened = SegmentedFileJournal(directory,
                                        segment_records=SEGMENT_RECORDS)
        assert not any(n.endswith(".tmp") for n in os.listdir(directory))
        ckpt2 = reopened.load_checkpoint()
        service2 = MarketService.recover(
            deposit_kit.params, deposit_kit.keypair, reopened,
            checkpoint=ckpt2, n_shards=3,
            batcher=VerificationBatcher(deposit_kit.params,
                                        deposit_kit.keypair, max_batch=4,
                                        seed=7, warm_tables=False),
            reply_cache=REPLY_CACHE,
        )
        assert _books(service2.bank) == expected, context
        _assert_verdicts_survive(service2, holder["records"], context)
        reopened.close()


def test_torn_segment_tail_plus_interrupted_compaction(deposit_kit, tmp_path):
    """The runbook's worst case: a torn tail *and* a half-done compaction."""
    steps_probe = StorageCrasher()
    _journal, _service = _run_workload(
        deposit_kit, tmp_path / "probe", steps_probe, {})
    _journal.close()
    first_compact = next(i for i, s in enumerate(steps_probe.steps)
                         if s.startswith("compact:segment:"))
    directory = tmp_path / "torn"
    with pytest.raises(CrashPoint):
        _run_workload(deposit_kit, directory,
                      StorageCrasher(crash_at=first_compact), {})
    # tear the newest segment's final frame, as a crash mid-append would
    newest = sorted(p for p in directory.iterdir()
                    if p.name.startswith("seg-"))[-1]
    newest.write_bytes(newest.read_bytes()[:-5])
    journal, checkpoint, recovered = _recover_from_disk(deposit_kit,
                                                        directory)
    assert journal.torn_tail
    report = check_recovery_invariants(recovered.bank, journal,
                                       checkpoint=checkpoint)
    assert report.clean, report.findings
    journal.close()
