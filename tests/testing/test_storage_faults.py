"""Crash injection between any two storage operations of the journal.

The envelope-clock sweeps (``test_recovery.py``) prove crashes between
requests recover cleanly; these sweeps prove the same for crashes
*inside* the journal's own writes — a segment created but not yet
headed, a blob written but not yet renamed, between two segment
unlinks, mid checkpoint-GC.  Production code carries no hook for this:
:class:`~repro.testing.StorageCrasher` wraps the journal's storage, so
every mutating call the journal issues is a crash point.  The method:

1. one **recording run** executes a fixed workload and lets the crasher
   enumerate every storage operation it performs, capturing the
   reference books and the complete *uncompacted* record stream;
2. one **sweep run per operation** replays the identical workload on a
   fresh store, kills the process (``CrashPoint``) *before* exactly
   that operation, then recovers from whatever the crash left;
3. **recovery equivalence**: the recovered books must equal an
   uncompacted shadow replay of every record the crashed run appended
   — nothing a storage-path crash can do is allowed to change state —
   and a maintenance pass after recovery must converge (no strays,
   store still loads).

Every step runs on both storages: one ``MemoryStorage``, and a
directory reopened through a fresh ``DirectoryStorage``.

The run length is patched down to 2 and the reply cache to 3, so the
five deposits seal reply and tombstone runs, evict past a run boundary
and leave a tail: the sweep crashes around every run and tail blob as
well.  The store starts with a stray ``.tmp`` an earlier incarnation's
interrupted checkpoint left, so compaction's stray collection is swept
too.
"""

from __future__ import annotations

import random

import pytest

import repro.service.journal as journal_mod
from repro.service import (
    DirectoryStorage,
    Journal,
    JournalMaintenance,
    MarketService,
    MemoryStorage,
    ShardedBank,
    VerificationBatcher,
)
from repro.service.journal import Run
from repro.testing import check_recovery_invariants
from repro.testing.faults import CrashPoint, StorageCrasher

SEGMENT_RECORDS = 4
REPLY_CACHE = 3


@pytest.fixture(scope="module", autouse=True)
def short_runs():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(journal_mod, "RUN_ENTRIES", 2)
        yield


STRAY = "ckpt-0000000000000002.mf.tmp"


def _fresh_store(root, backend):
    """An empty store holding only the stray of an interrupted checkpoint."""
    inner = MemoryStorage() if backend == "memory" else DirectoryStorage(root)
    inner.write(STRAY, b"half a manifest")
    return inner


def _after_crash(inner):
    """What a restarted process opens: the same bytes, no carried handle."""
    inner.close()
    if isinstance(inner, MemoryStorage):
        return inner
    return DirectoryStorage(inner.directory)


def _run_workload(kit, storage, holder) -> tuple:
    """The fixed workload: fund accounts, deposit, then maintenance.

    Returns ``(journal, service)``.  *holder* is a dict the caller
    keeps: ``holder["records"]`` accumulates the complete uncompacted
    record stream as states — when *storage* (a crasher) raises
    :class:`CrashPoint`, the holder is what survives (it plays the role
    of the crash-free twin's log), while the wrapped store holds
    whatever the "process" left behind.  ``holder["cuts"]`` keeps each
    checkpoint cut and ``holder["maintenance"]`` the range of operation
    indices each maintenance pass issued.
    """
    journal = Journal(storage, segment_records=SEGMENT_RECORDS)
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

    def cut():
        holder.setdefault("cuts", []).append(service.checkpoint())
        return holder["cuts"][-1]

    maintenance = JournalMaintenance(journal, cut, retain_segments=1)

    def maintain():
        first = len(storage.steps)
        maintenance.run(force=True)
        holder.setdefault("maintenance", []).append(
            range(first, len(storage.steps)))

    for i, request in enumerate(kit.requests[:3]):
        service.submit(request.aid, "deposit",
                       {"aid": request.aid,
                        "token": kit.tokens[request.token_index]},
                       rid=f"s:{i}")
    service.drain()
    maintain()
    # a second cycle after more traffic: the sweep also covers crashing
    # while *older* checkpoints and their blobs are being GC'd
    for i, request in enumerate(kit.requests[3:5]):
        service.submit(request.aid, "deposit",
                       {"aid": request.aid,
                        "token": kit.tokens[request.token_index]},
                       rid=f"t:{i}")
    service.drain()
    maintain()
    return journal, service


def _books(bank: ShardedBank):
    return (
        [dict(s.accounts) for s in bank.shards],
        [list(s.withdrawals) for s in bank.shards],
        [dict(s._seen_serials) for s in bank.shards],
        bank.deposit_seq,
    )


def _recover(kit, storage) -> tuple:
    """Reopen the store cold and recover — the post-SIGKILL path."""
    journal = Journal(storage, segment_records=SEGMENT_RECORDS)
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
    shadow = ShardedBank.recover(kit.params, kit.keypair, random.Random(0),
                                 Journal.from_records(full_records),
                                 n_shards=3)
    return _books(shadow)


@pytest.fixture(scope="module")
def reference(deposit_kit, short_runs):
    """The crash-free run: operation labels, books, full record stream."""
    recorder = StorageCrasher(_fresh_store(None, "memory"))
    holder: dict = {}
    journal, service = _run_workload(deposit_kit, recorder, holder)
    books = _books(service.bank)
    # the workload really exercises sealing and eviction across a run
    # boundary: one whole reply run is gone, the next is partly live
    final = service.checkpoint()
    assert service.reply_evictions == 2 and len(final.replies.sealed) == 1
    assert final.replies.tail and final.evicted.sealed
    return recorder.steps, books, holder


def _count(labels, prefix, suffix=""):
    return sum(s.startswith(prefix) and s.endswith(suffix) for s in labels)


def test_the_sweep_covers_checkpoint_and_compaction_steps(reference):
    steps, _books_, holder = reference
    inside = [steps[i] for span in holder["maintenance"] for i in span]
    assert len(inside) >= 20
    # checkpoint half: every blob kind is written to a .tmp and renamed
    written = [s for s in inside
               if s.startswith("write:blob-") and s.endswith(".bin.tmp")]
    as_write = "write:blob-{}.bin.tmp".format
    shards = {as_write(Run(blob).digest)
              for cut in holder["cuts"] for blob in cut.blobs}
    runs = {as_write(run.digest) for cut in holder["cuts"]
            for fifo in (cut.replies, cut.evicted) for run in fifo.sealed}
    assert any(s in shards for s in written)
    # reply runs from both cycles and a tombstone run
    assert sum(s in runs for s in written) >= 3
    # what is neither is the tail blob, one each cycle
    assert sum(s not in shards | runs for s in written) == 2
    assert _count(inside, "replace:blob-", ".bin") == len(written)
    assert _count(inside, "write:ckpt-", ".mf.tmp") == 2
    assert _count(inside, "replace:ckpt-", ".mf") == 2
    # compaction half: segments, a superseded manifest, unreferenced
    # blobs and the stray
    assert _count(inside, "unlink:seg-", ".wal")
    assert _count(inside, "unlink:ckpt-", ".mf")
    assert _count(inside, "unlink:blob-", ".bin")
    assert f"unlink:{STRAY}" in inside
    # outside maintenance every append is a point too, and a segment
    # roll is two: created, then headed
    rolls = [i for i, s in enumerate(steps) if s.startswith("write:seg-")]
    assert len(rolls) >= 3
    for i in rolls:
        assert steps[i + 1] == steps[i].replace("write:", "append:")


def test_crash_at_every_storage_step_recovers_equivalently(
        deposit_kit, reference, tmp_path):
    steps, reference_books, holder = reference
    assert _shadow_books(deposit_kit, holder["records"]) == reference_books
    for backend in ("memory", "directory"):
        for index, label in enumerate(steps):
            inner = _fresh_store(tmp_path / f"{backend}-{index:03d}", backend)
            crasher = StorageCrasher(inner, crash_at=index)
            holder = {}
            with pytest.raises(CrashPoint):
                _run_workload(deposit_kit, crasher, holder)
            assert crasher.fired == label
            context = f"{backend}: crash before op {index} ({label})"
            journal, checkpoint, recovered = _recover(deposit_kit,
                                                      _after_crash(inner))
            # a crash between a segment's creation and its header is the
            # torn roll the load path drops
            headless = (label.startswith("append:seg-") and steps[index - 1]
                        == "write:" + label.removeprefix("append:"))
            assert journal.torn_tail == headless, context
            # equivalence vs the uncompacted shadow: replaying every
            # record the crashed run ever appended (the holder survives
            # the crash, like the crash-free twin's log) must land on
            # exactly the recovered books — the crash changed nothing
            expected = _shadow_books(deposit_kit, holder.get("records", []))
            assert _books(recovered.bank) == expected, context
            report = check_recovery_invariants(recovered.bank, journal,
                                               checkpoint=checkpoint)
            assert report.clean, f"{context}: {report.findings}"
            _assert_verdicts_survive(recovered, holder.get("records", []),
                                     context)
            # maintenance converges after the interrupted run: strays are
            # collected, the store still loads, and state is unchanged
            JournalMaintenance(journal, recovered.checkpoint,
                               retain_segments=1).run(force=True)
            reopened, ckpt2, service2 = _recover(
                deposit_kit, _after_crash(journal.storage))
            if len(reopened):
                assert not any(n.endswith(".tmp")
                               for n in reopened.storage.names()), context
            assert _books(service2.bank) == expected, context
            _assert_verdicts_survive(service2, holder.get("records", []),
                                     context)
            reopened.close()


def test_torn_segment_tail_plus_interrupted_compaction(deposit_kit, reference,
                                                       tmp_path):
    """The runbook's worst case: a torn tail *and* a half-done compaction."""
    steps, _books_, _holder = reference
    first_compact = next(i for i, s in enumerate(steps)
                         if s.startswith("unlink:seg-"))
    for backend in ("memory", "directory"):
        inner = _fresh_store(tmp_path / backend, backend)
        with pytest.raises(CrashPoint):
            _run_workload(deposit_kit,
                          StorageCrasher(inner, crash_at=first_compact), {})
        # tear the newest segment's final frame, as a crash mid-append would
        storage = _after_crash(inner)
        newest = max(n for n in storage.names() if n.startswith("seg-"))
        storage.truncate(newest, storage.size(newest) - 5)
        journal, checkpoint, recovered = _recover(deposit_kit, storage)
        assert journal.torn_tail
        report = check_recovery_invariants(recovered.bank, journal,
                                           checkpoint=checkpoint)
        assert report.clean, report.findings
        journal.close()
