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

The same sweep is what makes a cluster replica safe to adopt
(:mod:`repro.cluster.replicate` ships every storage operation, in
order, to the peer): the **prefix sweep** checks that the replica after
*k* shipped operations is byte for byte what a crash before operation
*k* leaves, and that adopting it answers every request acknowledged
before that point.

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
from repro.cluster.replicate import JournalShipper, ReplicaSlot
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
from repro.service.storage import StorageWrapper
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


class _Uncompacted(StorageWrapper):
    """Passes every operation on, and all but ``unlink`` into ``twin``.

    ``twin`` is the store of a crash-free twin that never compacts: it
    holds every record appended through this wrapper, however many
    segments the real store dropped.
    """

    def __init__(self, inner, twin) -> None:
        super().__init__(inner)
        self.twin = twin

    def mutate(self, op: str, args: tuple) -> None:
        super().mutate(op, args)
        if op != "unlink":
            getattr(self.twin, op)(*args)


def _full_records(holder) -> list[dict]:
    """Every record the workload appended, as states (see the twin)."""
    twin = Journal(holder["twin"], segment_records=SEGMENT_RECORDS)
    return [r.to_state() for r in twin.records()]


def _run_workload(kit, storage, holder) -> tuple:
    """The fixed workload: fund accounts, deposit, then maintenance.

    Returns ``(journal, service)``.  *holder* is a dict the caller
    keeps: ``holder["twin"]`` is an uncompacted copy of the store
    (:func:`_full_records` reads the complete record stream from it) —
    when *storage* (a crasher) raises :class:`CrashPoint`, the holder is
    what survives (it plays the role of the crash-free twin's log),
    while the wrapped store holds whatever the "process" left behind.
    ``holder["cuts"]`` keeps each checkpoint cut,
    ``holder["maintenance"]`` the range of operation indices each
    maintenance pass issued and ``holder["acked"]`` each reply delivered
    as ``(operations issued by then, rid, reply)``.
    """
    twin = holder.setdefault("twin", MemoryStorage())
    journal = Journal(_Uncompacted(storage, twin),
                      segment_records=SEGMENT_RECORDS)
    bank = ShardedBank(kit.params, kit.keypair, random.Random(1), n_shards=3,
                       journal=journal)
    for aid, balance, coins in kit.funding:
        bank.open_account(aid, balance)
        for _ in range(coins):
            bank.apply_withdrawal(aid)
    service = MarketService(
        bank, journal=journal,
        batcher=VerificationBatcher(kit.params, kit.keypair, max_batch=4,
                                    seed=7),
        rng=random.Random(2), reply_cache=REPLY_CACHE,
    )
    rids: dict[int, str] = {}
    service.add_reply_observer(lambda _sender, reply: holder.setdefault(
        "acked", []).append((len(storage.steps), rids[reply["req"]], reply)))

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
        rids[service.submit(request.aid, "deposit",
                            {"aid": request.aid,
                             "token": kit.tokens[request.token_index]},
                            rid=f"s:{i}")] = f"s:{i}"
    service.drain()
    maintain()
    # a second cycle after more traffic: the sweep also covers crashing
    # while *older* checkpoints and their blobs are being GC'd
    for i, request in enumerate(kit.requests[3:5]):
        rids[service.submit(request.aid, "deposit",
                            {"aid": request.aid,
                             "token": kit.tokens[request.token_index]},
                            rid=f"t:{i}")] = f"t:{i}"
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
                                    seed=7),
        reply_cache=REPLY_CACHE,
    )
    return journal, checkpoint, service


def _assert_verdicts_survive(service, full_records, context):
    """Every journaled verdict is still cached, or tombstoned — never lost."""
    for state in full_records:
        if state["kind"] == "accept" or not state["rid"]:
            continue
        cached = service.reply_for(state["rid"])
        if cached is None:
            assert service._tombstone(state["rid"]) in service._evicted, \
                f"{context}: verdict of {state['rid']} lost"
        elif state["kind"] == "reply":
            assert cached == (state["payload"]["status"],
                              state["payload"]["body"]), context
        else:  # an OK verdict is its apply record
            assert cached == ("OK", {"amount": state["payload"]["amount"]}), \
                context


def _shadow_books(kit, full_records):
    """Replay the complete uncompacted stream into a fresh bank."""
    journal = Journal()
    for state in full_records:
        journal.append(state["kind"], state["rid"], state["op"], state["payload"])
    shadow = ShardedBank.recover(kit.params, kit.keypair, random.Random(0),
                                 journal, n_shards=3)
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
    assert _shadow_books(deposit_kit, _full_records(holder)) == reference_books
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
            full = _full_records(holder)
            expected = _shadow_books(deposit_kit, full)
            assert _books(recovered.bank) == expected, context
            report = check_recovery_invariants(recovered.bank, journal,
                                               checkpoint=checkpoint)
            assert report.clean, f"{context}: {report.findings}"
            _assert_verdicts_survive(recovered, full, context)
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
            _assert_verdicts_survive(service2, full, context)
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


# -- replication is crash consistency: the prefix sweep ----------------------

def _label(frame: dict) -> str:
    """A shipped op frame named the way :class:`StorageCrasher` names it."""
    args = frame["args"]
    return f"{frame['op']}:{args[1] if frame['op'] == 'replace' else args[0]}"


def _contents(storage) -> dict[str, bytes]:
    return {name: storage.read(name) for name in storage.names()}


def _copy(storage) -> MemoryStorage:
    copy = MemoryStorage()
    for name, data in _contents(storage).items():
        copy.write(name, data)
    return copy


@pytest.fixture(scope="module")
def shipped(deposit_kit, short_runs):
    """The crash-free workload on a fresh store under a journal shipper.

    The shipper never gets a peer, so every op frame it would send
    stays in its spool — exactly what ``connect`` replays to a replica.
    """
    shipper = JournalShipper("src", MemoryStorage())
    recorder = StorageCrasher(shipper)
    holder: dict = {}
    _run_workload(deposit_kit, recorder, holder)
    frames = list(shipper._spool)
    # the stream is the store's operation history, one frame per op
    assert [frame["n"] for frame in frames] == list(range(1, len(frames) + 1))
    assert [_label(frame) for frame in frames] == recorder.steps
    return frames, holder


def test_every_shipped_prefix_is_a_crash_point_and_adopts(deposit_kit,
                                                          shipped):
    """The replica after *k* shipped ops is the store a crash before op
    *k* leaves, byte for byte; adopting it recovers the crashed run's
    books, and every request acknowledged before op *k* is answered from
    the adopted reply cache (or, past the cache bound, by its tombstone —
    never run again)."""
    frames, holder = shipped
    labels = [_label(frame) for frame in frames]
    # two checkpoints, a compaction and its collection ride the stream
    assert sum(s.startswith("replace:ckpt-") for s in labels) == 2
    assert any(s.startswith("unlink:seg-") for s in labels)
    assert any(s.startswith("unlink:ckpt-") for s in labels)
    replica = ReplicaSlot("src")
    cached = 0
    for k in range(len(frames) + 1):
        if k:
            replica.apply(frames[k - 1])
        context = f"replica after {k} of {len(frames)} ops"
        crashed = MemoryStorage()
        crasher = StorageCrasher(crashed, crash_at=k)
        if k < len(frames):
            with pytest.raises(CrashPoint):
                _run_workload(deposit_kit, crasher, {})
            assert crasher.fired == labels[k], context
        else:
            _run_workload(deposit_kit, crasher, {})
        assert _contents(replica.storage) == _contents(crashed), context
        # adoption reopens a copy: loading may truncate a torn tail, and
        # the replica must keep applying the stream afterwards
        _journal, _ckpt, adopted = _recover(deposit_kit,
                                            _copy(replica.storage))
        _journal, _ckpt, restarted = _recover(deposit_kit, crashed)
        assert _books(adopted.bank) == _books(restarted.bank), context
        for issued, rid, reply in holder["acked"]:
            if issued > k:
                continue
            verdict = adopted.reply_for(rid)
            if verdict is None:
                assert adopted._tombstone(rid) in adopted._evicted, context
                continue
            cached += 1
            assert {"status": verdict[0], **verdict[1]} == {
                key: value for key, value in reply.items() if key != "req"
            }, context
    assert cached > len(frames)  # the check is not vacuous
