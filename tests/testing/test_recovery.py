"""Crash recovery: zero lost deposits, zero double-applies, ever.

The acceptance criteria of the fault harness live here:

* a crash at **any** scripted envelope mid-batch, followed by a
  restart from the journal (plus shard snapshots), yields exactly the
  verdicts of the crash-free run — nothing lost, nothing applied
  twice, double-deposit detection intact
  (:func:`test_crash_at_every_envelope_matches_crash_free_run`);
* the same holds across ≥ 100 seeded random fault schedules when
  ``REPRO_FAULT_SMOKE=1`` (a dozen in the default tier-1 run);
* every failure message carries the seed and fault schedule plus the
  single pytest invocation that replays it.
"""

from __future__ import annotations

import os
import random

from repro.ecash.dec import begin_withdrawal
from repro.service import (
    Journal,
    MarketService,
    ShardedBank,
    VerificationBatcher,
)
from repro.service.storage import MemoryStorage
from repro.testing import FaultPlan, check_recovery_invariants, env_seed
from repro.testing.properties import DEFAULT_SEED
from repro.testing.scenario import run_deposit_scenario, run_pbs_scenario

SMOKE = bool(os.environ.get("REPRO_FAULT_SMOKE"))
#: scenario counts: CI smoke sweeps wide, tier-1 stays fast
N_DEC_SCHEDULES = 100 if SMOKE else 12
N_PBS_SCHEDULES = 40 if SMOKE else 6


def _repro_hint(test: str) -> str:
    seed = env_seed()
    return (
        f"reproduce with: REPRO_FAULT_SMOKE=1 REPRO_TEST_SEED={seed:#x} "
        f"python -m pytest tests/testing/test_recovery.py::{test}"
    )


def _fresh_service(kit, journal=None) -> MarketService:
    journal = journal if journal is not None else Journal()
    bank = ShardedBank(
        kit.params, kit.keypair, random.Random(1), n_shards=3, journal=journal
    )
    for aid, balance, coins in kit.funding:
        bank.open_account(aid, balance)
        for _ in range(coins):
            bank.apply_withdrawal(aid)
    batcher = VerificationBatcher(
        kit.params, kit.keypair, max_batch=4, seed=7, warm_tables=False
    )
    return MarketService(bank, batcher=batcher, rng=random.Random(2))


def _recovered(kit, journal, *, checkpoint=None) -> MarketService:
    return MarketService.recover(
        kit.params,
        kit.keypair,
        journal,
        checkpoint=checkpoint,
        n_shards=3,
        batcher=VerificationBatcher(
            kit.params, kit.keypair, max_batch=4, seed=7, warm_tables=False
        ),
    )


def _books(bank: ShardedBank):
    return (
        [dict(s.accounts) for s in bank.shards],
        [list(s.withdrawals) for s in bank.shards],
        [dict(s._seen_serials) for s in bank.shards],
        bank.deposit_seq,
    )


class TestUnitRecovery:
    def test_replay_reconstructs_the_books_exactly(self, deposit_kit):
        kit = deposit_kit
        journal = Journal()
        service = _fresh_service(kit, journal)
        for i, request in enumerate(kit.requests[:4]):
            service.submit(request.aid, "deposit",
                           {"aid": request.aid, "token": kit.tokens[request.token_index]},
                           rid=f"u:{i}")
        service.drain()
        recovered = _recovered(kit, journal)
        assert _books(recovered.bank) == _books(service.bank)
        assert check_recovery_invariants(recovered.bank, journal).clean

    def test_duplicate_apply_records_replay_once(self, deposit_kit):
        """Idempotent replay keyed on rids: a repeated record is a no-op."""
        kit = deposit_kit
        journal = Journal()
        service = _fresh_service(kit, journal)
        request = kit.requests[0]
        service.submit(request.aid, "deposit",
                       {"aid": request.aid, "token": kit.tokens[request.token_index]},
                       rid="dup-rid")
        service.drain()
        apply_record = next(r for r in journal.records()
                            if r.kind == "apply" and r.rid == "dup-rid")
        # a hostile/duplicated journal tail must not double-credit
        journal._records.append(apply_record)
        recovered = ShardedBank.recover(
            kit.params, kit.keypair, random.Random(0), journal, n_shards=3
        )
        assert recovered.balance(request.aid) == service.bank.balance(request.aid)

    def test_accepted_but_unapplied_deposit_is_redone(self, deposit_kit):
        """Crash mid-batch: the accept record alone recovers the request."""
        kit = deposit_kit
        journal = Journal()
        service = _fresh_service(kit, journal)
        request = kit.requests[0]
        service.submit(request.aid, "deposit",
                       {"aid": request.aid, "token": kit.tokens[request.token_index]},
                       rid="inflight")
        # no step(): the batch never flushed — the service dies here
        recovered = _recovered(kit, journal)
        assert recovered.redone == 1
        assert recovered.reply_for("inflight") is None
        recovered.drain()
        status, body = recovered.reply_for("inflight")
        assert status == "OK"
        assert check_recovery_invariants(recovered.bank, journal).clean

    def test_an_ill_typed_accept_from_an_older_store_is_closed(self,
                                                                deposit_kit):
        """Stores written before requests were checked at the door may
        hold a malformed accept; recovering one used to crash, at every
        restart and every adoption."""
        kit = deposit_kit
        storage = MemoryStorage()
        old = Journal(storage)
        old.append("accept", "ill", "open-account", {
            "sender": "eve", "kind": "open-account", "seq": 0,
            "payload": {"aid": 5, "balance": 1}})
        old.append("accept", 7, "open-account", {  # an integer rid
            "sender": "eve", "kind": "open-account", "seq": 1,
            "payload": {"aid": "e", "balance": 1}})
        recovered = _recovered(kit, Journal(storage))
        assert recovered.redone == 0
        status, body = recovered.reply_for("ill")
        assert status == "ERROR" and "'aid'" in body["error"]
        assert recovered.reply_for(7)[0] == "ERROR"
        assert [r.kind for r in Journal(storage).records()] \
            == ["accept", "accept", "reply", "reply"]
        # the service serves the next request, and the closed accept
        # stays closed through another restart
        recovered.submit("ops", "open-account", {"aid": "ok", "balance": 3},
                         rid="next")
        recovered.drain()
        assert recovered.reply_for("next") == ("OK", {"balance": 3})
        again = _recovered(kit, Journal(storage))
        assert again.redone == 0 and again.reply_for("ill")[0] == "ERROR"

    def test_applied_but_unanswered_withdrawal_synthesizes_its_reply(self, deposit_kit):
        kit = deposit_kit
        journal = Journal()
        service = _fresh_service(kit, journal)
        value = 1 << kit.params.tree_level
        service.bank.open_account("wd-acct", value)
        _, request = begin_withdrawal(kit.params, random.Random(3))
        service.submit("wd-acct", "withdraw", {"aid": "wd-acct", "request": request},
                       rid="wd:1")
        service.drain()
        original = service.reply_for("wd:1")
        assert original is not None and original[0] == "OK"
        # strike the reply record: simulates a crash after apply, before
        # the reply hit the journal... which cannot happen (reply is
        # journaled first) — but an applied rid must still answer OK
        journal._records = [r for r in journal._records
                            if not (r.kind == "reply" and r.rid == "wd:1")]
        recovered = _recovered(kit, journal)
        status, body = recovered.reply_for("wd:1")
        assert status == "OK"
        assert body["signature"] == original[1]["signature"]
        assert recovered.bank.balance("wd-acct") == 0

    def test_completed_rid_dedupes_across_incarnations(self, deposit_kit):
        kit = deposit_kit
        journal = Journal()
        service = _fresh_service(kit, journal)
        request = kit.requests[0]
        payload = {"aid": request.aid, "token": kit.tokens[request.token_index]}
        service.submit(request.aid, "deposit", payload, rid="once")
        service.drain()
        balance = service.bank.balance(request.aid)
        recovered = _recovered(kit, journal)
        recovered.submit(request.aid, "deposit", payload, rid="once")
        recovered.drain()
        assert recovered.dedup_hits == 1
        assert recovered.bank.balance(request.aid) == balance
        applies = [r for r in journal.records()
                   if r.kind == "apply" and r.rid == "once"]
        assert len(applies) == 1

    def test_checkpoint_plus_tail_equals_full_replay(self, deposit_kit):
        kit = deposit_kit
        journal = Journal()
        service = _fresh_service(kit, journal)
        half = len(kit.requests) // 2
        for i, request in enumerate(kit.requests[:half]):
            service.submit(request.aid, "deposit",
                           {"aid": request.aid, "token": kit.tokens[request.token_index]},
                           rid=f"c:{i}")
        service.drain()
        checkpoint = service.checkpoint()
        for i, request in enumerate(kit.requests[half:]):
            service.submit(request.aid, "deposit",
                           {"aid": request.aid, "token": kit.tokens[request.token_index]},
                           rid=f"c:{half + i}")
        service.drain()
        from_checkpoint = _recovered(kit, journal, checkpoint=checkpoint)
        from_scratch = _recovered(kit, journal)
        assert _books(from_checkpoint.bank) == _books(service.bank)
        assert _books(from_scratch.bank) == _books(service.bank)


class TestCrashSweep:
    def test_crash_at_every_envelope_matches_crash_free_run(self, deposit_kit):
        """Kill the service at each envelope in turn; verdicts never change."""
        kit = deposit_kit
        baseline = run_deposit_scenario(FaultPlan(seed=0), kit=kit)
        assert baseline.clean, baseline.report()
        # zero-fault run: one request + one reply envelope per delivery
        total_envelopes = 2 * baseline.delivered
        for point in range(1, total_envelopes):
            plan = FaultPlan(seed=0, crash_points=(point,))
            result = run_deposit_scenario(plan, kit=kit, checkpoint_every=3)
            message = (
                f"crash at envelope {point}:\n{result.report()}\n"
                + _repro_hint("TestCrashSweep::"
                              "test_crash_at_every_envelope_matches_crash_free_run")
            )
            assert result.clean, message
            assert result.crashes == 1, message
            assert result.recoveries == 1, message
            assert result.verdicts == baseline.verdicts, message

    def test_multi_crash_schedules(self, deposit_kit):
        """Several crashes per run, including back-to-back ones."""
        kit = deposit_kit
        baseline = run_deposit_scenario(FaultPlan(seed=0), kit=kit)
        for points in [(2, 3), (2, 3, 4), (5, 9, 14, 22), (1, 10, 11, 12, 25)]:
            plan = FaultPlan(seed=0, crash_points=points)
            result = run_deposit_scenario(plan, kit=kit, checkpoint_every=4)
            message = (
                f"crash points {points}:\n{result.report()}\n"
                + _repro_hint("TestCrashSweep::test_multi_crash_schedules")
            )
            assert result.clean, message
            assert result.verdicts == baseline.verdicts, message


class TestSeededSchedules:
    def test_dec_fault_schedules(self, deposit_kit):
        """Random drop/duplicate/reorder/crash schedules, seed-derived."""
        base = env_seed(DEFAULT_SEED)
        stream = random.Random(f"fault-suite:dec:{base}")
        for i in range(N_DEC_SCHEDULES):
            seed = stream.randrange(1 << 32)
            plan = FaultPlan.from_seed(seed, intensity=0.25, horizon=36)
            result = run_deposit_scenario(plan, kit=deposit_kit, checkpoint_every=4)
            assert result.clean, (
                f"schedule {i + 1}/{N_DEC_SCHEDULES} (base seed {base:#x}):\n"
                f"{result.report()}\n"
                + _repro_hint("TestSeededSchedules::test_dec_fault_schedules")
            )

    def test_pbs_fault_schedules(self, pbs_kit):
        base = env_seed(DEFAULT_SEED)
        stream = random.Random(f"fault-suite:pbs:{base}")
        for i in range(N_PBS_SCHEDULES):
            seed = stream.randrange(1 << 32)
            plan = FaultPlan.from_seed(seed, intensity=0.25, horizon=10)
            result = run_pbs_scenario(plan, kit=pbs_kit, checkpoint_every=2)
            assert result.clean, (
                f"schedule {i + 1}/{N_PBS_SCHEDULES} (base seed {base:#x}):\n"
                f"{result.report()}\n"
                + _repro_hint("TestSeededSchedules::test_pbs_fault_schedules")
            )
