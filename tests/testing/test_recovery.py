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
from dataclasses import replace

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
    kit.fund(bank)
    batcher = VerificationBatcher(
        kit.params, kit.keypair, max_batch=4, seed=7
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
            kit.params, kit.keypair, max_batch=4, seed=7
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
        journal.append("apply", apply_record.rid, apply_record.op,
                       apply_record.payload)
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
        # the apply record is the OK verdict: no reply record is written,
        # and the recovered answer is rebuilt from the redo payload
        assert [r.kind for r in journal.records() if r.rid == "wd:1"] \
            == ["accept", "apply"]
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


def _kinds(journal, rid) -> list[str]:
    return [r.kind for r in journal.records() if r.rid == rid]


class TestOneRecordPerVerdict:
    """An ``OK`` verdict is its ``apply`` record; only a verdict with no
    ``apply`` (``ERROR``, ``REJECTED``) writes a ``reply`` record."""

    def _mixed_run(self, kit, journal) -> MarketService:
        service = _fresh_service(kit, journal)
        service.submit("ops", "open-account", {"aid": "fresh", "balance": 1},
                       rid="open")
        service.submit("ops", "open-account", {"aid": "fresh", "balance": 2},
                       rid="open-again")
        service.drain()
        for request in kit.requests:
            service.submit(request.aid, "deposit",
                           {"aid": request.aid,
                            "token": kit.tokens[request.token_index]},
                           rid=request.rid)
            service.drain()
        return service

    def test_each_verdict_is_written_once(self, deposit_kit):
        journal = Journal()
        service = self._mixed_run(deposit_kit, journal)
        statuses = {rid: status for rid, (status, _body)
                    in service._replies.items()}
        assert set(statuses.values()) == {"OK", "ERROR", "REJECTED"}
        for rid, status in statuses.items():
            assert _kinds(journal, rid) == (
                ["accept", "apply"] if status == "OK" else ["accept", "reply"])

    def test_recovery_rebuilds_the_reply_cache_in_completion_order(
            self, deposit_kit):
        """The cache's order is its eviction order: recovery walks the
        verdicts as they were reached, OK or not, not replies first."""
        journal = Journal()
        service = self._mixed_run(deposit_kit, journal)
        recovered = _recovered(deposit_kit, journal)
        assert list(recovered._replies.items()) \
            == list(service._replies.items())
        assert recovered.redone == 0

    def test_a_pbs_deposit_verdict_is_written_once(self, pbs_kit):
        storage = MemoryStorage()
        service = _fresh_service(pbs_kit, Journal(storage))
        for request in pbs_kit.requests:
            kind, payload = pbs_kit.payload(request)
            service.submit(request.aid, kind, payload, rid=request.rid)
        service.drain()
        verdicts = {r.rid: service.reply_for(r.rid) for r in pbs_kit.requests}
        assert {status for status, _body in verdicts.values()} \
            == {"OK", "REJECTED"}
        journal = Journal(storage)
        for rid, (status, _body) in verdicts.items():
            assert _kinds(journal, rid) == (
                ["accept", "apply"] if status == "OK" else ["accept", "reply"])
        recovered = _recovered(pbs_kit, journal)
        assert {rid: recovered.reply_for(rid) for rid in verdicts} == verdicts


    def test_the_sweep_finds_a_planted_pbs_book_disagreement(self, pbs_kit):
        journal = Journal()
        service = _fresh_service(pbs_kit, journal)
        kind, payload = pbs_kit.payload(pbs_kit.requests[0])
        service.submit(pbs_kit.requests[0].aid, kind, payload, rid="dep")
        service.drain()
        assert check_recovery_invariants(service.bank, journal).clean
        payee = next(iter(service.bank.pbs.accounts))
        service.bank.pbs.accounts[payee] += 1  # a credit no record explains
        findings = check_recovery_invariants(service.bank, journal).findings
        assert findings == ("journal disagreement on the PPMSpbs accounts",)


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

    def test_a_two_torsion_forgery_is_refused_at_every_crash_point(
            self, deposit_kit):
        """A token on the "signature" ``(T, T, T)``, ``T`` of order 2,
        pairs to 1 everywhere and needs no bank key: only the
        ``pairable`` screen refuses it.  Appended to the kit, it is
        answered ``ERROR`` and credits nothing whichever envelope the
        service dies at (the kit's reconciliation would see a credit
        its verdict does not explain)."""
        from tests.ecash.test_cofactor_forgery import _forge, _torsion

        kit = deposit_kit
        token = _forge(kit.params, kit.keypair.public,
                       _torsion(kit.params.backend.params.p),
                       random.Random(0xF06E))
        forged = replace(
            kit,
            tokens=kit.tokens + (token,),
            amounts=kit.amounts + (token.denomination(kit.params.tree_level),),
            requests=kit.requests + (replace(
                kit.requests[0], rid="forge", token_index=len(kit.tokens),
                double_spend=False),),
        )
        baseline = run_deposit_scenario(FaultPlan(seed=0), kit=kit)
        clean = run_deposit_scenario(FaultPlan(seed=0), kit=forged)
        assert clean.clean, clean.report()
        for point in range(1, 2 * clean.delivered):
            plan = FaultPlan(seed=0, crash_points=(point,))
            result = run_deposit_scenario(plan, kit=forged, checkpoint_every=3)
            message = f"crash at envelope {point}:\n{result.report()}"
            assert result.clean, message
            assert result.recoveries == 1, message
            assert result.verdicts.pop("forge") == "ERROR", message
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
