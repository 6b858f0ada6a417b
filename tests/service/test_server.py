"""The serving loop: accept → admit → batch → apply."""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.ecash.dec import begin_withdrawal, finish_withdrawal
from repro.metrics.latency import SLOTarget
from repro.service import (
    AdmissionController,
    Journal,
    MarketService,
    VerificationBatcher,
    run_trace,
)

from tests.service.conftest import mint_tokens


def _completions(service):
    """Every reply the service delivers, as ``(sender, seq, status)``."""
    seen = []
    service.add_reply_observer(lambda sender, reply: seen.append(
        SimpleNamespace(sender=sender, seq=reply["req"], status=reply["status"])))
    return seen


class TestCheapRequests:
    def test_open_account_and_balance(self, service):
        seen = _completions(service)
        service.submit("alice", "open-account", {"aid": "alice", "balance": 9})
        service.submit("alice", "balance", {"aid": "alice"})
        service.step(force=True)
        assert [c.status for c in seen] == ["OK", "OK"]
        assert service.bank.balance("alice") == 9

    def test_duplicate_open_fails_only_itself(self, service):
        seen = _completions(service)
        service.submit("alice", "open-account", {"aid": "alice", "balance": 1})
        service.submit("alice", "open-account", {"aid": "alice", "balance": 1})
        service.submit("alice", "balance", {"aid": "alice"})
        service.step(force=True)
        assert [c.status for c in seen] == ["OK", "ERROR", "OK"]
        assert len(service.failures) == 1

    def test_an_ill_typed_or_negative_balance_opens_nothing(self, service):
        """A string balance used to be stored (and make every later audit
        raise); a negative one opened an account in debt."""
        replies: list[dict] = []
        service.add_reply_observer(lambda sender, reply: replies.append(reply))
        service.submit("alice", "open-account", {"aid": "a", "balance": "lots"})
        service.submit("alice", "open-account", {"aid": "b", "balance": -7})
        service.submit("alice", "open-account", {"aid": "c", "balance": True})
        assert [r["status"] for r in replies] == ["ERROR"] * 3
        service.submit("auditor", "audit", {})
        service.drain()
        assert replies[-1]["status"] == "OK" and replies[-1]["clean"] is True
        assert not any(service.bank.has_account(aid) for aid in "abc")

    def test_audit_request(self, service):
        seen = _completions(service)
        service.submit("auditor", "audit", {})
        service.step(force=True)
        assert seen[0].status == "OK"

    def test_unknown_kind_is_error(self, service):
        seen = _completions(service)
        service.submit("alice", "transmogrify", {})
        service.step(force=True)
        assert seen[0].status == "ERROR"


class TestDepositPath:
    def test_deposit_round_trip(self, service, rng):
        requests = mint_tokens(service, rng, 2, node_level=1)
        seen = _completions(service)
        before = {r.sender: service.bank.balance(r.sender) for r in requests}
        for request in requests:
            service.submit(request.sender, request.kind, request.payload)
        service.drain()
        assert [c.status for c in seen] == ["OK", "OK"]
        for request in requests:
            token = request.payload["token"]
            denom = token.denomination(service.bank.params.tree_level)
            assert service.bank.balance(request.sender) >= before[request.sender]

    def test_double_spend_rejected_with_evidence(self, service, rng):
        requests = mint_tokens(service, rng, 1)
        seen = _completions(service)
        request = requests[0]
        service.submit(request.sender, "deposit", request.payload)
        service.drain()
        service.submit(request.sender, "deposit", request.payload)
        service.drain()
        assert [c.status for c in seen] == ["OK", "REJECTED"]
        assert service.failures and "deposited" in service.failures[0].error

    def test_unknown_account_immediate_error(self, service, rng):
        requests = mint_tokens(service, rng, 1)
        seen = _completions(service)
        payload = dict(requests[0].payload, aid="ghost")
        service.submit("ghost", "deposit", payload)
        service.drain()
        assert seen[0].status == "ERROR"
        assert service.queue_depth == 0

    def test_tampered_token_fails_only_itself(self, service, rng):
        """Raw bytes where a SpendToken belongs must not poison the batch."""
        requests = mint_tokens(service, rng, 1, node_level=1)
        seen = _completions(service)
        service.submit("sp0", "deposit", {"aid": "sp0", "token": b"\x00" * 16})
        service.submit("sp0", "withdraw", {"aid": "sp0", "request": "bogus"})
        service.submit(requests[0].sender, "deposit", requests[0].payload)
        service.drain()
        assert [c.status for c in seen] == ["ERROR", "ERROR", "OK"]
        assert service.bank.audit().clean

    def test_an_ill_typed_context_does_not_hold_its_batch_hostage(
            self, sharded_bank, service_backend, rng):
        """A non-bytes context used to crash verification of its whole
        batch — the well-formed deposit beside it with it, at every
        restart — because it was journaled before anything looked."""
        journal = Journal()
        sharded_bank.journal = journal
        service = MarketService(sharded_bank, batcher=VerificationBatcher(
            sharded_bank.params, sharded_bank.keypair, max_batch=8, seed=1,
            backend=service_backend), rng=random.Random(5))
        good, bad = mint_tokens(service, rng, 2, node_level=1)
        seen = _completions(service)
        service.submit(bad.sender, "deposit", dict(bad.payload, context=12345),
                       rid="bad")
        service.submit(good.sender, "deposit", good.payload, rid="good")
        service.drain()
        assert [(c.seq, c.status) for c in seen] == [(0, "ERROR"), (1, "OK")]
        assert [r for r in journal.records() if r.rid == "bad"] == []
        assert [r.kind for r in journal.records() if r.rid == "good"] \
            == ["accept", "apply"]

    def test_fifo_per_sender(self, service, rng):
        requests = mint_tokens(service, rng, 6, node_level=1)
        seen = _completions(service)
        submitted = []
        for request in requests:
            submitted.append(
                service.submit(request.sender, request.kind, request.payload)
            )
        service.drain()
        by_sender: dict[str, list[int]] = {}
        for completion in seen:
            by_sender.setdefault(completion.sender, []).append(completion.seq)
        for sender, seqs in by_sender.items():
            assert seqs == sorted(seqs), f"{sender} replies out of order"


class TestWithdrawPath:
    def test_withdraw_issues_and_debits(self, service, rng, dec_params_toy):
        value = 1 << service.bank.params.tree_level
        service.bank.open_account("alice", value)
        secret, request = begin_withdrawal(dec_params_toy, rng)
        seen = _completions(service)
        service.submit("alice", "withdraw", {"aid": "alice", "request": request})
        service.drain()
        assert seen[0].status == "OK"
        assert service.bank.balance("alice") == 0
        assert service.bank.account_home("alice").withdrawals == ["alice"]

    def test_underfunded_withdraw_is_error(self, service, rng, dec_params_toy):
        service.bank.open_account("alice", 1)
        _, request = begin_withdrawal(dec_params_toy, rng)
        seen = _completions(service)
        service.submit("alice", "withdraw", {"aid": "alice", "request": request})
        service.drain()
        assert seen[0].status == "ERROR"
        assert service.bank.balance("alice") == 1


class TestAdmissionIntegration:
    def test_queue_backpressure_sheds_busy(self, sharded_bank, rng):
        batcher = VerificationBatcher(
            sharded_bank.params, sharded_bank.keypair, max_batch=8, seed=1
        )
        service = MarketService(
            sharded_bank,
            batcher=batcher,
            admission=AdmissionController(max_queue_depth=2),
        )
        requests = mint_tokens(service, rng, 4, node_level=1)
        seen = _completions(service)
        for request in requests:  # no step() in between: queue builds up
            service.submit(request.sender, request.kind, request.payload)
        assert service.shed == 2
        busy = [c for c in seen if c.status == "BUSY"]
        assert len(busy) == 2
        service.drain()
        assert sum(1 for c in seen if c.status == "OK") == 2

    def test_rate_limit_sheds_busy(self, sharded_bank, rng):
        batcher = VerificationBatcher(
            sharded_bank.params, sharded_bank.keypair, max_batch=8, seed=1
        )
        service = MarketService(
            sharded_bank,
            batcher=batcher,
            admission=AdmissionController(rate=1.0, burst=1),
        )
        requests = mint_tokens(service, rng, 3, node_level=1)
        seen = _completions(service)
        for request in requests:  # all at t=0: bucket holds one token
            service.submit(request.sender, request.kind, request.payload, now=0.0)
        service.drain()
        statuses = sorted(c.status for c in seen)
        assert statuses == ["BUSY", "BUSY", "OK"]

    def test_cheap_requests_bypass_admission(self, sharded_bank):
        service = MarketService(
            sharded_bank, admission=AdmissionController(max_queue_depth=1)
        )
        seen = _completions(service)
        service.submit("alice", "open-account", {"aid": "alice", "balance": 1})
        service.submit("alice", "balance", {"aid": "alice"})
        service.step(force=True)
        assert all(c.status == "OK" for c in seen)


class TestConstruction:
    def test_configured_batcher_not_replaced_when_empty(self, sharded_bank):
        """Regression: an idle batcher is falsy (has __len__); the
        constructor must not swap it for a default."""
        batcher = VerificationBatcher(
            sharded_bank.params, sharded_bank.keypair, max_batch=1, seed=2,
        )
        service = MarketService(sharded_bank, batcher=batcher)
        assert service.batcher is batcher


class TestRunTrace:
    def test_trace_with_replays_and_slo(self, service, rng):
        from repro.service.loadgen import BankIssuer, mint_deposit_traffic

        requests = mint_deposit_traffic(
            BankIssuer(service.bank), rng, n_accounts=3, n_deposits=8,
            node_level=1, replay_fraction=0.25,
        )
        arrivals = [0.01 * i for i in range(len(requests))]
        report = run_trace(
            service, requests, arrivals,
            slo=SLOTarget(p99=60.0, min_throughput=0.001),
        )
        assert report.submitted == len(requests)
        assert report.ok == 6 and report.rejected == 2
        assert report.shed == 0 and report.errors == 0
        assert report.latency is not None and report.latency.count == 8
        assert report.slo_met
        # zero double-deposits admitted: the books still audit clean
        assert service.bank.audit().clean
