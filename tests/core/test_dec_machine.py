"""Tests for the message-driven PPMSdec state machines."""

from __future__ import annotations

import random

import pytest

from repro.core.dec_machine import run_dec_machine_market
from repro.core.engine import Outbound


@pytest.fixture()
def market(dec_params, rng):
    return run_dec_machine_market(dec_params, rng, n_workers=2, payment=3)


class TestHappyPath:
    def test_workers_paid_and_deposited(self, market):
        router, ma, jo, sps = market
        assert not router.failures, router.failures
        for sp in sps:
            assert sp.received_value == 3
            assert ma.bank.balance(sp.aid) == 3

    def test_job_published(self, market):
        router, ma, jo, sps = market
        jobs = ma.board.jobs()
        assert len(jobs) == 1 and jobs[0].payment == 3
        assert jo.job_id == jobs[0].job_id

    def test_data_delivered_to_jo(self, market):
        router, ma, jo, sps = market
        assert len(jo.received_reports) == 2

    def test_money_conserved(self, market, dec_params):
        router, ma, jo, sps = market
        in_wallets = sum(w.balance for (_, w) in jo.coins)
        total = sum(ma.bank.accounts.values()) + in_wallets
        coin_value = 1 << dec_params.tree_level
        assert total == coin_value * 2  # the driver's default funding

    def test_matches_session_outcome(self, dec_params, rng):
        """Differential: state machines and imperative session agree."""
        router, ma, jo, sps = run_dec_machine_market(
            dec_params, rng, n_workers=1, payment=5
        )
        from repro.core.ppms_dec import PPMSdecSession

        session = PPMSdecSession(dec_params, random.Random(99), rsa_bits=512,
                                 break_algorithm="pcba")
        jo_s = session.new_job_owner("jo", funds=1 << dec_params.tree_level)
        sp_s = session.new_participant("sp")
        session.run_job(jo_s, [sp_s], payment=5)
        assert ma.bank.balance(sps[0].aid) == session.ma.bank.balance("sp")


class TestMultiCoinWithdrawal:
    def test_jo_withdraws_on_demand(self, dec_params, rng):
        """Two payments of 5 exceed one 2^3 coin — the machine JO must
        request a second withdrawal mid-protocol."""
        router, ma, jo, sps = run_dec_machine_market(
            dec_params, rng, n_workers=2, payment=5,
            jo_funds=4 * (1 << dec_params.tree_level),
        )
        assert not router.failures, router.failures
        assert len(jo.coins) >= 2
        for sp in sps:
            assert ma.bank.balance(sp.aid) == 5


class TestAdversarialMessages:
    def test_unenrolled_withdrawal_rejected(self, market):
        router, ma, jo, sps = market
        from repro.ecash.dec import begin_withdrawal

        _, request = begin_withdrawal(ma.params, random.Random(5))
        router.post("mallory", Outbound("MA", "withdraw-request",
                                        {"request": request}))
        router.run()
        assert any("unenrolled" in f.error for f in router.failures)

    def test_deposit_for_other_account_rejected(self, market):
        """An SP cannot deposit into an account it does not own."""
        router, ma, jo, sps = market
        sp0, sp1 = sps
        # craft: sp0 sends a deposit claiming sp1's aid
        from repro.ecash.dec import begin_withdrawal, finish_withdrawal
        from repro.ecash.spend import create_spend
        from repro.ecash.tree import NodeId

        rng2 = random.Random(17)
        coin, wallet = jo.coins[0]
        node = wallet.allocate(1)
        token = create_spend(ma.params, ma.bank.public_key, coin.secret,
                             coin.signature, node, rng2)
        router.post(sp0.name, Outbound("MA", "deposit",
                                       {"aid": sp1.aid, "coin": token}))
        router.run()
        assert any("mismatched account" in f.error for f in router.failures)

    def test_replayed_coin_rejected(self, market):
        router, ma, jo, sps = market
        sp = sps[0]
        # replay one of sp's already-deposited coins
        deposits = [e for e in router.transport.log
                    if e.kind == "deposit" and e.sender == sp.name]
        assert deposits
        router.post(sp.name, Outbound("MA", "deposit", deposits[0].payload))
        router.run()
        assert any("double spend" in f.error for f in router.failures)

    def test_malformed_coin_rejected(self, market):
        router, ma, jo, sps = market
        sp = sps[0]
        router.post(sp.name, Outbound("MA", "deposit",
                                      {"aid": sp.aid, "coin": b"not-a-coin"}))
        router.run()
        assert any("malformed coin" in f.error for f in router.failures)

    def test_labor_for_unknown_job_rejected(self, market):
        router, ma, jo, sps = market
        router.post("mallory", Outbound("MA", "labor-registration",
                                        {"job": "nope", "rpk": (3, 5)}))
        router.run()
        assert any("unknown job" in f.error for f in router.failures)

    def test_out_of_order_payment_rejected(self, market, dec_params, rng):
        router, ma, jo, sps = market
        sp = sps[0]  # already in PAID state
        router.post("MA", Outbound(sp.name, "payment-delivery",
                                   {"ciphertext": b"\x00" * 100}))
        router.run()
        assert any("out of order" in f.error for f in router.failures)


class TestHonestJoNeverDoubleSpends:
    """The machines pay through the actor's allocator, so several
    payments out of several coins never hand one node out twice."""

    @pytest.mark.parametrize("n_workers, algo", [(4, "pcba"), (6, "epcba")])
    def test_every_worker_is_credited_in_full(self, dec_params, n_workers, algo):
        router, ma, jo, sps = run_dec_machine_market(
            dec_params, random.Random(2), n_workers=n_workers, payment=7,
            jo_funds=128, break_algorithm=algo,
        )
        assert router.failures == []
        assert [ma.bank.balance(sp.aid) for sp in sps] == [7] * n_workers


class TestMalformedMessages:
    """A message of the wrong shape poisons only its own delivery."""

    @pytest.mark.parametrize("kind, payload", [
        ("labor-registration", {}),
        ("labor-registration", None),
        ("labor-registration", b"x"),
        ("deposit", {"aid": "sp-acct-0"}),
    ])
    def test_recorded_as_one_failure_and_the_engine_keeps_running(
            self, market, kind, payload):
        router, ma, jo, sps = market
        before = len(router.failures)
        router.post(sps[0].name, Outbound("MA", kind, payload))
        # an honest message queued behind it is still delivered
        router.post("JO", Outbound("MA", "job-registration",
                                   {"jd": "next job", "w": 1, "rpk_fingerprint": b"p"}))
        router.run()
        (failure,) = router.failures[before:]
        assert failure.error.startswith("malformed") and failure.kind == kind
        assert [job.description for job in ma.board.jobs()][1:] == ["next job"]
        assert jo.job_id == ma.board.jobs()[1].job_id
        assert ma.bank.balance(sps[0].aid) == 3


class TestWithdrawalOrder:
    def test_unexpected_withdrawal_response_rejected(self, market):
        router, ma, jo, sps = market
        coins = len(jo.coins)
        router.post("MA", Outbound("JO", "withdraw-response",
                                   {"signature": jo.coins[0][0].signature}))
        router.run()
        assert router.failures[-1].error == "unexpected withdrawal response"
        assert len(jo.coins) == coins


class TestTableOneParity:
    """The machines tally through the actors' own ``counter.record``
    sites, so a machine-driven market reproduces the session's Table I
    row for row — not merely the same final balance."""

    @pytest.mark.parametrize("n_workers, payment", [(1, 5), (2, 5), (3, 3)])
    def test_rows_equal_the_sessions(self, dec_params, rng, n_workers, payment):
        from functools import reduce

        from repro.core.ppms_dec import PPMSdecSession
        from repro.metrics.opcount import OpCounter

        router, ma, jo, sps = run_dec_machine_market(
            dec_params, rng, n_workers=n_workers, payment=payment)
        assert not router.failures, router.failures
        machines = reduce(OpCounter.merged, (p.counter for p in (ma, jo, *sps)))

        session = PPMSdecSession(dec_params, random.Random(99), rsa_bits=512,
                                 break_algorithm="pcba")
        jo_s = session.new_job_owner("jo", funds=64)
        session.run_job(jo_s, [session.new_participant(f"sp{i}") for i in range(n_workers)],
                        payment=payment)
        for party in ("JO", "SP", "MA"):
            assert machines.party_row(party) == session.counter.party_row(party), party
            assert any(machines.party_row(party).values())
