"""Tests for the message-driven PPMSdec state machines, driven by the
session the way every caller drives them."""

from __future__ import annotations

import random

import pytest

from repro.core.dec_machine import PPMSdecSession
from repro.core.engine import Outbound, drive
from repro.core.market import pseudonym_name


def _market(dec_params, rng, *, n_workers=2, payment=3, jo_funds=None,
            break_algorithm="pcba"):
    """One job run by the session; returns its router and parties."""
    session = PPMSdecSession(dec_params, rng, rsa_bits=512, break_algorithm=break_algorithm)
    coin_value = 1 << dec_params.tree_level
    jo = session.new_job_owner("jo-acct", jo_funds or coin_value * max(1, n_workers))
    sps = [session.new_participant(f"sp-acct-{i}") for i in range(n_workers)]
    session.run_job(jo, sps, payment=payment, description="machine-market sensing job")
    return session, jo, sps


def _late_worker(session, jo, aid):
    """One more honest SP queued on the router the last job ran on."""
    sp = session.new_participant(aid)
    sp.bind(session.ma.board.lookup(jo.job_id), jo.job_key.public,
            session.ma.bank.public_key, b"late", session.ma.clock)
    session.router.add(sp, sp.nym)
    session.router.activate(sp.name)
    return sp


@pytest.fixture()
def market(dec_params, rng):
    session, jo, sps = _market(dec_params, rng)
    return session.router, session.ma, jo, sps


class TestHappyPath:
    def test_workers_paid_and_deposited(self, market):
        router, ma, jo, sps = market
        assert not router.failures, router.failures
        for sp in sps:
            assert sp.bundle.total_value(ma.params.tree_level) == 3
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
        assert total == coin_value * 2  # the fixture's funding

    def test_matches_session_outcome(self, dec_params, rng):
        """Pinned from the imperative session the machines replaced."""
        session, jo, (sp,) = _market(dec_params, rng, n_workers=1, payment=5, jo_funds=64)
        assert session.ma.bank.balance(sp.aid) == 5
        assert sorted(session.ma.bank.accounts.values()) == [5, 56]


class TestMultiCoinWithdrawal:
    def test_jo_withdraws_on_demand(self, dec_params, rng):
        """Two payments of 5 exceed one 2^3 coin — the machine JO must
        request a second withdrawal mid-protocol."""
        session, jo, sps = _market(dec_params, rng, payment=5,
                                   jo_funds=4 * (1 << dec_params.tree_level))
        assert not session.router.failures, session.router.failures
        assert len(jo.coins) >= 2
        for sp in sps:
            assert session.ma.bank.balance(sp.aid) == 5


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
        from repro.ecash.spend import create_spend

        rng2 = random.Random(17)
        coin, wallet = jo.coins[0]
        node = wallet.allocate(1)
        token = create_spend(ma.params, ma.bank.public_key, coin.secret,
                             coin.signature, node, rng2)
        router.post(sp0.name, Outbound("MA", "deposit",
                                       {"aid": sp1.aid, "coin": token, "at": 1.0}))
        router.run()
        assert any("mismatched account" in f.error for f in router.failures)

    def test_replayed_coin_rejected(self, market):
        router, ma, jo, sps = market
        sp = sps[0]
        # replay one of sp's already-deposited coins
        deposits = [e for e in router.transport.log
                    if e.kind == "deposit" and e.payload["aid"] == sp.aid]
        assert deposits
        router.post(sp.name, Outbound("MA", "deposit", deposits[0].payload))
        router.run()
        assert any("double spend" in f.error for f in router.failures)

    def test_malformed_coin_rejected(self, market):
        router, ma, jo, sps = market
        sp = sps[0]
        router.post(sp.name, Outbound("MA", "deposit",
                                      {"aid": sp.aid, "coin": b"not-a-coin", "at": 1.0}))
        router.run()
        assert router.failures[-1].error == \
            "malformed deposit message: 'coin' must be SpendToken, not bytes"

    def test_labor_for_unknown_job_rejected(self, market):
        router, ma, jo, sps = market
        key = sps[0].labor_key.public  # a well-formed key: the job is what is wrong
        router.post("mallory", Outbound("MA", "labor-registration",
                                        {"job": "nope", "rpk": (key.n, key.e)}))
        router.run()
        assert any("unknown job" in f.error for f in router.failures)

    def test_out_of_order_payment_rejected(self, market, dec_params, rng):
        router, ma, jo, sps = market
        sp = sps[0]  # already in PAID state
        router.post("MA", Outbound(sp.nym, "payment-delivery",
                                   {"ciphertext": b"\x00" * 100}))
        router.run()
        assert any("out of order" in f.error for f in router.failures)


class TestRelayToUnknownPseudonym:
    def test_payment_for_a_pseudonym_without_labor_is_one_failure(self, dec_params, rng):
        """Data and a payment for a pseudonym no party registered labor
        under: the MA refuses to relay instead of the router aborting,
        and an honest worker queued behind is still paid."""
        session, jo, sps = _market(dec_params, rng, n_workers=1, jo_funds=32)
        router = session.router
        ghost = b"z" * 16
        router.post(pseudonym_name(ghost), Outbound("MA", "data-submission",
                                        {"pseudonym": ghost, "job": jo.job_id, "data": b"d"}))
        router.post("mallory", Outbound("MA", "payment-submission",
                                        {"pseudonym": ghost, "ciphertext": b"c"}))
        late = _late_worker(session, jo, "sp-late")
        router.run()
        (failure,) = router.failures
        assert failure.kind == "payment-submission"
        assert failure.error.startswith("no labor registered under pseudonym")
        assert session.ma.bank.balance(late.aid) == 3


#: forged escrow traffic: (sender, message) for the late worker of a job
#: while another job (``other``) is on the same router
ESCROW_FORGERIES = {
    "forged-confirmation": lambda jo, other, sps, late: (
        jo.nym, Outbound("MA", "payment-confirm", {"pseudonym": late.pseudonym})),
    "data-under-another-pseudonym": lambda jo, other, sps, late: (
        sps[0].nym, Outbound("MA", "data-submission",
                             {"pseudonym": late.pseudonym, "job": jo.job_id, "data": b"x"})),
    "data-for-another-job": lambda jo, other, sps, late: (
        late.nym, Outbound("MA", "data-submission",
                           {"pseudonym": late.pseudonym, "job": other.job_id, "data": b"x"})),
    "payment-from-another-jobs-owner": lambda jo, other, sps, late: (
        other.nym, Outbound("MA", "payment-submission",
                            {"pseudonym": late.pseudonym, "ciphertext": b"garbage"})),
}


class TestEscrowAnswersOnlyTheConcernedParty:
    """The MA takes data and a confirmation only from the pseudonym they
    concern, data only for the job it registered labor for, and a
    payment only from that job's owner.  Each forgery arrives while a
    worker's data is held and before its JO pays: one refused delivery,
    the escrow as it was, no data released, and the worker completes."""

    @pytest.mark.parametrize("forgery", sorted(ESCROW_FORGERIES))
    def test_forgery_is_one_failure_and_changes_nothing(
            self, dec_params, rng, forge_while_held, forgery):
        session, jo, sps = _market(dec_params, rng, n_workers=1, jo_funds=32)
        other = session.new_job_owner("other-acct", 1 << dec_params.tree_level)
        other.begin_job("another job", 1, session.ma.bank.public_key)
        drive(session.router, other, other.nym)
        late = _late_worker(session, jo, "sp-late")
        sender, out = ESCROW_FORGERIES[forgery](jo, other, sps, late)
        reports = len(jo.received_reports)

        assert forge_while_held(session, late, sender, out)
        (failure,) = session.router.failures
        assert (failure.sender, failure.receiver, failure.kind) == (sender, "MA", out.kind)
        assert jo.received_reports[reports:] == [{"job": jo.job_id, "data": b"late"}]
        assert other.received_reports == []
        assert session.ma.bank.balance(late.aid) == 3


class TestJoSendsOnlyFakes:
    def test_the_escrow_keeps_the_data(self, dec_params, rng, monkeypatch):
        """A JO whose payment is all fake coins, under its valid
        signature: the SP counts zero coins and never confirms, so the
        MA never releases the data."""
        from repro.crypto import rsa
        from repro.ecash.fake import pad_payment
        from repro.net.codec import encode

        session, jo, _ = _market(dec_params, rng, n_workers=0)

        def fakes_only(sp_pub, payment):
            padded = pad_payment([], slots=6, rng=rng, reference_length=256)
            sig = rsa.sign(jo.job_key, sp_pub.fingerprint())
            return rsa.encrypt(sp_pub, encode({"coins": padded, "sig": sig}), rng)

        monkeypatch.setattr(jo, "build_payment", fakes_only)
        late = _late_worker(session, jo, "sp-late")
        session.router.run()
        (failure,) = session.router.failures
        assert (failure.receiver, failure.kind) == (late.nym, "payment-delivery")
        assert failure.error == "payment value 0 != advertised 3"
        assert jo.received_reports == []
        assert session.ma._held_reports[late.pseudonym].payload == b"late"
        assert session.ma.bank.balance(late.aid) == 0


class TestHonestJoNeverDoubleSpends:
    """The JO pays through its one allocator, so several
    payments out of several coins never hand one node out twice."""

    @pytest.mark.parametrize("n_workers, algo", [(4, "pcba"), (6, "epcba")])
    def test_every_worker_is_credited_in_full(self, dec_params, n_workers, algo):
        session, jo, sps = _market(dec_params, random.Random(2), n_workers=n_workers,
                                   payment=7, jo_funds=128, break_algorithm=algo)
        assert session.router.failures == []
        assert [session.ma.bank.balance(sp.aid) for sp in sps] == [7] * n_workers


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
        jo.begin_job("next job", 1, ma.bank.public_key)
        router.add(jo, jo.nym)
        router.post(jo.nym, Outbound("MA", "job-registration",
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
        router.post("MA", Outbound(jo.name, "withdraw-response",
                                   {"signature": jo.coins[0][0].signature}))
        router.run()
        assert router.failures[-1].error == "unexpected withdrawal response"
        assert len(jo.coins) == coins

    @pytest.mark.parametrize("signature", [1, None, "sig"])
    def test_malformed_answer_leaves_the_request_pending(self, market, signature):
        """A non-signature answer is one recorded failure, and the real
        answer still finishes the withdrawal afterwards."""
        router, ma, jo, sps = market
        coins, before = len(jo.coins), len(router.failures)
        request = jo.begin_withdraw()
        router.post("MA", Outbound(jo.name, "withdraw-response", {"signature": signature}))
        router.run()
        (failure,) = router.failures[before:]
        assert failure.error.startswith("malformed withdraw-response")
        router.post("MA", Outbound(jo.name, "withdraw-response",
                                   {"signature": ma.withdraw(jo.name, request)}))
        router.run()
        assert len(router.failures) == before + 1 and len(jo.coins) == coins + 1

    @pytest.mark.parametrize("kind, payload", [
        ("job-published", {"job": "forged"}),
        ("data-delivery", {"job": "forged", "data": b"d"}),
    ])
    def test_a_resident_hears_only_the_ma(self, market, kind, payload):
        router, ma, jo, sps = market
        job_id, reports = jo.job_id, list(jo.received_reports)
        router.post(sps[0].nym, Outbound(jo.nym, kind, payload))
        router.run()
        assert router.failures[-1].error == f"JO hears only the MA, not {sps[0].nym!r}"
        assert (jo.job_id, jo.received_reports) == (job_id, reports)


class TestTableOneParity:
    """The machines tally through their own ``counter.record``
    sites, so a market reproduces, row for row, the Table I counts the
    imperative session recorded before the machines replaced it."""

    ROWS = {
        (1, 5): {"JO": {"ZKP": 9, "Enc": 2, "Dec": 1, "H": 2},
                 "SP": {"ZKP": 0, "Enc": 0, "Dec": 4, "H": 1},
                 "MA": {"ZKP": 0, "Enc": 1, "Dec": 9, "H": 2}},
        (2, 5): {"JO": {"ZKP": 18, "Enc": 4, "Dec": 2, "H": 3},
                 "SP": {"ZKP": 0, "Enc": 0, "Dec": 8, "H": 2},
                 "MA": {"ZKP": 0, "Enc": 2, "Dec": 18, "H": 4}},
        (3, 3): {"JO": {"ZKP": 29, "Enc": 6, "Dec": 2, "H": 4},
                 "SP": {"ZKP": 0, "Enc": 0, "Dec": 12, "H": 3},
                 "MA": {"ZKP": 0, "Enc": 2, "Dec": 29, "H": 6}},
    }

    @pytest.mark.parametrize("n_workers, payment", [(1, 5), (2, 5), (3, 3)])
    def test_rows_equal_the_sessions(self, dec_params, rng, n_workers, payment):
        session, jo, sps = _market(dec_params, rng, n_workers=n_workers,
                                   payment=payment, jo_funds=64)
        for party in ("JO", "SP", "MA"):
            assert session.counter.party_row(party) == self.ROWS[n_workers, payment][party]
