"""Tests for credit circulation: SP-to-SP trading and redemption."""

from __future__ import annotations

import pytest

from repro.core.dec_machine import PPMSdecSession
from repro.core.trading import RedemptionDesk, trade_sensing_service


@pytest.fixture()
def session(dec_params, rng):
    return PPMSdecSession(dec_params, rng, rsa_bits=512)


class TestRedemption:
    def test_redeem_debits_and_issues_voucher(self, session, rng):
        session.ma.bank.open_account("earner", 10)
        desk = RedemptionDesk(bank=session.ma.bank, rng=rng)
        voucher = desk.redeem("earner", 6)
        assert session.ma.bank.balance("earner") == 4
        assert voucher.amount == 6 and voucher.aid == "earner"
        assert len(voucher.voucher_id) == 16
        assert desk.issued == [voucher]

    def test_insufficient_balance(self, session, rng):
        session.ma.bank.open_account("poor", 2)
        desk = RedemptionDesk(bank=session.ma.bank, rng=rng)
        with pytest.raises(ValueError):
            desk.redeem("poor", 3)
        assert session.ma.bank.balance("poor") == 2  # untouched

    def test_unknown_account(self, session, rng):
        desk = RedemptionDesk(bank=session.ma.bank, rng=rng)
        with pytest.raises(ValueError):
            desk.redeem("ghost", 1)

    def test_nonpositive_amount(self, session, rng):
        session.ma.bank.open_account("x", 5)
        desk = RedemptionDesk(bank=session.ma.bank, rng=rng)
        with pytest.raises(ValueError):
            desk.redeem("x", 0)

    def test_voucher_ids_unique(self, session, rng):
        session.ma.bank.open_account("y", 10)
        desk = RedemptionDesk(bank=session.ma.bank, rng=rng)
        ids = {desk.redeem("y", 1).voucher_id for _ in range(5)}
        assert len(ids) == 5


class TestServiceTrading:
    def test_earner_buys_service(self, session, dec_params):
        """An SP that earned credits spends them on another SP's work."""
        coin_value = 1 << dec_params.tree_level
        # stage 1: alice earns a full coin's worth from a company
        company = session.new_job_owner("company", funds=2 * coin_value)
        alice = session.new_participant("alice")
        session.run_job(company, [alice], payment=coin_value)
        assert session.ma.bank.balance("alice") == coin_value

        # stage 2: alice buys 3 credits of sensing from bob
        bob = session.new_participant("bob")
        trade_sensing_service(session, "alice", bob, payment=3)
        assert session.ma.bank.balance("bob") == 3
        # change came back: alice's net cost is exactly the price
        assert session.ma.bank.balance("alice") == coin_value - 3

    def test_money_conserved_through_trade(self, session, dec_params):
        coin_value = 1 << dec_params.tree_level
        company = session.new_job_owner("company", funds=2 * coin_value)
        alice = session.new_participant("alice")
        session.run_job(company, [alice], payment=coin_value)
        bob = session.new_participant("bob")
        buyer = trade_sensing_service(session, "alice", bob, payment=5)
        bank = session.ma.bank
        total = (
            bank.balance("company")
            + bank.balance("alice")
            + bank.balance("bob")
            + company.spendable_balance()
            + buyer.spendable_balance()
        )
        assert total == 2 * coin_value
        assert buyer.spendable_balance() == 0  # change fully returned

    def test_buyer_needs_whole_coin(self, session):
        session.ma.bank.open_account("small", 3)  # < 2^3
        seller = session.new_participant("seller")
        with pytest.raises(ValueError, match="whole coin"):
            trade_sensing_service(session, "small", seller, payment=1)

    def test_unknown_buyer(self, session):
        seller = session.new_participant("seller2")
        with pytest.raises(ValueError, match="not found"):
            trade_sensing_service(session, "ghost", seller, payment=1)

    def test_trade_unlinkable_job_pseudonym(self, session, dec_params):
        """The trade's job is published under a fresh pseudonym, not
        alice's account identity."""
        coin_value = 1 << dec_params.tree_level
        company = session.new_job_owner("company", funds=coin_value)
        alice = session.new_participant("alice")
        session.run_job(company, [alice], payment=coin_value)
        bob = session.new_participant("bob")
        trade_sensing_service(session, "alice", bob, payment=2)
        trade_profile = session.ma.board.jobs()[-1]
        assert b"alice" not in trade_profile.owner_pseudonym


class TestDepositChange:
    def test_change_returns_exact_remainder(self, session, dec_params):
        jo = session.new_job_owner("jo-c", 1 << dec_params.tree_level)
        session.run_job(jo, [])  # registers a job and withdraws one coin
        # spend nothing; everything comes back
        returned = session.deposit_change(jo)
        assert returned == 1 << dec_params.tree_level
        assert session.ma.bank.balance("jo-c") == 1 << dec_params.tree_level
        assert jo.spendable_balance() == 0

    def test_change_after_partial_spend(self, session, dec_params):
        from repro.ecash.spend import create_spend

        jo = session.new_job_owner("jo-d", 1 << dec_params.tree_level)
        session.ma.bank.open_account("sink", 0)
        session.run_job(jo, [])
        coin, wallet = jo.coins[0]
        node = wallet.allocate(3 if False else 2)
        token = create_spend(dec_params, session.ma.bank.public_key, coin.secret,
                             coin.signature, node, session.rng)
        session.ma.bank.deposit("sink", token)
        returned = session.deposit_change(jo)
        assert returned == (1 << dec_params.tree_level) - 2
