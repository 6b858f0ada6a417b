"""Stateful property test of a whole PPMSdec market.

Hypothesis drives random interleavings of market operations — jobs of
random payments, new participants, SP-to-SP trades, redemptions — and
checks global invariants after every step:

* **conservation** — money entering the system (account openings)
  equals accounts + outstanding wallet float + redeemed value;
* **no negative balances** anywhere, ever;
* **the bank's books audit clean** with the known float.

Runs on the toy pairing backend for speed; the crypto paths exercised
are identical in structure to the Tate configuration.
"""

from __future__ import annotations

import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.ledger import audit_bank
from repro.core.dec_machine import PPMSdecSession
from repro.core.trading import RedemptionDesk, trade_sensing_service
from repro.ecash.dec import setup

_PARAMS = None


def _params():
    global _PARAMS
    if _PARAMS is None:
        _PARAMS = setup(3, random.Random(0x5EED), real_pairing=False, edge_rounds=4)
    return _PARAMS


class MarketMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.rng = random.Random(0xFACE)
        self.session = PPMSdecSession(_params(), self.rng, rsa_bits=512)
        self.desk = RedemptionDesk(bank=self.session.ma.bank, rng=self.rng)
        self.jos = []
        self.sps = []
        self.opened = 0
        self.n = 0

    # -- operations ---------------------------------------------------------
    @rule(funds=st.sampled_from([8, 16, 24]))
    def new_jo(self, funds):
        self.n += 1
        jo = self.session.new_job_owner(f"jo-{self.n}", funds=funds)
        self.jos.append(jo)
        self.opened += funds

    @rule()
    def new_sp(self):
        self.n += 1
        self.sps.append(self.session.new_participant(f"sp-{self.n}"))

    @precondition(lambda self: self.jos and self.sps)
    @rule(payment=st.integers(min_value=1, max_value=8), data=st.data())
    def run_job(self, payment, data):
        jo = data.draw(st.sampled_from(self.jos))
        sp = data.draw(st.sampled_from(self.sps))
        bank = self.session.ma.bank
        # a job needs the JO able to fund the payment (wallets + account)
        if jo.spendable_balance() + bank.balance(jo.aid) < payment:
            return
        try:
            self.session.run_job(jo, [sp], payment=payment)
        except ValueError:
            # wallet fragmentation forced a withdrawal the account could
            # not cover; the abort is atomic (no coin minted, no credit)
            # so the invariants below still must hold
            pass

    @precondition(lambda self: self.sps)
    @rule(data=st.data(), amount=st.integers(min_value=1, max_value=4))
    def redeem(self, data, amount):
        sp = data.draw(st.sampled_from(self.sps))
        bank = self.session.ma.bank
        if bank.balance(sp.aid) < amount:
            return
        self.desk.redeem(sp.aid, amount)

    @precondition(lambda self: len(self.sps) >= 2)
    @rule(data=st.data(), price=st.integers(min_value=1, max_value=4))
    def trade(self, data, price):
        buyer = data.draw(st.sampled_from(self.sps))
        seller = data.draw(st.sampled_from([s for s in self.sps if s is not buyer]))
        bank = self.session.ma.bank
        if bank.balance(buyer.aid) < 8:  # needs a whole coin
            return
        buyer_jo = trade_sensing_service(self.session, buyer.aid, seller, payment=price)
        self.jos.append(buyer_jo)  # tracks any residual wallet float

    # -- invariants ----------------------------------------------------------
    @invariant()
    def conservation(self):
        bank = self.session.ma.bank
        accounts = sum(bank.accounts.values())
        float_ = sum(jo.spendable_balance() for jo in self.jos)
        redeemed = sum(v.amount for v in self.desk.issued)
        assert accounts + float_ + redeemed == self.opened, (
            f"opened {self.opened} != accounts {accounts} + float {float_} "
            f"+ redeemed {redeemed}"
        )

    @invariant()
    def no_negative_balances(self):
        assert all(b >= 0 for b in self.session.ma.bank.accounts.values())

    @invariant()
    def books_audit_clean(self):
        float_ = sum(jo.spendable_balance() for jo in self.jos)
        report = audit_bank(self.session.ma.bank, outstanding_float=float_)
        assert report.clean, report.findings


MarketMachine.TestCase.settings = settings(
    max_examples=5, stateful_step_count=10, deadline=None
)
TestMarketMachine = MarketMachine.TestCase
