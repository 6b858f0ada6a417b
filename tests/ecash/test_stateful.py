"""Model-based (stateful) property tests for wallet and bank invariants.

Hypothesis drives random operation sequences against the real
implementations while a simple reference model tracks what *must* be
true; any divergence is a shrunk, replayable counterexample.  These
catch interaction bugs that example-based tests structurally miss
(allocate/release interleavings, deposit orderings across accounts).
"""

from __future__ import annotations

import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.ecash.tree import CoinTree, NodeId
from repro.ecash.wallet import InsufficientFunds, Wallet

LEVEL = 4


class WalletMachine(RuleBasedStateMachine):
    """The wallet against a leaf-interval reference model.

    Model: the set of level-``LEVEL`` leaf indices covered by spent
    nodes.  Invariants: spent nodes never conflict; spent value equals
    covered-leaf count; balance is the complement.
    """

    def __init__(self):
        super().__init__()
        self.wallet = Wallet(tree=CoinTree(LEVEL), secret=1)
        self.covered: set[int] = set()
        self.live_nodes: list[NodeId] = []

    @rule(denom_exp=st.integers(min_value=0, max_value=LEVEL))
    def allocate(self, denom_exp):
        denom = 1 << denom_exp
        try:
            node = self.wallet.allocate(denom)
        except InsufficientFunds:
            # the model must agree there is no free aligned run this size
            width = denom
            free = [
                i for i in range(self.wallet.total_value) if i not in self.covered
            ]
            runs = any(
                all((start + k) in free for k in range(width))
                for start in range(0, self.wallet.total_value, width)
            )
            assert not runs, f"wallet refused denom {denom} despite a free run"
            return
        span = set(node.leaf_span(LEVEL))
        assert span.isdisjoint(self.covered), "allocated node overlaps spent leaves"
        self.covered |= span
        self.live_nodes.append(node)

    @precondition(lambda self: self.live_nodes)
    @rule(data=st.data())
    def release(self, data):
        idx = data.draw(st.integers(min_value=0, max_value=len(self.live_nodes) - 1))
        node = self.live_nodes.pop(idx)
        self.wallet.release(node)
        self.covered -= set(node.leaf_span(LEVEL))

    @invariant()
    def value_matches_model(self):
        assert self.wallet.spent_value == len(self.covered)
        assert self.wallet.balance == self.wallet.total_value - len(self.covered)

    @invariant()
    def no_conflicts_among_spent(self):
        spent = sorted(self.wallet.spent)
        for i, a in enumerate(spent):
            for b in spent[i + 1 :]:
                assert not a.conflicts_with(b)


WalletMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestWalletMachine = WalletMachine.TestCase


class BankSerialMachine(RuleBasedStateMachine):
    """The bank's double-spend bookkeeping against an interval model.

    Uses the toy-backend DEC instance (fast) shared across examples via
    lazy class-level setup.  The model tracks which leaf intervals of
    which coin have been deposited; the bank must accept exactly the
    non-overlapping deposits and reject the rest — regardless of order
    or account.
    """

    _params = None
    _bank_seed = 0

    def __init__(self):
        super().__init__()
        from repro.ecash.dec import DECBank, begin_withdrawal, finish_withdrawal, setup

        cls = type(self)
        if cls._params is None:
            cls._params = setup(
                3, random.Random(0xABCD), real_pairing=False, edge_rounds=4,
            )
        self.params = cls._params
        rng = random.Random(1000 + cls._bank_seed)
        cls._bank_seed += 1
        self.rng = rng
        self.bank = DECBank.create(self.params, rng)
        self.bank.open_account("jo", 1 << (self.params.tree_level + 2))
        self.bank.open_account("sp0", 0)
        self.bank.open_account("sp1", 0)
        self.coins = []
        for _ in range(2):
            secret, request = begin_withdrawal(self.params, rng)
            sig = self.bank.issue("jo", request)
            self.coins.append(finish_withdrawal(self.params, self.bank.public_key, secret, sig))
        # model: per coin, set of deposited leaf indices
        self.deposited: list[set[int]] = [set(), set()]
        self.credited = 0

    @rule(
        coin_idx=st.integers(min_value=0, max_value=1),
        level=st.integers(min_value=0, max_value=3),
        index=st.integers(min_value=0, max_value=7),
        account=st.sampled_from(["sp0", "sp1"]),
    )
    def deposit(self, coin_idx, level, index, account):
        from repro.ecash.dec import DoubleSpendError
        from repro.ecash.spend import create_spend

        node = NodeId(level, index % (1 << level))
        coin = self.coins[coin_idx]
        token = create_spend(
            self.params, self.bank.public_key, coin.secret, coin.signature, node, self.rng
        )
        span = set(node.leaf_span(self.params.tree_level))
        expect_conflict = bool(span & self.deposited[coin_idx])
        try:
            amount = self.bank.deposit(account, token)
        except DoubleSpendError:
            assert expect_conflict, (
                f"bank rejected a non-overlapping deposit: coin {coin_idx} node {node}"
            )
            return
        assert not expect_conflict, (
            f"bank accepted an overlapping deposit: coin {coin_idx} node {node}"
        )
        assert amount == len(span)
        self.deposited[coin_idx] |= span
        self.credited += amount

    @invariant()
    def credits_match_model(self):
        total = self.bank.accounts["sp0"] + self.bank.accounts["sp1"]
        assert total == self.credited == sum(len(s) for s in self.deposited)

    @invariant()
    def never_overspent(self):
        for covered in self.deposited:
            assert len(covered) <= 1 << self.params.tree_level


BankSerialMachine.TestCase.settings = settings(
    max_examples=8, stateful_step_count=12, deadline=None
)
TestBankSerialMachine = BankSerialMachine.TestCase
