"""Tests for the DEC scheme facade: withdraw / deposit / double spend."""

from __future__ import annotations

import random

import pytest

from repro.ecash.dec import (
    DECBank,
    DoubleSpendError,
    begin_withdrawal,
    finish_withdrawal,
    setup,
)
from repro.crypto.pairing import ToyPairing
from repro.ecash.spend import DECParams, create_spend
from repro.ecash.tree import NodeId


def withdraw(params, bank, rng, aid="jo"):
    secret, request = begin_withdrawal(params, rng)
    signature = bank.issue(aid, request)
    return finish_withdrawal(params, bank.public_key, secret, signature)


@pytest.fixture()
def bank(dec_params, rng):
    b = DECBank.create(dec_params, rng)
    b.open_account("jo", 100)
    b.open_account("sp", 0)
    return b


class TestSetup:
    def test_levels_and_backend(self, dec_params):
        assert dec_params.tree_level == 3
        assert dec_params.tower.depth >= 3
        assert dec_params.backend.order == dec_params.tower.group(0).q

    def test_a_backend_of_another_order_is_refused(self, dec_params):
        """The coin secret is one exponent in both groups: a pairing
        group of any order but storey 0's prime is refused."""
        tower = dec_params.tower
        with pytest.raises(ValueError, match="storey 0"):
            DECParams(tower=tower, backend=ToyPairing(tower.group(1)), tree_level=3)

    def test_setup_online_chain_search(self):
        rng = random.Random(5)
        params = setup(1, rng, use_known_chain=False, chain_bits=12)
        assert params.tower.verify()

    def test_toy_backend_setup(self, dec_params_toy):
        assert dec_params_toy.tree_level == 4
        assert dec_params_toy.backend.name == "toy"


class TestAccounts:
    def test_open_and_balance(self, bank):
        assert bank.balance("jo") == 100
        with pytest.raises(ValueError):
            bank.open_account("jo")

    def test_unknown_account(self, bank):
        with pytest.raises(KeyError):
            bank.balance("ghost")


class TestWithdrawal:
    def test_debits_account(self, dec_params, bank, rng):
        withdraw(dec_params, bank, rng)
        assert bank.balance("jo") == 100 - (1 << dec_params.tree_level)
        assert bank.withdrawals == ["jo"]

    def test_insufficient_funds(self, dec_params, bank, rng):
        with pytest.raises(ValueError):
            secret, request = begin_withdrawal(dec_params, rng)
            bank.issue("sp", request)  # sp has balance 0

    def test_coin_is_certified(self, dec_params, bank, rng):
        coin = withdraw(dec_params, bank, rng)
        from repro.crypto.cl_sig import cl_verify

        assert cl_verify(dec_params.backend, bank.public_key, coin.secret, coin.signature)

    def test_secret_in_range(self, dec_params, bank, rng):
        coin = withdraw(dec_params, bank, rng)
        assert 0 < coin.secret < dec_params.secret_bound()

    def test_wallet_has_full_value(self, dec_params, bank, rng):
        coin = withdraw(dec_params, bank, rng)
        assert coin.wallet().balance == 1 << dec_params.tree_level


class TestDeposit:
    def test_credits_account(self, dec_params, bank, rng):
        coin = withdraw(dec_params, bank, rng)
        token = create_spend(
            dec_params, bank.public_key, coin.secret, coin.signature, NodeId(1, 0), rng
        )
        amount = bank.deposit("sp", token)
        assert amount == 4 and bank.balance("sp") == 4

    def test_rejects_unknown_account(self, dec_params, bank, rng):
        coin = withdraw(dec_params, bank, rng)
        token = create_spend(
            dec_params, bank.public_key, coin.secret, coin.signature, NodeId(0, 0), rng
        )
        with pytest.raises(ValueError):
            bank.deposit("ghost", token)

    def test_rejects_invalid_token(self, dec_params, bank, rng):
        import dataclasses

        coin = withdraw(dec_params, bank, rng)
        token = create_spend(
            dec_params, bank.public_key, coin.secret, coin.signature, NodeId(0, 0), rng
        )
        grp = dec_params.tower.group(0)
        bad = dataclasses.replace(token, node_key=grp.exp(token.node_key, 2))
        with pytest.raises(ValueError):
            bank.deposit("sp", bad)
        assert bank.balance("sp") == 0

    def test_context_mismatch_rejected(self, dec_params, bank, rng):
        coin = withdraw(dec_params, bank, rng)
        token = create_spend(
            dec_params, bank.public_key, coin.secret, coin.signature, NodeId(0, 0), rng,
            context=b"payment-xyz",
        )
        with pytest.raises(ValueError):
            bank.deposit("sp", token)  # bank checks default empty context
        assert bank.deposit("sp", token, context=b"payment-xyz") == 8


class TestDoubleSpendDetection:
    @pytest.fixture()
    def coin(self, dec_params, bank, rng):
        return withdraw(dec_params, bank, rng)

    def _spend(self, dec_params, bank, coin, node, rng):
        return create_spend(
            dec_params, bank.public_key, coin.secret, coin.signature, node, rng
        )

    def test_same_node_twice(self, dec_params, bank, coin, rng):
        t1 = self._spend(dec_params, bank, coin, NodeId(2, 1), rng)
        t2 = self._spend(dec_params, bank, coin, NodeId(2, 1), rng)
        bank.deposit("sp", t1)
        with pytest.raises(DoubleSpendError):
            bank.deposit("sp", t2)

    def test_ancestor_after_descendant(self, dec_params, bank, coin, rng):
        leaf = self._spend(dec_params, bank, coin, NodeId(3, 4), rng)
        parent = self._spend(dec_params, bank, coin, NodeId(1, 1), rng)
        bank.deposit("sp", leaf)
        with pytest.raises(DoubleSpendError):
            bank.deposit("sp", parent)

    def test_descendant_after_ancestor(self, dec_params, bank, coin, rng):
        parent = self._spend(dec_params, bank, coin, NodeId(1, 0), rng)
        leaf = self._spend(dec_params, bank, coin, NodeId(3, 1), rng)
        bank.deposit("sp", parent)
        with pytest.raises(DoubleSpendError):
            bank.deposit("sp", leaf)

    def test_root_blocks_everything(self, dec_params, bank, coin, rng):
        root = self._spend(dec_params, bank, coin, NodeId(0, 0), rng)
        bank.deposit("sp", root)
        for node in (NodeId(1, 0), NodeId(2, 3), NodeId(3, 7)):
            token = self._spend(dec_params, bank, coin, node, rng)
            with pytest.raises(DoubleSpendError):
                bank.deposit("sp", token)

    def test_disjoint_nodes_fine(self, dec_params, bank, coin, rng):
        bank.deposit("sp", self._spend(dec_params, bank, coin, NodeId(1, 0), rng))
        bank.deposit("sp", self._spend(dec_params, bank, coin, NodeId(2, 2), rng))
        bank.deposit("sp", self._spend(dec_params, bank, coin, NodeId(3, 6), rng))
        assert bank.balance("sp") == 4 + 2 + 1

    def test_detection_across_accounts(self, dec_params, bank, coin, rng):
        """A JO paying the same node to two SPs is caught at the bank."""
        bank.open_account("sp2", 0)
        t1 = self._spend(dec_params, bank, coin, NodeId(2, 0), rng)
        t2 = self._spend(dec_params, bank, coin, NodeId(2, 0), rng)
        bank.deposit("sp", t1)
        with pytest.raises(DoubleSpendError):
            bank.deposit("sp2", t2)

    def test_failed_deposit_leaves_no_state(self, dec_params, bank, coin, rng):
        t1 = self._spend(dec_params, bank, coin, NodeId(3, 0), rng)
        t_anc = self._spend(dec_params, bank, coin, NodeId(2, 0), rng)
        t_sib = self._spend(dec_params, bank, coin, NodeId(3, 1), rng)
        bank.deposit("sp", t1)
        with pytest.raises(DoubleSpendError):
            bank.deposit("sp", t_anc)
        # the sibling (disjoint from t1, overlapping the failed t_anc)
        # must still deposit: the failed deposit recorded nothing
        assert bank.deposit("sp", t_sib) == 1

    def test_two_different_coins_never_collide(self, dec_params, bank, rng):
        coin1 = withdraw(dec_params, bank, rng)
        coin2 = withdraw(dec_params, bank, rng)
        t1 = self._spend(dec_params, bank, coin1, NodeId(0, 0), rng)
        t2 = self._spend(dec_params, bank, coin2, NodeId(0, 0), rng)
        bank.deposit("sp", t1)
        bank.deposit("sp", t2)
        assert bank.balance("sp") == 16


class TestConservation:
    def test_money_conserved_end_to_end(self, dec_params, bank, rng):
        """Withdrawn value == deposited value + value left in the wallet."""
        coin = withdraw(dec_params, bank, rng)
        wallet = coin.wallet()
        deposited = 0
        for denom in (4, 2, 1):
            node = wallet.allocate(denom)
            token = create_spend(
                dec_params, bank.public_key, coin.secret, coin.signature, node, rng
            )
            deposited += bank.deposit("sp", token)
        assert deposited == 7
        assert wallet.balance == 1
        assert bank.balance("jo") + bank.balance("sp") + wallet.balance == 100


class TestDoubleSpendEvidence:
    def test_evidence_attached(self, dec_params, bank, rng):
        from repro.ecash.dec import DoubleSpendEvidence

        coin = withdraw(dec_params, bank, rng)
        t1 = create_spend(dec_params, bank.public_key, coin.secret, coin.signature,
                          NodeId(2, 0), rng)
        t2 = create_spend(dec_params, bank.public_key, coin.secret, coin.signature,
                          NodeId(3, 1), rng)  # descendant of (2, 0)
        bank.deposit("sp", t1)
        with pytest.raises(DoubleSpendError) as excinfo:
            bank.deposit("sp", t2)
        evidence = excinfo.value.evidence
        assert isinstance(evidence, DoubleSpendEvidence)
        assert evidence.prior == ("sp", 2, 0)
        assert evidence.offending_node == ("sp", 3, 1)
        # the colliding serial really is under both nodes
        from repro.ecash.tree import leaf_serials, node_key

        prior_serials = leaf_serials(
            dec_params.tower, NodeId(2, 0),
            node_key(dec_params.tower, coin.secret, NodeId(2, 0)),
            dec_params.tree_level,
        )
        assert evidence.serial in prior_serials
