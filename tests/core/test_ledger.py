"""Tests for bank snapshot/restore and the book audit."""

from __future__ import annotations

import pytest

from repro.core.ledger import SnapshotError, audit_bank, restore_bank, snapshot_bank
from repro.ecash.dec import DECBank, DoubleSpendError, begin_withdrawal, finish_withdrawal
from repro.ecash.spend import create_spend
from repro.ecash.tree import NodeId


@pytest.fixture()
def populated_bank(dec_params, rng):
    """A bank with activity: accounts, a withdrawal, two deposits."""
    bank = DECBank.create(dec_params, rng)
    bank.open_account("jo", 100)
    bank.open_account("sp", 0)
    secret, request = begin_withdrawal(dec_params, rng)
    signature = bank.issue("jo", request)
    coin = finish_withdrawal(dec_params, bank.public_key, secret, signature)
    for node in (NodeId(1, 0), NodeId(2, 2)):
        token = create_spend(dec_params, bank.public_key, coin.secret, coin.signature,
                             node, rng)
        bank.deposit("sp", token)
    return bank, coin


class TestSnapshotRestore:
    def test_roundtrip_preserves_books(self, dec_params, populated_bank, rng):
        bank, _ = populated_bank
        blob = snapshot_bank(bank)
        fresh = DECBank.create(dec_params, rng)
        fresh.keypair = bank.keypair  # same cryptographic identity
        restore_bank(fresh, blob)
        assert fresh.accounts == bank.accounts
        assert fresh.withdrawals == bank.withdrawals
        assert fresh._seen_serials == bank._seen_serials

    def test_restored_bank_still_blocks_double_spend(self, dec_params, populated_bank, rng):
        """The security-critical property of persistence."""
        bank, coin = populated_bank
        blob = snapshot_bank(bank)
        fresh = DECBank.create(dec_params, rng)
        fresh.keypair = bank.keypair
        restore_bank(fresh, blob)
        replay = create_spend(dec_params, bank.public_key, coin.secret, coin.signature,
                              NodeId(1, 0), rng)
        with pytest.raises(DoubleSpendError):
            fresh.deposit("sp", replay)

    def test_restored_bank_accepts_fresh_spend(self, dec_params, populated_bank, rng):
        bank, coin = populated_bank
        fresh = DECBank.create(dec_params, rng)
        fresh.keypair = bank.keypair
        restore_bank(fresh, snapshot_bank(bank))
        token = create_spend(dec_params, bank.public_key, coin.secret, coin.signature,
                             NodeId(3, 7), rng)
        assert fresh.deposit("sp", token) == 1

    def test_bad_magic_rejected(self, dec_params, populated_bank, rng):
        bank, _ = populated_bank
        fresh = DECBank.create(dec_params, rng)
        with pytest.raises(SnapshotError, match="magic"):
            restore_bank(fresh, b"garbage" + snapshot_bank(bank))

    def test_corruption_rejected(self, dec_params, populated_bank, rng):
        bank, _ = populated_bank
        blob = bytearray(snapshot_bank(bank))
        blob[-1] ^= 0x01
        fresh = DECBank.create(dec_params, rng)
        with pytest.raises(SnapshotError, match="digest"):
            restore_bank(fresh, bytes(blob))

    def test_level_mismatch_rejected(self, populated_bank, rng):
        bank, _ = populated_bank
        blob = snapshot_bank(bank)
        from repro.ecash.dec import setup

        other_params = setup(2, rng, real_pairing=False, edge_rounds=4)
        other = DECBank.create(other_params, rng)
        with pytest.raises(SnapshotError, match="tree level"):
            restore_bank(other, blob)


class TestAudit:
    def test_clean_books(self, populated_bank, dec_params):
        bank, coin = populated_bank
        # float: withdrawn 8, deposited 4 + 2 => 2 remains in the wallet
        report = audit_bank(bank, outstanding_float=2)
        assert report.clean, report.findings

    def test_detects_negative_balance(self, populated_bank):
        bank, _ = populated_bank
        bank.accounts["sp"] = -1
        report = audit_bank(bank)
        assert any("negative" in f for f in report.findings)

    def test_detects_conservation_violation(self, populated_bank):
        bank, _ = populated_bank
        report = audit_bank(bank, outstanding_float=999)
        assert any("conservation" in f for f in report.findings)

    def test_detects_orphan_withdrawal(self, populated_bank):
        bank, _ = populated_bank
        bank.withdrawals.append("ghost")
        report = audit_bank(bank)
        assert any("unknown account" in f for f in report.findings)

    def test_detects_serial_record_inconsistency(self, populated_bank):
        bank, _ = populated_bank
        # drop one serial of a multi-serial deposit record
        serial = next(
            s for s, rec in bank._seen_serials.items() if rec[1] == 1
        )
        del bank._seen_serials[serial]
        report = audit_bank(bank)
        assert any("covers" in f for f in report.findings)
