"""Tests for PBS bank persistence and audit."""

from __future__ import annotations

import pytest

from repro.core.pbs_ledger import (
    PbsSnapshotError,
    VirtualBankPbs,
    audit_pbs_bank,
    restore_pbs_bank,
    snapshot_pbs_bank,
)
from repro.core.pbs_machine import PPMSpbsSession


@pytest.fixture()
def populated(rng):
    session = PPMSpbsSession(rng, rsa_bits=512)
    jo = session.new_job_owner(funds=3)
    sps = [session.new_participant() for _ in range(2)]
    session.run_job(jo, sps)
    return session, jo, sps


class TestSnapshotRestore:
    def test_roundtrip(self, populated):
        session, jo, sps = populated
        blob = snapshot_pbs_bank(session.ma.bank)
        fresh = VirtualBankPbs()
        restore_pbs_bank(fresh, blob)
        assert fresh.accounts == session.ma.bank.accounts
        assert fresh.spent_serials == session.ma.bank.spent_serials
        assert fresh.transaction_log == session.ma.bank.transaction_log
        assert fresh.bound_keys == session.ma.bank.bound_keys

    def test_restored_bank_blocks_replay(self, populated, rng):
        """The serial store must survive the restart."""
        session, jo, sps = populated
        # capture a deposited coin's parameters before restart
        sp = sps[0]
        (receipt,) = sp.receipts
        fresh = VirtualBankPbs()
        restore_pbs_bank(fresh, snapshot_pbs_bank(session.ma.bank))
        session.ma.bank = fresh
        with pytest.raises(ValueError, match="double deposit|serial"):
            session.ma.handle_deposit(
                receipt.signature, (sp.account_pub.n, sp.account_pub.e),
                receipt.jo_account_key,
            )

    def test_bad_magic(self, populated):
        session, *_ = populated
        with pytest.raises(PbsSnapshotError, match="magic"):
            restore_pbs_bank(VirtualBankPbs(), b"xx" + snapshot_pbs_bank(session.ma.bank))

    def test_corruption(self, populated):
        session, *_ = populated
        blob = bytearray(snapshot_pbs_bank(session.ma.bank))
        blob[-1] ^= 1
        with pytest.raises(PbsSnapshotError, match="digest"):
            restore_pbs_bank(VirtualBankPbs(), bytes(blob))


class TestAudit:
    def test_clean_books(self, populated):
        session, *_ = populated
        report = audit_pbs_bank(session.ma.bank)
        assert report.clean, report.findings

    def test_detects_negative_balance(self, populated):
        session, jo, _ = populated
        session.ma.bank.accounts[jo.account_pub.fingerprint()] = -2
        assert any("negative" in f for f in audit_pbs_bank(session.ma.bank).findings)

    def test_detects_unbound_account(self, populated):
        session, *_ = populated
        session.ma.bank.accounts[b"\x01" * 16] = 0
        assert any("bound key" in f for f in audit_pbs_bank(session.ma.bank).findings)

    def test_detects_serial_transaction_mismatch(self, populated):
        session, *_ = populated
        session.ma.bank.spent_serials.add((b"\x02" * 16, b"rogue"))
        assert any("1:1" in f for f in audit_pbs_bank(session.ma.bank).findings)

    def test_detects_unknown_transaction_party(self, populated):
        session, *_ = populated
        session.ma.bank.transaction_log.append((b"\x03" * 16, b"\x04" * 16))
        findings = audit_pbs_bank(session.ma.bank).findings
        assert any("unknown account" in f for f in findings)
