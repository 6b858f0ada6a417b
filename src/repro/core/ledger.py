"""Bank-state persistence: snapshot, restore, audit.

A market administrator restarts; its books must survive.  The bank's
security-critical state is exactly three structures — account balances,
the withdrawal ledger, and the deposited-serial store (losing the
serial store would reopen every double-spend) — so snapshots serialize
precisely those through the canonical codec, with an integrity digest
over the encoding.

:func:`audit_bank` additionally checks the books *make sense*: no
negative balances, conservation between issued value and
(deposits + outstanding float), and serial-store/record consistency.
It returns findings rather than raising, so operators can inspect a
restored snapshot before going live.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ecash.dec import DECBank
from repro.net.codec import seal, unseal

__all__ = ["SnapshotError", "snapshot_bank", "restore_bank", "audit_bank", "AuditReport"]

_MAGIC = b"repro-bank-snapshot-v1"


class SnapshotError(Exception):
    """Snapshot blob rejected (corruption, version, digest mismatch)."""


def snapshot_bank(bank: DECBank) -> bytes:
    """Serialize the bank's security-critical state to bytes."""
    state = {
        "accounts": dict(bank.accounts),
        "withdrawals": list(bank.withdrawals),
        "serials": [
            # serial -> (aid, node level, node index, deposit seq)
            [serial, record[0], record[1], record[2], record[3]]
            for serial, record in sorted(bank._seen_serials.items())
        ],
        "deposit_seq": bank.deposit_seq,
        "tree_level": bank.params.tree_level,
    }
    return seal(_MAGIC, state)


def restore_bank(bank: DECBank, blob: bytes) -> None:
    """Load a snapshot into *bank* (parameters/keys must already match).

    The bank's cryptographic identity (CL keypair, DEC parameters) is
    not part of the snapshot — restoring onto a bank with a different
    key would silently orphan all outstanding coins, so callers manage
    keys separately and this function only restores the books.
    """
    state = unseal(_MAGIC, blob, "bank snapshot", SnapshotError)
    if state.get("tree_level") != bank.params.tree_level:
        raise SnapshotError(
            f"snapshot tree level {state.get('tree_level')} does not match "
            f"bank parameters (level {bank.params.tree_level})"
        )
    bank.accounts.clear()
    bank.accounts.update(state["accounts"])
    bank.withdrawals[:] = list(state["withdrawals"])
    bank._seen_serials.clear()
    for serial, aid, level, index, seq in state["serials"]:
        bank._seen_serials[serial] = (aid, level, index, seq)
    bank.deposit_seq = state.get("deposit_seq", len(state["serials"]))


@dataclass(frozen=True)
class AuditReport:
    """Outcome of a bank-book audit."""

    findings: tuple[str, ...]

    @property
    def clean(self) -> bool:
        return not self.findings


def audit_bank(bank: DECBank, *, outstanding_float: int | None = None,
               allow_foreign_value: bool = False) -> AuditReport:
    """Consistency-check the bank's books.

    *outstanding_float* is the total coin value known to still live in
    wallets outside the bank; when provided, exact conservation is
    checked (issued value == deposited value + float).

    *allow_foreign_value* skips the "deposited exceeds issued" check:
    on one slice of a cluster, coins withdrawn elsewhere legitimately
    arrive as deposits, so that inequality only holds globally — the
    cluster sweep re-checks it across all slices.
    """
    findings: list[str] = []
    coin_value = 1 << bank.params.tree_level

    for aid, balance in bank.accounts.items():
        if balance < 0:
            findings.append(f"negative balance on account {aid!r}: {balance}")

    for aid in bank.withdrawals:
        if aid not in bank.accounts:
            findings.append(f"withdrawal recorded for unknown account {aid!r}")

    deposited_value = 0
    per_record_serials: dict[tuple, int] = {}
    for serial, record in bank._seen_serials.items():
        aid, level, index, _seq = record
        if aid not in bank.accounts:
            findings.append(f"deposited serial credited to unknown account {aid!r}")
        per_record_serials[record] = per_record_serials.get(record, 0) + 1
    for (aid, level, index, _seq), count in per_record_serials.items():
        expected = 1 << (bank.params.tree_level - level)
        if count != expected:
            findings.append(
                f"deposit record ({aid!r}, node L{level}#{index}) covers "
                f"{count} serials, expected {expected}"
            )
        deposited_value += 1 << (bank.params.tree_level - level)

    issued_value = coin_value * len(bank.withdrawals)
    if deposited_value > issued_value and not allow_foreign_value:
        findings.append(
            f"deposited value {deposited_value} exceeds issued value {issued_value}"
        )
    if outstanding_float is not None:
        if issued_value != deposited_value + outstanding_float:
            findings.append(
                f"conservation violated: issued {issued_value} != deposited "
                f"{deposited_value} + float {outstanding_float}"
            )
    return AuditReport(findings=tuple(findings))
