"""The PPMSpbs bank, its persistence and its audit.

The unitary-market bank (:class:`VirtualBankPbs`) carries different
books than the DEC bank: balances keyed by real-key fingerprints, the
spent-serial set (per-JO freshness), and the transaction log the
mechanism deliberately exposes.  Same persistence contract as
:mod:`repro.core.ledger`: codec body + integrity digest, books-only
restore, and a findings-style audit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto import rsa
from repro.crypto.partial_blind import PartialBlindSignature, verify_partial_blind
from repro.net.codec import seal, unseal

__all__ = [
    "DoubleDepositError",
    "VirtualBankPbs",
    "PbsSnapshotError",
    "snapshot_pbs_bank",
    "restore_pbs_bank",
    "audit_pbs_bank",
    "PbsAuditReport",
]

_MAGIC = b"repro-pbs-bank-snapshot-v1"


class DoubleDepositError(ValueError):
    """The coin's serial was already deposited."""


@dataclass
class VirtualBankPbs:
    """Account ledger keyed by the residents' *real* RSA public keys.

    The bank knows real identities (accounts require authentic identity
    information, Section III-A); the fingerprint of the bound RSA key
    doubles as the account id.
    """

    accounts: dict[bytes, int] = field(default_factory=dict)
    bound_keys: dict[bytes, tuple[int, int]] = field(default_factory=dict)
    spent_serials: set[tuple[bytes, bytes]] = field(default_factory=set)
    transaction_log: list[tuple[bytes, bytes]] = field(default_factory=list)

    def open_account(self, pubkey: rsa.RSAPublicKey, initial_balance: int = 0) -> bytes:
        aid = pubkey.fingerprint()
        if aid in self.accounts:
            raise ValueError("account already exists for this key")
        self.accounts[aid] = initial_balance
        self.bound_keys[aid] = (pubkey.n, pubkey.e)
        return aid

    def balance(self, aid: bytes) -> int:
        return self.accounts[aid]

    def _check_transfer(self, payer: bytes, payee: bytes) -> None:
        if self.accounts.get(payer, 0) < 1:
            raise ValueError("payer cannot cover a unitary payment")
        if payee not in self.accounts:
            raise ValueError("unknown payee account")

    def transfer_unit(self, payer: bytes, payee: bytes) -> None:
        self._check_transfer(payer, payee)
        self.accounts[payer] -= 1
        self.accounts[payee] += 1
        self.transaction_log.append((payer, payee))

    def check_deposit(
        self,
        signature: PartialBlindSignature,
        sp_key: tuple[int, int],
        jo_key: tuple[int, int],
    ) -> tuple[bytes, bytes]:
        """The pure half of a deposit: verify the coin, check its serial
        is fresh and that the unit can move.

        Returns the ``(payer, payee)`` account ids for
        :meth:`apply_deposit`.  Raises :class:`ValueError` on a bad
        signature or books that cannot move the unit, and
        :class:`DoubleDepositError` on a replayed serial.  Nothing is
        mutated, so a journaled endpoint can check → journal → apply.
        """
        jo_pub = rsa.RSAPublicKey(*jo_key)
        payer, payee = jo_pub.fingerprint(), rsa.RSAPublicKey(*sp_key).fingerprint()
        if not verify_partial_blind(jo_pub, payee, signature):
            raise ValueError("invalid partially blind signature at deposit")
        if (payer, signature.common_info) in self.spent_serials:
            raise DoubleDepositError("serial already deposited (double deposit)")
        self._check_transfer(payer, payee)
        return payer, payee

    def apply_deposit(self, payer: bytes, payee: bytes, serial: bytes) -> None:
        """Move the unit and burn the serial of a checked deposit."""
        self.transfer_unit(payer, payee)
        self.spent_serials.add((payer, serial))


class PbsSnapshotError(Exception):
    """Snapshot blob rejected (corruption, version)."""


def snapshot_pbs_bank(bank: VirtualBankPbs) -> bytes:
    """Serialize the PBS bank's books to bytes."""
    state = {
        "accounts": {aid.hex(): bal for aid, bal in bank.accounts.items()},
        "bound_keys": {aid.hex(): list(key) for aid, key in bank.bound_keys.items()},
        "spent_serials": sorted(
            [jo.hex(), serial] for (jo, serial) in bank.spent_serials
        ),
        "transactions": [[payer.hex(), payee.hex()] for payer, payee in bank.transaction_log],
    }
    return seal(_MAGIC, state)


def restore_pbs_bank(bank: VirtualBankPbs, blob: bytes) -> None:
    """Load a snapshot into *bank*, replacing its books."""
    state = unseal(_MAGIC, blob, "PBS bank snapshot", PbsSnapshotError)
    bank.accounts.clear()
    bank.accounts.update({bytes.fromhex(a): b for a, b in state["accounts"].items()})
    bank.bound_keys.clear()
    bank.bound_keys.update(
        {bytes.fromhex(a): tuple(k) for a, k in state["bound_keys"].items()}
    )
    bank.spent_serials.clear()
    bank.spent_serials.update(
        (bytes.fromhex(jo), serial) for jo, serial in state["spent_serials"]
    )
    bank.transaction_log[:] = [
        (bytes.fromhex(payer), bytes.fromhex(payee))
        for payer, payee in state["transactions"]
    ]


@dataclass(frozen=True)
class PbsAuditReport:
    """Outcome of a PBS-bank book audit."""

    findings: tuple[str, ...]

    @property
    def clean(self) -> bool:
        return not self.findings


def audit_pbs_bank(bank: VirtualBankPbs) -> PbsAuditReport:
    """Consistency-check the PBS bank's books.

    Checks: no negative balances, every account has a bound key, every
    transaction-log party is a known account, and the number of
    transactions matches the number of spent serials (every unitary
    transfer consumed exactly one serial).
    """
    findings: list[str] = []
    for aid, balance in bank.accounts.items():
        if balance < 0:
            findings.append(f"negative balance on account {aid.hex()}")
        if aid not in bank.bound_keys:
            findings.append(f"account {aid.hex()} has no bound key")
    for payer, payee in bank.transaction_log:
        for party in (payer, payee):
            if party not in bank.accounts:
                findings.append(f"transaction references unknown account {party.hex()}")
    if len(bank.transaction_log) != len(bank.spent_serials):
        findings.append(
            f"{len(bank.transaction_log)} transactions vs "
            f"{len(bank.spent_serials)} spent serials (must match 1:1)"
        )
    return PbsAuditReport(findings=tuple(findings))
