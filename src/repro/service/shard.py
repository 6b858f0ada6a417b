"""The market administrator's bank state: one DEC book, one PPMSpbs book.

The MA "also runs the virtual bank" — one bank.  :class:`ShardedBank`
holds one :class:`~repro.ecash.dec.DECBank` (:attr:`ShardedBank.book`:
accounts, the withdrawal ledger and the deposited-serial store) and,
beside it, the PPMSpbs book — one
:class:`~repro.core.pbs_ledger.VirtualBankPbs` (:attr:`ShardedBank.pbs`).
Every mutation is journaled before either book changes, and the
double-spend rule is the book's own (:meth:`DECBank.conflict
<repro.ecash.dec.DECBank.conflict>` and :meth:`~repro.ecash.dec.DECBank
.commit`), so a live deposit, a replayed one and a library deposit are
one code path.

Persistence reuses :mod:`repro.core.ledger` and
:mod:`repro.core.pbs_ledger` verbatim: a checkpoint is exactly two
blobs, ``(book blob, pbs blob)``, each with its own integrity digest
and each cached while its book is clean.  A cluster scales by slice,
one node — one bank — per slice (:mod:`repro.cluster`).

The class keeps its name, and ``__init__`` an ``n_shards`` keyword it
ignores, for ``benchmarks/e2e/serve.py`` (which this tree may not edit);
the benchmark PR that switches that caller renames the class and drops
the keyword.
"""

from __future__ import annotations

import random
from typing import Sequence

import repro.obs as obs
from repro.core.ledger import (
    AuditReport,
    SnapshotError,
    audit_bank,
    restore_bank,
    snapshot_bank,
)
from repro.core.pbs_ledger import (
    VirtualBankPbs,
    audit_pbs_bank,
    restore_pbs_bank,
    snapshot_pbs_bank,
)
from repro.crypto import rsa
from repro.crypto.cl_sig import CLKeyPair, CLPublicKey
from repro.ecash.dec import DECBank
from repro.ecash.spend import DECParams, SpendToken
from repro.ecash.tree import leaf_serials
from repro.service.journal import Checkpoint, Journal, JournalError, JournalRecord

__all__ = ["ShardedBank"]


class ShardedBank:
    """The MA's one bank: a journaled :class:`DECBank` plus the PPMSpbs book.

    Mutations are plain dict operations; the expensive verification
    work happens upstream in :mod:`repro.service.batcher`, so the apply
    path here is safe to run serially under the server loop (which is
    what makes "zero double-deposits admitted" a structural guarantee
    rather than a race to win).
    """

    def __init__(
        self,
        params: DECParams,
        keypair: CLKeyPair,
        rng: random.Random,
        *,
        journal: Journal | None = None,
        telemetry: "obs.Telemetry | None" = None,
        n_shards: int | None = None,
    ) -> None:
        del n_shards  # ignored: see the module docstring
        self.params = params
        self.keypair = keypair
        #: the DEC book; its checkpoint blob is cached while it is clean
        #: (``None``: re-serialize at the next cut)
        self.book = DECBank(params=params, keypair=keypair, rng=rng)
        self._book_blob: bytes | None = None
        #: write-ahead journal; every mutation appends its redo record
        #: here *before* the books change (None = journaling off)
        self.journal = journal
        #: the PPMSpbs book, cached the same way
        self.pbs = VirtualBankPbs()
        self._pbs_blob: bytes | None = None
        self._bind_obs(telemetry)

    def _bind_obs(self, telemetry: "obs.Telemetry | None") -> None:
        self.obs = telemetry if telemetry is not None else obs.get_default()
        self._m_replayed = self.obs.registry.counter(
            "repro_recovery_replayed_total",
            "journal apply records replayed into recovered banks",
        )

    @classmethod
    def create(
        cls,
        params: DECParams,
        rng: random.Random,
        *,
        journal: Journal | None = None,
    ) -> "ShardedBank":
        from repro.crypto.cl_sig import cl_keygen

        return cls(params, cl_keygen(params.backend, rng), rng, journal=journal)

    def _journal_apply(self, rid: str, op: str, payload: dict) -> None:
        if self.journal is not None:
            self.journal.append("apply", rid, op, payload)

    @property
    def public_key(self) -> CLPublicKey:
        return self.keypair.public

    # -- accounts ----------------------------------------------------------
    def open_account(self, aid: str, initial_balance: int = 0, *, rid: str = "") -> None:
        if aid in self.book.accounts:
            raise ValueError(f"account {aid!r} already exists")
        with self.obs.tracer.span("shard_apply", kind="open-account"):
            self._journal_apply(rid, "open-account",
                                {"aid": aid, "balance": initial_balance})
            self._book_blob = None
            self.book.open_account(aid, initial_balance)

    def has_account(self, aid: str) -> bool:
        return aid in self.book.accounts

    def balance(self, aid: str) -> int:
        return self.book.accounts[aid]

    # -- withdraw ----------------------------------------------------------
    def apply_withdrawal(self, aid: str, *, rid: str = "", extra: dict | None = None) -> None:
        """Debit one coin of value ``2^L`` and record the withdrawal.

        The blind issuance itself (the crypto) happens in the batcher;
        this is the serial bookkeeping step.  Raises :class:`ValueError`
        when the account is unknown or underfunded — nothing is then
        recorded, and the caller must discard the issued signature.

        *extra* rides along in the journal record (the service passes
        the issued signature, so recovery can re-send the lost reply).
        """
        book = self.book
        value = 1 << self.params.tree_level
        if book.accounts.get(aid, 0) < value:
            raise ValueError(f"account {aid!r} cannot cover a coin of value {value}")
        payload = {"aid": aid, "value": value}
        if extra:
            payload.update(extra)
        with self.obs.tracer.span("shard_apply", kind="withdraw"):
            self._journal_apply(rid, "withdraw", payload)
            self._book_blob = None
            book.accounts[aid] -= value
            book.withdrawals.append(aid)

    # -- deposit -----------------------------------------------------------
    def expand_serials(self, token: SpendToken) -> list[int]:
        """Leaf serials covered by *token* (tower exponentiations)."""
        return leaf_serials(
            self.params.tower, token.node, token.node_key, self.params.tree_level
        )

    def apply_deposit(
        self, aid: str, token: SpendToken, serials: Sequence[int], *, rid: str = ""
    ) -> int:
        """Record a *verified* deposit; returns the credited amount.

        Checks for conflicts with :meth:`DECBank.conflict
        <repro.ecash.dec.DECBank.conflict>`, as :meth:`DECBank.deposit
        <repro.ecash.dec.DECBank.deposit>` does: on
        :class:`~repro.ecash.dec.DoubleSpendError` nothing is credited,
        no serial is recorded and nothing is journaled — the journal
        only ever holds mutations that the double-spend check admitted.
        """
        book = self.book
        if aid not in book.accounts:
            raise ValueError(f"unknown account {aid!r}")
        level, index = token.node.level, token.node.index
        with self.obs.tracer.span("shard_apply", kind="deposit", n=len(serials)):
            error = book.conflict(serials, (aid, level, index))
            if error is not None:
                raise error
            amount = token.denomination(self.params.tree_level)
            self._journal_apply(
                rid,
                "deposit",
                {
                    "aid": aid,
                    "level": level,
                    "index": index,
                    "serials": list(serials),
                    "amount": amount,
                },
            )
            self._book_blob = None
            book.commit(aid, level, index, serials, amount)
        return amount

    # -- the PPMSpbs book ----------------------------------------------------
    def pbs_open_account(self, key, balance: int, *, rid: str = "") -> None:
        """Open the unitary account bound to RSA *key* ``(n, e)``."""
        pub = rsa.RSAPublicKey(*key)
        if pub.fingerprint() in self.pbs.accounts:
            raise ValueError("account already exists for this key")
        with self.obs.tracer.span("shard_apply", kind="pbs-open-account"):
            self._journal_apply(rid, "pbs-open-account",
                                {"key": key, "balance": balance})
            self._pbs_blob = None
            self.pbs.open_account(pub, balance)

    def pbs_deposit(self, signature, sp_key, jo_key, *, rid: str = "") -> bytes:
        """Check, journal and apply one unitary coin; returns its serial.

        Raises :class:`~repro.core.pbs_ledger.DoubleDepositError` on a
        spent serial and :class:`ValueError` on a bad coin or books that
        cannot move the unit — nothing is then journaled.
        """
        payer, payee = self.pbs.check_deposit(signature, sp_key, jo_key)
        serial = signature.common_info
        with self.obs.tracer.span("shard_apply", kind="pbs-deposit"):
            self._journal_apply(rid, "pbs-deposit",
                                {"payer": payer, "payee": payee, "serial": serial})
            self._pbs_blob = None
            self.pbs.apply_deposit(payer, payee, serial)
        return serial

    # -- persistence (composed from core.ledger) ---------------------------
    def snapshot(self) -> bytes:
        """The DEC book's :func:`~repro.core.ledger.snapshot_bank` blob.

        Cached while the book is clean: a cut after reads only returns
        the previous blob byte for byte, which the segmented journal's
        content-addressed checkpoint store then skips re-writing.
        """
        if self._book_blob is None:
            self._book_blob = snapshot_bank(self.book)
        return self._book_blob

    def restore(self, blob: bytes) -> None:
        """Load the DEC book from a :meth:`snapshot` blob.

        A corrupt blob raises :class:`~repro.core.ledger.SnapshotError`
        and the books must then be treated as garbage: the blob, not
        this object, is the source of truth.
        """
        restore_bank(self.book, blob)
        self._book_blob = None

    # -- crash recovery (checkpoint + journal replay) ----------------------
    def checkpoint(self) -> Checkpoint:
        """``(book blob, pbs blob)`` stamped with the current journal position."""
        lsn = self.journal.last_lsn if self.journal is not None else -1
        if self._pbs_blob is None:
            self._pbs_blob = snapshot_pbs_bank(self.pbs)
        return Checkpoint(lsn=lsn, blobs=(self.snapshot(), self._pbs_blob))

    @classmethod
    def recover(
        cls,
        params: DECParams,
        keypair: CLKeyPair,
        rng: random.Random,
        journal: Journal,
        *,
        checkpoint: Checkpoint | None = None,
        telemetry: "obs.Telemetry | None" = None,
    ) -> "ShardedBank":
        """Rebuild the bank from a checkpoint plus the journal's tail.

        Restores the checkpoint's two blobs (when given), then replays
        every ``apply`` record after the checkpoint's LSN, idempotently
        keyed on request ids.  Journaling is detached during replay
        (replay must not re-journal) and re-attached before returning,
        so the recovered bank journals new mutations to the same log.
        The result is bit-equal to the pre-crash *committed* state:
        every journaled mutation present, nothing half-applied.

        A checkpoint holding any other number of blobs than two — one
        cut by a bank split into shards — raises
        :class:`~repro.core.ledger.SnapshotError`.
        """
        bank = cls(params, keypair, rng, journal=None, telemetry=telemetry)
        start = -1
        if checkpoint is not None:
            if len(checkpoint.blobs) != 2:
                raise SnapshotError(
                    f"checkpoint at lsn {checkpoint.lsn} holds "
                    f"{len(checkpoint.blobs)} blobs, not (book, pbs): it was "
                    "cut by a bank split into shards"
                )
            book_blob, pbs_blob = checkpoint.blobs
            bank.restore(book_blob)
            restore_pbs_bank(bank.pbs, pbs_blob)
            start = checkpoint.lsn
        if journal.first_lsn > start + 1:
            # compaction deleted records the given checkpoint does not
            # cover; replaying only the tail would silently lose state
            raise JournalError(
                f"journal compacted to lsn {journal.first_lsn} but recovery "
                f"starts at lsn {start + 1}; pass the checkpoint the journal "
                "was compacted against"
            )
        applied: set[str] = set()
        replayed = 0
        with bank.obs.tracer.span("bank_replay", lsn=journal.last_lsn) as span:
            for record in journal.records():
                if record.kind != "apply":
                    continue
                if record.lsn <= start:
                    # folded into the checkpoint already; remember the rid so
                    # a duplicate record after the cut can never re-apply it
                    if record.rid:
                        applied.add(record.rid)
                    continue
                bank._replay_record(record, applied)
                replayed += 1
            span.set(replayed=replayed)
        bank._m_replayed.inc(replayed)
        bank.journal = journal
        return bank

    def _replay_record(self, record: JournalRecord, applied: set[str]) -> None:
        """Redo one journaled mutation (recovery path; no re-journaling)."""
        if record.rid:
            if record.rid in applied:
                return
            applied.add(record.rid)
        payload = record.payload
        book = self.book
        if record.op in ("open-account", "withdraw", "deposit"):
            self._book_blob = None
        if record.op == "open-account":
            aid = payload["aid"]
            if aid in book.accounts:
                raise JournalError(
                    f"journal replay (lsn {record.lsn}): account {aid!r} "
                    "already exists"
                )
            book.open_account(aid, payload["balance"])
        elif record.op == "withdraw":
            aid = payload["aid"]
            if book.accounts.get(aid, 0) < payload["value"]:
                raise JournalError(
                    f"journal replay (lsn {record.lsn}): account {aid!r} "
                    f"cannot cover a withdrawal of {payload['value']}"
                )
            book.accounts[aid] -= payload["value"]
            book.withdrawals.append(aid)
        elif record.op == "deposit":
            aid, level, index = payload["aid"], payload["level"], payload["index"]
            error = book.conflict(payload["serials"])
            if error is not None:
                prior = error.evidence.prior
                if prior == (aid, level, index):
                    return  # same deposit already on the books: idempotent
                raise JournalError(
                    f"journal replay (lsn {record.lsn}): serial "
                    f"{error.evidence.serial} already deposited by {prior}"
                )
            if aid not in book.accounts:
                raise JournalError(
                    f"journal replay (lsn {record.lsn}): deposit for unknown "
                    f"account {aid!r}"
                )
            book.commit(aid, level, index, payload["serials"], payload["amount"])
        elif record.op in ("pbs-open-account", "pbs-deposit"):
            self._pbs_blob = None
            try:
                if record.op == "pbs-open-account":
                    self.pbs.open_account(rsa.RSAPublicKey(*payload["key"]),
                                          payload["balance"])
                elif (payload["payer"], payload["serial"]) not in self.pbs.spent_serials:
                    # (a spent serial is this deposit, already on the books)
                    self.pbs.apply_deposit(payload["payer"], payload["payee"],
                                           payload["serial"])
            except ValueError as exc:
                raise JournalError(
                    f"journal replay (lsn {record.lsn}): {exc}") from exc
        else:
            raise JournalError(
                f"journal replay (lsn {record.lsn}): unknown op {record.op!r}"
            )

    def audit(self, *, outstanding_float: int | None = None,
              allow_foreign_value: bool = False) -> AuditReport:
        """:func:`~repro.core.ledger.audit_bank` on the DEC book plus
        :func:`~repro.core.pbs_ledger.audit_pbs_bank` on the PPMSpbs book."""
        report = audit_bank(self.book, outstanding_float=outstanding_float,
                            allow_foreign_value=allow_foreign_value)
        return AuditReport(findings=report.findings + tuple(
            f"pbs: {f}" for f in audit_pbs_bank(self.pbs).findings))
