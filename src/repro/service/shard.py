"""Sharded bank state for the market-administrator service.

One logical bank, N physical shards.  Two independent partition keys
split the three security-critical structures of
:class:`~repro.ecash.dec.DECBank`:

* **accounts and the withdrawal ledger** shard by a stable hash of the
  account id — every balance mutation for an account touches exactly
  one shard;
* **the deposited-serial store** shards by a stable hash of each leaf
  serial.  Conflicting deposits (same node, ancestor or descendant)
  always share at least one leaf serial, and equal serials hash to the
  same shard — so per-shard membership checks are *sufficient* for
  global double-spend detection.  No cross-shard coordination is
  needed on the hot path.

Each shard *is* a :class:`~repro.ecash.dec.DECBank` holding its slice,
which is what lets persistence reuse :mod:`repro.core.ledger`
verbatim: :meth:`ShardedBank.snapshot` is one
:func:`~repro.core.ledger.snapshot_bank` blob per shard (each with its
own integrity digest, so corruption is localized to a shard), and the
cross-shard :meth:`ShardedBank.audit` merges the slices into one
logical bank and runs :func:`~repro.core.ledger.audit_bank` on it —
plus placement invariants no single shard can see (a serial or account
living on the wrong shard, duplicates across shards).

Hashing is :func:`repro.crypto.hashing.sha256`-based, never Python's
salted ``hash()``, so placement is stable across processes and
restarts — a snapshot taken by one service instance restores into
another with the same shard count.

Beside the shards sits the PPMSpbs book — one unsharded
:class:`~repro.core.ppms_pbs.VirtualBankPbs` (:attr:`ShardedBank.pbs`)
that is journaled, checkpointed (one
:func:`~repro.core.pbs_ledger.snapshot_pbs_bank` blob after the shard
blobs), replayed and audited with them.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

import repro.obs as obs
from repro.core.ledger import AuditReport, audit_bank, restore_bank, snapshot_bank
from repro.core.pbs_ledger import audit_pbs_bank, restore_pbs_bank, snapshot_pbs_bank
from repro.core.ppms_pbs import VirtualBankPbs
from repro.crypto import rsa
from repro.crypto.cl_sig import CLKeyPair, CLPublicKey
from repro.crypto.hashing import sha256
from repro.ecash.dec import DECBank, DoubleSpendError, DoubleSpendEvidence
from repro.ecash.spend import DECParams, SpendToken
from repro.ecash.tree import leaf_serials
from repro.service.journal import Checkpoint, Journal, JournalError, JournalRecord

__all__ = ["ShardedBank", "account_shard", "serial_shard"]


def account_shard(aid: str, n_shards: int) -> int:
    """Stable home shard of an account id."""
    return int.from_bytes(sha256(b"account-shard", aid.encode()), "big") % n_shards


def serial_shard(serial: int, n_shards: int) -> int:
    """Stable home shard of a leaf serial."""
    nbytes = (serial.bit_length() + 7) // 8 or 1
    return int.from_bytes(
        sha256(b"serial-shard", serial.to_bytes(nbytes, "big")), "big"
    ) % n_shards


class ShardedBank:
    """N :class:`DECBank` shards behind the one-bank interface.

    All shards share the same cryptographic identity (parameters and CL
    keypair) — sharding partitions *state*, not *trust*.  Mutations are
    plain dict operations; the expensive verification work happens
    upstream in :mod:`repro.service.batcher`, so the apply path here is
    safe to run serially under the server loop (which is what makes
    "zero double-deposits admitted" a structural guarantee rather than
    a race to win).
    """

    def __init__(
        self,
        params: DECParams,
        keypair: CLKeyPair,
        rng: random.Random,
        *,
        n_shards: int = 4,
        journal: Journal | None = None,
        telemetry: "obs.Telemetry | None" = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self.params = params
        self.keypair = keypair
        self.n_shards = n_shards
        self.shards: list[DECBank] = [
            DECBank(params=params, keypair=keypair, rng=rng) for _ in range(n_shards)
        ]
        self.deposit_seq = 0
        #: write-ahead journal; every mutation appends its redo record
        #: here *before* the books change (None = journaling off)
        self.journal = journal
        # incremental-snapshot bookkeeping: shards mutated since the
        # last snapshot() call, plus the blobs of the clean ones
        self._dirty: set[int] = set(range(n_shards))
        self._blob_cache: dict[int, bytes] = {}
        #: the PPMSpbs book, unsharded; its checkpoint blob is cached
        #: while it is clean (``None``: re-serialize at the next cut)
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
        n_shards: int = 4,
        journal: Journal | None = None,
    ) -> "ShardedBank":
        from repro.crypto.cl_sig import cl_keygen

        return cls(
            params, cl_keygen(params.backend, rng), rng,
            n_shards=n_shards, journal=journal,
        )

    def _journal_apply(self, rid: str, op: str, payload: dict) -> None:
        if self.journal is not None:
            self.journal.append("apply", rid, op, payload)

    def _touch(self, index: int) -> None:
        """Mark shard *index* dirty for the next incremental snapshot."""
        self._dirty.add(index)

    @property
    def public_key(self) -> CLPublicKey:
        return self.keypair.public

    # -- placement ---------------------------------------------------------
    def account_home(self, aid: str) -> DECBank:
        return self.shards[account_shard(aid, self.n_shards)]

    def serial_home(self, serial: int) -> DECBank:
        return self.shards[serial_shard(serial, self.n_shards)]

    # -- accounts ----------------------------------------------------------
    def open_account(self, aid: str, initial_balance: int = 0, *, rid: str = "") -> None:
        shard = account_shard(aid, self.n_shards)
        home = self.shards[shard]
        if aid in home.accounts:
            raise ValueError(f"account {aid!r} already exists")
        with self.obs.tracer.span("shard_apply", kind="open-account", shard=shard):
            self._journal_apply(rid, "open-account",
                                {"aid": aid, "balance": initial_balance})
            self._touch(shard)
            home.open_account(aid, initial_balance)

    def has_account(self, aid: str) -> bool:
        return aid in self.account_home(aid).accounts

    def balance(self, aid: str) -> int:
        return self.account_home(aid).balance(aid)

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
        shard = account_shard(aid, self.n_shards)
        home = self.shards[shard]
        value = 1 << self.params.tree_level
        if home.accounts.get(aid, 0) < value:
            raise ValueError(f"account {aid!r} cannot cover a coin of value {value}")
        payload = {"aid": aid, "value": value}
        if extra:
            payload.update(extra)
        with self.obs.tracer.span("shard_apply", kind="withdraw", shard=shard):
            self._journal_apply(rid, "withdraw", payload)
            self._touch(shard)
            home.accounts[aid] -= value
            home.withdrawals.append(aid)

    # -- deposit -----------------------------------------------------------
    def expand_serials(self, token: SpendToken) -> list[int]:
        """Leaf serials covered by *token* (tower exponentiations)."""
        return leaf_serials(
            self.params.tower, token.node, token.node_key, self.params.tree_level
        )

    def check_deposit(self, serials: Iterable[int]) -> DoubleSpendEvidence | None:
        """First double-spend conflict among *serials*, or ``None``."""
        for serial in serials:
            prior = self.serial_home(serial)._seen_serials.get(serial)
            if prior is not None:
                return DoubleSpendEvidence(
                    serial=serial, prior=prior[:3], offending_node=None
                )
        return None

    def apply_deposit(
        self, aid: str, token: SpendToken, serials: Sequence[int], *, rid: str = ""
    ) -> int:
        """Record a *verified* deposit; returns the credited amount.

        Re-checks for conflicts under the same lock-free-serial regime
        as :meth:`DECBank.deposit`: on :class:`DoubleSpendError` nothing
        is credited, no serials are recorded on any shard, and nothing
        is journaled — the journal only ever holds mutations that the
        double-spend check has admitted.
        """
        shard = account_shard(aid, self.n_shards)
        home = self.shards[shard]
        if aid not in home.accounts:
            raise ValueError(f"unknown account {aid!r}")
        with self.obs.tracer.span("shard_apply", kind="deposit", shard=shard,
                                  n=len(serials)):
            conflict = self.check_deposit(serials)
            if conflict is not None:
                raise DoubleSpendError(
                    f"leaf serial already deposited (prior: {conflict.prior})",
                    evidence=DoubleSpendEvidence(
                        serial=conflict.serial,
                        prior=conflict.prior,
                        offending_node=(aid, token.node.level, token.node.index),
                    ),
                )
            amount = token.denomination(self.params.tree_level)
            self._journal_apply(
                rid,
                "deposit",
                {
                    "aid": aid,
                    "level": token.node.level,
                    "index": token.node.index,
                    "serials": list(serials),
                    "amount": amount,
                },
            )
            self._commit_deposit(
                aid, token.node.level, token.node.index, serials, amount
            )
        return amount

    def _commit_deposit(
        self, aid: str, level: int, index: int, serials: Sequence[int], amount: int
    ) -> None:
        record = (aid, level, index, self.deposit_seq)
        self.deposit_seq += 1
        for serial in serials:
            self._touch(serial_shard(serial, self.n_shards))
            self.serial_home(serial)._seen_serials[serial] = record
        self._touch(account_shard(aid, self.n_shards))
        self.account_home(aid).accounts[aid] += amount

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

        Raises :class:`~repro.core.ppms_pbs.DoubleDepositError` on a
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
    def snapshot(self) -> list[bytes]:
        """One :func:`snapshot_bank` blob per shard, in shard order.

        Incremental (copy-on-write): only shards mutated since the last
        call are re-serialized; a clean shard reuses its cached blob
        byte for byte, which is what lets the segmented journal's
        content-addressed checkpoint store skip re-writing it entirely.
        ``deposit_seq`` is stamped into re-serialized shards only — a
        deposit always dirties the shards it touched, so the per-shard
        ``max`` that :meth:`restore` takes still recovers the global
        counter exactly.
        """
        blobs: list[bytes] = []
        for index, shard in enumerate(self.shards):
            if index in self._dirty or index not in self._blob_cache:
                shard.deposit_seq = self.deposit_seq
                self._blob_cache[index] = snapshot_bank(shard)
            blobs.append(self._blob_cache[index])
        self._dirty.clear()
        return blobs

    def restore(self, blobs: Sequence[bytes]) -> None:
        """Restore all shards; shard count and order must match.

        A corrupt blob raises :class:`~repro.core.ledger.SnapshotError`
        identifying the shard; already-restored shards keep their new
        state, so callers treat any raise as "restore failed, retry
        from good blobs" (the blobs, not this object, are the source of
        truth).
        """
        if len(blobs) != self.n_shards:
            raise ValueError(
                f"snapshot has {len(blobs)} shards, bank has {self.n_shards}"
            )
        from repro.core.ledger import SnapshotError

        for index, (shard, blob) in enumerate(zip(self.shards, blobs)):
            try:
                restore_bank(shard, blob)
            except SnapshotError as exc:
                raise SnapshotError(f"shard {index}: {exc}") from exc
        self.deposit_seq = max(shard.deposit_seq for shard in self.shards)
        self._dirty = set(range(self.n_shards))
        self._blob_cache.clear()

    # -- crash recovery (checkpoint + journal replay) ----------------------
    def checkpoint(self) -> Checkpoint:
        """Snapshot every shard, then the PPMSpbs book, stamped with the
        current journal position."""
        lsn = self.journal.last_lsn if self.journal is not None else -1
        if self._pbs_blob is None:
            self._pbs_blob = snapshot_pbs_bank(self.pbs)
        return Checkpoint(lsn=lsn, blobs=(*self.snapshot(), self._pbs_blob))

    @classmethod
    def recover(
        cls,
        params: DECParams,
        keypair: CLKeyPair,
        rng: random.Random,
        journal: Journal,
        *,
        checkpoint: Checkpoint | None = None,
        n_shards: int = 4,
        telemetry: "obs.Telemetry | None" = None,
    ) -> "ShardedBank":
        """Rebuild the bank from a checkpoint plus the journal's tail.

        Restores the checkpoint blobs (when given), then replays every
        ``apply`` record after the checkpoint's LSN, idempotently keyed
        on request ids.  Journaling is detached during replay (replay
        must not re-journal) and re-attached before returning, so the
        recovered bank journals new mutations to the same log.  The
        result is bit-equal to the pre-crash *committed* state: every
        journaled mutation present, nothing half-applied.
        """
        bank = cls(params, keypair, rng, n_shards=n_shards, journal=None,
                   telemetry=telemetry)
        start = -1
        if checkpoint is not None:
            blobs = checkpoint.blobs
            if len(blobs) == n_shards + 1:  # a cut older than the book has none
                *blobs, pbs_blob = blobs
                restore_pbs_bank(bank.pbs, pbs_blob)
            bank.restore(blobs)
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
        if record.op == "open-account":
            aid = payload["aid"]
            home = self.account_home(aid)
            if aid in home.accounts:
                raise JournalError(
                    f"journal replay (lsn {record.lsn}): account {aid!r} "
                    "already exists"
                )
            self._touch(account_shard(aid, self.n_shards))
            home.open_account(aid, payload["balance"])
        elif record.op == "withdraw":
            aid = payload["aid"]
            home = self.account_home(aid)
            if home.accounts.get(aid, 0) < payload["value"]:
                raise JournalError(
                    f"journal replay (lsn {record.lsn}): account {aid!r} "
                    f"cannot cover a withdrawal of {payload['value']}"
                )
            self._touch(account_shard(aid, self.n_shards))
            home.accounts[aid] -= payload["value"]
            home.withdrawals.append(aid)
        elif record.op == "deposit":
            aid = payload["aid"]
            node = (aid, payload["level"], payload["index"])
            for serial in payload["serials"]:
                prior = self.serial_home(serial)._seen_serials.get(serial)
                if prior is not None:
                    if prior[:3] == node:
                        return  # same deposit already on the books: idempotent
                    raise JournalError(
                        f"journal replay (lsn {record.lsn}): serial {serial} "
                        f"already deposited by {prior[:3]}"
                    )
            if aid not in self.account_home(aid).accounts:
                raise JournalError(
                    f"journal replay (lsn {record.lsn}): deposit for unknown "
                    f"account {aid!r}"
                )
            self._commit_deposit(
                aid, payload["level"], payload["index"],
                payload["serials"], payload["amount"],
            )
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

    def merged(self, rng: random.Random | None = None) -> DECBank:
        """The logical one-bank view: union of every shard's slice."""
        merged = DECBank(
            params=self.params,
            keypair=self.keypair,
            rng=rng or random.Random(0),
        )
        for shard in self.shards:
            merged.accounts.update(shard.accounts)
            merged.withdrawals.extend(shard.withdrawals)
            merged._seen_serials.update(shard._seen_serials)
        merged.deposit_seq = self.deposit_seq
        return merged

    def audit(self, *, outstanding_float: int | None = None,
              allow_foreign_value: bool = False) -> AuditReport:
        """Cross-shard audit: placement invariants + the merged-book audit.

        Composes :func:`repro.core.ledger.audit_bank` over the merged
        view (so every single-bank invariant — balances, conservation,
        serial-record consistency — is checked globally), adds the
        findings only a sharded store can violate (entries living on
        the wrong shard or duplicated across shards) and those of
        :func:`~repro.core.pbs_ledger.audit_pbs_bank` on the PPMSpbs
        book.
        """
        findings: list[str] = []
        seen_accounts: dict[str, int] = {}
        seen_serials: dict[int, int] = {}
        for index, shard in enumerate(self.shards):
            for aid in shard.accounts:
                if account_shard(aid, self.n_shards) != index:
                    findings.append(
                        f"account {aid!r} stored on shard {index}, "
                        f"home is {account_shard(aid, self.n_shards)}"
                    )
                if aid in seen_accounts:
                    findings.append(
                        f"account {aid!r} duplicated on shards "
                        f"{seen_accounts[aid]} and {index}"
                    )
                seen_accounts[aid] = index
            for aid in shard.withdrawals:
                if account_shard(aid, self.n_shards) != index:
                    findings.append(
                        f"withdrawal by {aid!r} recorded on shard {index}, "
                        f"home is {account_shard(aid, self.n_shards)}"
                    )
            for serial in shard._seen_serials:
                if serial_shard(serial, self.n_shards) != index:
                    findings.append(
                        f"serial {serial} stored on shard {index}, "
                        f"home is {serial_shard(serial, self.n_shards)}"
                    )
                if serial in seen_serials:
                    findings.append(
                        f"serial {serial} duplicated on shards "
                        f"{seen_serials[serial]} and {index}"
                    )
                seen_serials[serial] = index
        merged_report = audit_bank(self.merged(), outstanding_float=outstanding_float,
                                   allow_foreign_value=allow_foreign_value)
        findings.extend(merged_report.findings)
        findings.extend(f"pbs: {f}" for f in audit_pbs_bank(self.pbs).findings)
        return AuditReport(findings=tuple(findings))
