"""Global invariants the MA bank must satisfy after every recovery.

Three families of checks, composed into one findings-style report (the
same shape as :func:`repro.core.ledger.audit_bank` — empty findings
means clean):

1. **Book audit** — the bank's own audit: no negative balances, value
   conservation (deposited never exceeds issued) and serial-record
   consistency — each deposit record covers exactly its node's leaf
   serials, the double-deposit defense's footprint.
2. **Ledger/journal agreement** — the write-ahead journal is replayed
   from scratch into a shadow bank, and every book (balances, the
   withdrawal ledger, the deposited-serial store, the deposit
   sequence, and the PPMSpbs book's accounts, bound keys, spent
   serials and transaction log) must match the live bank exactly.
   This is the strongest statement the harness makes: the journal
   alone reconstructs the books bit-for-bit, so *any* crash-recovery
   lands on the same state.
3. **Request-lifecycle discipline** — scanned from the journal: a
   request id may carry at most one ``apply`` record (a double-applied
   deposit is exactly a rid with two), and every ``apply`` must be
   preceded by its ``accept``.

Compacted journals (``journal.first_lsn > 0``) need the checkpoint the
compaction was cut against: pass it as *checkpoint* and the shadow
replay restores it before replaying the retained suffix, and the
lifecycle scan treats the checkpoint's replied rids as already
accepted (their accept records may live in deleted segments).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields

from repro.service.journal import Checkpoint, Journal
from repro.service.shard import ShardedBank

__all__ = ["InvariantReport", "check_recovery_invariants"]


@dataclass(frozen=True)
class InvariantReport:
    """Outcome of an invariant sweep."""

    findings: tuple[str, ...]

    @property
    def clean(self) -> bool:
        return not self.findings


def _compare_books(live: ShardedBank, shadow: ShardedBank) -> list[str]:
    findings: list[str] = []
    a, b = live.book, shadow.book
    if a.accounts != b.accounts:
        findings.append(
            f"journal disagreement on accounts: "
            f"live {a.accounts} != replayed {b.accounts}"
        )
    if list(a.withdrawals) != list(b.withdrawals):
        findings.append(
            f"journal disagreement on the withdrawal ledger: "
            f"live {a.withdrawals} != replayed {b.withdrawals}"
        )
    if a._seen_serials != b._seen_serials:
        live_only = set(a._seen_serials) - set(b._seen_serials)
        replay_only = set(b._seen_serials) - set(a._seen_serials)
        findings.append(
            f"journal disagreement on the serial store: "
            f"{len(live_only)} serial(s) only live, "
            f"{len(replay_only)} only replayed, plus any record mismatches"
        )
    if a.deposit_seq != b.deposit_seq:
        findings.append(
            f"journal disagreement on deposit sequence: live "
            f"{a.deposit_seq} != replayed {b.deposit_seq}"
        )
    for book in fields(live.pbs):
        if getattr(live.pbs, book.name) != getattr(shadow.pbs, book.name):
            findings.append(f"journal disagreement on the PPMSpbs {book.name}")
    return findings


def _check_lifecycle(
    journal: Journal, checkpoint: Checkpoint | None = None
) -> list[str]:
    findings: list[str] = []
    accepted: set[str] = set()
    if checkpoint is not None:
        # Rids the checkpoint already settled or holds in flight were
        # accepted before the compaction cut; their accept records may
        # only exist in segments that have since been deleted.
        accepted.update(rid for rid, _status, _body in checkpoint.replies)
        accepted.update(state["rid"] for state in checkpoint.pending)
    applied: dict[str, int] = {}
    for record in journal.records():
        if record.kind == "accept":
            accepted.add(record.rid)
        elif record.kind == "apply" and record.rid:
            applied[record.rid] = applied.get(record.rid, 0) + 1
            if record.rid not in accepted and journal.first_lsn == 0:
                findings.append(
                    f"rid {record.rid!r} applied (lsn {record.lsn}) without "
                    "an accept record"
                )
    for rid, count in applied.items():
        if count > 1:
            findings.append(
                f"rid {rid!r} has {count} apply records (double-applied)"
            )
    return findings


def check_recovery_invariants(
    bank: ShardedBank,
    journal: Journal,
    *,
    checkpoint: Checkpoint | None = None,
) -> InvariantReport:
    """Run every global invariant against *bank* and its *journal*.

    For a compacted journal, *checkpoint* must be the checkpoint the
    compaction was cut against (the shadow replay starts from it);
    omitting it on a compacted journal raises
    :class:`~repro.service.journal.JournalError`.
    """
    findings: list[str] = list(bank.audit().findings)
    shadow = ShardedBank.recover(
        bank.params,
        bank.keypair,
        random.Random(0),
        journal,
        checkpoint=checkpoint,
    )
    findings.extend(_compare_books(bank, shadow))
    findings.extend(_check_lifecycle(journal, checkpoint))
    return InvariantReport(findings=tuple(findings))
