"""Shared market substrate: job profiles, bulletin board, data reports.

A mobile-sensing market (paper Section III-A) consolidates many sensing
jobs in one place.  The MA publishes registered jobs on a bulletin
board all residents can read; SPs pick jobs, submit sensing data, and
get paid.  This module holds the mechanism-independent pieces —
including :class:`MarketDesk`, the MA's board and payment-for-data
escrow and its labor registry, written once; the two mechanisms
(:mod:`~repro.core.dec_machine`, :mod:`~repro.core.pbs_machine`) build
their message flows on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.engine import ProtocolError

__all__ = [
    "JobProfile", "BulletinBoard", "DataReport", "MarketDesk", "new_job_id", "pseudonym_name",
]

_job_counter = 0


def new_job_id() -> str:
    """Fresh market-unique job identifier (module-global counter)."""
    global _job_counter
    _job_counter += 1
    return f"job-{_job_counter:06d}"


def pseudonym_name(fingerprint: bytes) -> str:
    """The name a resident sends job traffic under: its pseudonym.

    Account traffic goes under the account's own name; the two are
    never joined, so nothing the MA routes by links a job to an account.
    """
    return "nym:" + fingerprint.hex()


@dataclass(frozen=True)
class JobProfile:
    """A published sensing job.

    ``owner_pseudonym`` is the job owner's *ephemeral* identity (an RSA
    public key fingerprint in both mechanisms — never the real account
    identity).  ``payment`` is per-SP; unitary-payment markets
    (PPMSpbs) fix it to 1.
    """

    job_id: str
    description: str
    payment: int
    owner_pseudonym: bytes

    def __post_init__(self) -> None:
        if self.payment < 1:
            raise ValueError("payment must be at least 1")
        if not self.owner_pseudonym:
            raise ValueError("job must carry an owner pseudonym")


@dataclass
class BulletinBoard:
    """The MA's public bulletin board (append-only)."""

    entries: list[JobProfile] = field(default_factory=list)

    def publish(self, profile: JobProfile) -> None:
        if any(e.job_id == profile.job_id for e in self.entries):
            raise ValueError(f"job {profile.job_id!r} already published")
        self.entries.append(profile)

    def lookup(self, job_id: str) -> JobProfile:
        for entry in self.entries:
            if entry.job_id == job_id:
                return entry
        raise KeyError(job_id)

    def jobs(self) -> list[JobProfile]:
        """All published jobs, oldest first (what every resident sees)."""
        return list(self.entries)


@dataclass(frozen=True)
class DataReport:
    """Sensing data submitted under a pseudonym.

    The payload is opaque bytes; :mod:`repro.workloads` generates
    realistic payloads (noise maps, health telemetry, transit traces).
    """

    job_id: str
    submitter_pseudonym: bytes
    payload: bytes

    def __post_init__(self) -> None:
        if not self.payload:
            raise ValueError("empty data report")


class MarketDesk:
    """The MA's desk: the bulletin board plus the two-sided escrow of
    paper Section III-A — a payment is held until the SP's data is
    held, and the data until the SP confirms the payment — and the
    relay's one rule: it forwards only to a pseudonym that registered
    labor, from that pseudonym's own name.

    A payment is whatever the mechanism relays (PPMSdec: a ciphertext,
    PPMSpbs: a ``(pbs, ctr)`` pair); the desk never looks inside.
    """

    def __init__(self) -> None:
        self.board = BulletinBoard()
        # SP pseudonym fingerprint -> payment waiting for that SP's data
        self._pending_payments: dict[bytes, Any] = {}
        # SP pseudonym fingerprint -> report held until the SP confirms
        self._held_reports: dict[bytes, DataReport] = {}
        # SP pseudonym fingerprints that registered labor
        self._workers: set[bytes] = set()

    def publish_job(self, description: str, payment: int, owner_pseudonym: bytes) -> JobProfile:
        profile = JobProfile(
            job_id=new_job_id(),
            description=description,
            payment=payment,
            owner_pseudonym=owner_pseudonym,
        )
        self.board.publish(profile)
        return profile

    def register_labor(self, sender: str, sp_pseudonym: Any) -> None:
        """Record a labor registration sent under *sp_pseudonym*'s name."""
        if not isinstance(sp_pseudonym, bytes) or sender != pseudonym_name(sp_pseudonym):
            raise ProtocolError("labor registered under another name than its pseudonym")
        self._workers.add(sp_pseudonym)

    def worker_name(self, sp_pseudonym: Any) -> str:
        """Where to relay for *sp_pseudonym*: only a pseudonym with labor."""
        if sp_pseudonym not in self._workers:
            raise ProtocolError(f"no labor registered under pseudonym {sp_pseudonym!r}")
        return pseudonym_name(sp_pseudonym)

    def accept_payment(self, sp_pseudonym: bytes, payment: Any) -> None:
        self._pending_payments[sp_pseudonym] = payment

    def accept_data(self, report: DataReport) -> None:
        self._held_reports[report.submitter_pseudonym] = report

    def payment_for(self, sp_pseudonym: bytes) -> Any | None:
        """Hand the held payment over — once, and only once the data is held."""
        if sp_pseudonym in self._held_reports:
            return self._pending_payments.pop(sp_pseudonym, None)
        return None

    def release_data(self, sp_pseudonym: bytes) -> DataReport:
        """The held report, for the JO, once the SP confirms its payment."""
        return self._held_reports.pop(sp_pseudonym)
