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

from repro.core.engine import Outbound, ProtocolError

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
    relay's rules.

    Each job is owned by the pseudonym name that registered it, and
    each labor pseudonym is bound to the one job it registered for.
    The escrow takes data and a confirmation only from the pseudonym's
    own name, data only for its bound job, and a payment only from that
    job's owner; anything else is a :class:`ProtocolError` that changes
    nothing.  Data may arrive before its labor registration (a network
    may reorder the two): the registration then checks the job.

    A payment is the payload the mechanism relays to the SP (PPMSdec:
    a ciphertext, PPMSpbs: a ``(pbs, ctr)`` pair); the desk never looks
    inside.
    """

    def __init__(self) -> None:
        self.board = BulletinBoard()
        # job id -> its owner's pseudonym name
        self.jo_for_job: dict[str, str] = {}
        # SP pseudonym fingerprint -> the job it registered labor for
        self._workers: dict[bytes, str] = {}
        # SP pseudonym fingerprint -> payment waiting for that SP's data
        self._pending_payments: dict[bytes, Any] = {}
        # SP pseudonym fingerprint -> report held until the SP confirms
        self._held_reports: dict[bytes, DataReport] = {}

    def publish_job(self, sender: str, description: str, payment: int,
                    owner_pseudonym: bytes) -> JobProfile:
        """Publish a job registered under the pseudonym name *sender*."""
        profile = JobProfile(
            job_id=new_job_id(),
            description=description,
            payment=payment,
            owner_pseudonym=owner_pseudonym,
        )
        self.board.publish(profile)
        self.jo_for_job[profile.job_id] = sender
        return profile

    def owner_of(self, job_id: Any) -> str:
        """The name *job_id*'s owner registered it under."""
        jo = self.jo_for_job.get(job_id)
        if jo is None:
            raise ProtocolError(f"unknown job {job_id!r}")
        return jo

    def register_labor(self, sender: str, sp_pseudonym: Any, job_id: Any) -> str:
        """Bind *sp_pseudonym*, registering under its own name, to
        *job_id*; returns the job owner's name."""
        jo = self.owner_of(job_id)
        if not isinstance(sp_pseudonym, bytes) or sender != pseudonym_name(sp_pseudonym):
            raise ProtocolError("labor registered under another name than its pseudonym")
        if sp_pseudonym in self._workers:
            raise ProtocolError("labor already registered under this pseudonym")
        held = self._held_reports.get(sp_pseudonym)
        if held is not None and held.job_id != job_id:
            raise ProtocolError("labor registered for another job than its data")
        self._workers[sp_pseudonym] = job_id
        return jo

    def worker_name(self, sp_pseudonym: Any) -> str:
        """Where to relay for *sp_pseudonym*: only a pseudonym with labor."""
        if sp_pseudonym not in self._workers:
            raise ProtocolError(f"no labor registered under pseudonym {sp_pseudonym!r}")
        return pseudonym_name(sp_pseudonym)

    def accept_payment(self, sender: str, sp_pseudonym: Any, payment: Any) -> list[Outbound]:
        """Hold *sender*'s payment for *sp_pseudonym*; relays it if the
        data is already held."""
        self.worker_name(sp_pseudonym)  # refuses a pseudonym without labor
        if sender != self.jo_for_job[self._workers[sp_pseudonym]]:
            raise ProtocolError("payment from another party than the job's owner")
        self._pending_payments[sp_pseudonym] = payment
        return self._relay_payment(sp_pseudonym)

    def accept_data(self, sender: str, report: DataReport) -> list[Outbound]:
        """Hold *report* until its SP confirms; relays a payment waiting
        for it."""
        pseud = report.submitter_pseudonym
        if not isinstance(pseud, bytes) or sender != pseudonym_name(pseud):
            raise ProtocolError("data submitted under another name than its pseudonym")
        if self._workers.get(pseud, report.job_id) != report.job_id:
            raise ProtocolError("data for another job than its labor registration")
        self._held_reports[pseud] = report
        return self._relay_payment(pseud)

    def _relay_payment(self, sp_pseudonym: bytes) -> list[Outbound]:
        """The held payment, for the SP — once, and only once the data is held."""
        if sp_pseudonym not in self._held_reports or sp_pseudonym not in self._pending_payments:
            return []
        return [Outbound(pseudonym_name(sp_pseudonym), "payment-delivery",
                         self._pending_payments.pop(sp_pseudonym))]

    def release_data(self, sender: str, sp_pseudonym: Any) -> Outbound:
        """The held report, for the job's owner, once the SP confirms
        its payment under *sp_pseudonym*'s own name."""
        if not isinstance(sp_pseudonym, bytes) or sender != pseudonym_name(sp_pseudonym):
            raise ProtocolError("confirmation under another name than its pseudonym")
        report = self._held_reports.get(sp_pseudonym)
        if report is None or sp_pseudonym not in self._workers:
            raise ProtocolError("confirmation without a held report")
        del self._held_reports[sp_pseudonym]
        return Outbound(self.jo_for_job[report.job_id], "data-delivery",
                        {"job": report.job_id, "data": report.payload})
