"""Shared market substrate: job profiles, bulletin board, data reports.

A mobile-sensing market (paper Section III-A) consolidates many sensing
jobs in one place.  The MA publishes registered jobs on a bulletin
board all residents can read; SPs pick jobs, submit sensing data, and
get paid.  This module holds the mechanism-independent pieces —
including :class:`MarketDesk`, the MA's board and payment-for-data
escrow and its labor registry, and :class:`JobOwner`, what both job
owners do around their jobs, each written once with its message-table
rows (:data:`DESK`, :data:`OWNER`) and the fields both mechanisms'
tables share; the two mechanisms (:mod:`~repro.core.dec_machine`,
:mod:`~repro.core.pbs_machine`) build their message flows on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.engine import Outbound, Party, ProtocolError
from repro.crypto.rsa import HYBRID_MIN_BITS, generate_keypair
from repro.net.schema import MAX_ID, Field, Message

__all__ = [
    "JobProfile", "BulletinBoard", "DataReport", "MarketDesk", "new_job_id", "pseudonym_name",
    "JobOwner", "DESK", "HELD", "JOB", "KEY", "OWNER", "PSEUDONYM", "TIME",
]

# -- the fields both mechanisms' message tables share ----------------------
#: a job id from the board
JOB = Field(str, low=1, high=MAX_ID)
#: a pseudonym: the fingerprint of an RSA key
PSEUDONYM = Field(bytes, low=16, high=16)
#: an RSA public key ``(n, e)`` a hybrid-encrypted message can be sealed to
KEY = Field(tuple, list, low=2, high=2,
            parts={0: Field(int, low=1 << (HYBRID_MIN_BITS - 1), high=(1 << 4096) - 1),
                   1: Field(int, low=3, high=(1 << 32) - 1)})
#: a market time, in seconds
TIME = Field(float, low=0.0, high=1e12)

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
    payment: int  # ≥ 1, as the job-registration rows bound it
    owner_pseudonym: bytes


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

    def register_labor(self, sender: str, sp_pseudonym: bytes, job_id: str) -> str:
        """Bind *sp_pseudonym*, registering under its own name, to
        *job_id*; returns the job owner's name."""
        jo = self.owner_of(job_id)
        if sender != pseudonym_name(sp_pseudonym):
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

    def on_job_registration(self, sender: str, payload: dict) -> list[Outbound]:
        # a unitary market's row (PPMSpbs) carries no ``w``: every job pays 1
        profile = self.publish_job(sender, payload["jd"], payload.get("w", 1),
                                   payload["rpk_fingerprint"])
        return [Outbound(sender, "job-published", {"job": profile.job_id})]

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
        if sender != pseudonym_name(pseud):
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

    def release_data(self, sender: str, sp_pseudonym: bytes) -> Outbound:
        """The held report, for the job's owner, once the SP confirms
        its payment under *sp_pseudonym*'s own name."""
        if sender != pseudonym_name(sp_pseudonym):
            raise ProtocolError("confirmation under another name than its pseudonym")
        report = self._held_reports.get(sp_pseudonym)
        if report is None or sp_pseudonym not in self._workers:
            raise ProtocolError("confirmation without a held report")
        del self._held_reports[sp_pseudonym]
        return Outbound(self.jo_for_job[report.job_id], "data-delivery",
                        {"job": report.job_id, "data": report.payload})

    # -- the escrow's two rows, shared by both MAs' tables -----------------
    def on_data_submission(self, sender: str, payload: dict) -> list[Outbound]:
        return self.accept_data(sender, DataReport(job_id=payload["job"],
                                                   submitter_pseudonym=payload["pseudonym"],
                                                   payload=payload["data"]))

    def on_payment_confirm(self, sender: str, payload: dict) -> list[Outbound]:
        return [self.release_data(sender, payload["pseudonym"])]


#: what a payment for a worker is answered with
HELD = "held; `payment-delivery` to the worker once its data is held"

#: the rows of :class:`MarketDesk`'s escrow in both MAs' tables
DESK = {
    "data-submission": Message({"pseudonym": PSEUDONYM, "job": JOB, "data": Field(bytes, low=1)},
                               MarketDesk.on_data_submission, answers="held; a waiting payment sent"),
    "payment-confirm": Message({"pseudonym": PSEUDONYM}, MarketDesk.on_payment_confirm,
                               answers="`data-delivery` to the job's owner"),
}


class JobOwner(Party):
    """What both mechanisms' job owners share: each job under a fresh RSA
    pseudonym, the board's answer to its registration, and the data its
    workers delivered."""

    role, hears = "JO", "MA"

    def __init__(self, name: str, rng: Any, counter: Any, rsa_bits: int) -> None:
        super().__init__(name)
        self.rng, self.counter, self.rsa_bits = rng, counter, rsa_bits
        self.job_key: Any = None
        self.description, self.job_id = "", None
        self.received_reports: list[dict] = []

    @property
    def nym(self) -> str:
        return pseudonym_name(self.job_key.public.fingerprint())

    def begin_job(self, description: str) -> None:
        """Bind to a new job: a fresh ephemeral RSA pseudonym ``rpk_jo``."""
        self.job_key = generate_keypair(self.rsa_bits, self.rng)
        self.counter.record("JO", "H")  # pseudonym fingerprint derivation
        self.description, self.job_id = description, None

    def on_job_published(self, sender: str, payload: dict) -> list[Outbound]:
        if self.job_id is not None:
            raise ProtocolError(f"job {self.job_id!r} is already published")
        self.job_id = payload["job"]
        return []

    def on_data_delivery(self, sender: str, payload: dict) -> list[Outbound]:
        if payload["job"] != self.job_id:
            raise ProtocolError(f"data for another job than {self.job_id!r}")
        self.received_reports.append(payload)
        return []


#: the rows of :class:`JobOwner` in both job owners' tables
OWNER = {
    "job-published": Message({"job": JOB}, JobOwner.on_job_published, answers="nothing"),
    "data-delivery": Message({"job": JOB, "data": Field(bytes, low=1)},
                             JobOwner.on_data_delivery, answers="nothing"),
}
