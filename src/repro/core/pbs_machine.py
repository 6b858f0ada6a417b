"""PPMSpbs as message-driven state machines (Algorithm 4 on the engine),
and :class:`PPMSpbsSession`, which runs them synchronously.

Each party from Section V is its :mod:`~repro.core.ppms_pbs` actor plus
:class:`~repro.core.engine.Party`: the actor owns every protocol step
(and tallies it for Table I), the machine's behaviour is *entirely*
reactions to envelopes — the shape a deployed client/daemon has.
Per-SP conversations are keyed by the SP's ephemeral pseudonym
fingerprint, and every handler validates the session state before
acting, rejecting out-of-order or replayed messages — and a JO or SP
anything not from the MA — with :class:`~repro.core.engine.ProtocolError`.

The order of Algorithm 4's steps is written here, in the handlers, and
nowhere else (all via the MA, as the system model requires):

    JO  -> MA: job-registration   {jd, rpk_fingerprint}
    MA  -> JO: job-published      {job}
    SP  -> MA: labor-registration {job, pseudonym, blob}
    MA  -> JO: labor-forward      {pseudonym, blob}
    JO  -> MA: labor-answer       {pseudonym, blob}
    MA  -> SP: labor-answer-fwd   {blob}
    SP  -> MA: blinded-payment    {job, pseudonym, blinded}
    SP  -> MA: data-submission    {pseudonym, job, data}
    MA  -> JO: blinded-forward    {pseudonym, blinded}
    JO  -> MA: payment-submission {pseudonym, pbs, ctr}
    MA  -> SP: payment-delivery   {pbs, ctr}
    SP  -> MA: payment-confirm    {pseudonym}
    MA  -> JO: data-delivery      {job, data}
    SP  -> MA: deposit            {sig, ctr, serial, sp_key, jo_key}

A resident answers to two names that nothing joins: its account (the
hex fingerprint of its real key), under which it deposits, and the name
of its current pseudonym, under which it does everything else.
"""

from __future__ import annotations

import random
from enum import Enum, auto
from typing import Any

from repro.core.engine import Outbound, Party, ProtocolError, Router, drive
from repro.core.market import DataReport, JobProfile, pseudonym_name
from repro.core.ppms_pbs import (
    CoinReceipt,
    JobOwnerPbs,
    MarketAdministratorPbs,
    SensingParticipantPbs,
)
from repro.crypto.partial_blind import PartialBlindSignature
from repro.crypto.rsa import RSAPublicKey
from repro.metrics.opcount import OpCounter
from repro.net.transport import Transport

__all__ = ["MAMachine", "JOMachine", "SPMachine", "PPMSpbsSession"]

JO, SP, MA = "JO", "SP", "MA"


class SPState(Enum):
    INIT = auto()
    REGISTERED = auto()
    DATA_SENT = auto()
    PAID = auto()


class MAMachine(MarketAdministratorPbs, Party):
    """The market administrator: relay + bulletin board + bank."""

    role = MA

    def __init__(self, counter: OpCounter) -> None:
        MarketAdministratorPbs.__init__(self, counter)
        Party.__init__(self, MA)
        self.jo_for_job: dict[str, str] = {}  # job id -> its owner's pseudonym name

    def handle(self, sender: str, kind: str, payload: Any) -> list[Outbound]:
        if kind == "job-registration":
            # a unitary market: every job pays 1
            profile = self.publish_job(payload["jd"], 1, payload["rpk_fingerprint"])
            self.jo_for_job[profile.job_id] = sender
            return [Outbound(sender, "job-published", {"job": profile.job_id})]
        if kind == "labor-registration":
            jo = self.jo_for_job.get(payload["job"])
            if jo is None:
                raise ProtocolError(f"labor registration for unknown job {payload['job']!r}")
            self.register_labor(sender, payload["pseudonym"])
            return [Outbound(jo, "labor-forward",
                             {"pseudonym": payload["pseudonym"], "blob": payload["blob"]})]
        if kind == "labor-answer":
            return [Outbound(self.worker_name(payload["pseudonym"]), "labor-answer-fwd",
                             {"blob": payload["blob"]})]
        if kind == "blinded-payment":
            jo = self.jo_for_job.get(payload["job"])
            if jo is None:
                raise ProtocolError("blinded payment for unknown job")
            return [Outbound(jo, "blinded-forward",
                             {"pseudonym": payload["pseudonym"],
                              "blinded": payload["blinded"]})]
        if kind == "payment-submission":
            self.accept_payment(payload["pseudonym"], (payload["pbs"], payload["ctr"]))
            return self._maybe_deliver(payload["pseudonym"])
        if kind == "data-submission":
            self.accept_data(DataReport(job_id=payload["job"],
                                        submitter_pseudonym=payload["pseudonym"],
                                        payload=payload["data"]))
            return self._maybe_deliver(payload["pseudonym"])
        if kind == "payment-confirm":
            try:
                report = self.release_data(payload["pseudonym"])
            except KeyError:
                raise ProtocolError("confirmation without a held report") from None
            return [Outbound(self.jo_for_job[report.job_id], "data-delivery",
                             {"job": report.job_id, "data": report.payload})]
        if kind == "deposit":
            signature = PartialBlindSignature(
                value=payload["sig"], counter=payload["ctr"],
                common_info=payload["serial"],
            )
            self.deposit(sender, signature, payload)
            return []
        raise ProtocolError(f"MA cannot handle message kind {kind!r}")

    def deposit(self, sender: str, signature: PartialBlindSignature, payload: dict) -> None:
        """The bank's half of a deposit: move the coin's unit."""
        try:
            self.handle_deposit(signature, payload["sp_key"], payload["jo_key"])
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc

    def _maybe_deliver(self, pseud: bytes) -> list[Outbound]:
        payment = self.payment_for(pseud)
        if payment is None:
            return []
        pbs, ctr = payment
        return [Outbound(self.worker_name(pseud), "payment-delivery", {"pbs": pbs, "ctr": ctr})]


class JOMachine(JobOwnerPbs, Party):
    """A job owner: answers labor registrations and blind-signs coins,
    each job as that job's pseudonym."""

    role = JO

    def __init__(self, rng: random.Random, counter: OpCounter, *, rsa_bits: int = 1024) -> None:
        JobOwnerPbs.__init__(self, rng, rsa_bits=rsa_bits)
        Party.__init__(self, self.account_pub.fingerprint().hex())
        self.counter = counter
        self.description = ""
        self.job_id: str | None = None
        self.received_reports: list[dict] = []

    @property
    def nym(self) -> str:
        return pseudonym_name(self.job_key.public.fingerprint())

    def begin_job(self, description: str) -> None:
        """Bind to a new job: a fresh job pseudonym for it."""
        self.make_job_identity(self.counter)
        self.description = description
        self.job_id = None

    def start(self) -> list[Outbound]:
        return [Outbound(MA, "job-registration", {
            "jd": self.description, "rpk_fingerprint": self.job_key.public.fingerprint(),
        }, sender=self.nym)]

    def handle(self, sender: str, kind: str, payload: Any) -> list[Outbound]:
        if sender != MA:
            raise ProtocolError(f"JO hears only the MA, not {sender!r}")
        if kind == "job-published":
            self.job_id = payload["job"]
            return []
        if kind == "labor-forward":
            try:
                answer = self.answer_labor_registration(payload["blob"], self.counter)
            except ValueError as exc:
                raise ProtocolError(f"undecryptable labor registration: {exc}") from exc
            return [Outbound(MA, "labor-answer",
                             {"pseudonym": payload["pseudonym"], "blob": answer}, sender=self.nym)]
        if kind == "blinded-forward":
            # the serial this JO itself decrypted for that pseudonym's key
            serial = self._serial_for.get(payload["pseudonym"])
            if serial is None:
                raise ProtocolError("blinded payment before labor registration")
            pbs, ctr = self.sign_payment(payload["blinded"], serial, self.counter)
            return [Outbound(MA, "payment-submission",
                             {"pseudonym": payload["pseudonym"], "pbs": pbs, "ctr": ctr},
                             sender=self.nym)]
        if kind == "data-delivery":
            self.received_reports.append(payload)
            return []
        raise ProtocolError(f"JO cannot handle message kind {kind!r}")


class SPMachine(SensingParticipantPbs, Party):
    """A sensing participant: works each job as a fresh labor
    pseudonym, deposits as its account."""

    role = SP

    def __init__(self, rng: random.Random, counter: OpCounter, *, rsa_bits: int = 1024) -> None:
        SensingParticipantPbs.__init__(self, rng, rsa_bits=rsa_bits)
        Party.__init__(self, self.account_pub.fingerprint().hex())
        self.counter = counter
        self.state = SPState.INIT

    @property
    def pseudonym(self) -> bytes:
        return self.labor_key.public.fingerprint()

    @property
    def nym(self) -> str:
        return pseudonym_name(self.pseudonym)

    def bind(self, job: JobProfile, jo_pseudonym_key: RSAPublicKey,
             data_payload: bytes, deposit: bool) -> None:
        """Take *job* from the board under a fresh labor pseudonym (the
        registration request is made now: it carries the pseudonym)."""
        self.job, self.jo_pseudonym_key = job, jo_pseudonym_key
        self.data_payload, self.deposit = data_payload, deposit
        self._labor_request = self.make_labor_request(jo_pseudonym_key, self.counter)
        self.state = SPState.INIT

    def start(self) -> list[Outbound]:
        self.state = SPState.REGISTERED
        return [Outbound(MA, "labor-registration",
                         {"job": self.job.job_id, "pseudonym": self.pseudonym,
                          "blob": self._labor_request}, sender=self.nym)]

    def handle(self, sender: str, kind: str, payload: Any) -> list[Outbound]:
        if sender != MA:
            raise ProtocolError(f"SP hears only the MA, not {sender!r}")
        if kind == "labor-answer-fwd":
            if self.state is not SPState.REGISTERED:
                raise ProtocolError("labor answer out of order")
            if not self.open_labor_answer(payload["blob"], self.jo_pseudonym_key, self.counter):
                raise ProtocolError("JO signature on labor answer failed — aborting")
            blinded = self.make_blinded_payment_request(self.counter)
            self.state = SPState.DATA_SENT
            # submit the data alongside; the MA holds the payment until both exist
            return [
                Outbound(MA, "blinded-payment",
                         {"job": self.job.job_id, "pseudonym": self.pseudonym,
                          "blinded": blinded}, sender=self.nym),
                Outbound(MA, "data-submission",
                         {"pseudonym": self.pseudonym, "job": self.job.job_id,
                          "data": self.data_payload}, sender=self.nym),
            ]
        if kind == "payment-delivery":
            if self.state is not SPState.DATA_SENT:
                raise ProtocolError("payment delivered out of order")
            try:
                receipt = self.finalize_coin(payload["pbs"], payload["ctr"], self.counter)
            except ValueError as exc:
                raise ProtocolError(f"coin failed verification: {exc}") from exc
            self.state = SPState.PAID
            out = [Outbound(MA, "payment-confirm", {"pseudonym": self.pseudonym}, sender=self.nym)]
            if self.deposit:
                coin = receipt.signature
                out.append(Outbound(MA, "deposit", {
                    "sig": coin.value, "ctr": coin.counter, "serial": coin.common_info,
                    "sp_key": (self.account_pub.n, self.account_pub.e),
                    "jo_key": list(receipt.jo_account_key),
                }))
            return out
        raise ProtocolError(f"SP cannot handle message kind {kind!r}")


class PPMSpbsSession:
    """Algorithm 4 for one market: residents open their accounts, and
    :meth:`run_job` drives one job's machines to quiescence.

    All traffic is metered per role on the shared :attr:`transport`
    (Table II) and every operation tallied on :attr:`counter` (Table I).
    """

    def __init__(self, rng: random.Random, *, rsa_bits: int = 1024) -> None:
        self.rng = rng
        self.rsa_bits = rsa_bits
        self.transport = Transport()
        self.counter = OpCounter()
        self.ma = MAMachine(self.counter)
        #: the router the latest job ran on; its parties stay addressed
        self.router: Router | None = None

    def new_job_owner(self, funds: int) -> JOMachine:
        jo = JOMachine(self.rng, self.counter, rsa_bits=self.rsa_bits)
        self.ma.bank.open_account(jo.account_pub, funds)
        return jo

    def new_participant(self) -> SPMachine:
        sp = SPMachine(self.rng, self.counter, rsa_bits=self.rsa_bits)
        self.ma.bank.open_account(sp.account_pub, 0)
        return sp

    def run_job(
        self,
        jo: JOMachine,
        sps: list[SPMachine],
        *,
        description: str = "unitary sensing job",
        data_payload: bytes = b"sensing-data",
        deposit: bool = True,
    ) -> list[CoinReceipt]:
        """Execute Algorithm 4 once for *jo* and each SP in *sps*, one SP
        at a time; returns each SP's verified coin."""
        router = self.router = Router(self.transport)
        router.add(self.ma)
        jo.begin_job(description)
        drive(router, jo, jo.nym)
        job = self.ma.board.lookup(jo.job_id)
        receipts = []
        for sp in sps:
            sp.bind(job, jo.job_key.public, data_payload, deposit)
            drive(router, sp, sp.nym)
            receipts.append(sp.receipts[-1])
        return receipts
