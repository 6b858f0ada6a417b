"""PPMSpbs as message-driven state machines (Algorithm 4 on the engine).

Each party from Section V is its :mod:`~repro.core.ppms_pbs` actor plus
:class:`~repro.core.engine.Party`: the actor owns every protocol step
(and tallies it for Table I), the machine's behaviour is *entirely*
reactions to envelopes — the shape a deployed client/daemon has.
Per-SP conversations are keyed by the SP's ephemeral pseudonym
fingerprint, and every handler validates the session state before
acting, rejecting out-of-order or replayed messages with
:class:`~repro.core.engine.ProtocolError`.

Message kinds (all via the MA, as the system model requires):

    SP  -> MA: labor-registration {job, blob}
    MA  -> JO: labor-forward      {pseudonym, blob}
    JO  -> MA: labor-answer       {pseudonym, blob}
    MA  -> SP: labor-answer-fwd   {blob}
    SP  -> MA: blinded-payment    {pseudonym, blinded}
    MA  -> JO: blinded-forward    {pseudonym, blinded}
    JO  -> MA: payment-submission {pseudonym, pbs, ctr}
    SP  -> MA: data-submission    {pseudonym, job, data}
    MA  -> SP: payment-delivery   {pbs, ctr}
    SP  -> MA: payment-confirm    {pseudonym}
    MA  -> JO: data-delivery      {job, data}
    SP  -> MA: deposit            {sig..., sp_key, jo_key}

The driver (:func:`run_machine_market`) wires one JO, any number of
SPs and the MA together and runs the router to quiescence.
"""

from __future__ import annotations

import random
from enum import Enum, auto
from typing import Any

from repro.core.engine import Outbound, Party, ProtocolError, Router
from repro.core.market import DataReport, JobProfile
from repro.core.ppms_pbs import JobOwnerPbs, MarketAdministratorPbs, SensingParticipantPbs
from repro.crypto.partial_blind import PartialBlindSignature
from repro.crypto.rsa import RSAPublicKey
from repro.metrics.opcount import OpCounter

__all__ = ["MAMachine", "JOMachine", "SPMachine", "run_machine_market"]

MA = "MA"


class SPState(Enum):
    INIT = auto()
    REGISTERED = auto()
    DATA_SENT = auto()
    PAID = auto()


class MAMachine(MarketAdministratorPbs, Party):
    """The market administrator: relay + bulletin board + bank."""

    def __init__(self, rng: random.Random) -> None:
        MarketAdministratorPbs.__init__(self, OpCounter())
        Party.__init__(self, MA)
        self.rng = rng
        self.jo_for_job: dict[str, str] = {}
        self._confirmed: set[bytes] = set()

    # -- registration hooks (driver-level, authenticated operations) -------
    def open_account(self, pubkey: RSAPublicKey, funds: int) -> bytes:
        return self.bank.open_account(pubkey, funds)

    def publish_job(self, description: str, owner_party: str, pseudonym: bytes) -> JobProfile:
        profile = super().publish_job(description, pseudonym)
        self.jo_for_job[profile.job_id] = owner_party
        return profile

    # -- message handling ------------------------------------------------------
    def handle(self, sender: str, kind: str, payload: Any) -> list[Outbound]:
        if kind == "labor-registration":
            jo = self.jo_for_job.get(payload["job"])
            if jo is None:
                raise ProtocolError(f"labor registration for unknown job {payload['job']!r}")
            return [Outbound(jo, "labor-forward",
                             {"pseudonym": payload["pseudonym"], "blob": payload["blob"]})]
        if kind == "labor-answer":
            return [Outbound(sender_sp(payload["pseudonym"]), "labor-answer-fwd",
                             {"blob": payload["blob"]})]
        if kind == "blinded-payment":
            jo = self.jo_for_job.get(payload["job"])
            if jo is None:
                raise ProtocolError("blinded payment for unknown job")
            return [Outbound(jo, "blinded-forward",
                             {"pseudonym": payload["pseudonym"],
                              "blinded": payload["blinded"]})]
        if kind == "payment-submission":
            self.accept_payment(payload["pseudonym"], payload["pbs"], payload["ctr"])
            return self._maybe_deliver(payload["pseudonym"])
        if kind == "data-submission":
            self.accept_data(DataReport(job_id=payload["job"],
                                        submitter_pseudonym=payload["pseudonym"],
                                        payload=payload["data"]))
            return self._maybe_deliver(payload["pseudonym"])
        if kind == "payment-confirm":
            pseud = payload["pseudonym"]
            if pseud in self._confirmed:
                raise ProtocolError("duplicate payment confirmation")
            try:
                report = self.release_data(pseud)
            except KeyError:
                raise ProtocolError("confirmation before data submission") from None
            self._confirmed.add(pseud)
            return [Outbound(self.jo_for_job[report.job_id], "data-delivery",
                             {"job": report.job_id, "data": report.payload})]
        if kind == "deposit":
            signature = PartialBlindSignature(
                value=payload["sig"], counter=payload["ctr"],
                common_info=payload["serial"],
            )
            try:
                self.handle_deposit(signature, payload["sp_key"], payload["jo_key"])
            except ValueError as exc:
                raise ProtocolError(str(exc)) from exc
            return []
        raise ProtocolError(f"MA cannot handle message kind {kind!r}")

    def _maybe_deliver(self, pseud: bytes) -> list[Outbound]:
        payment = self.payment_for(pseud)
        if payment is None:
            return []
        pbs, ctr = payment
        return [Outbound(sender_sp(pseud), "payment-delivery", {"pbs": pbs, "ctr": ctr})]


class JOMachine(JobOwnerPbs, Party):
    """A job owner: answers labor registrations and blind-signs coins."""

    def __init__(self, name: str, rng: random.Random, *, rsa_bits: int = 512) -> None:
        JobOwnerPbs.__init__(self, rng, rsa_bits=rsa_bits)
        Party.__init__(self, name)
        self.counter = OpCounter()
        self.make_job_identity(self.counter)
        self.received_reports: list[dict] = []

    @property
    def job_pub(self) -> RSAPublicKey:
        return self.job_key.public

    def handle(self, sender: str, kind: str, payload: Any) -> list[Outbound]:
        if kind == "labor-forward":
            try:
                answer = self.answer_labor_registration(payload["blob"], self.counter)
            except ValueError as exc:
                raise ProtocolError(f"undecryptable labor registration: {exc}") from exc
            return [Outbound(MA, "labor-answer",
                             {"pseudonym": payload["pseudonym"], "blob": answer})]
        if kind == "blinded-forward":
            # the serial this JO itself decrypted for that pseudonym's key
            serial = self._serial_for.get(payload["pseudonym"])
            if serial is None:
                raise ProtocolError("blinded payment before labor registration")
            pbs, ctr = self.sign_payment(payload["blinded"], serial, self.counter)
            return [Outbound(MA, "payment-submission",
                             {"pseudonym": payload["pseudonym"], "pbs": pbs, "ctr": ctr})]
        if kind == "data-delivery":
            self.received_reports.append(payload)
            return []
        raise ProtocolError(f"JO cannot handle message kind {kind!r}")


class SPMachine(SensingParticipantPbs, Party):
    """A sensing participant: drives its own state machine."""

    def __init__(
        self,
        name: str,
        rng: random.Random,
        *,
        job: JobProfile,
        jo_pseudonym_key: RSAPublicKey,
        data_payload: bytes = b"sensed",
        rsa_bits: int = 512,
    ) -> None:
        SensingParticipantPbs.__init__(self, rng, rsa_bits=rsa_bits)
        Party.__init__(self, name)
        self.counter = OpCounter()
        self.job = job
        self.jo_pseudonym_key = jo_pseudonym_key
        self.data_payload = data_payload
        # the pseudonym addresses this party, so the request is made up front
        self._labor_request = self.make_labor_request(jo_pseudonym_key, self.counter)
        self.state = SPState.INIT
        self.coin: PartialBlindSignature | None = None

    @property
    def pseudonym(self) -> bytes:
        return self.labor_key.public.fingerprint()

    def start(self) -> list[Outbound]:
        self.state = SPState.REGISTERED
        return [Outbound(MA, "labor-registration",
                         {"job": self.job.job_id, "pseudonym": self.pseudonym,
                          "blob": self._labor_request})]

    def handle(self, sender: str, kind: str, payload: Any) -> list[Outbound]:
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
                          "blinded": blinded}),
                Outbound(MA, "data-submission",
                         {"pseudonym": self.pseudonym, "job": self.job.job_id,
                          "data": self.data_payload}),
            ]
        if kind == "payment-delivery":
            if self.state is not SPState.DATA_SENT:
                raise ProtocolError("payment delivered out of order")
            try:
                receipt = self.finalize_coin(payload["pbs"], payload["ctr"], self.counter)
            except ValueError as exc:
                raise ProtocolError(f"coin failed verification: {exc}") from exc
            self.coin = receipt.signature
            self.state = SPState.PAID
            return [
                Outbound(MA, "payment-confirm", {"pseudonym": self.pseudonym}),
                Outbound(MA, "deposit", {
                    "sig": self.coin.value,
                    "ctr": self.coin.counter,
                    "serial": self.coin.common_info,
                    "sp_key": (self.account_pub.n, self.account_pub.e),
                    "jo_key": list(receipt.jo_account_key),
                }),
            ]
        raise ProtocolError(f"SP cannot handle message kind {kind!r}")


_SP_PARTY_PREFIX = "sp:"


def sender_sp(pseudonym: bytes) -> str:
    """Party name for the SP owning a pseudonym (router addressing)."""
    return _SP_PARTY_PREFIX + pseudonym.hex()


def run_machine_market(
    rng: random.Random,
    *,
    n_workers: int,
    jo_funds: int,
    rsa_bits: int = 512,
    data_payload: bytes = b"sensed",
) -> tuple[Router, MAMachine, JOMachine, list[SPMachine]]:
    """Wire up and run one message-driven PPMSpbs market to quiescence."""
    router = Router()
    ma = MAMachine(rng)
    router.add(ma)

    jo = JOMachine("JO", rng, rsa_bits=rsa_bits)
    router.add(jo)
    ma.open_account(jo.account_pub, jo_funds)
    profile = ma.publish_job("machine-market job", jo.name, jo.job_pub.fingerprint())

    sps = []
    for _ in range(n_workers):
        sp = SPMachine("pending", rng, job=profile, jo_pseudonym_key=jo.job_pub,
                       data_payload=data_payload, rsa_bits=rsa_bits)
        sp.name = sender_sp(sp.pseudonym)  # address by pseudonym
        router.add(sp)
        ma.open_account(sp.account_pub, 0)
        sps.append(sp)

    for sp in sps:
        router.activate(sp.name)
    router.run()
    return router, ma, jo, sps
