"""PPMSpbs as message-driven state machines (Algorithm 4 on the engine).

Each party from Section V becomes a :class:`~repro.core.engine.Party`
whose behaviour is *entirely* reactions to envelopes — the shape a
deployed client/daemon has.  Per-SP conversations are keyed by the SP's
ephemeral pseudonym fingerprint, and every handler validates the
session state before acting, rejecting out-of-order or replayed
messages with :class:`~repro.core.engine.ProtocolError`.

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
from repro.core.market import BulletinBoard, JobProfile, new_job_id
from repro.core.ppms_pbs import VirtualBankPbs
from repro.crypto import rsa
from repro.crypto.partial_blind import (
    PartialBlindRequester,
    PartialBlindSignature,
    PartialBlindSigner,
)
from repro.net.codec import decode, encode

__all__ = ["MAMachine", "JOMachine", "SPMachine", "run_machine_market"]

MA = "MA"


class SPState(Enum):
    INIT = auto()
    REGISTERED = auto()
    KEY_KNOWN = auto()
    BLINDED = auto()
    DATA_SENT = auto()
    PAID = auto()
    DEPOSITED = auto()


class MAMachine(Party):
    """The market administrator: relay + bulletin board + bank."""

    def __init__(self, rng: random.Random) -> None:
        super().__init__(MA)
        self.rng = rng
        self.bank = VirtualBankPbs()
        self.board = BulletinBoard()
        self.jo_for_job: dict[str, str] = {}
        self._pending_payments: dict[bytes, tuple[int, int]] = {}
        self._have_data: dict[bytes, dict] = {}
        self._confirmed: set[bytes] = set()

    # -- registration hooks (driver-level, authenticated operations) -------
    def open_account(self, pubkey: rsa.RSAPublicKey, funds: int) -> bytes:
        return self.bank.open_account(pubkey, funds)

    def publish_job(self, description: str, owner_party: str, pseudonym: bytes) -> JobProfile:
        profile = JobProfile(job_id=new_job_id(), description=description,
                             payment=1, owner_pseudonym=pseudonym)
        self.board.publish(profile)
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
            pseud = payload["pseudonym"]
            self._pending_payments[pseud] = (payload["pbs"], payload["ctr"])
            return self._maybe_deliver(pseud)
        if kind == "data-submission":
            pseud = payload["pseudonym"]
            self._have_data[pseud] = {"job": payload["job"], "data": payload["data"]}
            return self._maybe_deliver(pseud)
        if kind == "payment-confirm":
            pseud = payload["pseudonym"]
            if pseud in self._confirmed:
                raise ProtocolError("duplicate payment confirmation")
            report = self._have_data.get(pseud)
            if report is None:
                raise ProtocolError("confirmation before data submission")
            self._confirmed.add(pseud)
            jo = self.jo_for_job[report["job"]]
            return [Outbound(jo, "data-delivery", report)]
        if kind == "deposit":
            signature = PartialBlindSignature(
                value=payload["sig"], counter=payload["ctr"],
                common_info=payload["serial"],
            )
            try:
                payer, payee = self.bank.check_deposit(
                    signature, payload["sp_key"], payload["jo_key"]
                )
            except ValueError as exc:
                raise ProtocolError(str(exc)) from exc
            self.bank.apply_deposit(payer, payee, signature.common_info)
            return []
        raise ProtocolError(f"MA cannot handle message kind {kind!r}")

    def _maybe_deliver(self, pseud: bytes) -> list[Outbound]:
        if pseud in self._pending_payments and pseud in self._have_data:
            pbs, ctr = self._pending_payments.pop(pseud)
            return [Outbound(sender_sp(pseud), "payment-delivery",
                             {"pbs": pbs, "ctr": ctr})]
        return []


class JOMachine(Party):
    """A job owner: answers labor registrations and blind-signs coins."""

    def __init__(self, name: str, rng: random.Random, *, rsa_bits: int = 512) -> None:
        super().__init__(name)
        self.rng = rng
        self.account_key = rsa.generate_keypair(rsa_bits, rng)
        self.job_key = rsa.generate_keypair(rsa_bits, rng)
        self._signer = PartialBlindSigner(self.account_key)
        self._serial_for: dict[bytes, bytes] = {}
        self.received_reports: list[dict] = []

    @property
    def account_pub(self) -> rsa.RSAPublicKey:
        return self.account_key.public

    @property
    def job_pub(self) -> rsa.RSAPublicKey:
        return self.job_key.public

    def handle(self, sender: str, kind: str, payload: Any) -> list[Outbound]:
        if kind == "labor-forward":
            try:
                request = decode(rsa.decrypt(self.job_key, payload["blob"]))
            except ValueError as exc:
                raise ProtocolError(f"undecryptable labor registration: {exc}") from exc
            pseud_key = rsa.RSAPublicKey(*request["rpk"])
            self._serial_for[payload["pseudonym"]] = request["serial"]
            sig = rsa.sign(self.job_key, encode({"rpk": request["rpk"],
                                                 "serial": request["serial"]}))
            answer = rsa.encrypt(
                pseud_key,
                encode({"jo_account": (self.account_pub.n, self.account_pub.e),
                        "sig": sig}),
                self.rng,
            )
            return [Outbound(MA, "labor-answer",
                             {"pseudonym": payload["pseudonym"], "blob": answer})]
        if kind == "blinded-forward":
            serial = self._serial_for.get(payload["pseudonym"])
            if serial is None:
                raise ProtocolError("blinded payment before labor registration")
            pbs, ctr = self._signer.sign_blinded(payload["blinded"], serial)
            return [Outbound(MA, "payment-submission",
                             {"pseudonym": payload["pseudonym"], "pbs": pbs, "ctr": ctr})]
        if kind == "data-delivery":
            self.received_reports.append(payload)
            return []
        raise ProtocolError(f"JO cannot handle message kind {kind!r}")


class SPMachine(Party):
    """A sensing participant: drives its own state machine."""

    def __init__(
        self,
        name: str,
        rng: random.Random,
        *,
        job: JobProfile,
        jo_pseudonym_key: rsa.RSAPublicKey,
        data_payload: bytes = b"sensed",
        rsa_bits: int = 512,
    ) -> None:
        super().__init__(name)
        self.rng = rng
        self.job = job
        self.jo_pseudonym_key = jo_pseudonym_key
        self.data_payload = data_payload
        self.account_key = rsa.generate_keypair(rsa_bits, rng)
        self.labor_key = rsa.generate_keypair(rsa_bits, rng)
        self.serial = bytes(rng.getrandbits(8) for _ in range(16))
        self.state = SPState.INIT
        self._jo_account: tuple[int, int] | None = None
        self._requester: PartialBlindRequester | None = None
        self.coin: PartialBlindSignature | None = None

    @property
    def account_pub(self) -> rsa.RSAPublicKey:
        return self.account_key.public

    @property
    def pseudonym(self) -> bytes:
        return self.labor_key.public.fingerprint()

    def start(self) -> list[Outbound]:
        blob = rsa.encrypt(
            self.jo_pseudonym_key,
            encode({"rpk": (self.labor_key.public.n, self.labor_key.public.e),
                    "serial": self.serial}),
            self.rng,
        )
        self.state = SPState.REGISTERED
        return [Outbound(MA, "labor-registration",
                         {"job": self.job.job_id, "pseudonym": self.pseudonym,
                          "blob": blob})]

    def handle(self, sender: str, kind: str, payload: Any) -> list[Outbound]:
        if kind == "labor-answer-fwd":
            if self.state is not SPState.REGISTERED:
                raise ProtocolError("labor answer out of order")
            answer = decode(rsa.decrypt(self.labor_key, payload["blob"]))
            expected = encode({"rpk": (self.labor_key.public.n, self.labor_key.public.e),
                               "serial": self.serial})
            if not rsa.verify(self.jo_pseudonym_key, expected, answer["sig"]):
                raise ProtocolError("JO signature on labor answer failed — aborting")
            self._jo_account = tuple(answer["jo_account"])
            self.state = SPState.KEY_KNOWN
            jo_pub = rsa.RSAPublicKey(*self._jo_account)
            self._requester = PartialBlindRequester(jo_pub, self.rng)
            blinded = self._requester.blind(self.account_pub.fingerprint(), self.serial)
            self.state = SPState.BLINDED
            out = [Outbound(MA, "blinded-payment",
                            {"job": self.job.job_id, "pseudonym": self.pseudonym,
                             "blinded": blinded})]
            # submit the data alongside; the MA holds the payment until both exist
            out.append(Outbound(MA, "data-submission",
                                {"pseudonym": self.pseudonym, "job": self.job.job_id,
                                 "data": self.data_payload}))
            self.state = SPState.DATA_SENT
            return out
        if kind == "payment-delivery":
            if self.state is not SPState.DATA_SENT:
                raise ProtocolError("payment delivered out of order")
            assert self._requester is not None and self._jo_account is not None
            try:
                self.coin = self._requester.unblind(payload["pbs"], payload["ctr"])
            except ValueError as exc:
                raise ProtocolError(f"coin failed verification: {exc}") from exc
            self.state = SPState.PAID
            return [
                Outbound(MA, "payment-confirm", {"pseudonym": self.pseudonym}),
                Outbound(MA, "deposit", {
                    "sig": self.coin.value,
                    "ctr": self.coin.counter,
                    "serial": self.coin.common_info,
                    "sp_key": (self.account_pub.n, self.account_pub.e),
                    "jo_key": list(self._jo_account),
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
