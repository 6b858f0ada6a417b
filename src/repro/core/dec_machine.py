"""PPMSdec as message-driven state machines (Algorithm 1 on the engine).

The heavyweight mechanism in production shape: parties that react only
to envelopes, with the full step order of Algorithm 1 —

    1. JO -> MA   job-registration {jd, w, rpk}
    2. JO -> MA   withdraw-request {request}         (blind)
       MA -> JO   withdraw-response {signature}
    3. SP -> MA   labor-registration {job, rpk}
       MA -> JO   labor-forward {job, rpk}
    4. JO -> MA   payment-submission {pseudonym, ciphertext}
    5. SP -> MA   data-submission {pseudonym, job, data}
       MA -> SP   payment-delivery {ciphertext}
    6. SP -> MA   payment-confirm {pseudonym}
       MA -> JO   data-delivery {job, data}
    7. SP -> MA   deposit {aid, coin}                (per coin)

Every party is its :mod:`~repro.core.ppms_dec` actor plus
:class:`~repro.core.engine.Party`: the actor owns each protocol step
(and tallies it for Table I), the machine adds addressing, message
order and :class:`~repro.core.engine.ProtocolError` on anything forged
or out of order — an SP rejects a payment before it registered, the MA
refuses deposits of malformed coins or into someone else's account.
"""

from __future__ import annotations

import random
from enum import Enum, auto
from typing import Any

from repro.core.engine import Outbound, Party, ProtocolError, Router
from repro.core.market import DataReport
from repro.core.ppms_dec import JobOwnerDec, MarketAdministratorDec, SensingParticipantDec
from repro.crypto.rsa import RSAPublicKey
from repro.ecash.dec import DoubleSpendError
from repro.ecash.spend import DECParams, SpendToken
from repro.ecash.wallet import InsufficientFunds
from repro.metrics.opcount import OpCounter

__all__ = ["MADecMachine", "JODecMachine", "SPDecMachine", "run_dec_machine_market"]

MA = "MA"
_SP_PREFIX = "dsp:"


def sp_party_name(pseudonym: bytes) -> str:
    return _SP_PREFIX + pseudonym.hex()


class SPDecState(Enum):
    INIT = auto()
    DATA_SENT = auto()
    PAID = auto()


class MADecMachine(MarketAdministratorDec, Party):
    """MA for the message-driven PPMSdec market."""

    def __init__(self, params: DECParams, rng: random.Random) -> None:
        MarketAdministratorDec.__init__(self, params, rng, OpCounter())
        Party.__init__(self, MA)
        self.jo_for_job: dict[str, str] = {}
        self.account_of: dict[str, str] = {}  # party name -> bank account id

    def register_resident(self, party_name: str, aid: str, funds: int) -> None:
        """Authenticated account opening (driver-level, like enrolment)."""
        self.bank.open_account(aid, funds)
        self.account_of[party_name] = aid

    def handle(self, sender: str, kind: str, payload: Any) -> list[Outbound]:
        if kind == "job-registration":
            profile = self.publish_job(
                payload["jd"], payload["w"], bytes(payload["rpk_fingerprint"])
            )
            self.jo_for_job[profile.job_id] = sender
            return [Outbound(sender, "job-published", {"job": profile.job_id})]
        if kind == "withdraw-request":
            aid = self.account_of.get(sender)
            if aid is None:
                raise ProtocolError("withdrawal from unenrolled resident")
            try:
                signature = self.handle_withdrawal(aid, payload["request"])
            except ValueError as exc:
                raise ProtocolError(str(exc)) from exc
            return [Outbound(sender, "withdraw-response", {"signature": signature})]
        if kind == "labor-registration":
            jo = self.jo_for_job.get(payload["job"])
            if jo is None:
                raise ProtocolError(f"labor registration for unknown job {payload['job']!r}")
            return [Outbound(jo, "labor-forward",
                             {"job": payload["job"], "rpk": payload["rpk"]})]
        if kind == "payment-submission":
            pseud = bytes(payload["pseudonym"])
            self.accept_payment(pseud, payload["ciphertext"])
            return self._maybe_deliver(pseud)
        if kind == "data-submission":
            pseud = bytes(payload["pseudonym"])
            self.accept_data(DataReport(job_id=payload["job"], submitter_pseudonym=pseud,
                                        payload=payload["data"]))
            return self._maybe_deliver(pseud)
        if kind == "payment-confirm":
            try:
                report = self.release_data(bytes(payload["pseudonym"]))
            except KeyError:
                raise ProtocolError("confirmation without a held report") from None
            jo = self.jo_for_job.get(report.job_id)
            if jo is None:  # pragma: no cover - board and report kept in sync
                raise ProtocolError("report for unknown job")
            return [Outbound(jo, "data-delivery",
                             {"job": report.job_id, "data": report.payload})]
        if kind == "deposit":
            aid = self.account_of.get(sender)
            if aid is None or aid != payload["aid"]:
                raise ProtocolError("deposit with mismatched account identity")
            token = payload["coin"]
            if not isinstance(token, SpendToken):
                raise ProtocolError("malformed coin in deposit")
            try:
                self.handle_deposit(aid, token, self.clock + 1.0)
            except DoubleSpendError as exc:
                raise ProtocolError(f"double spend: {exc}") from exc
            except ValueError as exc:
                raise ProtocolError(f"invalid coin: {exc}") from exc
            return []
        raise ProtocolError(f"MA cannot handle message kind {kind!r}")

    def _maybe_deliver(self, pseud: bytes) -> list[Outbound]:
        ciphertext = self.payment_for(pseud)
        if ciphertext is None:
            return []
        return [Outbound(sp_party_name(pseud), "payment-delivery", {"ciphertext": ciphertext})]


class JODecMachine(JobOwnerDec, Party):
    """A job owner for the message-driven market."""

    def __init__(
        self,
        name: str,
        params: DECParams,
        rng: random.Random,
        *,
        description: str,
        payment: int,
        rsa_bits: int = 512,
        break_algorithm: str = "pcba",
    ) -> None:
        JobOwnerDec.__init__(self, name, params, rng, rsa_bits=rsa_bits,
                             break_algorithm=break_algorithm)
        Party.__init__(self, name)
        self.counter = OpCounter()
        self.payment = payment
        self.description = description
        self.make_job_identity(self.counter)
        self.job_id: str | None = None
        self.received_reports: list[dict] = []
        self._deferred_labor: list[RSAPublicKey] = []

    def attach_bank_key(self, bank_pk) -> None:
        self._bank_pk = bank_pk

    def start(self) -> list[Outbound]:
        return [
            Outbound(MA, "job-registration", {
                "jd": self.description, "w": self.payment,
                "rpk_fingerprint": self.job_key.public.fingerprint(),
            }),
            self._new_withdrawal(),
        ]

    def _new_withdrawal(self) -> Outbound:
        return Outbound(MA, "withdraw-request", {"request": self.begin_withdraw(self.counter)})

    def handle(self, sender: str, kind: str, payload: Any) -> list[Outbound]:
        if kind == "job-published":
            self.job_id = payload["job"]
            return []
        if kind == "withdraw-response":
            if not self._pending_secrets:
                raise ProtocolError("unexpected withdrawal response")
            self.finish_withdraw(payload["signature"], self._bank_pk, self.counter)
            # serve any labor registrations that waited for funds
            out = []
            deferred, self._deferred_labor = self._deferred_labor, []
            for sp_pub in deferred:
                out.extend(self._serve_labor(sp_pub))
            return out
        if kind == "labor-forward":
            return self._serve_labor(RSAPublicKey(*payload["rpk"]))
        if kind == "data-delivery":
            self.received_reports.append(payload)
            return []
        raise ProtocolError(f"JO cannot handle message kind {kind!r}")

    def _serve_labor(self, sp_pub: RSAPublicKey) -> list[Outbound]:
        """Pay the registered worker, withdrawing another coin if needed."""
        try:
            ciphertext = self.build_payment(sp_pub, self.payment, self.counter)
        except InsufficientFunds:
            self._deferred_labor.append(sp_pub)
            return [self._new_withdrawal()]
        return [Outbound(MA, "payment-submission",
                         {"pseudonym": sp_pub.fingerprint(), "ciphertext": ciphertext})]


class SPDecMachine(SensingParticipantDec, Party):
    """A sensing participant for the message-driven market."""

    def __init__(
        self,
        params: DECParams,
        rng: random.Random,
        *,
        aid: str,
        job_id: str,
        jo_pseudonym_key: RSAPublicKey,
        expected_payment: int,
        bank_pk,
        data_payload: bytes = b"sensed",
        rsa_bits: int = 512,
    ) -> None:
        SensingParticipantDec.__init__(self, aid, params, rng, rsa_bits=rsa_bits)
        self.counter = OpCounter()
        self.job_id = job_id
        self.jo_pseudonym_key = jo_pseudonym_key
        self.expected_payment = expected_payment
        self.bank_pk = bank_pk
        self.data_payload = data_payload
        self.make_labor_identity(self.counter)
        Party.__init__(self, sp_party_name(self.pseudonym))
        self.state = SPDecState.INIT
        self.received_value = 0

    @property
    def pseudonym(self) -> bytes:
        return self.labor_key.public.fingerprint()

    def start(self) -> list[Outbound]:
        self.state = SPDecState.DATA_SENT
        return [
            Outbound(MA, "labor-registration", {
                "job": self.job_id,
                "rpk": (self.labor_key.public.n, self.labor_key.public.e),
            }),
            Outbound(MA, "data-submission", {
                "pseudonym": self.pseudonym, "job": self.job_id, "data": self.data_payload,
            }),
        ]

    def handle(self, sender: str, kind: str, payload: Any) -> list[Outbound]:
        if kind == "payment-delivery":
            if self.state is not SPDecState.DATA_SENT:
                raise ProtocolError("payment delivered out of order")
            try:
                bundle = self.open_payment(payload["ciphertext"], self.jo_pseudonym_key,
                                           self.bank_pk, self.counter)
            except ValueError as exc:
                raise ProtocolError(f"payment undecryptable: {exc}") from exc
            if not bundle.signature_valid:
                raise ProtocolError("JO signature on payment invalid")
            value = bundle.total_value(self.params.tree_level)
            if value != self.expected_payment:
                raise ProtocolError(
                    f"payment value {value} != advertised {self.expected_payment}"
                )
            self.received_value = value
            self.state = SPDecState.PAID
            out = [Outbound(MA, "payment-confirm", {"pseudonym": self.pseudonym})]
            out += [
                Outbound(MA, "deposit", {"aid": self.aid, "coin": token})
                for token in bundle.tokens
            ]
            return out
        raise ProtocolError(f"SP cannot handle message kind {kind!r}")


def run_dec_machine_market(
    params: DECParams,
    rng: random.Random,
    *,
    n_workers: int,
    payment: int,
    jo_funds: int | None = None,
    rsa_bits: int = 512,
    break_algorithm: str = "pcba",
) -> tuple[Router, MADecMachine, JODecMachine, list[SPDecMachine]]:
    """Wire and run one message-driven PPMSdec market to quiescence."""
    router = Router()
    ma = MADecMachine(params, rng)
    router.add(ma)

    coin_value = 1 << params.tree_level
    jo = JODecMachine("JO", params, rng, description="machine-market sensing job",
                      payment=payment, rsa_bits=rsa_bits,
                      break_algorithm=break_algorithm)
    jo.attach_bank_key(ma.bank.public_key)
    router.add(jo)
    ma.register_resident("JO", "jo-acct", jo_funds or coin_value * max(1, n_workers))

    # the JO registers its job and withdraws before workers arrive
    router.activate("JO")
    router.run()
    assert jo.job_id is not None

    sps = []
    for i in range(n_workers):
        sp = SPDecMachine(
            params, rng, aid=f"sp-acct-{i}", job_id=jo.job_id,
            jo_pseudonym_key=jo.job_key.public, expected_payment=payment,
            bank_pk=ma.bank.public_key, rsa_bits=rsa_bits,
        )
        router.add(sp)
        ma.register_resident(sp.name, sp.aid, 0)
        sps.append(sp)

    for sp in sps:
        router.activate(sp.name)
    router.run()
    return router, ma, jo, sps
