"""PPMSdec as message-driven state machines (Algorithm 1 on the engine),
and :class:`PPMSdecSession`, which runs them synchronously.

The order of Algorithm 1's steps is written here, in the handlers, and
nowhere else:

    1. JO -> MA   job-registration {jd, w, rpk_fingerprint}
       MA -> JO   job-published {job}
    2. JO -> MA   withdraw-request {request}         (blind; again on demand)
       MA -> JO   withdraw-response {signature}
    3. SP -> MA   labor-registration {job, rpk}
       SP -> MA   data-submission {pseudonym, job, data}
       MA -> JO   labor-forward {job, rpk}
    4. JO -> MA   payment-submission {pseudonym, ciphertext}
       MA -> SP   payment-delivery {ciphertext}      (data and payment held)
    5. SP -> MA   payment-confirm {pseudonym}
       MA -> JO   data-delivery {job, data}
    6. SP -> MA   deposit {aid, coin, at}            (per coin, spaced apart)

Every party is its :mod:`~repro.core.ppms_dec` actor plus
:class:`~repro.core.engine.Party`: the actor owns each protocol step
(and tallies it for Table I), the machine adds addressing, message
order and :class:`~repro.core.engine.ProtocolError` on anything forged
or out of order — an SP rejects a payment before it registered, the MA
refuses deposits of malformed coins or into someone else's account, and
a JO or SP hears only the MA.

A resident answers to two names that nothing joins: its account id,
under which it withdraws and deposits, and the name of its current
pseudonym (:func:`~repro.core.market.pseudonym_name`), under which it
does everything else.  The MA's only account table is its bank's.
"""

from __future__ import annotations

import random
from enum import Enum, auto
from typing import Any

from repro.core.engine import Outbound, Party, ProtocolError, Router, drive
from repro.core.market import DataReport, JobProfile, pseudonym_name
from repro.core.ppms_dec import (
    JobOwnerDec,
    MarketAdministratorDec,
    PaymentBundle,
    SensingParticipantDec,
)
from repro.crypto.rsa import RSAPublicKey
from repro.ecash.dec import DoubleSpendError
from repro.ecash.spend import DECParams, SpendToken
from repro.ecash.wallet import InsufficientFunds
from repro.metrics.opcount import OpCounter
from repro.net.transport import Transport

__all__ = ["MADecMachine", "JODecMachine", "SPDecMachine", "PPMSdecSession"]

JO, SP, MA = "JO", "SP", "MA"


class SPDecState(Enum):
    INIT = auto()
    DATA_SENT = auto()
    PAID = auto()


class MADecMachine(MarketAdministratorDec, Party):
    """MA for the message-driven PPMSdec market."""

    role = MA

    def __init__(self, params: DECParams, rng: random.Random, counter: OpCounter) -> None:
        MarketAdministratorDec.__init__(self, params, rng, counter)
        Party.__init__(self, MA)
        self.jo_for_job: dict[str, str] = {}  # job id -> its owner's pseudonym name

    def handle(self, sender: str, kind: str, payload: Any) -> list[Outbound]:
        if kind == "job-registration":
            profile = self.publish_job(payload["jd"], payload["w"], payload["rpk_fingerprint"])
            self.jo_for_job[profile.job_id] = sender
            return [Outbound(sender, "job-published", {"job": profile.job_id})]
        if kind == "withdraw-request":
            signature = self.withdraw(sender, payload["request"])
            return [Outbound(sender, "withdraw-response", {"signature": signature})]
        if kind == "labor-registration":
            jo = self.jo_for_job.get(payload["job"])
            if jo is None:
                raise ProtocolError(f"labor registration for unknown job {payload['job']!r}")
            self.register_labor(sender, RSAPublicKey(*payload["rpk"]).fingerprint())
            return [Outbound(jo, "labor-forward",
                             {"job": payload["job"], "rpk": payload["rpk"]})]
        if kind == "payment-submission":
            self.accept_payment(payload["pseudonym"], payload["ciphertext"])
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
            jo = self.jo_for_job.get(report.job_id)
            if jo is None:  # pragma: no cover - board and report kept in sync
                raise ProtocolError("report for unknown job")
            return [Outbound(jo, "data-delivery",
                             {"job": report.job_id, "data": report.payload})]
        if kind == "deposit":
            if payload["aid"] != sender:
                raise ProtocolError("deposit with mismatched account identity")
            if not isinstance(payload["coin"], SpendToken):
                raise ProtocolError("malformed coin in deposit")
            if not isinstance(payload["at"], float):
                raise ProtocolError("malformed deposit time")
            self.deposit(sender, payload)
            return []
        raise ProtocolError(f"MA cannot handle message kind {kind!r}")

    # -- the bank's half (a subclass may put the bank elsewhere) --------------
    def withdraw(self, aid: str, request: Any) -> Any:
        """Blind-sign *aid*'s withdrawal request; returns the signature."""
        if aid not in self.bank.accounts:
            raise ProtocolError("withdrawal from unenrolled resident")
        try:
            return self.handle_withdrawal(aid, request)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc

    def deposit(self, aid: str, payload: dict) -> None:
        """Verify and credit one well-formed ``deposit`` message."""
        if aid not in self.bank.accounts:
            raise ProtocolError("deposit into an unenrolled account")
        try:
            self.handle_deposit(aid, payload["coin"], payload["at"])
        except DoubleSpendError as exc:
            raise ProtocolError(f"double spend: {exc}") from exc
        except ValueError as exc:
            raise ProtocolError(f"invalid coin: {exc}") from exc

    def _maybe_deliver(self, pseud: bytes) -> list[Outbound]:
        ciphertext = self.payment_for(pseud)
        if ciphertext is None:
            return []
        return [Outbound(self.worker_name(pseud), "payment-delivery",
                         {"ciphertext": ciphertext})]


class JODecMachine(JobOwnerDec, Party):
    """A job owner: withdraws as its account, runs each job as that
    job's pseudonym."""

    role = JO

    def __init__(
        self,
        aid: str,
        params: DECParams,
        rng: random.Random,
        counter: OpCounter,
        *,
        rsa_bits: int = 1024,
        break_algorithm: str = "epcba",
    ) -> None:
        JobOwnerDec.__init__(self, aid, params, rng, rsa_bits=rsa_bits,
                             break_algorithm=break_algorithm)
        Party.__init__(self, aid)
        self.counter = counter
        self.description = ""
        self.payment = 0
        self.job_id: str | None = None
        self.received_reports: list[dict] = []
        self._deferred_labor: list[RSAPublicKey] = []

    @property
    def nym(self) -> str:
        return pseudonym_name(self.job_key.public.fingerprint())

    def begin_job(self, description: str, payment: int, bank_pk) -> None:
        """Bind to a new job: a fresh job pseudonym for it."""
        self.make_job_identity(self.counter)
        self.description, self.payment, self._bank_pk = description, payment, bank_pk
        self.job_id = None

    def start(self) -> list[Outbound]:
        return [
            Outbound(MA, "job-registration", {
                "jd": self.description, "w": self.payment,
                "rpk_fingerprint": self.job_key.public.fingerprint(),
            }, sender=self.nym),
            self._new_withdrawal(),
        ]

    def _new_withdrawal(self) -> Outbound:
        return Outbound(MA, "withdraw-request", {"request": self.begin_withdraw(self.counter)})

    def handle(self, sender: str, kind: str, payload: Any) -> list[Outbound]:
        if sender != MA:
            raise ProtocolError(f"JO hears only the MA, not {sender!r}")
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
        """Pay the registered worker, withdrawing another coin if needed
        (or waiting for the one already on its way)."""
        if self._pending_secrets:
            self._deferred_labor.append(sp_pub)
            return []
        try:
            ciphertext = self.build_payment(sp_pub, self.payment, self.counter)
        except InsufficientFunds:
            self._deferred_labor.append(sp_pub)
            return [self._new_withdrawal()]
        return [Outbound(MA, "payment-submission",
                         {"pseudonym": sp_pub.fingerprint(), "ciphertext": ciphertext},
                         sender=self.nym)]


class SPDecMachine(SensingParticipantDec, Party):
    """A sensing participant: works each job as a fresh labor
    pseudonym, deposits as its account."""

    role = SP

    def __init__(
        self,
        aid: str,
        params: DECParams,
        rng: random.Random,
        counter: OpCounter,
        *,
        rsa_bits: int = 1024,
    ) -> None:
        SensingParticipantDec.__init__(self, aid, params, rng, rsa_bits=rsa_bits)
        Party.__init__(self, aid)
        self.counter = counter
        self.state = SPDecState.INIT
        self.bundle: PaymentBundle | None = None

    @property
    def pseudonym(self) -> bytes:
        return self.labor_key.public.fingerprint()

    @property
    def nym(self) -> str:
        return pseudonym_name(self.pseudonym)

    def bind(self, job: JobProfile, jo_pseudonym_key: RSAPublicKey, bank_pk,
             data_payload: bytes, deposit_from: float | None) -> None:
        """Take *job* from the board under a fresh labor pseudonym.

        *deposit_from* is the market time the deposit waits start from,
        or ``None`` to keep the verified coins in :attr:`collected`.
        """
        self.make_labor_identity(self.counter)
        self.job, self.jo_pseudonym_key, self.bank_pk = job, jo_pseudonym_key, bank_pk
        self.data_payload, self.deposit_from = data_payload, deposit_from
        self.state = SPDecState.INIT
        self.bundle = None

    def start(self) -> list[Outbound]:
        self.state = SPDecState.DATA_SENT
        return [
            Outbound(MA, "labor-registration", {
                "job": self.job.job_id,
                "rpk": (self.labor_key.public.n, self.labor_key.public.e),
            }, sender=self.nym),
            Outbound(MA, "data-submission", {
                "pseudonym": self.pseudonym, "job": self.job.job_id,
                "data": self.data_payload,
            }, sender=self.nym),
        ]

    def handle(self, sender: str, kind: str, payload: Any) -> list[Outbound]:
        if sender != MA:
            raise ProtocolError(f"SP hears only the MA, not {sender!r}")
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
            if value != self.job.payment:
                raise ProtocolError(f"payment value {value} != advertised {self.job.payment}")
            self.bundle = bundle
            self.state = SPDecState.PAID
            out = [Outbound(MA, "payment-confirm", {"pseudonym": self.pseudonym}, sender=self.nym)]
            if self.deposit_from is not None:
                out += self.deposits()
            return out
        raise ProtocolError(f"SP cannot handle message kind {kind!r}")

    def deposits(self) -> list[Outbound]:
        """The verified coins' deposits, one at a time, spaced apart."""
        out = [Outbound(MA, "deposit", {"aid": self.aid, "coin": token, "at": at})
               for at, token in self.deposit_schedule(self.deposit_from)]
        self.collected.clear()
        return out


class PPMSdecSession:
    """Algorithm 1 for one market: residents enrol at the MA's bank,
    and :meth:`run_job` drives one job's machines to quiescence.

    All traffic is metered per role on the shared :attr:`transport`
    (Table II) and every operation tallied on :attr:`counter` (Table I).
    """

    def __init__(
        self,
        params: DECParams,
        rng: random.Random,
        *,
        rsa_bits: int = 1024,
        break_algorithm: str = "epcba",
    ) -> None:
        self.params = params
        self.rng = rng
        self.rsa_bits = rsa_bits
        self.break_algorithm = break_algorithm
        self.transport = Transport()
        self.counter = OpCounter()
        self.ma = MADecMachine(params, rng, self.counter)
        #: the router the latest job ran on; its parties stay addressed
        self.router: Router | None = None

    def new_job_owner(self, aid: str, funds: int) -> JODecMachine:
        self.ma.bank.open_account(aid, funds)
        return JODecMachine(aid, self.params, self.rng, self.counter,
                            rsa_bits=self.rsa_bits, break_algorithm=self.break_algorithm)

    def new_participant(self, aid: str) -> SPDecMachine:
        self.ma.bank.open_account(aid, 0)
        return SPDecMachine(aid, self.params, self.rng, self.counter, rsa_bits=self.rsa_bits)

    def run_job(
        self,
        jo: JODecMachine,
        sps: list[SPDecMachine],
        *,
        description: str = "sensing job",
        payment: int = 1,
        data_payload: bytes = b"sensing-data",
        deposit: bool = True,
    ) -> list[PaymentBundle]:
        """Execute Algorithm 1 once for *jo* and each SP in *sps*, one SP
        at a time; returns each SP's verified payment bundle."""
        router = self.router = Router(self.transport)
        router.add(self.ma)
        bank_pk = self.ma.bank.public_key
        jo.begin_job(description, payment, bank_pk)
        drive(router, jo, jo.nym)
        job = self.ma.board.lookup(jo.job_id)
        bundles = []
        for sp in sps:
            sp.bind(job, jo.job_key.public, bank_pk, data_payload,
                    self.ma.clock if deposit else None)
            drive(router, sp, sp.nym)
            bundles.append(sp.bundle)
        return bundles
