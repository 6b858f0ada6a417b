"""PPMSpbs — the light-weight mechanism for unitary-payment markets
(paper Section V, Algorithm 4) — as message-driven state machines, and
:class:`PPMSpbsSession`, which runs them synchronously.

The digital coin is a single RSA *partially blind signature* by the
job owner: blind in the SP's real public key (so the JO never learns
whom it paid — transaction-linkage privacy against the JO), with the
job serial number as the embedded common information (so the MA can
check freshness at deposit time and block double deposits).

By design the MA *does* learn which JO and SP transacted at deposit
time — the paper deliberately trades this away ("removing the
transaction privacy against the bank is actually required in many
practical systems to thwart money laundering").  Job-linkage privacy
survives because the job was published under an ephemeral pseudonym
and all payments are unitary, so a deposit cannot be matched to a job.

Each party from Section V is one class whose behaviour is *entirely*
reactions to envelopes — the shape a deployed client/daemon has — and
which tallies every step for Table I; it reads its messages from its
``table``.  Per-SP conversations are keyed
by the SP's ephemeral pseudonym fingerprint, and every handler
validates the session state before acting, rejecting out-of-order or
replayed messages — and a JO or SP anything not from the MA — with
:class:`~repro.core.engine.ProtocolError`.

The order of Algorithm 4's steps is written here, in the handlers, and
nowhere else (all via the MA, as the system model requires):

    JO  -> MA: job-registration   {jd, rpk_fingerprint}
    MA  -> JO: job-published      {job}
    SP  -> MA: labor-registration {job, pseudonym, blob}     RSA_ENC_rpkjo(rpk_sp, serial)
    MA  -> JO: labor-forward      {pseudonym, blob}
    JO  -> MA: labor-answer       {pseudonym, blob}          RSA_ENC_rpksp(rpk_JO, sig)
    MA  -> SP: labor-answer-fwd   {blob}
    SP  -> MA: blinded-payment    {job, pseudonym, blinded}  blinded (rpk_SP, serial)
    SP  -> MA: data-submission    {pseudonym, job, data}
    MA  -> JO: blinded-forward    {pseudonym, blinded}
    JO  -> MA: payment-submission {pseudonym, pbs, ctr}      signed blindly
    MA  -> SP: payment-delivery   {pbs, ctr}                 (data and payment held)
    SP  -> MA: payment-confirm    {pseudonym}
    MA  -> JO: data-delivery      {job, data}
    SP  -> MA: deposit            {sig, ctr, serial, sp_key, jo_key}

In the labor answer the JO discloses its *real* bank key to the SP,
signed under the job pseudonym; at the deposit the MA verifies the
coin, checks serial freshness, and moves one credit from the JO's to
the SP's account.

A resident answers to two names that nothing joins: its account (the
hex fingerprint of its real key), under which it deposits, and the name
of its current pseudonym, under which it does everything else.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum, auto

import repro.crypto.rsa as rsa
from repro.core.engine import Outbound, Party, ProtocolError, Router, drive, unseal
from repro.core.market import (
    DESK, HELD, JOB, KEY, OWNER, PSEUDONYM, TIME, JobOwner, JobProfile, MarketDesk,
    pseudonym_name,
)
from repro.core.pbs_ledger import VirtualBankPbs
from repro.crypto.partial_blind import (
    PartialBlindRequester,
    PartialBlindSignature,
    PartialBlindSigner,
)
from repro.metrics.opcount import OpCounter
from repro.net.codec import encode
from repro.net.schema import MAX_ID, Field, Message, Table
from repro.net.transport import Transport

__all__ = ["CoinReceipt", "MAMachine", "JOMachine", "SPMachine", "PPMSpbsSession"]

JO, SP, MA = "JO", "SP", "MA"

#: a job serial, the coin's common information
SERIAL = Field(bytes, low=16, high=16)


@dataclass(frozen=True)
class CoinReceipt:
    """SP-side record of a verified unitary coin, ready to deposit."""

    signature: PartialBlindSignature
    jo_account_key: tuple[int, int]  # (n, e) of the JO's real key
    serial: bytes


class SPState(Enum):
    INIT = auto()
    REGISTERED = auto()
    DATA_SENT = auto()
    PAID = auto()


class MAMachine(MarketDesk, Party):
    """The market administrator: relay + bulletin board (the desk) + bank."""

    role = MA

    def __init__(self, counter: OpCounter) -> None:
        MarketDesk.__init__(self)
        Party.__init__(self, MA)
        self.counter = counter
        self.bank = self.make_bank()

    def make_bank(self) -> VirtualBankPbs:
        """The bank behind the desk (a subclass may keep it elsewhere)."""
        return VirtualBankPbs()

    # -- the steps: one handler per row of :attr:`table` ---------------
    def on_labor_registration(self, sender: str, payload: dict) -> list[Outbound]:
        jo = self.register_labor(sender, payload["pseudonym"], payload["job"])
        return [Outbound(jo, "labor-forward",
                         {"pseudonym": payload["pseudonym"], "blob": payload["blob"]})]

    def on_labor_answer(self, sender: str, payload: dict) -> list[Outbound]:
        return [Outbound(self.worker_name(payload["pseudonym"]), "labor-answer-fwd",
                         {"blob": payload["blob"]})]

    def on_blinded_payment(self, sender: str, payload: dict) -> list[Outbound]:
        pseudonym = payload["pseudonym"]
        if sender != pseudonym_name(pseudonym) or self._workers.get(pseudonym) != payload["job"]:
            raise ProtocolError("blinded payment from another party than the job's worker")
        return [Outbound(self.owner_of(payload["job"]), "blinded-forward",
                         {"pseudonym": payload["pseudonym"], "blinded": payload["blinded"]})]

    def on_payment_submission(self, sender: str, payload: dict) -> list[Outbound]:
        return self.accept_payment(sender, payload["pseudonym"],
                                   {"pbs": payload["pbs"], "ctr": payload["ctr"]})

    def on_deposit(self, sender: str, payload: dict) -> list[Outbound]:
        signature = PartialBlindSignature(
            value=payload["sig"], counter=payload["ctr"], common_info=payload["serial"])
        self.deposit(sender, signature, payload)
        return []

    table = Table("PPMSpbs MA message", {
        "job-registration": Message(
            {"jd": Field(str, high=1024), "rpk_fingerprint": Field(bytes, low=1, high=16)},
            MarketDesk.on_job_registration, answers="`job-published`"),
        "labor-registration": Message(
            {"job": JOB, "pseudonym": PSEUDONYM, "blob": Field(bytes)}, on_labor_registration,
            answers="`labor-forward` to the job's owner"),
        "labor-answer": Message({"pseudonym": PSEUDONYM, "blob": Field(bytes)}, on_labor_answer,
                                answers="`labor-answer-fwd` to the worker"),
        "blinded-payment": Message(
            {"job": JOB, "pseudonym": PSEUDONYM, "blinded": Field(int, low=1)},
            on_blinded_payment, answers="`blinded-forward` to the job's owner"),
        "payment-submission": Message(
            {"pseudonym": PSEUDONYM, "pbs": Field(int, low=0), "ctr": Field(int, low=0)},
            on_payment_submission, answers=HELD),
        **DESK,
        # an out-of-range counter is the bank's to refuse, as a bad signature
        "deposit": Message(
            {"sig": Field(int, low=1), "ctr": Field(int), "serial": SERIAL,
             "sp_key": KEY, "jo_key": KEY,
             "rid": Field(str, optional=True, low=1, high=MAX_ID),
             "at": Field(float, optional=True, low=TIME.low, high=TIME.high)},
            on_deposit, answers="nothing; one unit moved from the JO to the SP"),
    })

    def deposit(self, sender: str, signature: PartialBlindSignature, payload: dict) -> None:
        """The bank's half of a deposit: move the coin's unit."""
        try:
            self.handle_deposit(signature, payload["sp_key"], payload["jo_key"])
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc

    def handle_deposit(
        self,
        signature: PartialBlindSignature,
        sp_key: tuple[int, int],
        jo_key: tuple[int, int],
    ) -> None:
        """Verify the coin, check serial freshness, move one credit.

        Raises :class:`ValueError` on a bad signature or a replayed
        serial (double deposit).
        """
        self.counter.record(MA, "H")  # recompute the signed representative
        payer, payee = self.bank.check_deposit(signature, sp_key, jo_key)
        self.counter.record(MA, "Dec")  # the verification itself
        self.counter.record(MA, "H")  # serial freshness lookup
        self.bank.apply_deposit(payer, payee, signature.common_info)


class JOMachine(JobOwner):
    """A job owner: answers labor registrations and blind-signs coins,
    each job as that job's pseudonym.

    Holds a *real* account RSA key (bound at the bank) and a fresh
    ephemeral job key per published job.
    """

    def __init__(self, rng: random.Random, counter: OpCounter, *, rsa_bits: int = 1024) -> None:
        self.account_key = rsa.generate_keypair(rsa_bits, rng)
        JobOwner.__init__(self, self.account_pub.fingerprint().hex(), rng, counter, rsa_bits)
        self._signer = PartialBlindSigner(self.account_key)
        # SP pseudonym fingerprint -> the serial decrypted from its registration
        self._serial_for: dict[bytes, bytes] = {}

    @property
    def account_pub(self) -> rsa.RSAPublicKey:
        return self.account_key.public

    def start(self) -> list[Outbound]:
        return [Outbound(MA, "job-registration", {
            "jd": self.description, "rpk_fingerprint": self.job_key.public.fingerprint(),
        }, sender=self.nym)]

    def on_labor_forward(self, sender: str, payload: dict) -> list[Outbound]:
        answer = self.answer_labor_registration(payload["blob"])
        return [Outbound(MA, "labor-answer", {"pseudonym": payload["pseudonym"], "blob": answer},
                         sender=self.nym)]

    def on_blinded_forward(self, sender: str, payload: dict) -> list[Outbound]:
        # the serial this JO itself decrypted for that pseudonym's key
        serial = self._serial_for.get(payload["pseudonym"])
        if serial is None:
            raise ProtocolError("blinded payment before labor registration")
        try:
            pbs, ctr = self._signer.sign_blinded(payload["blinded"], serial)
        except ValueError as exc:
            raise ProtocolError(f"unsignable blinded payment: {exc}") from exc
        self.counter.record(JO, "Enc")  # the partially blind signature
        return [Outbound(MA, "payment-submission",
                         {"pseudonym": payload["pseudonym"], "pbs": pbs, "ctr": ctr},
                         sender=self.nym)]

    table = Table("PPMSpbs JO message", {
        **OWNER,
        "labor-forward": Message({"pseudonym": PSEUDONYM, "blob": Field(bytes)}, on_labor_forward,
                                 answers="`labor-answer`"),
        "blinded-forward": Message({"pseudonym": PSEUDONYM, "blinded": Field(int, low=1)},
                                   on_blinded_forward, answers="`payment-submission`"),
    })

    def answer_labor_registration(self, ciphertext: bytes) -> bytes:
        """Decrypt the SP's (pseudonym, serial), sign them, reply encrypted."""
        try:
            plaintext = rsa.decrypt(self.job_key, ciphertext)
        except ValueError as exc:
            raise ProtocolError(f"undecryptable labor registration: {exc}") from exc
        self.counter.record(JO, "Dec")
        payload = unseal(SEALED, "sealed-labor-request", plaintext)
        sp_pse = rsa.RSAPublicKey(*payload["rpk"])
        serial = payload["serial"]
        self._serial_for[sp_pse.fingerprint()] = serial
        sig = rsa.sign(self.job_key, encode({"rpk": payload["rpk"], "serial": serial}))
        self.counter.record(JO, "Enc")  # the RSA signature
        self.counter.record(JO, "H")
        answer = encode(
            {"jo_account": (self.account_pub.n, self.account_pub.e), "sig": sig}
        )
        reply = rsa.encrypt(sp_pse, answer, self.rng)
        self.counter.record(JO, "Enc")  # RSA_ENC of the answer
        return reply


class SPMachine(Party):
    """A sensing participant: works each job as a fresh labor
    pseudonym, deposits as its account."""

    role, hears = SP, MA

    def __init__(self, rng: random.Random, counter: OpCounter, *, rsa_bits: int = 1024) -> None:
        self.rng = rng
        self.counter = counter
        self.rsa_bits = rsa_bits
        self.account_key = rsa.generate_keypair(rsa_bits, rng)
        Party.__init__(self, self.account_pub.fingerprint().hex())
        self.labor_key: rsa.RSAPrivateKey | None = None
        self.serial: bytes | None = None
        self._jo_account: tuple[int, int] | None = None
        self._requester: PartialBlindRequester | None = None
        self.receipts: list[CoinReceipt] = []
        self.state = SPState.INIT

    @property
    def account_pub(self) -> rsa.RSAPublicKey:
        return self.account_key.public

    @property
    def pseudonym(self) -> bytes:
        return self.labor_key.public.fingerprint()

    @property
    def nym(self) -> str:
        return pseudonym_name(self.pseudonym)

    def bind(self, job: JobProfile, jo_pseudonym_key: rsa.RSAPublicKey,
             data_payload: bytes, deposit: bool) -> None:
        """Take *job* from the board under a fresh labor pseudonym and
        serial; the registration request, encrypted to the job
        pseudonym key, is made now (it carries the pseudonym)."""
        self.job, self.jo_pseudonym_key = job, jo_pseudonym_key
        self.data_payload, self.deposit = data_payload, deposit
        self.labor_key = rsa.generate_keypair(self.rsa_bits, self.rng)
        self.serial = bytes(self.rng.getrandbits(8) for _ in range(16))
        self.counter.record(SP, "H")  # serial/pseudonym derivation
        self._labor_request = rsa.encrypt(jo_pseudonym_key, self._labor_message(), self.rng)
        self.counter.record(SP, "Enc")
        self.state = SPState.INIT

    def _labor_message(self) -> bytes:
        return encode(
            {"rpk": (self.labor_key.public.n, self.labor_key.public.e), "serial": self.serial}
        )

    def start(self) -> list[Outbound]:
        self.state = SPState.REGISTERED
        return [Outbound(MA, "labor-registration",
                         {"job": self.job.job_id, "pseudonym": self.pseudonym,
                          "blob": self._labor_request}, sender=self.nym)]

    def on_labor_answer_fwd(self, sender: str, payload: dict) -> list[Outbound]:
        if self.state is not SPState.REGISTERED:
            raise ProtocolError("labor answer out of order")
        if not self.open_labor_answer(payload["blob"]):
            raise ProtocolError("JO signature on labor answer failed — aborting")
        # blind the *real* account key under the agreed serial
        self._requester = PartialBlindRequester(rsa.RSAPublicKey(*self._jo_account), self.rng)
        self.counter.record(SP, "H")  # the blinded representative hash
        blinded = self._requester.blind(self.account_pub.fingerprint(), self.serial)
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

    def on_payment_delivery(self, sender: str, payload: dict) -> list[Outbound]:
        if self.state is not SPState.DATA_SENT:
            raise ProtocolError("payment delivered out of order")
        try:
            # unblind and verify the coin (raises on signer misbehaviour)
            signature = self._requester.unblind(payload["pbs"], payload["ctr"])
        except ValueError as exc:
            raise ProtocolError(f"coin failed verification: {exc}") from exc
        self.counter.record(SP, "Dec")  # verification inside unblind()
        receipt = CoinReceipt(signature=signature, jo_account_key=self._jo_account,
                              serial=self.serial)
        self.receipts.append(receipt)
        self.state = SPState.PAID
        out = [Outbound(MA, "payment-confirm", {"pseudonym": self.pseudonym}, sender=self.nym)]
        if self.deposit:
            out.append(self.deposit_of(receipt))
        return out

    def deposit_of(self, receipt: CoinReceipt) -> Outbound:
        """The ``deposit`` message for *receipt*'s coin."""
        signature = receipt.signature
        return Outbound(MA, "deposit", {
            "sig": signature.value, "ctr": signature.counter, "serial": signature.common_info,
            "sp_key": (self.account_pub.n, self.account_pub.e),
            "jo_key": list(receipt.jo_account_key),
        })

    table = Table("PPMSpbs SP message", {
        "labor-answer-fwd": Message({"blob": Field(bytes)}, on_labor_answer_fwd,
                                    answers="`blinded-payment` and `data-submission`"),
        "payment-delivery": Message({"pbs": Field(int, low=0), "ctr": Field(int, low=0)},
                                    on_payment_delivery,
                                    answers="`payment-confirm`, then a `deposit`"),
    })

    def open_labor_answer(self, ciphertext: bytes) -> bool:
        """Decrypt the JO's answer, verify its signature, learn rpk_JO."""
        try:
            plaintext = rsa.decrypt(self.labor_key, ciphertext)
        except ValueError as exc:
            raise ProtocolError(f"undecryptable labor answer: {exc}") from exc
        self.counter.record(SP, "Dec")
        payload = unseal(SEALED, "sealed-labor-answer", plaintext)
        message = self._labor_message()
        self.counter.record(SP, "H")
        if not rsa.verify(self.jo_pseudonym_key, message, payload["sig"]):
            return False
        self.counter.record(SP, "Dec")  # signature verification
        self._jo_account = tuple(payload["jo_account"])
        return True


#: what the two labor ciphertexts hold, checked once their receiver decrypted them
SEALED = Table("sealed PPMSpbs payload", {
    "sealed-labor-request": Message({"rpk": KEY, "serial": SERIAL},
                                    JOMachine.answer_labor_registration,
                                    answers="the JO keeps the serial for the key's fingerprint"),
    "sealed-labor-answer": Message({"jo_account": KEY, "sig": Field(int, low=0)},
                                   SPMachine.open_labor_answer,
                                   answers="the SP learns the account key that pays"),
})


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
