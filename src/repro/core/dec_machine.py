"""PPMSdec — the privacy-preserving market mechanism for arbitrary
payments (paper Section IV, Algorithm 1) — as message-driven state
machines, and :class:`PPMSdecSession`, which runs them synchronously.

Party roles, one class each:

* :class:`MADecMachine` — the MA: bulletin board, message relay and
  escrow (the :class:`~repro.core.market.MarketDesk`), and the virtual
  bank (a :class:`~repro.ecash.dec.DECBank`).
* :class:`JODecMachine` — registers jobs under an ephemeral RSA
  pseudonym, withdraws a divisible coin of value ``2^L`` blindly,
  breaks the payment (unitary / PCBA / EPCBA), and pays SPs with
  encrypted bundles of spend tokens padded by fake coins.
* :class:`SPDecMachine` — registers labor under an ephemeral RSA
  pseudonym, submits data, receives/verifies the encrypted payment,
  and deposits the coins one by one after random delays.

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

Each party reads its messages from its ``table`` (a row per kind: the
payload's fields, their bounds, the handler), tallies every
cryptographic operation of its steps on its
:class:`~repro.metrics.OpCounter` (Table I), and rejects anything forged
or out of order with :class:`~repro.core.engine.ProtocolError` — an SP
a payment before it registered, the MA a deposit into someone else's
account, a JO or SP anything not from the MA.  The
MA's ``clock`` is logical time, the latest deposit's; a job's deposit
delays start from it, the randomized waits the paper prescribes ("SP
waits for a random period of time between two consecutive deposits").

A resident answers to two names that nothing joins: its account id,
under which it withdraws and deposits, and the name of its current
pseudonym (:func:`~repro.core.market.pseudonym_name`), under which it
does everything else.  The MA's only account table is its bank's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum, auto
from typing import Any

import repro.crypto.rsa as rsa
from repro.core.cashbreak import BREAK_FN_BY_NAME
from repro.core.engine import Outbound, Party, ProtocolError, Router, drive, settle, unseal
from repro.core.market import (
    DESK, HELD, JOB, KEY, OWNER, PSEUDONYM, TIME, JobOwner, JobProfile, MarketDesk,
    pseudonym_name,
)
from repro.ecash.dec import (
    BlindIssuanceRequest, CLSignature, Coin, DECBank, DoubleSpendError, begin_withdrawal,
    finish_withdrawal,
)
from repro.ecash.fake import pad_payment
from repro.ecash.spend import DECParams, SpendToken, create_spend, verify_spend
from repro.ecash.wallet import InsufficientFunds, Wallet
from repro.metrics.opcount import OpCounter
from repro.net.codec import decode, encode
from repro.net.schema import MAX_ID, Field, Message, Table
from repro.net.transport import Transport

__all__ = [
    "BREAK_ALGORITHMS", "DepositEvent", "PaymentBundle",
    "MADecMachine", "JODecMachine", "SPDecMachine", "PPMSdecSession",
]

BREAK_ALGORITHMS = BREAK_FN_BY_NAME

# party labels used for op counting and traffic metering
JO, SP, MA = "JO", "SP", "MA"


@dataclass(frozen=True)
class DepositEvent:
    """One e-coin deposit as the bank's ledger records it."""

    time: float
    aid: str
    amount: int
    node_level: int


@dataclass
class PaymentBundle:
    """SP-side result of decrypting and checking a payment."""

    tokens: list[SpendToken]
    fake_count: int
    signature_valid: bool

    def total_value(self, tree_level: int) -> int:
        return sum(t.denomination(tree_level) for t in self.tokens)


class SPDecState(Enum):
    INIT = auto()
    DATA_SENT = auto()
    PAID = auto()


class MADecMachine(MarketDesk, Party):
    """The MA: bulletin board + relay (the desk) + virtual bank."""

    role = MA

    def __init__(self, params: DECParams, rng: random.Random, counter: OpCounter) -> None:
        MarketDesk.__init__(self)
        Party.__init__(self, MA)
        self.params = params
        self.counter = counter
        self.bank = self.make_bank(rng)
        self.deposit_events: list[DepositEvent] = []
        self.clock = 0.0

    def make_bank(self, rng: random.Random) -> DECBank:
        """The bank behind the desk (a subclass may keep it elsewhere)."""
        return DECBank.create(self.params, rng)

    # -- the steps: one handler per row of :attr:`table` ---------------
    def on_withdraw_request(self, sender: str, payload: dict) -> list[Outbound]:
        signature = self.withdraw(sender, payload["request"])
        return [Outbound(sender, "withdraw-response", {"signature": signature})]

    def on_labor_registration(self, sender: str, payload: dict) -> list[Outbound]:
        jo = self.register_labor(sender, rsa.RSAPublicKey(*payload["rpk"]).fingerprint(),
                                 payload["job"])
        return [Outbound(jo, "labor-forward", {"job": payload["job"], "rpk": payload["rpk"]})]

    def on_payment_submission(self, sender: str, payload: dict) -> list[Outbound]:
        return self.accept_payment(sender, payload["pseudonym"],
                                   {"ciphertext": payload["ciphertext"]})

    def on_deposit(self, sender: str, payload: dict) -> list[Outbound]:
        if payload["aid"] != sender:
            raise ProtocolError("deposit with mismatched account identity")
        self.deposit(sender, payload)
        return []

    table = Table("PPMSdec MA message", {
        "job-registration": Message(
            {"jd": Field(str, high=1024), "w": Field(int, low=1, high=(1 << 63) - 1),
             "rpk_fingerprint": Field(bytes, low=1, high=16)},
            MarketDesk.on_job_registration, answers="`job-published`"),
        "withdraw-request": Message({"request": Field(BlindIssuanceRequest)},
                                    on_withdraw_request, answers="`withdraw-response`"),
        "labor-registration": Message({"job": JOB, "rpk": KEY}, on_labor_registration,
                                      answers="`labor-forward` to the job's owner"),
        "payment-submission": Message({"pseudonym": PSEUDONYM, "ciphertext": Field(bytes)},
                                      on_payment_submission, answers=HELD),
        **DESK,
        "deposit": Message({"aid": Field(str, high=MAX_ID), "coin": Field(SpendToken),
                            "at": TIME, "rid": Field(str, optional=True, low=1, high=MAX_ID)},
                           on_deposit, answers="nothing; the coin's value credited"),
    })

    # -- the bank's half (a subclass may put the bank elsewhere) --------------
    def withdraw(self, aid: str, request: Any) -> Any:
        """Blind-sign *aid*'s withdrawal request; returns the signature
        (1 PoK verify = 1 Dec, 1 blind CL signature = 1 Enc)."""
        if aid not in self.bank.accounts:
            raise ProtocolError("withdrawal from unenrolled resident")
        self.counter.record(MA, "Dec")  # verify the request's PoK
        try:
            signature = self.bank.issue(aid, request)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc
        self.counter.record(MA, "Enc")  # the blind CL signature itself
        return signature

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

    def handle_deposit(self, aid: str, token: SpendToken, at_time: float) -> int:
        """Verify + credit a deposit (verification tallied as Dec ops)."""
        self.counter.record(MA, "Dec", 1 + len(token.edges) + 1)  # equality + edges + final
        self.counter.record(MA, "H", 1)  # serial expansion bookkeeping
        amount = self.bank.deposit(aid, token)
        self.clock = max(self.clock, at_time)
        self.deposit_events.append(
            DepositEvent(time=at_time, aid=aid, amount=amount, node_level=token.node.level)
        )
        return amount


class JODecMachine(JobOwner):
    """A job owner: withdraws as its account, runs each job as that
    job's pseudonym."""

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
        if break_algorithm not in BREAK_ALGORITHMS:
            raise ValueError(f"unknown break algorithm {break_algorithm!r}")
        JobOwner.__init__(self, aid, rng, counter, rsa_bits)
        self.aid = aid
        self.params = params
        self.break_algorithm = break_algorithm
        self.coins: list[tuple[Coin, Wallet]] = []
        self._pending_secrets: list[int] = []  # begun withdrawals, answered FIFO
        self._bank_pk = None
        self.payment = 0
        self._deferred_labor: list[rsa.RSAPublicKey] = []

    def begin_job(self, description: str, payment: int, bank_pk) -> None:
        """Bind to a new job under a fresh pseudonym, paying *payment* each worker."""
        super().begin_job(description)
        self.payment, self._bank_pk = payment, bank_pk

    def start(self) -> list[Outbound]:
        return [
            Outbound(MA, "job-registration", {
                "jd": self.description, "w": self.payment,
                "rpk_fingerprint": self.job_key.public.fingerprint(),
            }, sender=self.nym),
            self._new_withdrawal(),
        ]

    def _new_withdrawal(self) -> Outbound:
        return Outbound(MA, "withdraw-request", {"request": self.begin_withdraw()})

    def on_withdraw_response(self, sender: str, payload: dict) -> list[Outbound]:
        if not self._pending_secrets:
            raise ProtocolError("unexpected withdrawal response")
        self.finish_withdraw(payload["signature"])
        # serve any labor registrations that waited for funds
        out = []
        deferred, self._deferred_labor = self._deferred_labor, []
        for sp_pub in deferred:
            out.extend(self._serve_labor(sp_pub))
        return out

    def on_labor_forward(self, sender: str, payload: dict) -> list[Outbound]:
        if payload["job"] != self.job_id:
            raise ProtocolError(f"labor for another job than {self.job_id!r}")
        return self._serve_labor(rsa.RSAPublicKey(*payload["rpk"]))

    table = Table("PPMSdec JO message", {
        **OWNER,
        "withdraw-response": Message({"signature": Field(CLSignature)}, on_withdraw_response,
                                     answers="`payment-submission` to each waiting worker"),
        "labor-forward": Message({"job": JOB, "rpk": KEY}, on_labor_forward,
                                 answers="`payment-submission`, or `withdraw-request` first"),
    })

    def _serve_labor(self, sp_pub: rsa.RSAPublicKey) -> list[Outbound]:
        """Pay the registered worker, withdrawing another coin if needed
        (or waiting for the one already on its way)."""
        if self._pending_secrets:
            self._deferred_labor.append(sp_pub)
            return []
        try:
            ciphertext = self.build_payment(sp_pub, self.payment)
        except InsufficientFunds:
            self._deferred_labor.append(sp_pub)
            return [self._new_withdrawal()]
        return [Outbound(MA, "payment-submission",
                         {"pseudonym": sp_pub.fingerprint(), "ciphertext": ciphertext},
                         sender=self.nym)]

    # -- money withdrawal ------------------------------------------------------
    def begin_withdraw(self) -> object:
        """The blind withdrawal request; its secret waits for the answer."""
        secret, request = begin_withdrawal(self.params, self.rng)
        self.counter.record(JO, "ZKP")  # PoK inside the blind request
        self._pending_secrets.append(secret)
        return request

    def finish_withdraw(self, signature: object) -> None:
        """Turn the answer to the oldest pending request into a coin (an
        answer that fails verification leaves the request pending)."""
        self.counter.record(JO, "Dec")  # verify the blindly issued signature
        try:
            coin = finish_withdrawal(self.params, self._bank_pk, self._pending_secrets[0],
                                     signature)
        except ValueError as exc:
            raise ProtocolError(f"invalid withdrawal signature: {exc}") from exc
        self._pending_secrets.pop(0)
        self.coins.append((coin, coin.wallet()))

    def spendable_balance(self) -> int:
        """Total value still allocatable across all withdrawn coins."""
        return sum(wallet.balance for (_, wallet) in self.coins)

    def change_tokens(self) -> list[SpendToken]:
        """Spend tokens for everything the withdrawn coins still hold.

        Greedily allocates the largest still-available node of every
        withdrawn coin.  Change deposits are exactly as unlinkable as
        worker deposits, so depositing them leaks nothing beyond the
        account's balance change.
        """
        tokens = []
        for coin, wallet in self.coins:
            while wallet.balance > 0:
                denom = 1 << (wallet.balance.bit_length() - 1)
                node = None
                while denom >= 1:
                    try:
                        node = wallet.allocate(denom)
                        break
                    except InsufficientFunds:
                        denom //= 2
                if node is None:  # pragma: no cover - some node always fits
                    break
                token = create_spend(
                    self.params, self._bank_pk, coin.secret, coin.signature, node, self.rng
                )
                self.counter.record(JO, "ZKP", 1 + len(token.edges) + 1)
                tokens.append(token)
        return tokens

    def _allocate(self, denominations: list[int]) -> list[tuple[Coin, "object"]]:
        """Reserve nodes for a break plan, possibly spanning coins.

        Atomic: on failure every reservation is rolled back and
        :class:`~repro.ecash.wallet.InsufficientFunds` propagates.
        """
        picked: list[tuple[Coin, object]] = []
        try:
            for denom in denominations:
                if denom == 0:
                    continue
                for coin, wallet in self.coins:
                    try:
                        picked.append((coin, wallet.allocate(denom)))
                        break
                    except InsufficientFunds:
                        continue
                else:
                    raise InsufficientFunds(f"no coin can serve denomination {denom}")
        except InsufficientFunds:
            self._release(picked)
            raise
        return picked

    def _release(self, picked: list[tuple[Coin, object]]) -> None:
        wallets = {id(coin): wallet for coin, wallet in self.coins}
        for coin, node in picked:
            wallets[id(coin)].release(node)

    # -- cash break and payment submission ---------------------------------------
    def build_payment(self, sp_pubkey: rsa.RSAPublicKey, payment: int) -> bytes:
        """Break the payment, mint spend tokens, pad, sign, encrypt; a
        step that raises leaves the wallets as they were."""
        denominations = BREAK_ALGORITHMS[self.break_algorithm](payment, self.params.tree_level)
        allocations = self._allocate(denominations)
        try:
            blobs: list[bytes] = []
            for coin, node in allocations:
                token = create_spend(
                    self.params, self._bank_pk, coin.secret, coin.signature, node, self.rng
                )
                # equality + edges + final
                self.counter.record(JO, "ZKP", 1 + len(token.edges) + 1)
                blobs.append(encode(token))

            sig = rsa.sign(self.job_key, sp_pubkey.fingerprint())
            self.counter.record(JO, "Enc")  # RSA signature on the payee pseudonym
            self.counter.record(JO, "H")

            padded = pad_payment(blobs, slots=len(denominations), rng=self.rng)
            payload = encode({"coins": padded, "sig": sig})
            ciphertext = rsa.encrypt(sp_pubkey, payload, self.rng)
        except Exception:
            self._release(allocations)
            raise
        self.counter.record(JO, "Enc")  # RSA_ENC of the designated-receiver payment
        return ciphertext


class SPDecMachine(Party):
    """A sensing participant: works each job as a fresh labor
    pseudonym, deposits as its account."""

    role, hears = SP, MA

    def __init__(
        self,
        aid: str,
        params: DECParams,
        rng: random.Random,
        counter: OpCounter,
        *,
        rsa_bits: int = 1024,
    ) -> None:
        Party.__init__(self, aid)
        self.aid = aid
        self.params = params
        self.rng = rng
        self.counter = counter
        self.rsa_bits = rsa_bits
        self.labor_key: rsa.RSAPrivateKey | None = None
        self.collected: list[SpendToken] = []
        self.state = SPDecState.INIT
        self.bundle: PaymentBundle | None = None

    @property
    def pseudonym(self) -> bytes:
        return self.labor_key.public.fingerprint()

    @property
    def nym(self) -> str:
        return pseudonym_name(self.pseudonym)

    def make_labor_identity(self) -> rsa.RSAPublicKey:
        """A fresh ephemeral RSA labor pseudonym."""
        self.labor_key = rsa.generate_keypair(self.rsa_bits, self.rng)
        self.counter.record(SP, "H")  # pseudonym fingerprint derivation
        return self.labor_key.public

    def bind(self, job: JobProfile, jo_pseudonym_key: rsa.RSAPublicKey, bank_pk,
             data_payload: bytes, deposit_from: float | None) -> None:
        """Take *job* from the board under a fresh labor pseudonym.

        *deposit_from* is the market time the deposit waits start from,
        or ``None`` to keep the verified coins in :attr:`collected`.
        """
        self.make_labor_identity()
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

    def on_payment_delivery(self, sender: str, payload: dict) -> list[Outbound]:
        if self.state is not SPDecState.DATA_SENT:
            raise ProtocolError("payment delivered out of order")
        bundle = self.open_payment(payload["ciphertext"], self.jo_pseudonym_key, self.bank_pk)
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

    table = Table("PPMSdec SP message", {
        "payment-delivery": Message({"ciphertext": Field(bytes)}, on_payment_delivery,
                                    answers="`payment-confirm`, then a `deposit` per coin"),
    })

    def open_payment(self, ciphertext: bytes, jo_pubkey: rsa.RSAPublicKey,
                     bank_pk) -> PaymentBundle:
        """Decrypt, weed out fakes, verify coins and the JO signature."""
        try:
            plaintext = rsa.decrypt(self.labor_key, ciphertext)
        except ValueError as exc:
            raise ProtocolError(f"payment undecryptable: {exc}") from exc
        self.counter.record(SP, "Dec")
        payload = unseal(SEALED, "sealed-payment", plaintext)
        sig_ok = rsa.verify(jo_pubkey, self.labor_key.public.fingerprint(), payload["sig"])
        self.counter.record(SP, "Dec")  # signature verification
        tokens: list[SpendToken] = []
        fakes = 0
        for blob in payload["coins"]:
            try:
                candidate = decode(blob)
            except (ValueError, TypeError):
                fakes += 1
                continue
            if not isinstance(candidate, SpendToken):
                fakes += 1
                continue
            self.counter.record(SP, "Dec")  # coin (ZK bundle) verification
            if verify_spend(self.params, bank_pk, candidate):
                tokens.append(candidate)
            else:
                fakes += 1
        bundle = PaymentBundle(tokens=tokens, fake_count=fakes, signature_valid=sig_ok)
        if sig_ok:
            self.collected.extend(tokens)
        return bundle

    def deposit_schedule(self, start_time: float) -> list[tuple[float, SpendToken]]:
        """Random-delay deposit times: one coin at a time, spaced apart."""
        t = start_time + self.rng.uniform(0.5, 5.0)
        plan = []
        for token in self.collected:
            plan.append((t, token))
            t += self.rng.uniform(0.5, 5.0)
        return plan

    def deposits(self) -> list[Outbound]:
        """The verified coins' deposits, one at a time, spaced apart."""
        out = [Outbound(MA, "deposit", {"aid": self.aid, "coin": token, "at": at})
               for at, token in self.deposit_schedule(self.deposit_from)]
        self.collected.clear()
        return out


#: what a payment's ciphertext holds, checked once the SP decrypted it
SEALED = Table("sealed PPMSdec payload", {
    "sealed-payment": Message({"coins": Field(list), "sig": Field(int, low=0)},
                              SPDecMachine.open_payment,
                              answers="each coin blob a spend token or a fake"),
})


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

    def deposit_change(self, jo: JODecMachine) -> int:
        """Deposit what *jo*'s coins still hold into its own account, a
        second apart after the latest deposit, on the router the latest
        job ran on (*jo*'s, as :func:`trade_sensing_service` runs it);
        returns the value deposited."""
        tokens, at = jo.change_tokens(), self.ma.clock
        for token in tokens:
            at += 1.0
            self.router.post(jo.aid, Outbound(MA, "deposit",
                                              {"aid": jo.aid, "coin": token, "at": at}))
        settle(self.router)
        return sum(token.denomination(self.params.tree_level) for token in tokens)
