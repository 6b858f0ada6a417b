"""PPMSdec — the privacy-preserving market mechanism for arbitrary
payments (paper Section IV, Algorithm 1).

Party roles:

* :class:`MarketAdministratorDec` — the MA: bulletin board, message
  relay, and the virtual bank (a :class:`~repro.ecash.dec.DECBank`).
* :class:`JobOwnerDec` — registers jobs under an ephemeral RSA
  pseudonym, withdraws a divisible coin of value ``2^L`` blindly,
  breaks the payment (unitary / PCBA / EPCBA), and pays SPs with
  encrypted bundles of spend tokens padded by fake coins.
* :class:`SensingParticipantDec` — registers labor under an ephemeral
  RSA pseudonym, submits data, receives/verifies the encrypted payment,
  and deposits the coins one by one after random delays.

Every message goes through the shared :class:`~repro.net.Transport`
(bytes metered for Table II) and every cryptographic operation is
tallied in an :class:`~repro.metrics.OpCounter` (Table I).  The
``clock`` is logical time used only for the randomized deposit delays
the paper prescribes ("SP waits for a random period of time between two
consecutive deposits").
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.cashbreak import BREAK_FN_BY_NAME
from repro.core.market import DataReport, MarketDesk
from repro.crypto import rsa
from repro.ecash.dec import Coin, DECBank, begin_withdrawal, finish_withdrawal
from repro.ecash.fake import pad_payment
from repro.ecash.spend import DECParams, SpendToken, create_spend, verify_spend
from repro.ecash.wallet import InsufficientFunds, Wallet
from repro.metrics.opcount import OpCounter
from repro.net.codec import decode, encode
from repro.net.transport import Transport

__all__ = [
    "BREAK_ALGORITHMS",
    "DepositEvent",
    "PaymentBundle",
    "MarketAdministratorDec",
    "JobOwnerDec",
    "SensingParticipantDec",
    "PPMSdecSession",
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


class MarketAdministratorDec(MarketDesk):
    """The MA: bulletin board + relay (the desk) + virtual bank."""

    def __init__(self, params: DECParams, rng: random.Random, counter: OpCounter) -> None:
        super().__init__()
        self.params = params
        self.counter = counter
        self.bank = DECBank.create(params, rng)
        self.deposit_events: list[DepositEvent] = []
        self.clock = 0.0

    # -- bank relay -----------------------------------------------------------
    def handle_withdrawal(self, aid: str, request) -> object:
        """Blind-issue a coin (1 CL signature = 1 Enc, 1 PoK verify = 1 Dec)."""
        self.counter.record(MA, "Dec")  # verify the request's PoK
        signature = self.bank.issue(aid, request)
        self.counter.record(MA, "Enc")  # the blind CL signature itself
        return signature

    # -- deposits ------------------------------------------------------------
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


class JobOwnerDec:
    """A job owner in the PPMSdec market."""

    def __init__(
        self,
        aid: str,
        params: DECParams,
        rng: random.Random,
        *,
        rsa_bits: int = 1024,
        break_algorithm: str = "epcba",
    ) -> None:
        if break_algorithm not in BREAK_ALGORITHMS:
            raise ValueError(f"unknown break algorithm {break_algorithm!r}")
        self.aid = aid
        self.params = params
        self.rng = rng
        self.rsa_bits = rsa_bits
        self.break_algorithm = break_algorithm
        self.job_key: rsa.RSAPrivateKey | None = None
        self.coins: list[tuple[Coin, Wallet]] = []
        self._pending_secrets: list[int] = []  # begun withdrawals, answered FIFO
        self._bank_pk = None

    # -- step 2: job registration -------------------------------------------
    def make_job_identity(self, counter: OpCounter) -> rsa.RSAPublicKey:
        """Fresh ephemeral RSA pseudonym ``rpk_jo`` for this job."""
        self.job_key = rsa.generate_keypair(self.rsa_bits, self.rng)
        counter.record(JO, "H")  # pseudonym fingerprint derivation
        return self.job_key.public

    # -- step 3: money withdrawal ---------------------------------------------
    def begin_withdraw(self, counter: OpCounter) -> object:
        """The blind withdrawal request; its secret waits for the answer."""
        secret, request = begin_withdrawal(self.params, self.rng)
        counter.record(JO, "ZKP")  # PoK inside the blind request
        self._pending_secrets.append(secret)
        return request

    def finish_withdraw(self, signature: object, bank_pk: object, counter: OpCounter) -> None:
        """Turn the answer to the oldest pending request into a coin."""
        counter.record(JO, "Dec")  # verify the blindly issued signature
        self._bank_pk = bank_pk
        coin = finish_withdrawal(self.params, bank_pk, self._pending_secrets.pop(0), signature)
        self.coins.append((coin, coin.wallet()))

    def withdraw(self, ma: MarketAdministratorDec, transport: Transport, counter: OpCounter) -> None:
        request = transport.send(JO, MA, "withdraw-request", self.begin_withdraw(counter))
        signature = ma.handle_withdrawal(self.aid, request)
        signature = transport.send(MA, JO, "withdraw-response", signature)
        self.finish_withdraw(signature, ma.bank.public_key, counter)

    def spendable_balance(self) -> int:
        """Total value still allocatable across all withdrawn coins."""
        return sum(wallet.balance for (_, wallet) in self.coins)

    def deposit_change(
        self, ma: MarketAdministratorDec, transport: Transport, counter: OpCounter
    ) -> int:
        """Return unspent coin value to the JO's own account.

        Greedily allocates the largest still-available node of every
        withdrawn coin and deposits it like any other spend.  Change
        deposits are exactly as unlinkable as worker deposits, so doing
        this leaks nothing beyond the account's balance change.
        Returns the total value deposited.
        """
        total = 0
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
                counter.record(JO, "ZKP", 1 + len(token.edges) + 1)
                sent = transport.send(JO, MA, "deposit", {"aid": self.aid, "coin": token})
                total += ma.handle_deposit(self.aid, sent["coin"], ma.clock + 1.0)
        return total

    def _allocate(self, denominations: list[int]) -> list[tuple[Coin, "object"]]:
        """Reserve nodes for a break plan, possibly spanning coins.

        Atomic: on failure every reservation is rolled back and
        :class:`~repro.ecash.wallet.InsufficientFunds` propagates.
        """
        reserved: list[tuple[Wallet, object]] = []
        picked: list[tuple[Coin, object]] = []
        try:
            for denom in denominations:
                if denom == 0:
                    continue
                for coin, wallet in self.coins:
                    try:
                        node = wallet.allocate(denom)
                    except InsufficientFunds:
                        continue
                    reserved.append((wallet, node))
                    picked.append((coin, node))
                    break
                else:
                    raise InsufficientFunds(f"no coin can serve denomination {denom}")
        except InsufficientFunds:
            for wallet, node in reserved:
                wallet.release(node)
            raise
        return picked

    # -- step 4+6: cash break and payment submission -----------------------------
    def build_payment(
        self, sp_pubkey: rsa.RSAPublicKey, payment: int, counter: OpCounter
    ) -> bytes:
        """Break the payment, mint spend tokens, pad, sign, encrypt."""
        if not self.coins or self.job_key is None:
            raise RuntimeError("withdraw() and make_job_identity() must run first")
        level = self.params.tree_level
        denominations = BREAK_ALGORITHMS[self.break_algorithm](payment, level)
        allocations = self._allocate(denominations)
        blobs: list[bytes] = []
        for coin, node in allocations:
            token = create_spend(
                self.params, self._bank_pk, coin.secret, coin.signature, node, self.rng
            )
            counter.record(JO, "ZKP", 1 + len(token.edges) + 1)  # equality + edges + final
            blobs.append(encode(token))

        sig = rsa.sign(self.job_key, sp_pubkey.fingerprint())
        counter.record(JO, "Enc")  # RSA signature on the payee pseudonym
        counter.record(JO, "H")

        padded = pad_payment(blobs, slots=len(denominations), rng=self.rng)
        payload = encode({"coins": padded, "sig": sig})
        ciphertext = rsa.encrypt(sp_pubkey, payload, self.rng)
        counter.record(JO, "Enc")  # RSA_ENC of the designated-receiver payment
        return ciphertext


class SensingParticipantDec:
    """A sensing participant in the PPMSdec market."""

    def __init__(self, aid: str, params: DECParams, rng: random.Random, *, rsa_bits: int = 1024) -> None:
        self.aid = aid
        self.params = params
        self.rng = rng
        self.rsa_bits = rsa_bits
        self.labor_key: rsa.RSAPrivateKey | None = None
        self.collected: list[SpendToken] = []

    # -- step 5: labor registration --------------------------------------------
    def make_labor_identity(self, counter: OpCounter) -> rsa.RSAPublicKey:
        self.labor_key = rsa.generate_keypair(self.rsa_bits, self.rng)
        counter.record(SP, "H")  # pseudonym fingerprint derivation
        return self.labor_key.public

    # -- data -----------------------------------------------------------------
    def make_report(self, job_id: str, payload: bytes) -> DataReport:
        assert self.labor_key is not None, "register labor first"
        return DataReport(
            job_id=job_id,
            submitter_pseudonym=self.labor_key.public.fingerprint(),
            payload=payload,
        )

    # -- step 8: money deposit (verification half) ---------------------------------
    def open_payment(
        self,
        ciphertext: bytes,
        jo_pubkey: rsa.RSAPublicKey,
        bank_pk,
        counter: OpCounter,
    ) -> PaymentBundle:
        """Decrypt, weed out fakes, verify coins and the JO signature."""
        assert self.labor_key is not None
        plaintext = rsa.decrypt(self.labor_key, ciphertext)
        counter.record(SP, "Dec")
        payload = decode(plaintext)
        sig_ok = rsa.verify(jo_pubkey, self.labor_key.public.fingerprint(), payload["sig"])
        counter.record(SP, "Dec")  # signature verification
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
            counter.record(SP, "Dec")  # coin (ZK bundle) verification
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


class PPMSdecSession:
    """End-to-end Algorithm 1 orchestration for one job and its SPs.

    Construct once per market instance; :meth:`run_job` executes the
    full message flow for one JO and any number of SPs and returns the
    per-SP payment bundles.  All traffic/ops are metered on the shared
    transport/counter.
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
        self.ma = MarketAdministratorDec(params, rng, self.counter)

    def new_job_owner(self, aid: str, funds: int) -> JobOwnerDec:
        self.ma.bank.open_account(aid, funds)
        return JobOwnerDec(
            aid, self.params, self.rng, rsa_bits=self.rsa_bits, break_algorithm=self.break_algorithm
        )

    def new_participant(self, aid: str) -> SensingParticipantDec:
        self.ma.bank.open_account(aid, 0)
        return SensingParticipantDec(aid, self.params, self.rng, rsa_bits=self.rsa_bits)

    def run_job(
        self,
        jo: JobOwnerDec,
        sps: list[SensingParticipantDec],
        *,
        description: str = "sensing job",
        payment: int = 1,
        data_payload: bytes = b"sensing-data",
        deposit: bool = True,
    ) -> list[PaymentBundle]:
        """Execute Algorithm 1 once for *jo* and each SP in *sps*."""
        transport, counter, ma = self.transport, self.counter, self.ma

        # 1. job registration: JO -> MA -> bulletin board
        rpk_jo = jo.make_job_identity(counter)
        job_msg = transport.send(JO, MA, "job-registration",
                                 {"jd": description, "w": payment, "rpk": (rpk_jo.n, rpk_jo.e)})
        profile = ma.publish_job(job_msg["jd"], job_msg["w"], rpk_jo.fingerprint())

        # 2. money withdrawal (blind): JO <-> MA
        jo.withdraw(ma, transport, counter)

        bundles: list[PaymentBundle] = []
        for sp in sps:
            # 3. labor registration: SP -> MA -> JO
            rpk_sp = sp.make_labor_identity(counter)
            transport.send(SP, MA, "labor-registration", (rpk_sp.n, rpk_sp.e))
            transport.send(MA, JO, "labor-forward", (rpk_sp.n, rpk_sp.e))

            # 4+6. payment submission: JO -> MA (encrypted, designated receiver)
            # withdraw additional coins on demand until the payment fits
            while True:
                try:
                    ciphertext = jo.build_payment(rpk_sp, payment, counter)
                    break
                except InsufficientFunds:
                    jo.withdraw(ma, transport, counter)
            transport.send(JO, MA, "payment-submission",
                           {"ciphertext": ciphertext, "rpk": (rpk_sp.n, rpk_sp.e)})
            ma.accept_payment(rpk_sp.fingerprint(), ciphertext)

            # 7. data submission: SP -> MA
            report = sp.make_report(profile.job_id, data_payload)
            transport.send(SP, MA, "data-submission",
                           {"job": report.job_id, "data": report.payload,
                            "pseudonym": report.submitter_pseudonym})
            ma.accept_data(report)

            # payment delivery: MA -> SP
            delivered = ma.payment_for(rpk_sp.fingerprint())
            assert delivered is not None
            delivered = transport.send(MA, SP, "payment-delivery", delivered)

            # 8. money deposit, part 1: open + verify, confirm, data release
            bundle = sp.open_payment(delivered, rpk_jo, ma.bank.public_key, counter)
            bundles.append(bundle)
            if bundle.signature_valid and bundle.total_value(self.params.tree_level) == payment:
                transport.send(SP, MA, "payment-confirm", True)
                released = ma.release_data(rpk_sp.fingerprint())
                transport.send(MA, JO, "data-delivery",
                               {"job": released.job_id, "data": released.payload})

            # 8. money deposit, part 2: coins one by one with random delays
            if deposit:
                for at_time, token in sp.deposit_schedule(ma.clock):
                    token = transport.send(SP, MA, "deposit", {"aid": sp.aid, "coin": token})["coin"]
                    ma.handle_deposit(sp.aid, token, at_time)
                sp.collected.clear()
        return bundles
