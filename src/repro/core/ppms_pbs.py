"""PPMSpbs — the light-weight mechanism for unitary-payment markets
(paper Section V, Algorithm 4).

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

Message flow (Algorithm 4), all via the MA:

1.  JO → MA:  job profile ``(jd, rpk_jo)``; MA publishes.
2.  SP → MA → JO:  ``RSA_ENC_rpkjo(rpk_sp, serial)`` (labor reg.)
3.  JO → MA → SP:  ``RSA_ENC_rpksp(rpk_JO, sig)`` — the JO discloses
    its *real* bank key to the SP, signed under the job pseudonym.
4.  SP → MA → JO:  blinded representative of ``(rpk_SP, serial)``;
    JO signs blindly and returns it through the MA.
5.  SP submits data; MA releases the blinded signature; SP unblinds
    and verifies the coin.
6.  SP → MA:  ``(sig, rpk_SP, rpk_JO, serial)`` — deposit; the MA
    verifies, checks serial freshness, and moves one credit from the
    JO's to the SP's account.

The actors here own every step and its Table I tally; the order of the
steps lives in :mod:`repro.core.pbs_machine`, whose machines are these
actors plus :class:`~repro.core.engine.Party` and whose
:class:`~repro.core.pbs_machine.PPMSpbsSession` drives them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.market import MarketDesk
from repro.crypto import rsa
from repro.crypto.partial_blind import (
    PartialBlindRequester,
    PartialBlindSignature,
    PartialBlindSigner,
    verify_partial_blind,
)
from repro.metrics.opcount import OpCounter
from repro.net.codec import decode, encode

__all__ = [
    "DoubleDepositError",
    "VirtualBankPbs",
    "MarketAdministratorPbs",
    "JobOwnerPbs",
    "SensingParticipantPbs",
    "CoinReceipt",
]

JO, SP, MA = "JO", "SP", "MA"


@dataclass(frozen=True)
class CoinReceipt:
    """SP-side record of a verified unitary coin, ready to deposit."""

    signature: PartialBlindSignature
    jo_account_key: tuple[int, int]  # (n, e) of the JO's real key
    serial: bytes


class DoubleDepositError(ValueError):
    """The coin's serial was already deposited."""


@dataclass
class VirtualBankPbs:
    """Account ledger keyed by the residents' *real* RSA public keys.

    The bank knows real identities (accounts require authentic identity
    information, Section III-A); the fingerprint of the bound RSA key
    doubles as the account id.
    """

    accounts: dict[bytes, int] = field(default_factory=dict)
    bound_keys: dict[bytes, tuple[int, int]] = field(default_factory=dict)
    spent_serials: set[tuple[bytes, bytes]] = field(default_factory=set)
    transaction_log: list[tuple[bytes, bytes]] = field(default_factory=list)

    def open_account(self, pubkey: rsa.RSAPublicKey, initial_balance: int = 0) -> bytes:
        aid = pubkey.fingerprint()
        if aid in self.accounts:
            raise ValueError("account already exists for this key")
        self.accounts[aid] = initial_balance
        self.bound_keys[aid] = (pubkey.n, pubkey.e)
        return aid

    def balance(self, aid: bytes) -> int:
        return self.accounts[aid]

    def _check_transfer(self, payer: bytes, payee: bytes) -> None:
        if self.accounts.get(payer, 0) < 1:
            raise ValueError("payer cannot cover a unitary payment")
        if payee not in self.accounts:
            raise ValueError("unknown payee account")

    def transfer_unit(self, payer: bytes, payee: bytes) -> None:
        self._check_transfer(payer, payee)
        self.accounts[payer] -= 1
        self.accounts[payee] += 1
        self.transaction_log.append((payer, payee))

    def check_deposit(
        self,
        signature: PartialBlindSignature,
        sp_key: tuple[int, int],
        jo_key: tuple[int, int],
    ) -> tuple[bytes, bytes]:
        """The pure half of a deposit: verify the coin, check its serial
        is fresh and that the unit can move.

        Returns the ``(payer, payee)`` account ids for
        :meth:`apply_deposit`.  Raises :class:`ValueError` on a bad
        signature or books that cannot move the unit, and
        :class:`DoubleDepositError` on a replayed serial.  Nothing is
        mutated, so a journaled endpoint can check → journal → apply.
        """
        jo_pub = rsa.RSAPublicKey(*jo_key)
        payer, payee = jo_pub.fingerprint(), rsa.RSAPublicKey(*sp_key).fingerprint()
        if not verify_partial_blind(jo_pub, payee, signature):
            raise ValueError("invalid partially blind signature at deposit")
        if (payer, signature.common_info) in self.spent_serials:
            raise DoubleDepositError("serial already deposited (double deposit)")
        self._check_transfer(payer, payee)
        return payer, payee

    def apply_deposit(self, payer: bytes, payee: bytes, serial: bytes) -> None:
        """Move the unit and burn the serial of a checked deposit."""
        self.transfer_unit(payer, payee)
        self.spent_serials.add((payer, serial))


class MarketAdministratorPbs(MarketDesk):
    """MA for the unitary-payment market: the desk plus the bank."""

    def __init__(self, counter: OpCounter) -> None:
        super().__init__()
        self.counter = counter
        self.bank = self.make_bank()

    def make_bank(self) -> VirtualBankPbs:
        """The bank behind the desk (a subclass may keep it elsewhere)."""
        return VirtualBankPbs()

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


class JobOwnerPbs:
    """A job owner in the unitary market.

    Holds a *real* account RSA key (bound at the bank) and a fresh
    ephemeral job key per published job.
    """

    def __init__(self, rng: random.Random, *, rsa_bits: int = 1024) -> None:
        self.rng = rng
        self.rsa_bits = rsa_bits
        self.account_key = rsa.generate_keypair(rsa_bits, rng)
        self.job_key: rsa.RSAPrivateKey | None = None
        self._signer = PartialBlindSigner(self.account_key)
        # SP pseudonym fingerprint -> the serial decrypted from its registration
        self._serial_for: dict[bytes, bytes] = {}

    @property
    def account_pub(self) -> rsa.RSAPublicKey:
        return self.account_key.public

    def make_job_identity(self, counter: OpCounter) -> rsa.RSAPublicKey:
        self.job_key = rsa.generate_keypair(self.rsa_bits, self.rng)
        counter.record(JO, "H")
        return self.job_key.public

    def answer_labor_registration(self, ciphertext: bytes, counter: OpCounter) -> bytes:
        """Decrypt the SP's (pseudonym, serial), sign them, reply encrypted."""
        assert self.job_key is not None, "register a job first"
        plaintext = rsa.decrypt(self.job_key, ciphertext)
        counter.record(JO, "Dec")
        payload = decode(plaintext)
        sp_pse = rsa.RSAPublicKey(*payload["rpk"])
        serial = payload["serial"]
        self._serial_for[sp_pse.fingerprint()] = serial
        sig = rsa.sign(self.job_key, encode({"rpk": payload["rpk"], "serial": serial}))
        counter.record(JO, "Enc")  # the RSA signature
        counter.record(JO, "H")
        answer = encode(
            {"jo_account": (self.account_pub.n, self.account_pub.e), "sig": sig}
        )
        reply = rsa.encrypt(sp_pse, answer, self.rng)
        counter.record(JO, "Enc")  # RSA_ENC of the answer
        return reply

    def sign_payment(self, blinded: int, serial: bytes, counter: OpCounter) -> tuple[int, int]:
        """Blind-sign the payment coin for the agreed *serial*."""
        result = self._signer.sign_blinded(blinded, serial)
        counter.record(JO, "Enc")  # the partially blind signature
        return result


class SensingParticipantPbs:
    """A sensing participant in the unitary market."""

    def __init__(self, rng: random.Random, *, rsa_bits: int = 1024) -> None:
        self.rng = rng
        self.rsa_bits = rsa_bits
        self.account_key = rsa.generate_keypair(rsa_bits, rng)
        self.labor_key: rsa.RSAPrivateKey | None = None
        self.serial: bytes | None = None
        self._jo_account: tuple[int, int] | None = None
        self._requester: PartialBlindRequester | None = None
        self.receipts: list[CoinReceipt] = []

    @property
    def account_pub(self) -> rsa.RSAPublicKey:
        return self.account_key.public

    def make_labor_request(self, jo_pseudonym_key: rsa.RSAPublicKey, counter: OpCounter) -> bytes:
        """Fresh pseudonym + serial, encrypted to the job pseudonym key."""
        self.labor_key = rsa.generate_keypair(self.rsa_bits, self.rng)
        self.serial = bytes(self.rng.getrandbits(8) for _ in range(16))
        counter.record(SP, "H")  # serial/pseudonym derivation
        payload = encode(
            {"rpk": (self.labor_key.public.n, self.labor_key.public.e), "serial": self.serial}
        )
        ciphertext = rsa.encrypt(jo_pseudonym_key, payload, self.rng)
        counter.record(SP, "Enc")
        return ciphertext

    def open_labor_answer(
        self, ciphertext: bytes, jo_pseudonym_key: rsa.RSAPublicKey, counter: OpCounter
    ) -> bool:
        """Decrypt the JO's answer, verify its signature, learn rpk_JO."""
        assert self.labor_key is not None and self.serial is not None
        plaintext = rsa.decrypt(self.labor_key, ciphertext)
        counter.record(SP, "Dec")
        payload = decode(plaintext)
        message = encode(
            {"rpk": (self.labor_key.public.n, self.labor_key.public.e), "serial": self.serial}
        )
        counter.record(SP, "H")
        if not rsa.verify(jo_pseudonym_key, message, payload["sig"]):
            return False
        counter.record(SP, "Dec")  # signature verification
        self._jo_account = tuple(payload["jo_account"])
        return True

    def make_blinded_payment_request(self, counter: OpCounter) -> int:
        """Blind the *real* account key under the agreed serial."""
        assert self._jo_account is not None and self.serial is not None
        jo_pub = rsa.RSAPublicKey(*self._jo_account)
        self._requester = PartialBlindRequester(jo_pub, self.rng)
        counter.record(SP, "H")  # the blinded representative hash
        return self._requester.blind(self.account_pub.fingerprint(), self.serial)

    def finalize_coin(self, blinded_sig: int, counter_value: int, op_counter: OpCounter) -> CoinReceipt:
        """Unblind and verify the coin (raises on signer misbehaviour)."""
        assert self._requester is not None and self._jo_account is not None
        signature = self._requester.unblind(blinded_sig, counter_value)
        op_counter.record(SP, "Dec")  # verification inside unblind()
        receipt = CoinReceipt(
            signature=signature, jo_account_key=self._jo_account, serial=self.serial
        )
        self.receipts.append(receipt)
        return receipt
