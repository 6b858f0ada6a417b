"""Credit circulation: SP-to-SP service trading and redemption.

Paper Section III-A: "The currency ... can be used to buy sensing
services from other SPs, or converted to real-world rewards or even
money."  Two pieces realize that sentence:

* :func:`trade_sensing_service` — an earner turns around and *buys*
  sensing work from another participant: it simply plays the JO role of
  Algorithm 1 with its existing account.  Because PPMSdec's withdrawal
  is blind and jobs are registered under fresh pseudonyms, the buyer's
  history as a worker stays unlinkable to its activity as a buyer.
* :class:`RedemptionDesk` — converts virtual credits into real-world
  reward vouchers.  Redemption (like deposit and withdrawal) is an
  authenticated operation on the account — the identity-revealing
  endpoints of the system are exactly the bank's books, as the paper's
  model prescribes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.dec_machine import JODecMachine, PPMSdecSession, SPDecMachine
from repro.crypto.hashing import sha256

__all__ = ["RedemptionVoucher", "RedemptionDesk", "trade_sensing_service"]


@dataclass(frozen=True)
class RedemptionVoucher:
    """A signed-ish receipt for credits converted to real-world rewards.

    The voucher id commits to account, amount and a bank nonce; the
    real-world fulfilment side (gift card, bank transfer, ...) is out of
    the simulation's scope.
    """

    voucher_id: bytes
    aid: str
    amount: int


@dataclass
class RedemptionDesk:
    """The MA's credit-out window."""

    bank: object  # DECBank; duck-typed so PPMSpbs ledgers could plug in too
    rng: random.Random
    issued: list[RedemptionVoucher] = field(default_factory=list)

    def redeem(self, aid: str, amount: int) -> RedemptionVoucher:
        """Convert *amount* credits from *aid* into a voucher.

        Raises :class:`ValueError` on insufficient balance; the debit
        and the voucher issue are atomic.
        """
        if amount < 1:
            raise ValueError("redemption amount must be positive")
        balance = self.bank.accounts.get(aid)
        if balance is None:
            raise ValueError(f"unknown account {aid!r}")
        if balance < amount:
            raise ValueError(f"account {aid!r} holds {balance} < {amount}")
        nonce = self.rng.getrandbits(128).to_bytes(16, "big")
        voucher = RedemptionVoucher(
            voucher_id=sha256(b"redemption", aid.encode(), amount.to_bytes(8, "big"), nonce)[:16],
            aid=aid,
            amount=amount,
        )
        self.bank.accounts[aid] = balance - amount
        self.issued.append(voucher)
        return voucher


def trade_sensing_service(
    session: PPMSdecSession,
    buyer_aid: str,
    seller: SPDecMachine,
    *,
    payment: int,
    description: str = "peer sensing service",
    data_payload: bytes = b"peer-sensing-data",
) -> JODecMachine:
    """An earned-credits holder buys sensing work from another SP.

    The buyer's account must already exist at the session's bank (it
    typically earned its balance as a worker).  A fresh
    :class:`~repro.core.dec_machine.JODecMachine` persona is created over
    that account and a complete Algorithm-1 round runs against
    *seller*.  Returns the buyer persona (whose wallets may retain
    change from the withdrawal).
    """
    coin_value = 1 << session.params.tree_level
    if buyer_aid not in session.ma.bank.accounts:
        raise ValueError(f"buyer account {buyer_aid!r} not found")
    if session.ma.bank.balance(buyer_aid) < coin_value:
        # withdrawals are whole coins of 2^L; the change comes back below
        raise ValueError(
            f"buyer needs at least one whole coin ({coin_value}) on account "
            f"to withdraw; change is re-deposited after the trade"
        )
    buyer = JODecMachine(
        buyer_aid,
        session.params,
        session.rng,
        session.counter,
        rsa_bits=session.rsa_bits,
        break_algorithm=session.break_algorithm,
    )
    session.run_job(
        buyer,
        [seller],
        description=description,
        payment=payment,
        data_payload=data_payload,
    )
    # return the unspent part of the withdrawal, so the net account
    # movement is exactly the service price
    session.deposit_change(buyer)
    return buyer
