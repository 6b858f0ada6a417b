"""Divisible E-cash scheme facade: setup, withdraw, spend, deposit.

Ties together the group tower, the bank's CL signatures, the coin tree
and the spend proofs into the four-operation interface PPMSdec uses:

* :func:`setup` — build public parameters (``Setup(DEC)`` in the paper;
  the Cunningham-chain search dominates when no precomputed chain is
  used, which is exactly Fig. 2's subject).
* Withdrawal — a blind interactive protocol: the client commits to a
  fresh coin secret (:func:`begin_withdrawal`), the bank issues a blind
  CL signature (:meth:`DECBank.issue`), the client verifies and builds
  a wallet (:func:`finish_withdrawal`).  The bank learns the account
  that withdrew but *not* the coin secret, so later deposits are
  unlinkable to the withdrawal.
* Spending — :func:`repro.ecash.spend.create_spend` on wallet-allocated
  nodes (see :class:`~repro.ecash.wallet.Wallet`).
* Deposit — :meth:`DECBank.deposit` verifies the token, expands the
  leaf serials under the spent node and rejects any conflict
  (same node, ancestor or descendant) as a double spend.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.crypto.cl_sig import (
    BlindIssuanceRequest,
    CLKeyPair,
    CLPublicKey,
    CLSignature,
    cl_blind_issue,
    cl_blind_request,
    cl_blind_unwrap,
    cl_keygen,
)
from repro.crypto.groups import build_tower
from repro.crypto.pairing import TatePairing, ToyPairing, generate_curve
from repro.ecash.spend import DECParams, SpendToken, verify_spend
from repro.ecash.tree import CoinTree, leaf_serials
from repro.ecash.wallet import Wallet

__all__ = [
    "setup",
    "DECBank",
    "Coin",
    "DoubleSpendError",
    "begin_withdrawal",
    "finish_withdrawal",
]


@dataclass(frozen=True)
class DoubleSpendEvidence:
    """What the bank can prove about a detected double spend.

    ``prior`` identifies the deposit that already covered the colliding
    leaf serial (account, node level, node index); ``offending_node``
    is the node of the rejected token.  Because leaf serials are
    deterministic in the coin secret, the pair of records *is* the
    evidence — anyone holding both tokens can recompute the collision.
    """

    serial: int
    prior: tuple
    offending_node: tuple


class DoubleSpendError(Exception):
    """A deposit conflicts with an earlier one (shared leaf serial).

    Carries :class:`DoubleSpendEvidence` in ``evidence`` so the MA can
    attribute and document the conflict.
    """

    def __init__(self, message: str, evidence: "DoubleSpendEvidence | None" = None):
        super().__init__(message)
        self.evidence = evidence


def setup(
    level: int,
    rng: random.Random,
    *,
    use_known_chain: bool = True,
    chain_bits: int = 16,
    real_pairing: bool = True,
    edge_rounds: int = 24,
) -> DECParams:
    """``Setup(DEC)``: group tower + pairing backend for tree level *level*.

    With ``use_known_chain=False`` the Cunningham chain is searched
    online at *chain_bits* bits — the expensive path whose cost explodes
    with *level* (Fig. 2).  The pairing group is built on storey 0's
    prime order ``q0``, so a coin secret is one exponent in both groups:
    a Tate curve ``p = c·q0 − 1`` at the smallest cofactor, or the toy
    map into storey 0's own group.
    """
    tower = build_tower(level, rng, use_known_chain=use_known_chain, chain_bits=chain_bits)
    storey0 = tower.group(0)
    backend = (TatePairing(generate_curve(storey0.q, rng)) if real_pairing
               else ToyPairing(storey0))
    return DECParams(tower=tower, backend=backend, tree_level=level, edge_rounds=edge_rounds)


@dataclass(frozen=True)
class Coin:
    """A withdrawn divisible coin: the secret and the bank's signature."""

    secret: int
    signature: CLSignature
    level: int

    def wallet(self) -> Wallet:
        """Fresh spend-side bookkeeping for this coin."""
        return Wallet(tree=CoinTree(self.level), secret=self.secret)


def begin_withdrawal(
    params: DECParams, rng: random.Random
) -> tuple[int, BlindIssuanceRequest]:
    """Client move 1: sample a coin secret and build the blind request.

    The secret is an exponent of storey 0 and of the pairing group,
    which share the prime order ``q0``.
    """
    secret = rng.randrange(1, params.secret_bound())
    request, _ = cl_blind_request(params.backend, secret, rng)
    return secret, request


def finish_withdrawal(
    params: DECParams, bank_pk: CLPublicKey, secret: int, signature: CLSignature
) -> Coin:
    """Client move 2: verify the blindly issued signature, mint the coin."""
    if not isinstance(signature, CLSignature):
        raise ValueError(f"not a CL signature: {type(signature).__name__}")
    cl_blind_unwrap(params.backend, bank_pk, secret, signature)
    return Coin(secret=secret, signature=signature, level=params.tree_level)


@dataclass
class DECBank:
    """The bank half of the scheme (run by the MA).

    Tracks per-account balances and the set of deposited leaf serials
    for double-spend detection.
    """

    params: DECParams
    keypair: CLKeyPair
    rng: random.Random
    accounts: dict[str, int] = field(default_factory=dict)
    _seen_serials: dict[int, tuple] = field(default_factory=dict)
    withdrawals: list[str] = field(default_factory=list)
    deposit_seq: int = 0

    @classmethod
    def create(cls, params: DECParams, rng: random.Random) -> "DECBank":
        return cls(params=params, keypair=cl_keygen(params.backend, rng), rng=rng)

    @property
    def public_key(self) -> CLPublicKey:
        return self.keypair.public

    # -- accounts ----------------------------------------------------------
    def open_account(self, aid: str, initial_balance: int = 0) -> None:
        if aid in self.accounts:
            raise ValueError(f"account {aid!r} already exists")
        self.accounts[aid] = initial_balance

    def balance(self, aid: str) -> int:
        return self.accounts[aid]

    # -- withdraw ----------------------------------------------------------
    def issue(self, aid: str, request: BlindIssuanceRequest) -> CLSignature:
        """Blind-issue a coin of value ``2^L`` and debit the account.

        The bank records *who* withdrew (needed for balance integrity)
        but learns nothing about the coin secret.
        """
        value = 1 << self.params.tree_level
        if self.accounts.get(aid, 0) < value:
            raise ValueError(f"account {aid!r} cannot cover a coin of value {value}")
        signature = cl_blind_issue(self.params.backend, self.keypair, request, self.rng)
        self.accounts[aid] -= value
        self.withdrawals.append(aid)
        return signature

    # -- deposit ------------------------------------------------------------
    def deposit(self, aid: str, token: SpendToken, *, context: bytes = b"") -> int:
        """Verify and credit a spend token; detect double spends.

        Returns the credited amount.  Raises :class:`ValueError` for an
        invalid token and :class:`DoubleSpendError` for a conflict.  On
        conflict nothing is credited and no serials are recorded.
        """
        if aid not in self.accounts:
            raise ValueError(f"unknown account {aid!r}")
        if not verify_spend(self.params, self.public_key, token, context=context):
            raise ValueError("invalid spend token")
        serials = leaf_serials(
            self.params.tower, token.node, token.node_key, self.params.tree_level
        )
        for serial in serials:
            if serial in self._seen_serials:
                raise DoubleSpendError(
                    f"leaf serial already deposited (prior: {self._seen_serials[serial]})",
                    evidence=DoubleSpendEvidence(
                        serial=serial,
                        prior=self._seen_serials[serial][:3],
                        offending_node=(aid, token.node.level, token.node.index),
                    ),
                )
        # the sequence number disambiguates deposits of the same node
        # position from different coins (records must be unique per deposit)
        record = (aid, token.node.level, token.node.index, self.deposit_seq)
        self.deposit_seq += 1
        for serial in serials:
            self._seen_serials[serial] = record
        amount = token.denomination(self.params.tree_level)
        self.accounts[aid] += amount
        return amount
