"""Malicious-party behaviours and the checks that catch them.

The paper's trust model allows any insider to turn adversarial.  Each
function here stages one concrete misbehaviour against the honest
counter-party code and returns what happened, so the test suite (and
curious users) can see exactly which check of the mechanism fires:

* :func:`jo_underpays` — the JO advertises *w* but ships fewer real
  coins, padding the difference with extra fakes.  Caught by the SP's
  coin count check before it confirms (paper: "SP check whether there
  are w valid e-coin").
* :func:`jo_reuses_node` — the JO pays two SPs with the same tree node.
  Both payments *verify* (the coins are individually valid); the bank's
  serial expansion catches the second deposit.
* :func:`jo_ships_garbage` — the payment is all fakes.  The SP finds
  zero valid coins and refuses to release its data.
* :func:`sp_replays_token` — the SP deposits the same coin twice.
* :func:`ma_peeks_payment` — the MA tries to open a designated-receiver
  payment it relays.  Decryption without the pseudonym key fails, so
  all the MA can act on is the ciphertext length (which the fake-coin
  padding flattens).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.crypto import rsa
from repro.ecash.dec import DoubleSpendError
from repro.ecash.fake import pad_payment
from repro.ecash.spend import create_spend, verify_spend
from repro.net.codec import encode

__all__ = [
    "MisbehaviourOutcome",
    "jo_underpays",
    "jo_reuses_node",
    "jo_ships_garbage",
    "sp_replays_token",
    "ma_peeks_payment",
    "pbs_sp_mints_unsigned_coin",
    "pbs_sp_steals_coin",
    "pbs_jo_swaps_serial",
]


@dataclass(frozen=True)
class MisbehaviourOutcome:
    """What the staged attack achieved and which defence fired."""

    attack: str
    succeeded: bool
    caught_by: str
    detail: str = ""


def _withdraw(session, aid: str):
    """Helper: give an account a certified coin outside run_job."""
    from repro.ecash.dec import begin_withdrawal, finish_withdrawal

    secret, request = begin_withdrawal(session.params, session.rng)
    signature = session.ma.bank.issue(aid, request)
    return finish_withdrawal(session.params, session.ma.bank.public_key, secret, signature)


def jo_underpays(session, advertised: int, shipped: int) -> MisbehaviourOutcome:
    """JO advertises *advertised* credits, ships only *shipped*."""
    if shipped >= advertised:
        raise ValueError("underpayment requires shipped < advertised")
    params = session.params
    session.ma.bank.open_account("cheat-jo", 1 << params.tree_level)
    coin = _withdraw(session, "cheat-jo")
    wallet = coin.wallet()
    sp = session.new_participant("victim-sp")
    rpk_sp = sp.make_labor_identity()
    jo_key = rsa.generate_keypair(512, session.rng)

    blobs = []
    remaining = shipped
    while remaining:
        denom = 1 << (remaining.bit_length() - 1)
        node = wallet.allocate(denom)
        token = create_spend(
            params, session.ma.bank.public_key, coin.secret, coin.signature, node, session.rng
        )
        blobs.append(encode(token))
        remaining -= denom
    padded = pad_payment(blobs, slots=params.tree_level + 2, rng=session.rng)
    sig = rsa.sign(jo_key, rpk_sp.fingerprint())
    ciphertext = rsa.encrypt(rpk_sp, encode({"coins": padded, "sig": sig}), session.rng)

    bundle = sp.open_payment(ciphertext, jo_key.public, session.ma.bank.public_key)
    received = bundle.total_value(params.tree_level)
    return MisbehaviourOutcome(
        attack="jo_underpays",
        succeeded=received >= advertised,
        caught_by="SP coin-count check before confirming",
        detail=f"SP counted {received} valid credits against advertised {advertised}",
    )


def jo_reuses_node(session) -> MisbehaviourOutcome:
    """JO pays two SPs with spends of the same node."""
    params = session.params
    session.ma.bank.open_account("reuse-jo", 1 << params.tree_level)
    session.ma.bank.open_account("sp-a", 0)
    session.ma.bank.open_account("sp-b", 0)
    coin = _withdraw(session, "reuse-jo")
    node = coin.wallet().allocate(1)
    t1 = create_spend(params, session.ma.bank.public_key, coin.secret, coin.signature,
                      node, session.rng)
    t2 = create_spend(params, session.ma.bank.public_key, coin.secret, coin.signature,
                      node, session.rng)
    # both tokens verify individually — the SPs accept them
    assert verify_spend(params, session.ma.bank.public_key, t1)
    assert verify_spend(params, session.ma.bank.public_key, t2)
    session.ma.bank.deposit("sp-a", t1)
    try:
        session.ma.bank.deposit("sp-b", t2)
        return MisbehaviourOutcome(
            attack="jo_reuses_node", succeeded=True,
            caught_by="nothing — DEFENCE FAILED",
        )
    except DoubleSpendError as exc:
        return MisbehaviourOutcome(
            attack="jo_reuses_node",
            succeeded=False,
            caught_by="bank leaf-serial expansion at second deposit",
            detail=str(exc),
        )


def jo_ships_garbage(session, slots: int = 6) -> MisbehaviourOutcome:
    """JO sends a payment made entirely of fake coins."""
    sp = session.new_participant("garbage-victim")
    rpk_sp = sp.make_labor_identity()
    jo_key = rsa.generate_keypair(512, session.rng)
    padded = pad_payment([], slots=slots, rng=session.rng, reference_length=256)
    sig = rsa.sign(jo_key, rpk_sp.fingerprint())
    ciphertext = rsa.encrypt(rpk_sp, encode({"coins": padded, "sig": sig}), session.rng)
    bundle = sp.open_payment(ciphertext, jo_key.public, session.ma.bank.public_key)
    return MisbehaviourOutcome(
        attack="jo_ships_garbage",
        succeeded=bool(bundle.tokens),
        caught_by="SP verification: zero valid coins, data withheld",
        detail=f"{bundle.fake_count} fakes identified, {len(bundle.tokens)} coins",
    )


def sp_replays_token(session) -> MisbehaviourOutcome:
    """SP deposits the identical coin twice."""
    params = session.params
    session.ma.bank.open_account("replay-jo", 1 << params.tree_level)
    session.ma.bank.open_account("replay-sp", 0)
    coin = _withdraw(session, "replay-jo")
    node = coin.wallet().allocate(2)
    token = create_spend(params, session.ma.bank.public_key, coin.secret, coin.signature,
                         node, session.rng)
    session.ma.bank.deposit("replay-sp", token)
    try:
        session.ma.bank.deposit("replay-sp", token)
        return MisbehaviourOutcome(
            attack="sp_replays_token", succeeded=True,
            caught_by="nothing — DEFENCE FAILED",
        )
    except DoubleSpendError as exc:
        return MisbehaviourOutcome(
            attack="sp_replays_token",
            succeeded=False,
            caught_by="bank serial store (same serials, same account)",
            detail=str(exc),
        )


def ma_peeks_payment(session, rng: random.Random) -> MisbehaviourOutcome:
    """The MA tries to open a relayed designated-receiver payment."""
    params = session.params
    session.ma.bank.open_account("peek-jo", 1 << params.tree_level)
    coin = _withdraw(session, "peek-jo")
    node = coin.wallet().allocate(1)
    token = create_spend(params, session.ma.bank.public_key, coin.secret, coin.signature,
                         node, session.rng)
    sp_key = rsa.generate_keypair(512, rng)
    ciphertext = rsa.encrypt(
        sp_key.public, encode({"coins": [encode(token)], "sig": 0}), rng
    )
    # the MA holds the ciphertext but no pseudonym private key; its only
    # decryption oracle is a key it controls
    ma_key = rsa.generate_keypair(512, rng)
    try:
        rsa.decrypt(ma_key, ciphertext)
        opened = True
    except ValueError:
        opened = False
    return MisbehaviourOutcome(
        attack="ma_peeks_payment",
        succeeded=opened,
        caught_by="designated-receiver encryption (integrity tag mismatch)",
        detail=f"ciphertext length visible: {len(ciphertext)} bytes",
    )


# ---------------------------------------------------------------------------
# PPMSpbs misbehaviours (Section V's lighter trust surface)
# ---------------------------------------------------------------------------

def pbs_sp_mints_unsigned_coin(pbs_session, rng: random.Random) -> MisbehaviourOutcome:
    """An SP fabricates a 'coin' without the JO ever signing."""
    from repro.crypto.partial_blind import PartialBlindSignature

    jo = pbs_session.new_job_owner(funds=2)
    sp = pbs_session.new_participant()
    forged = PartialBlindSignature(
        value=rng.randrange(2, jo.account_pub.n),
        counter=0,
        common_info=b"forged-serial",
    )
    try:
        pbs_session.ma.handle_deposit(
            forged,
            (sp.account_pub.n, sp.account_pub.e),
            (jo.account_pub.n, jo.account_pub.e),
        )
        return MisbehaviourOutcome(
            attack="pbs_sp_mints_unsigned_coin", succeeded=True,
            caught_by="nothing — DEFENCE FAILED",
        )
    except ValueError as exc:
        return MisbehaviourOutcome(
            attack="pbs_sp_mints_unsigned_coin",
            succeeded=False,
            caught_by="partially blind signature verification at deposit",
            detail=str(exc),
        )


def pbs_sp_steals_coin(pbs_session) -> MisbehaviourOutcome:
    """A thief deposits an honest SP's coin into its own account.

    The coin binds the payee's key fingerprint inside the signed
    message, so re-targeting it must fail verification.
    """
    jo = pbs_session.new_job_owner(funds=2)
    victim = pbs_session.new_participant()
    thief = pbs_session.new_participant()
    (receipt,) = pbs_session.run_job(jo, [victim], deposit=False)
    try:
        pbs_session.ma.handle_deposit(
            receipt.signature,
            (thief.account_pub.n, thief.account_pub.e),
            receipt.jo_account_key,
        )
        return MisbehaviourOutcome(
            attack="pbs_sp_steals_coin", succeeded=True,
            caught_by="nothing — DEFENCE FAILED",
        )
    except ValueError as exc:
        return MisbehaviourOutcome(
            attack="pbs_sp_steals_coin",
            succeeded=False,
            caught_by="payee key bound inside the signed message",
            detail=str(exc),
        )


def pbs_jo_swaps_serial(pbs_session, rng: random.Random) -> MisbehaviourOutcome:
    """A JO signs under a different serial than the SP agreed to.

    The SP's unblinding verification catches the substitution before it
    confirms — the JO gains nothing and loses the data.
    """
    from repro.crypto.partial_blind import PartialBlindRequester, PartialBlindSigner

    jo = pbs_session.new_job_owner(funds=2)
    sp = pbs_session.new_participant()
    signer = PartialBlindSigner(jo.account_key)
    requester = PartialBlindRequester(jo.account_pub, rng)
    blinded = requester.blind(sp.account_pub.fingerprint(), b"agreed-serial")
    blind_sig, ctr = signer.sign_blinded(blinded, b"SWAPPED-serial")
    try:
        requester.unblind(blind_sig, ctr)
        return MisbehaviourOutcome(
            attack="pbs_jo_swaps_serial", succeeded=True,
            caught_by="nothing — DEFENCE FAILED",
        )
    except ValueError as exc:
        return MisbehaviourOutcome(
            attack="pbs_jo_swaps_serial",
            succeeded=False,
            caught_by="SP verification at unblinding (Section V step 5)",
            detail=str(exc),
        )
