"""The machines' message tables: every row names a handler its party
has, a labor key too small to seal a payment to is refused before any
coin value is reserved, and the three sealed formats — what a party
finds inside a ciphertext once it decrypted it — are refused cleanly,
one :class:`ProtocolError` naming the step, the party as it was."""

from __future__ import annotations

import random

import pytest

from repro.core.dec_machine import JODecMachine, MADecMachine, PPMSdecSession, SPDecMachine
from repro.core.engine import Outbound
from repro.core.market import pseudonym_name
from repro.core.pbs_machine import JOMachine, MAMachine, PPMSpbsSession, SPMachine, SPState
from repro.crypto import rsa
from repro.net.codec import encode
from repro.sim.party import Ring

MACHINES = [MADecMachine, JODecMachine, SPDecMachine, MAMachine, JOMachine, SPMachine, Ring]


@pytest.mark.parametrize("machine", MACHINES, ids=lambda cls: cls.__name__)
def test_every_row_names_a_handler_of_its_party(machine):
    for kind, entry in machine.table.messages.items():
        assert callable(getattr(machine, entry.handler.__name__, None)), kind


def _dec_market(dec_params, rng):
    """One PPMSdec job with one paid worker; the JO's coin has change."""
    session = PPMSdecSession(dec_params, rng, rsa_bits=512, break_algorithm="pcba")
    jo = session.new_job_owner("jo-acct", 2 << dec_params.tree_level)
    sp = session.new_participant("sp-acct")
    session.run_job(jo, [sp], payment=3)
    return session, jo, sp


def _wallets(jo) -> list:
    return [(wallet.balance, sorted(map(repr, wallet.spent))) for _, wallet in jo.coins]


class TestLaborKeyBound:
    """A labor key below :data:`repro.crypto.rsa.HYBRID_MIN_BITS` cannot
    take the payment the JO would seal to it."""

    def test_a_tiny_labor_key_is_refused_and_strands_no_coin_value(self, dec_params, rng):
        session, jo, _ = _dec_market(dec_params, rng)
        router, spendable, wallets = session.router, jo.spendable_balance(), _wallets(jo)
        assert spendable >= jo.payment  # the JO could pay from the coin it holds
        tiny = rsa.generate_keypair(rsa.HYBRID_MIN_BITS - 64, random.Random(9)).public
        labor = {"job": jo.job_id, "rpk": (tiny.n, tiny.e)}
        router.post(pseudonym_name(tiny.fingerprint()),
                    Outbound("MA", "labor-registration", labor))
        router.post("MA", Outbound(jo.nym, "labor-forward", labor))
        router.run()
        assert [(f.receiver, f.kind) for f in router.failures] == [
            ("MA", "labor-registration"), (jo.nym, "labor-forward")]
        assert all(f.error.startswith(f"malformed {f.kind} message: 'rpk' [0] value must be")
                   for f in router.failures)
        assert (jo.spendable_balance(), _wallets(jo)) == (spendable, wallets)

    def test_build_payment_to_a_tiny_key_leaves_the_wallets(self, dec_params, rng):
        session, jo, _ = _dec_market(dec_params, rng)
        spendable, wallets = jo.spendable_balance(), _wallets(jo)
        tiny = rsa.generate_keypair(rsa.HYBRID_MIN_BITS - 64, random.Random(9)).public
        with pytest.raises(ValueError, match="too small for hybrid encryption"):
            jo.build_payment(tiny, jo.payment)
        assert (jo.spendable_balance(), _wallets(jo)) == (spendable, wallets)


class TestSealedFormats:
    """What decrypts to the wrong shape is refused at the row of its
    sealed format, as a message is at its table."""

    @pytest.mark.parametrize("plaintext, error", [
        ({"x": 1}, "malformed sealed-labor-request message: unknown field 'x'"),
        ({"rpk": None, "serial": b"s"},
         "malformed sealed-labor-request message: 'rpk' must be tuple or list, not NoneType"),
    ], ids=["unknown-field", "rpk-none"])
    def test_a_labor_request_of_the_wrong_shape(self, rng, plaintext, error):
        session = PPMSpbsSession(rng, rsa_bits=512)
        jo, sp = session.new_job_owner(funds=2), session.new_participant()
        session.run_job(jo, [sp])
        serials = dict(jo._serial_for)
        blob = rsa.encrypt(jo.job_key.public, encode(plaintext), rng)
        session.router.post("MA", Outbound(jo.nym, "labor-forward",
                                           {"pseudonym": b"m" * 16, "blob": blob}))
        session.router.run()
        (failure,) = session.router.failures
        assert (failure.kind, failure.error) == ("labor-forward", error)
        assert jo._serial_for == serials

    @pytest.mark.parametrize("plaintext, error", [
        ({"coins": 5, "sig": 1}, "malformed sealed-payment message: 'coins' must be list, "
                                 "not int"),
        ([1], "malformed sealed-payment message: sealed-payment must be a dict, not list"),
    ], ids=["coins-int", "not-a-dict"])
    def test_a_payment_of_the_wrong_shape(self, dec_params, rng, plaintext, error):
        session, jo, _ = _dec_market(dec_params, rng)
        sp = session.new_participant("sp-late")
        sp.bind(session.ma.board.lookup(jo.job_id), jo.job_key.public,
                session.ma.bank.public_key, b"late", None)
        session.router.add(sp, sp.nym)
        sp.start()  # registered and data sent: a payment is what it waits for
        state = sp.state
        ciphertext = rsa.encrypt(sp.labor_key.public, encode(plaintext), rng)
        session.router.post("MA", Outbound(sp.nym, "payment-delivery",
                                           {"ciphertext": ciphertext}))
        session.router.run()
        (failure,) = session.router.failures
        assert (failure.kind, failure.error) == ("payment-delivery", error)
        assert (sp.state, sp.bundle, sp.collected) == (state, None, [])


def test_a_forged_coin_leaves_the_worker_waiting_for_the_real_one(rng):
    """The SP unblinds a forged ``payment-delivery`` and refuses it; the
    real blinded signature, delivered after, still makes its coin."""
    session = PPMSpbsSession(rng, rsa_bits=512)
    jo = session.new_job_owner(funds=2)
    session.run_job(jo, [])
    sp = session.new_participant()
    sp.bind(session.ma.board.lookup(jo.job_id), jo.job_key.public, b"data", False)
    router = session.router
    router.add(sp, sp.nym)
    held = []
    real = router.post

    def hold_payment(sender, out):
        if out.kind == "payment-delivery" and not held:
            held.append((sender, out))
            real("MA", Outbound(sp.nym, "payment-delivery", {"pbs": 5, "ctr": 0}))
        else:
            real(sender, out)

    router.post = hold_payment
    router.activate(sp.name)
    router.run()
    assert sp.state is SPState.DATA_SENT and len(router.failures) == 1
    real(*held[0])
    router.run()
    assert sp.state is SPState.PAID and len(sp.receipts) == 1
