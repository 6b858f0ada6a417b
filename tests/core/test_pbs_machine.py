"""Tests for the message-driven engine and the PPMSpbs state machines."""

from __future__ import annotations

import random

import pytest

from repro.core.engine import Outbound, Party, ProtocolError, Router, drive
from repro.core.market import pseudonym_name
from repro.core.pbs_machine import JOMachine, MAMachine, PPMSpbsSession, SPMachine
from repro.metrics.opcount import OpCounter


class Echo(Party):
    def __init__(self, name, peer=None):
        super().__init__(name)
        self.peer = peer
        self.received = []

    def start(self):
        if self.peer:
            return [Outbound(self.peer, "ping", 1)]
        return []

    def handle(self, sender, kind, payload):
        self.received.append((sender, kind, payload))
        if kind == "ping" and payload < 3:
            return [Outbound(sender, "ping", payload + 1)]
        return []


class Rejector(Party):
    def handle(self, sender, kind, payload):
        raise ProtocolError("always rejects")


class TestRouter:
    def test_ping_pong_until_quiescent(self):
        router = Router()
        a, b = Echo("a", peer="b"), Echo("b")
        router.add(a)
        router.add(b)
        router.activate("a")
        delivered = router.run()
        assert delivered == 3  # 1 -> 2 -> 3
        assert [p for (_, _, p) in b.received] == [1, 3]
        assert [p for (_, _, p) in a.received] == [2]

    def test_duplicate_party_rejected(self):
        router = Router()
        router.add(Echo("a"))
        with pytest.raises(ValueError):
            router.add(Echo("a"))

    def test_unknown_receiver(self):
        router = Router()
        router.add(Echo("a", peer="ghost"))
        router.activate("a")
        with pytest.raises(KeyError):
            router.run()

    def test_protocol_error_is_recorded_not_fatal(self):
        router = Router()
        router.add(Rejector("r"))
        router.post("driver", Outbound("r", "anything", 1))
        router.post("driver", Outbound("r", "again", 2))
        router.run()
        assert len(router.failures) == 2
        assert router.failures[0].error == "always rejects"

    def test_delivery_budget(self):
        class Forever(Party):
            def handle(self, sender, kind, payload):
                return [Outbound(self.name, "loop", payload)]

        router = Router()
        router.add(Forever("f"))
        router.post("driver", Outbound("f", "loop", 0))
        with pytest.raises(RuntimeError, match="budget"):
            router.run(max_deliveries=50)

    def test_traffic_metered(self):
        router = Router()
        router.add(Echo("a", peer="b"))
        router.add(Echo("b"))
        router.activate("a")
        router.run()
        assert router.transport.meter.total_bytes() > 0


def _market(rng, *, n_workers, jo_funds, data_payload=b"sensed"):
    """One job run by the session; returns its router and parties."""
    session = PPMSpbsSession(rng, rsa_bits=512)
    jo = session.new_job_owner(funds=jo_funds)
    sps = [session.new_participant() for _ in range(n_workers)]
    session.run_job(jo, sps, description="machine-market job", data_payload=data_payload)
    return session, jo, sps


def _balance(session, party) -> int:
    return session.ma.bank.balance(party.account_pub.fingerprint())


def _late_worker(session, jo):
    """One more honest SP queued on the router the last job ran on."""
    sp = session.new_participant()
    sp.bind(session.ma.board.lookup(jo.job_id), jo.job_key.public, b"late", True)
    session.router.add(sp, sp.nym)
    session.router.activate(sp.name)
    return sp


def _deposit(sp, **changes) -> dict:
    """The deposit an SP sends for its latest coin."""
    receipt = sp.receipts[-1]
    return {"sig": receipt.signature.value, "ctr": receipt.signature.counter,
            "serial": receipt.signature.common_info,
            "sp_key": (sp.account_pub.n, sp.account_pub.e),
            "jo_key": list(receipt.jo_account_key), **changes}


class TestMachineMarket:
    def test_full_market_runs_to_quiescence(self, rng):
        session, jo, sps = _market(rng, n_workers=3, jo_funds=5)
        assert not session.router.failures, session.router.failures
        assert _balance(session, jo) == 2
        for sp in sps:
            assert _balance(session, sp) == 1
            assert len(sp.receipts) == 1

    def test_data_reaches_jo_only_after_confirmation(self, rng):
        session, jo, sps = _market(rng, n_workers=2, jo_funds=4, data_payload=b"noise-62dB")
        assert len(jo.received_reports) == 2
        assert all(r["data"] == b"noise-62dB" for r in jo.received_reports)

    def test_matches_session_implementation(self, rng):
        """Pinned from the imperative session the machines replaced."""
        session, jo, sps = _market(rng, n_workers=2, jo_funds=4)
        assert sorted(session.ma.bank.accounts.values()) == [1, 1, 2]

    def test_replayed_deposit_rejected(self, rng):
        session, jo, (sp,) = _market(rng, n_workers=1, jo_funds=2)
        router = session.router
        router.post(sp.name, Outbound("MA", "deposit", _deposit(sp)))
        router.run()
        assert any("double deposit" in f.error for f in router.failures)
        assert _balance(session, sp) == 1  # unchanged

    @pytest.mark.parametrize("counter", [-1, 2**32])
    def test_out_of_range_counter_is_one_refused_deposit(self, rng, counter):
        session, jo, (sp,) = _market(rng, n_workers=1, jo_funds=2)
        router = session.router
        before = len(router.failures)
        router.post(sp.name, Outbound("MA", "deposit", _deposit(sp, ctr=counter)))
        router.run()
        (failure,) = router.failures[before:]
        assert "invalid partially blind signature" in failure.error
        assert _balance(session, sp) == 1  # its honest deposit, once

    def test_out_of_order_payment_rejected(self, rng):
        """A payment delivered before data submission must be refused by
        the SP's state machine."""
        session, jo, (sp,) = _market(rng, n_workers=1, jo_funds=2)
        router = session.router
        router.post("MA", Outbound(sp.nym, "payment-delivery", {"pbs": 1, "ctr": 0}))
        router.run()
        assert any("out of order" in f.error for f in router.failures)

    def test_forged_labor_registration_rejected(self, rng):
        session, jo, sps = _market(rng, n_workers=1, jo_funds=2)
        router = session.router
        router.post("mallory", Outbound("MA", "labor-registration", {
            "job": "job-does-not-exist", "pseudonym": b"m" * 16, "blob": b"junk",
        }))
        router.run()
        assert any("unknown job" in f.error for f in router.failures)

    def test_garbage_blob_poisons_only_that_worker(self, rng):
        session, jo, sps = _market(rng, n_workers=1, jo_funds=2)
        router = session.router
        # registered from the pseudonym's own name, so the MA relays it
        router.post(pseudonym_name(b"m" * 16), Outbound("MA", "labor-registration", {
            "job": jo.job_id, "pseudonym": b"m" * 16, "blob": b"\x00" * 64,
        }))
        router.run()
        assert any("undecryptable" in f.error for f in router.failures)
        # the honest worker's outcome is untouched
        assert _balance(session, sps[0]) == 1


class TestRelayToUnknownPseudonym:
    """The MA relays only to a pseudonym some party registered labor
    under: anything else is one rejected delivery, not an aborted
    router, and an honest worker queued behind it is still paid."""

    @pytest.mark.parametrize("pseudonym", [b"m" * 16, "mm"], ids=["bytes", "str"])
    def test_labor_answer_for_an_unknown_pseudonym(self, rng, pseudonym):
        session, jo, (sp,) = _market(rng, n_workers=1, jo_funds=3)
        router = session.router
        router.post("mallory", Outbound("MA", "labor-answer",
                                        {"pseudonym": pseudonym, "blob": b"x"}))
        late = _late_worker(session, jo)
        router.run()
        (failure,) = router.failures
        assert failure.kind == "labor-answer"
        assert failure.error.startswith("no labor registered under pseudonym")
        assert _balance(session, late) == 1

    def test_labor_registered_under_another_name_is_refused(self, rng):
        session, jo, sps = _market(rng, n_workers=1, jo_funds=3)
        router = session.router
        router.post("mallory", Outbound("MA", "labor-registration", {
            "job": jo.job_id, "pseudonym": b"m" * 16, "blob": b"x"}))
        router.post("mallory", Outbound("MA", "labor-answer",
                                        {"pseudonym": b"m" * 16, "blob": b"x"}))
        router.run()
        assert [f.kind for f in router.failures] == ["labor-registration", "labor-answer"]


class TestAsyncDeliveryOrder:
    def test_pbs_market_converges_under_reordering(self):
        """Random delivery order must not change the bank outcome."""
        for seed in (1, 2, 3):
            rng = random.Random(100)
            counter = OpCounter()
            router = Router(shuffle_rng=random.Random(seed))
            ma = MAMachine(counter)
            router.add(ma)
            jo = JOMachine(rng, counter, rsa_bits=512)
            ma.bank.open_account(jo.account_pub, 3)
            jo.begin_job("async job")
            drive(router, jo, jo.nym)
            job = ma.board.lookup(jo.job_id)
            sps = []
            for _ in range(2):
                sp = SPMachine(rng, counter, rsa_bits=512)
                ma.bank.open_account(sp.account_pub, 0)
                sp.bind(job, jo.job_key.public, b"sensed", True)
                router.add(sp, sp.nym)
                sps.append(sp)
            for sp in sps:
                router.activate(sp.name)
            router.run()
            assert not router.failures, (seed, router.failures)
            for sp in sps:
                assert ma.bank.balance(sp.account_pub.fingerprint()) == 1


class TestMalformedMessages:
    """A message of the wrong shape poisons only its own delivery."""

    @pytest.mark.parametrize("kind, make_payload", [
        ("labor-registration", lambda sp: {}),
        ("labor-registration", lambda sp: None),
        ("labor-registration", lambda sp: b"x"),
        ("deposit", lambda sp: _deposit(sp, jo_key=None)),
    ], ids=["empty", "none", "bytes", "deposit-jo-key-none"])
    def test_recorded_as_one_failure_and_the_engine_keeps_running(
            self, rng, kind, make_payload):
        session, jo, (sp,) = _market(rng, n_workers=1, jo_funds=3)
        router = session.router
        payload = make_payload(sp)
        before = len(router.failures)
        router.post("mallory", Outbound("MA", kind, payload))
        # an honest worker arriving behind it is still served in full
        late = _late_worker(session, jo)
        router.run()
        (failure,) = router.failures[before:]
        assert failure.error.startswith("malformed") and failure.kind == kind
        assert _balance(session, sp) == 1
        assert _balance(session, late) == 1


class TestJoSignsUnderItsOwnSerial:
    def test_routing_pseudonym_must_be_a_key_the_jo_decrypted(self, rng):
        """The JO signs a coin only under the serial it decrypted itself,
        looked up by the fingerprint of the key *inside* the encrypted
        registration — never by the pseudonym an envelope claims."""
        from repro.crypto import rsa
        from repro.net.codec import encode

        jo = JOMachine(rng, OpCounter(), rsa_bits=512)
        jo.begin_job("job")
        worker = rsa.generate_keypair(512, rng).public
        blob = rsa.encrypt(jo.job_key.public, encode({"rpk": (worker.n, worker.e),
                                                      "serial": b"s" * 16}), rng)
        claimed = b"x" * 16  # the envelope's pseudonym; not the key's fingerprint
        jo.handle("MA", "labor-forward", {"pseudonym": claimed, "blob": blob})
        with pytest.raises(ProtocolError, match="blinded payment before labor registration"):
            jo.handle("MA", "blinded-forward", {"pseudonym": claimed, "blinded": 5})
        (out,) = jo.handle("MA", "blinded-forward",
                           {"pseudonym": worker.fingerprint(), "blinded": 5})
        assert out.kind == "payment-submission"


class TestTableOneParity:
    """The machines tally through the actors' own ``counter.record``
    sites, so a market reproduces, row for row, the Table I counts the
    imperative session recorded before the machines replaced it."""

    ROWS = {
        1: {"JO": {"ZKP": 0, "Enc": 3, "Dec": 1, "H": 2},
            "SP": {"ZKP": 0, "Enc": 1, "Dec": 3, "H": 3},
            "MA": {"ZKP": 0, "Enc": 0, "Dec": 1, "H": 2}},
        3: {"JO": {"ZKP": 0, "Enc": 9, "Dec": 3, "H": 4},
            "SP": {"ZKP": 0, "Enc": 3, "Dec": 9, "H": 9},
            "MA": {"ZKP": 0, "Enc": 0, "Dec": 3, "H": 6}},
    }

    @pytest.mark.parametrize("n_workers", [1, 3])
    def test_rows_equal_the_sessions(self, rng, n_workers):
        session, jo, sps = _market(rng, n_workers=n_workers, jo_funds=4)
        for party in ("JO", "SP", "MA"):
            assert session.counter.party_row(party) == self.ROWS[n_workers][party]
