"""Tests for the message-driven engine and the PPMSpbs state machines."""

from __future__ import annotations

import random

import pytest

from repro.core.engine import Outbound, Party, ProtocolError, Router
from repro.core.pbs_machine import run_machine_market, sender_sp


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


class TestMachineMarket:
    def test_full_market_runs_to_quiescence(self, rng):
        router, ma, jo, sps = run_machine_market(rng, n_workers=3, jo_funds=5)
        assert not router.failures, router.failures
        bank = ma.bank
        assert bank.balance(jo.account_pub.fingerprint()) == 2
        for sp in sps:
            assert bank.balance(sp.account_pub.fingerprint()) == 1
            assert sp.coin is not None

    def test_data_reaches_jo_only_after_confirmation(self, rng):
        router, ma, jo, sps = run_machine_market(
            rng, n_workers=2, jo_funds=4, data_payload=b"noise-62dB"
        )
        assert len(jo.received_reports) == 2
        assert all(r["data"] == b"noise-62dB" for r in jo.received_reports)

    def test_matches_session_implementation(self, rng):
        """Differential check: the state-machine market must produce the
        same bank outcome as the imperative session."""
        from repro.core.ppms_pbs import PPMSpbsSession

        router, ma, jo, sps = run_machine_market(rng, n_workers=2, jo_funds=4)
        machine_balances = sorted(ma.bank.accounts.values())

        session = PPMSpbsSession(random.Random(7), rsa_bits=512)
        jo_s = session.new_job_owner(funds=4)
        sps_s = [session.new_participant() for _ in range(2)]
        session.run_job(jo_s, sps_s)
        session_balances = sorted(session.ma.bank.accounts.values())
        assert machine_balances == session_balances

    def test_replayed_deposit_rejected(self, rng):
        router, ma, jo, sps = run_machine_market(rng, n_workers=1, jo_funds=2)
        sp = sps[0]
        router.post(sp.name, Outbound("MA", "deposit", {
            "sig": sp.coin.value,
            "ctr": sp.coin.counter,
            "serial": sp.coin.common_info,
            "sp_key": (sp.account_pub.n, sp.account_pub.e),
            "jo_key": list(sp._jo_account),
        }))
        router.run()
        assert any("double deposit" in f.error for f in router.failures)
        assert ma.bank.balance(sp.account_pub.fingerprint()) == 1  # unchanged

    def test_out_of_order_payment_rejected(self, rng):
        """A payment delivered before data submission must be refused by
        the SP's state machine."""
        router, ma, jo, sps = run_machine_market(rng, n_workers=1, jo_funds=2)
        sp = sps[0]
        router.post("MA", Outbound(sp.name, "payment-delivery", {"pbs": 1, "ctr": 0}))
        router.run()
        assert any("out of order" in f.error for f in router.failures)

    def test_forged_labor_registration_rejected(self, rng):
        router, ma, jo, sps = run_machine_market(rng, n_workers=1, jo_funds=2)
        router.post("mallory", Outbound("MA", "labor-registration", {
            "job": "job-does-not-exist", "pseudonym": b"m" * 16, "blob": b"junk",
        }))
        router.run()
        assert any("unknown job" in f.error for f in router.failures)

    def test_garbage_blob_poisons_only_that_worker(self, rng):
        router, ma, jo, sps = run_machine_market(rng, n_workers=1, jo_funds=2)
        profile = ma.board.jobs()[0]
        router.post("mallory", Outbound("MA", "labor-registration", {
            "job": profile.job_id, "pseudonym": b"m" * 16, "blob": b"\x00" * 64,
        }))
        router.run()
        assert any("undecryptable" in f.error for f in router.failures)
        # the honest worker's outcome is untouched
        assert ma.bank.balance(sps[0].account_pub.fingerprint()) == 1


class TestAsyncDeliveryOrder:
    def test_pbs_market_converges_under_reordering(self):
        """Random delivery order must not change the bank outcome."""
        import random as _random

        from repro.core.engine import Router
        from repro.core.pbs_machine import JOMachine, SPMachine, MAMachine, sender_sp

        for seed in (1, 2, 3):
            rng = _random.Random(100)
            router = Router(shuffle_rng=_random.Random(seed))
            ma = MAMachine(rng)
            router.add(ma)
            jo = JOMachine("JO", rng, rsa_bits=512)
            router.add(jo)
            ma.open_account(jo.account_pub, 3)
            profile = ma.publish_job("async job", jo.name, jo.job_pub.fingerprint())
            sps = []
            for _ in range(2):
                sp = SPMachine("pending", rng, job=profile, jo_pseudonym_key=jo.job_pub,
                               rsa_bits=512)
                sp.name = sender_sp(sp.pseudonym)
                router.add(sp)
                ma.open_account(sp.account_pub, 0)
                sps.append(sp)
            for sp in sps:
                router.activate(sp.name)
            router.run()
            assert not router.failures, (seed, router.failures)
            for sp in sps:
                assert ma.bank.balance(sp.account_pub.fingerprint()) == 1


def _late_worker(router, ma, jo, rng):
    """One more honest SP joining a market that already ran."""
    from repro.core.pbs_machine import SPMachine

    sp = SPMachine("pending", rng, job=ma.board.jobs()[0], jo_pseudonym_key=jo.job_pub,
                   rsa_bits=512)
    sp.name = sender_sp(sp.pseudonym)
    router.add(sp)
    ma.open_account(sp.account_pub, 0)
    return sp


class TestMalformedMessages:
    """A message of the wrong shape poisons only its own delivery."""

    @pytest.mark.parametrize("kind, make_payload", [
        ("labor-registration", lambda sp: {}),
        ("labor-registration", lambda sp: None),
        ("labor-registration", lambda sp: b"x"),
        ("deposit", lambda sp: {
            "sig": sp.coin.value, "ctr": sp.coin.counter, "serial": sp.coin.common_info,
            "sp_key": (sp.account_pub.n, sp.account_pub.e), "jo_key": None}),
    ], ids=["empty", "none", "bytes", "deposit-jo-key-none"])
    def test_recorded_as_one_failure_and_the_engine_keeps_running(
            self, rng, kind, make_payload):
        router, ma, jo, sps = run_machine_market(rng, n_workers=1, jo_funds=3)
        sp = sps[0]
        payload = make_payload(sp)
        before = len(router.failures)
        router.post("mallory", Outbound("MA", kind, payload))
        # an honest worker arriving behind it is still served in full
        late = _late_worker(router, ma, jo, rng)
        router.activate(late.name)
        router.run()
        (failure,) = router.failures[before:]
        assert failure.error.startswith("malformed") and failure.kind == kind
        assert ma.bank.balance(sp.account_pub.fingerprint()) == 1
        assert ma.bank.balance(late.account_pub.fingerprint()) == 1


class TestJoSignsUnderItsOwnSerial:
    def test_routing_pseudonym_must_be_a_key_the_jo_decrypted(self, rng):
        """The JO signs a coin only under the serial it decrypted itself,
        looked up by the fingerprint of the key *inside* the encrypted
        registration — never by the pseudonym an envelope claims."""
        from repro.core.pbs_machine import JOMachine
        from repro.crypto import rsa
        from repro.net.codec import encode

        jo = JOMachine("JO", rng, rsa_bits=512)
        worker = rsa.generate_keypair(512, rng).public
        blob = rsa.encrypt(jo.job_pub, encode({"rpk": (worker.n, worker.e),
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
    sites, so a machine-driven market reproduces the session's Table I
    row for row — not merely the same final balances."""

    @pytest.mark.parametrize("n_workers", [1, 3])
    def test_rows_equal_the_sessions(self, rng, n_workers):
        from functools import reduce

        from repro.core.ppms_pbs import PPMSpbsSession
        from repro.metrics.opcount import OpCounter

        router, ma, jo, sps = run_machine_market(rng, n_workers=n_workers, jo_funds=4)
        assert not router.failures, router.failures
        machines = reduce(OpCounter.merged, (p.counter for p in (ma, jo, *sps)))

        session = PPMSpbsSession(random.Random(7), rsa_bits=512)
        jo_s = session.new_job_owner(funds=4)
        session.run_job(jo_s, [session.new_participant() for _ in range(n_workers)])
        for party in ("JO", "SP", "MA"):
            assert machines.party_row(party) == session.counter.party_row(party), party
            assert any(machines.party_row(party).values())
