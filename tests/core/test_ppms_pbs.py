"""End-to-end and privacy tests for PPMSpbs (Algorithm 4)."""

from __future__ import annotations

import pytest

from repro.core.pbs_machine import PPMSpbsSession
from repro.crypto.partial_blind import verify_partial_blind
from repro.crypto.rsa import RSAPublicKey

RSA_BITS = 512


@pytest.fixture()
def session(rng):
    return PPMSpbsSession(rng, rsa_bits=RSA_BITS)


class TestEndToEnd:
    def test_single_sp(self, session):
        jo = session.new_job_owner(funds=5)
        sp = session.new_participant()
        receipts = session.run_job(jo, [sp])
        assert len(receipts) == 1
        bank = session.ma.bank
        assert bank.balance(jo.account_pub.fingerprint()) == 4
        assert bank.balance(sp.account_pub.fingerprint()) == 1

    def test_many_sps(self, session):
        jo = session.new_job_owner(funds=10)
        sps = [session.new_participant() for _ in range(4)]
        session.run_job(jo, sps)
        bank = session.ma.bank
        assert bank.balance(jo.account_pub.fingerprint()) == 6
        for sp in sps:
            assert bank.balance(sp.account_pub.fingerprint()) == 1

    def test_receipt_verifies(self, session):
        jo = session.new_job_owner(funds=2)
        sp = session.new_participant()
        (receipt,) = session.run_job(jo, [sp])
        jo_pub = RSAPublicKey(*receipt.jo_account_key)
        assert verify_partial_blind(jo_pub, sp.account_pub.fingerprint(), receipt.signature)

    def test_unitary_job_on_board(self, session):
        jo = session.new_job_owner(funds=2)
        sp = session.new_participant()
        session.run_job(jo, [sp], description="unit job")
        jobs = session.ma.board.jobs()
        assert len(jobs) == 1 and jobs[0].payment == 1

    def test_insufficient_funds_blocks_deposit(self, session):
        jo = session.new_job_owner(funds=0)
        sp = session.new_participant()
        with pytest.raises(ValueError):
            session.run_job(jo, [sp])

    def test_no_deposit_mode(self, session):
        jo = session.new_job_owner(funds=3)
        sp = session.new_participant()
        receipts = session.run_job(jo, [sp], deposit=False)
        assert len(receipts) == 1
        assert session.ma.bank.balance(sp.account_pub.fingerprint()) == 0


class TestDoubleDeposit:
    def test_replay_blocked_by_serial(self, session):
        jo = session.new_job_owner(funds=3)
        sp = session.new_participant()
        (receipt,) = session.run_job(jo, [sp])
        with pytest.raises(ValueError, match="double deposit|serial"):
            session.ma.handle_deposit(
                receipt.signature,
                (sp.account_pub.n, sp.account_pub.e),
                receipt.jo_account_key,
            )

    def test_distinct_serials_both_deposit(self, session):
        """The same SP doing the job twice gets two distinct serials."""
        jo = session.new_job_owner(funds=5)
        sp = session.new_participant()
        session.run_job(jo, [sp])
        session.run_job(jo, [sp])
        assert session.ma.bank.balance(sp.account_pub.fingerprint()) == 2


class TestForgery:
    def test_forged_signature_rejected(self, session, rng):
        jo = session.new_job_owner(funds=3)
        sp = session.new_participant()
        (receipt,) = session.run_job(jo, [sp], deposit=False)
        import dataclasses

        forged = dataclasses.replace(
            receipt.signature, value=(receipt.signature.value * 2) % RSAPublicKey(*receipt.jo_account_key).n
        )
        with pytest.raises(ValueError, match="invalid"):
            session.ma.handle_deposit(
                forged, (sp.account_pub.n, sp.account_pub.e), receipt.jo_account_key
            )

    def test_wrong_sp_key_rejected(self, session):
        """Depositing someone else's coin into your account must fail —
        the signature binds the payee's key."""
        jo = session.new_job_owner(funds=3)
        sp1 = session.new_participant()
        sp2 = session.new_participant()
        (receipt,) = session.run_job(jo, [sp1], deposit=False)
        with pytest.raises(ValueError, match="invalid"):
            session.ma.handle_deposit(
                receipt.signature,
                (sp2.account_pub.n, sp2.account_pub.e),
                receipt.jo_account_key,
            )


class TestPrivacyProperties:
    def test_jo_never_sees_sp_real_key(self, session):
        """Transaction-linkage privacy against the JO: nothing the JO
        receives contains the SP's real account key."""
        jo = session.new_job_owner(funds=3)
        sp = session.new_participant()
        session.run_job(jo, [sp], deposit=False)
        from repro.net.codec import encode

        real_key_bytes = sp.account_pub.n.to_bytes(
            (sp.account_pub.n.bit_length() + 7) // 8, "big"
        )
        for env in session.transport.log:
            if env.receiver == "JO":
                assert real_key_bytes not in encode(env.payload)

    def test_blinded_requests_look_random(self, session):
        """Two SPs' blinded payment requests must not repeat."""
        jo = session.new_job_owner(funds=5)
        sps = [session.new_participant() for _ in range(3)]
        session.run_job(jo, sps, deposit=False)
        blinded = [e.payload["blinded"] for e in session.transport.log
                   if e.kind == "blinded-payment"]
        assert len(blinded) == 3 and len(set(blinded)) == 3

    def test_ma_sees_transaction_at_deposit_by_design(self, session):
        """Section V: the bank deliberately learns (JO, SP) pairs."""
        jo = session.new_job_owner(funds=3)
        sp = session.new_participant()
        session.run_job(jo, [sp])
        log = session.ma.bank.transaction_log
        assert log == [(jo.account_pub.fingerprint(), sp.account_pub.fingerprint())]

    def test_job_published_under_pseudonym(self, session):
        jo = session.new_job_owner(funds=3)
        sp = session.new_participant()
        session.run_job(jo, [sp])
        profile = session.ma.board.jobs()[0]
        assert profile.owner_pseudonym != jo.account_pub.fingerprint()


class TestLightweightShape:
    def test_no_zkp_used(self, session):
        """Table I: PPMSpbs involves zero ZKP operations."""
        jo = session.new_job_owner(funds=3)
        sp = session.new_participant()
        session.run_job(jo, [sp])
        for party in ("JO", "SP", "MA"):
            assert session.counter.get(party, "ZKP") == 0

    def test_traffic_much_lighter_than_dec(self, session, dec_params, rng):
        """Table II shape: PPMSpbs total ≪ PPMSdec total per round."""
        jo = session.new_job_owner(funds=3)
        sp = session.new_participant()
        session.run_job(jo, [sp])
        pbs_total = session.transport.total_bytes()

        from repro.core.dec_machine import PPMSdecSession

        dec_session = PPMSdecSession(dec_params, rng, rsa_bits=RSA_BITS)
        jo_d = dec_session.new_job_owner("jo", funds=16)
        sp_d = dec_session.new_participant("sp")
        dec_session.run_job(jo_d, [sp_d], payment=1)
        dec_total = dec_session.transport.total_bytes()
        assert dec_total > 3 * pbs_total
