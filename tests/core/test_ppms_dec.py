"""End-to-end and privacy-property tests for PPMSdec (Algorithm 1)."""

from __future__ import annotations

import pytest

from repro.core.ppms_dec import BREAK_ALGORITHMS, JobOwnerDec, PPMSdecSession
from repro.ecash.tree import CoinTree
from repro.ecash.wallet import InsufficientFunds, Wallet

RSA_BITS = 512  # test-sized


@pytest.fixture()
def session(dec_params, rng):
    return PPMSdecSession(dec_params, rng, rsa_bits=RSA_BITS, break_algorithm="epcba")


class TestEndToEnd:
    def test_single_sp(self, session, dec_params):
        jo = session.new_job_owner("jo-1", funds=64)
        sp = session.new_participant("sp-1")
        bundles = session.run_job(jo, [sp], payment=5)
        assert len(bundles) == 1
        assert bundles[0].signature_valid
        assert bundles[0].total_value(dec_params.tree_level) == 5
        assert session.ma.bank.balance("sp-1") == 5

    def test_multiple_sps(self, session, dec_params):
        jo = session.new_job_owner("jo-1", funds=64)
        sps = [session.new_participant(f"sp-{i}") for i in range(3)]
        bundles = session.run_job(jo, sps, payment=3)
        for i, b in enumerate(bundles):
            assert b.total_value(dec_params.tree_level) == 3
            assert session.ma.bank.balance(f"sp-{i}") == 3

    def test_payment_of_full_coin(self, session, dec_params):
        jo = session.new_job_owner("jo-1", funds=32)
        sp = session.new_participant("sp-1")
        session.run_job(jo, [sp], payment=1 << dec_params.tree_level)
        assert session.ma.bank.balance("sp-1") == 1 << dec_params.tree_level

    def test_withdraws_extra_coins_on_demand(self, session, dec_params):
        """Two payments of 5 don't fit one 2^3 coin — a second withdrawal
        must happen transparently."""
        jo = session.new_job_owner("jo-1", funds=64)
        sps = [session.new_participant(f"sp-{i}") for i in range(2)]
        session.run_job(jo, sps, payment=5)
        assert len(jo.coins) == 2
        assert session.ma.bank.balance("jo-1") == 64 - 16

    def test_money_conservation(self, session, dec_params):
        jo = session.new_job_owner("jo-1", funds=64)
        sps = [session.new_participant(f"sp-{i}") for i in range(2)]
        session.run_job(jo, sps, payment=5)
        bank = session.ma.bank
        in_wallets = jo.spendable_balance()
        total = bank.balance("jo-1") + sum(bank.balance(f"sp-{i}") for i in range(2)) + in_wallets
        assert total == 64

    def test_bulletin_board_published(self, session):
        jo = session.new_job_owner("jo-1", funds=16)
        sp = session.new_participant("sp-1")
        session.run_job(jo, [sp], payment=1, description="noise mapping downtown")
        jobs = session.ma.board.jobs()
        assert len(jobs) == 1
        assert jobs[0].description == "noise mapping downtown"
        assert jobs[0].payment == 1

    def test_deposit_events_recorded(self, session):
        jo = session.new_job_owner("jo-1", funds=16)
        sp = session.new_participant("sp-1")
        session.run_job(jo, [sp], payment=3)
        events = session.ma.deposit_events
        assert sum(e.amount for e in events) == 3
        assert all(e.aid == "sp-1" for e in events)
        times = [e.time for e in events]
        assert times == sorted(times)  # one-by-one with increasing delays

    def test_no_deposit_mode(self, session, dec_params):
        jo = session.new_job_owner("jo-1", funds=16)
        sp = session.new_participant("sp-1")
        bundles = session.run_job(jo, [sp], payment=2, deposit=False)
        assert session.ma.bank.balance("sp-1") == 0
        assert bundles[0].total_value(dec_params.tree_level) == 2


@pytest.mark.parametrize("algorithm", ["unitary", "pcba", "epcba"])
class TestBreakAlgorithms:
    def test_each_strategy_end_to_end(self, dec_params, rng, algorithm):
        session = PPMSdecSession(dec_params, rng, rsa_bits=RSA_BITS, break_algorithm=algorithm)
        jo = session.new_job_owner("jo-1", funds=16)
        sp = session.new_participant("sp-1")
        bundles = session.run_job(jo, [sp], payment=5)
        assert bundles[0].total_value(dec_params.tree_level) == 5
        assert session.ma.bank.balance("sp-1") == 5

    def test_fake_count_fills_slots(self, dec_params, rng, algorithm):
        session = PPMSdecSession(dec_params, rng, rsa_bits=RSA_BITS, break_algorithm=algorithm)
        jo = session.new_job_owner("jo-1", funds=16)
        sp = session.new_participant("sp-1")
        bundles = session.run_job(jo, [sp], payment=5, deposit=False)
        level = dec_params.tree_level
        expected_slots = (1 << level) if algorithm == "unitary" else level + 2
        assert len(bundles[0].tokens) + bundles[0].fake_count == expected_slots


class TestPrivacyProperties:
    def test_no_real_identity_on_the_wire_before_deposit(self, session):
        """Until the deposit step, the SP's account id must never appear
        in any message — only ephemeral pseudonyms."""
        jo = session.new_job_owner("jo-9", funds=16)
        sp = session.new_participant("sp-secret-aid")
        session.run_job(jo, [sp], payment=2, deposit=False)
        from repro.net.codec import encode

        for env in session.transport.log:
            assert b"sp-secret-aid" not in encode(env.payload)

    def test_payment_ciphertext_length_value_independent(self, dec_params, rng):
        """The MA must not learn w from the encrypted payment's length.

        Spend-token size varies with node depth, so equality is up to
        the per-slot reference length; we check the *slot count* is
        constant and lengths are within one slot of each other."""
        sizes = {}
        for payment in (1, 3, 7):
            session = PPMSdecSession(dec_params, rng, rsa_bits=RSA_BITS,
                                     break_algorithm="epcba")
            jo = session.new_job_owner("jo", funds=16)
            sp = session.new_participant("sp")
            session.run_job(jo, [sp], payment=payment, deposit=False)
            env = next(e for e in session.transport.log if e.kind == "payment-delivery")
            sizes[payment] = env.wire_bytes
        spread = max(sizes.values()) - min(sizes.values())
        assert spread < max(sizes.values()) * 0.35

    def test_sp_identifies_all_fakes(self, session, dec_params):
        jo = session.new_job_owner("jo-1", funds=16)
        sp = session.new_participant("sp-1")
        bundles = session.run_job(jo, [sp], payment=2, deposit=False)
        bundle = bundles[0]
        # every slot is either a verified coin or identified as fake
        assert bundle.total_value(dec_params.tree_level) == 2
        assert bundle.fake_count > 0

    def test_deposited_coins_unlinkable_to_withdrawal_commitment(self, session):
        """The bank's deposit view shares no value with its withdrawal
        view (beyond what the protocol intends)."""
        jo = session.new_job_owner("jo-1", funds=16)
        sp = session.new_participant("sp-1")
        session.run_job(jo, [sp], payment=2)
        withdrawal_msgs = [e for e in session.transport.log if e.kind == "withdraw-request"]
        deposit_msgs = [e for e in session.transport.log if e.kind == "deposit"]
        assert withdrawal_msgs and deposit_msgs
        backend = session.params.backend
        commitment = backend.element_encode(withdrawal_msgs[0].payload.commitment)
        for env in deposit_msgs:
            token = env.payload["coin"]
            assert backend.element_encode(token.sig_a) != commitment


class TestOpAndTrafficAccounting:
    def test_jo_zkp_count_grows_with_node_depth(self, dec_params, rng):
        """The Table I shape: (constant + path-length) ZKPs per payment."""
        counts = {}
        for payment in (8, 1):  # 8 = root node (depth 0), 1 = leaf (depth 3)
            session = PPMSdecSession(dec_params, rng, rsa_bits=RSA_BITS,
                                     break_algorithm="pcba")
            jo = session.new_job_owner("jo", funds=16)
            sp = session.new_participant("sp")
            session.run_job(jo, [sp], payment=payment, deposit=False)
            counts[payment] = session.counter.get("JO", "ZKP")
        assert counts[1] > counts[8]

    def test_traffic_recorded_for_all_parties(self, session):
        jo = session.new_job_owner("jo-1", funds=16)
        sp = session.new_participant("sp-1")
        session.run_job(jo, [sp], payment=2)
        meter = session.transport.meter
        for party in ("JO", "SP", "MA"):
            assert meter.output_bytes(party) > 0
            assert meter.input_bytes(party) > 0

    def test_sp_op_counts_present(self, session):
        jo = session.new_job_owner("jo-1", funds=16)
        sp = session.new_participant("sp-1")
        session.run_job(jo, [sp], payment=2)
        assert session.counter.get("SP", "Dec") >= 2  # RSA dec + sig verify


class TestDoubleSpendAcrossSessions:
    def test_jo_cannot_pay_same_node_twice(self, session, dec_params, rng):
        """A malicious JO bypassing its wallet gets caught at deposit."""
        from repro.ecash.spend import create_spend
        from repro.ecash.dec import DoubleSpendError
        from repro.ecash.tree import NodeId

        jo = session.new_job_owner("jo-1", funds=16)
        sp = session.new_participant("sp-1")
        session.run_job(jo, [sp], payment=8)  # spends the root
        coin, _ = jo.coins[0]
        rogue_token = create_spend(
            dec_params, session.ma.bank.public_key, coin.secret, coin.signature,
            NodeId(2, 1), rng,
        )
        with pytest.raises(DoubleSpendError):
            session.ma.bank.deposit("sp-1", rogue_token)


class TestAllocateAcrossCoins:
    """``JobOwnerDec._allocate`` is the one allocator behind every
    payment, on the session and on the engine alike: whatever it hands
    out of one coin must never conflict, or an honest JO double-spends
    (and a double spend is what reveals the spender)."""

    @pytest.mark.parametrize("level", [2, 3, 4])
    @pytest.mark.parametrize("algo", sorted(BREAK_ALGORITHMS))
    def test_no_coin_ever_hands_out_conflicting_nodes(self, level, algo):
        for payment in range(1, (1 << level) + 1):
            jo = JobOwnerDec("jo", None, None, break_algorithm=algo)
            handed: dict[int, list] = {}  # coin number -> nodes handed out
            for _ in range(12):
                denominations = BREAK_ALGORITHMS[algo](payment, level)
                while True:
                    try:
                        picked = jo._allocate(denominations)
                        break
                    except InsufficientFunds:
                        jo.coins.append((len(jo.coins), Wallet(CoinTree(level), secret=0)))
                assert sum(n.value(level) for _, n in picked) == payment
                for coin, node in picked:
                    handed.setdefault(coin, []).append(node)
            for coin, nodes in handed.items():
                for i, a in enumerate(nodes):
                    assert a in jo.coins[coin][1].spent, (payment, coin, a)
                    for b in nodes[i + 1:]:
                        assert not a.conflicts_with(b), (payment, coin, a, b)


class TestSplitWithdrawal:
    def test_two_begun_withdrawals_finish_in_fifo_order(self, dec_params, dec_bank, rng):
        """``begin_withdraw`` twice, ``finish_withdraw`` twice: each answer
        meets the secret of the request it answers (a mismatched pair
        fails the blind-signature check), and both coins spend."""
        from repro.ecash.spend import create_spend
        from repro.metrics.opcount import OpCounter

        counter = OpCounter()
        dec_bank.open_account("jo", 2 << dec_params.tree_level)
        dec_bank.open_account("sp", 0)
        jo = JobOwnerDec("jo", dec_params, rng)
        requests = [jo.begin_withdraw(counter), jo.begin_withdraw(counter)]
        secrets = list(jo._pending_secrets)
        for request in requests:
            jo.finish_withdraw(dec_bank.issue("jo", request), dec_bank.public_key, counter)
        assert [coin.secret for coin, _ in jo.coins] == secrets
        assert jo._pending_secrets == []
        assert counter.party_row("JO") == {"ZKP": 2, "Enc": 0, "Dec": 2, "H": 0}
        for coin, wallet in jo.coins:
            token = create_spend(dec_params, dec_bank.public_key, coin.secret,
                                 coin.signature, wallet.allocate(1), rng)
            assert dec_bank.deposit("sp", token) == 1
