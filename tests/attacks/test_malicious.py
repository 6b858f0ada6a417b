"""Tests for staged malicious-party behaviours: every defence must fire."""

from __future__ import annotations

import pytest

from repro.attacks.malicious import (
    jo_reuses_node,
    jo_ships_garbage,
    jo_underpays,
    ma_peeks_payment,
    sp_replays_token,
)
from repro.core.dec_machine import PPMSdecSession


@pytest.fixture()
def session(dec_params, rng):
    return PPMSdecSession(dec_params, rng, rsa_bits=512)


class TestMaliciousJO:
    def test_underpayment_detected(self, session):
        outcome = jo_underpays(session, advertised=5, shipped=3)
        assert not outcome.succeeded
        assert "coin-count" in outcome.caught_by
        assert "3 valid credits" in outcome.detail

    def test_underpayment_requires_actual_underpayment(self, session):
        with pytest.raises(ValueError):
            jo_underpays(session, advertised=3, shipped=3)

    def test_node_reuse_detected(self, session):
        outcome = jo_reuses_node(session)
        assert not outcome.succeeded
        assert "serial" in outcome.caught_by

    def test_garbage_payment_detected(self, session):
        outcome = jo_ships_garbage(session)
        assert not outcome.succeeded
        assert "zero valid coins" in outcome.caught_by
        assert "6 fakes" in outcome.detail


class TestMaliciousSP:
    def test_replay_detected(self, session):
        outcome = sp_replays_token(session)
        assert not outcome.succeeded
        assert "serial" in outcome.caught_by


class TestCuriousMA:
    def test_payment_opaque(self, session, rng):
        outcome = ma_peeks_payment(session, rng)
        assert not outcome.succeeded
        assert "designated-receiver" in outcome.caught_by
        assert "length visible" in outcome.detail  # it DOES learn the size


class TestMaliciousPbs:
    @pytest.fixture()
    def pbs_session(self, rng):
        from repro.core.pbs_machine import PPMSpbsSession

        return PPMSpbsSession(rng, rsa_bits=512)

    def test_unsigned_coin_rejected(self, pbs_session, rng):
        from repro.attacks.malicious import pbs_sp_mints_unsigned_coin

        outcome = pbs_sp_mints_unsigned_coin(pbs_session, rng)
        assert not outcome.succeeded
        assert "verification" in outcome.caught_by

    def test_stolen_coin_rejected(self, pbs_session):
        from repro.attacks.malicious import pbs_sp_steals_coin

        outcome = pbs_sp_steals_coin(pbs_session)
        assert not outcome.succeeded
        assert "payee key" in outcome.caught_by

    def test_serial_swap_caught_by_sp(self, pbs_session, rng):
        from repro.attacks.malicious import pbs_jo_swaps_serial

        outcome = pbs_jo_swaps_serial(pbs_session, rng)
        assert not outcome.succeeded
        assert "unblinding" in outcome.caught_by
