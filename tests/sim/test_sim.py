"""Tests for the discrete-event engine and the market simulation."""

from __future__ import annotations

import random

import pytest

from repro.sim.events import EventQueue, SimulationError
from repro.sim.market_sim import DepositPolicy, MarketSimulation, run_timing_attack


class TestEventQueue:
    def test_time_ordering(self):
        q = EventQueue()
        order = []
        q.schedule(3.0, lambda: order.append("c"))
        q.schedule(1.0, lambda: order.append("a"))
        q.schedule(2.0, lambda: order.append("b"))
        q.run()
        assert order == ["a", "b", "c"]
        assert q.now == 3.0

    def test_tie_break_by_insertion(self):
        q = EventQueue()
        order = []
        q.schedule(1.0, lambda: order.append("first"))
        q.schedule(1.0, lambda: order.append("second"))
        q.run()
        assert order == ["first", "second"]

    def test_actions_can_schedule(self):
        q = EventQueue()
        hits = []

        def recurse(n):
            hits.append(n)
            if n < 3:
                q.schedule_in(1.0, lambda: recurse(n + 1))

        q.schedule(0.0, lambda: recurse(0))
        q.run()
        assert hits == [0, 1, 2, 3]
        assert q.now == 3.0

    def test_no_time_travel(self):
        q = EventQueue()
        q.schedule(5.0, lambda: q.schedule(1.0, lambda: None))
        with pytest.raises(SimulationError):
            q.run()

    def test_negative_delay_rejected(self):
        q = EventQueue()
        with pytest.raises(SimulationError):
            q.schedule_in(-1.0, lambda: None)

    def test_run_until(self):
        q = EventQueue()
        hits = []
        for t in (1.0, 2.0, 3.0):
            q.schedule(t, lambda t=t: hits.append(t))
        q.run(until=2.0)
        assert hits == [1.0, 2.0]
        q.run()
        assert hits == [1.0, 2.0, 3.0]

    def test_event_budget(self):
        q = EventQueue()

        def forever():
            q.schedule_in(1.0, forever)

        q.schedule(0.0, forever)
        with pytest.raises(SimulationError, match="budget"):
            q.run(max_events=100)

    def test_step_and_pending(self):
        q = EventQueue()
        q.schedule(1.0, lambda: None)
        assert q.pending == 1
        assert q.step() is True
        assert q.step() is False


class TestDepositPolicy:
    def test_immediate_is_near_zero(self, rng):
        policy = DepositPolicy.immediate()
        assert policy.initial_wait(rng) < 1e-3
        assert policy.between_wait(rng) < 1e-3

    def test_randomized_positive(self, rng):
        policy = DepositPolicy.randomized(5.0)
        waits = [policy.initial_wait(rng) for _ in range(50)]
        assert all(w >= 0 for w in waits)
        assert sum(waits) / len(waits) > 1.0  # mean ~5

    def test_immediate_is_exactly_zero_and_leaves_rng_untouched(self, rng):
        """Regression: ``immediate()`` used to return ``rng.uniform(0, 1e-6)``,
        which both perturbed event times and silently consumed RNG state
        (shifting every later draw).  The EventQueue FIFO tiebreaker makes
        the jitter unnecessary, so the waits must be exact zeros."""
        policy = DepositPolicy.immediate()
        before = rng.getstate()
        assert policy.initial_wait(rng) == 0.0
        assert policy.between_wait(rng) == 0.0
        assert rng.getstate() == before

    def test_immediate_deposits_resolve_in_fifo_order(self):
        """Two same-time immediate deposits fire in scheduling order."""
        policy = DepositPolicy.immediate()
        rng = random.Random(0)
        queue = EventQueue()
        fired: list[str] = []
        for name in ("first", "second", "third"):
            queue.schedule_in(
                policy.between_wait(rng), lambda name=name: fired.append(name)
            )
        queue.run()
        assert fired == ["first", "second", "third"]


class TestMarketSimulation:
    def test_jobs_complete_and_books_balance(self, dec_params_toy, rng):
        from repro.core.dec_machine import PPMSdecSession

        session = PPMSdecSession(dec_params_toy, rng, rsa_bits=512)
        sim = MarketSimulation(session, rng, deposit_policy=DepositPolicy.immediate())
        for i in range(3):
            sim.schedule_job(float(i), payment=2 + i)
        trace = sim.run()
        assert len(trace.deliveries) == 3
        assert trace.deposits, "deposits must have been executed"
        for i in range(3):
            assert session.ma.bank.balance(f"sim-sp-{i}") == 2 + i

    def test_deposit_times_follow_deliveries(self, dec_params_toy, rng):
        from repro.core.dec_machine import PPMSdecSession

        session = PPMSdecSession(dec_params_toy, rng, rsa_bits=512)
        sim = MarketSimulation(session, rng, deposit_policy=DepositPolicy.randomized(2.0))
        sim.schedule_job(0.0, payment=3)
        trace = sim.run()
        delivery_time = trace.deliveries[0].time
        assert all(dep.time >= delivery_time for dep in trace.deposits)


class TestEndToEndTimingAttack:
    def test_policy_gap_on_real_protocol(self, dec_params_toy):
        """The paper's random-wait prescription, measured end to end."""
        naive = run_timing_attack(
            dec_params_toy, n_jobs=8, policy=DepositPolicy.immediate(), seed=5
        )
        careful = run_timing_attack(
            dec_params_toy, n_jobs=8, policy=DepositPolicy.randomized(10.0), seed=5
        )
        assert naive >= 0.75
        assert careful <= naive

    def test_empty_market(self, dec_params_toy):
        assert run_timing_attack(
            dec_params_toy, n_jobs=0, policy=DepositPolicy.immediate(), seed=1
        ) == 0.0
