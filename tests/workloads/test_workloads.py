"""Tests for workload generators (sensing payloads, market populations)."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.net.codec import decode
from repro.workloads.population import generate_market
from repro.workloads.sensing import (
    GENERATORS,
    health_telemetry,
    noise_map_reading,
    transit_trace,
)


@pytest.fixture()
def np_rng():
    return np.random.default_rng(42)


class TestSensingPayloads:
    def test_noise_payload_decodes(self, np_rng):
        payload = decode(noise_map_reading(np_rng))
        assert payload["kind"] == "noise-map"
        assert len(payload["fix"]) == 30
        for lat, lon, db in payload["fix"]:
            assert 30 <= lat <= 34 and 116 <= lon <= 121
            assert 35 <= db <= 110

    def test_health_payload_decodes(self, np_rng):
        payload = decode(health_telemetry(np_rng, hours=12))
        assert len(payload["hr"]) == 12
        assert all(45 <= h <= 180 for h in payload["hr"])
        assert all(s >= 0 for s in payload["steps"])

    def test_transit_payload_decodes(self, np_rng):
        payload = decode(transit_trace(np_rng, stops=5))
        assert len(payload["arrivals"]) == 5
        assert payload["arrivals"] == sorted(payload["arrivals"])

    def test_generators_registry(self, np_rng):
        assert set(GENERATORS) == {"noise", "health", "transit"}
        for gen in GENERATORS.values():
            assert isinstance(gen(np_rng), bytes)

    def test_deterministic_per_seed(self):
        a = noise_map_reading(np.random.default_rng(1))
        b = noise_map_reading(np.random.default_rng(1))
        c = noise_map_reading(np.random.default_rng(2))
        assert a == b != c


class TestMarketPopulation:
    def test_uniform_market(self):
        rng = random.Random(3)
        market = generate_market(rng, level=5, n_jobs=10)
        assert len(market.jobs) == 10
        assert all(1 <= j.payment <= 32 for j in market.jobs)
        assert all(1 <= j.n_participants <= 4 for j in market.jobs)

    def test_distinct_payments(self):
        rng = random.Random(4)
        market = generate_market(rng, level=5, n_jobs=20, payment_mode="distinct")
        payments = [j.payment for j in market.jobs]
        assert len(set(payments)) == 20

    def test_distinct_overflow_rejected(self):
        rng = random.Random(5)
        with pytest.raises(ValueError):
            generate_market(rng, level=2, n_jobs=10, payment_mode="distinct")

    def test_unitary_market(self):
        rng = random.Random(6)
        market = generate_market(rng, level=3, n_jobs=5, payment_mode="unitary")
        assert all(j.payment == 1 for j in market.jobs)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            generate_market(random.Random(7), level=3, n_jobs=2, payment_mode="exotic")

    def test_total_payout(self):
        rng = random.Random(8)
        market = generate_market(rng, level=4, n_jobs=6)
        assert market.total_payout == sum(j.payment * j.n_participants for j in market.jobs)

    def test_participants_range_respected(self):
        rng = random.Random(9)
        market = generate_market(rng, level=3, n_jobs=8, participants_per_job=(2, 2))
        assert all(j.n_participants == 2 for j in market.jobs)


class TestArrivalProcesses:
    def test_poisson_sorted_in_horizon(self):
        from repro.workloads.arrivals import poisson_arrivals

        rng = random.Random(1)
        arrivals = poisson_arrivals(rng, rate=2.0, horizon=100.0)
        assert arrivals == sorted(arrivals)
        assert all(0 <= t < 100.0 for t in arrivals)
        # mean count ~ rate * horizon = 200
        assert 120 < len(arrivals) < 280

    def test_poisson_validation(self):
        from repro.workloads.arrivals import poisson_arrivals

        with pytest.raises(ValueError):
            poisson_arrivals(random.Random(1), rate=0, horizon=1)

    def test_bursty_denser_in_bursts(self):
        from repro.workloads.arrivals import bursty_arrivals

        rng = random.Random(2)
        arrivals = bursty_arrivals(
            rng, rate_on=10.0, rate_off=0.1, mean_on=5.0, mean_off=5.0, horizon=200.0
        )
        assert arrivals == sorted(arrivals)
        # gaps are bimodal: many tiny (in-burst), some huge (off phases)
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        assert min(gaps) < 0.5 and max(gaps) > 2.0

    def test_bursty_validation(self):
        from repro.workloads.arrivals import bursty_arrivals

        with pytest.raises(ValueError):
            bursty_arrivals(random.Random(1), rate_on=1, rate_off=-1,
                            mean_on=1, mean_off=1, horizon=1)
