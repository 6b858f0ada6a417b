"""Tests for the coverage-optimal cash break (extension)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cashbreak import BREAK_FN_BY_NAME, coverage, epcba, validate_break
from repro.core.optimal_break import optimal_break

LEVEL = 6
amounts = st.integers(min_value=1, max_value=1 << LEVEL)


class TestOptimalBreak:
    @given(amounts)
    @settings(max_examples=40, deadline=None)
    def test_valid_and_wire_compatible(self, w):
        slots = optimal_break(w, LEVEL)
        assert validate_break(slots, w, LEVEL)
        assert len(slots) == LEVEL + 2

    @given(amounts)
    @settings(max_examples=40, deadline=None)
    def test_dominates_epcba(self, w):
        """The optimum never covers fewer values than the heuristic."""
        assert len(coverage(optimal_break(w, LEVEL))) >= len(coverage(epcba(w, LEVEL)))

    def test_strictly_better_somewhere(self):
        """EPCBA is a heuristic: the optimum must beat it for some w."""
        assert any(len(coverage(optimal_break(w, 5))) > len(coverage(epcba(w, 5)))
                   for w in range(1, (1 << 5) + 1))

    def test_known_small_cases(self):
        # w=1: only {1}
        assert [c for c in optimal_break(1, 3) if c] == [1]
        # w=2 with 5 slots: {1,1} covers {1,2}; {2} covers {2} -> optimal {1,1}
        assert sorted(c for c in optimal_break(2, 3) if c) == [1, 1]

    def test_coin_budget_respected(self):
        for w in (1, 7, 31, 64):
            assert sum(1 for c in optimal_break(w, 6) if c) <= 8

    def test_validation(self):
        with pytest.raises(ValueError):
            optimal_break(0, 4)
        with pytest.raises(ValueError):
            optimal_break(17, 4)

    def test_registered_strategy(self):
        assert BREAK_FN_BY_NAME["optimal"] is optimal_break

    def test_deterministic(self):
        assert optimal_break(37, LEVEL) == optimal_break(37, LEVEL)


class TestEndToEndWithOptimal:
    def test_protocol_run(self, dec_params, rng):
        """The optimal strategy must work inside the real mechanism."""
        import repro.core.optimal_break  # noqa: F401 — registers "optimal"
        from repro.core.dec_machine import PPMSdecSession

        session = PPMSdecSession(dec_params, rng, rsa_bits=512,
                                 break_algorithm="optimal")
        jo = session.new_job_owner("jo", funds=16)
        sp = session.new_participant("sp")
        bundles = session.run_job(jo, [sp], payment=5)
        assert bundles[0].total_value(dec_params.tree_level) == 5
        assert session.ma.bank.balance("sp") == 5

    def test_privacy_at_least_epcba(self):
        """In the denomination experiment the optimal break is at least
        as protective as EPCBA."""
        from repro.attacks.linkage import denomination_experiment

        opt = denomination_experiment("optimal", level=5, n_jobs=10,
                                      trials=120, rng=random.Random(3))
        heur = denomination_experiment("epcba", level=5, n_jobs=10,
                                       trials=120, rng=random.Random(3))
        assert opt.identification_rate <= heur.identification_rate + 0.05
        assert opt.mean_anonymity_set >= heur.mean_anonymity_set - 0.2
