"""Scenario runners: determinism, exactly-once semantics, reporting."""

from __future__ import annotations

from repro.crypto.pairing import TatePairing
from repro.testing import FaultPlan
from repro.testing.scenario import run_deposit_scenario, run_pbs_scenario


def test_kits_default_to_setup_parameters(deposit_kit, pbs_kit):
    """Both kits run on ``setup(3)``'s defaults: the Tate pairing and
    24 edge rounds, the parameters a deployment runs."""
    for kit in (deposit_kit, pbs_kit):
        assert isinstance(kit.params.backend, TatePairing)
        assert kit.params.edge_rounds == 24
        assert kit.keypair.public.X == kit.params.backend.exp(
            kit.params.backend.g, kit.keypair.x)


class TestDepositScenario:
    def test_crash_free_baseline(self, deposit_kit):
        result = run_deposit_scenario(FaultPlan(seed=0), kit=deposit_kit)
        assert result.clean, result.report()
        fresh = [r for r in deposit_kit.requests if not r.double_spend]
        frauds = [r for r in deposit_kit.requests if r.double_spend]
        assert result.ok == len(fresh)
        assert result.rejected == len(frauds)
        assert result.errors == 0
        for request in frauds:
            assert result.verdicts[request.rid] == "REJECTED"

    def test_deterministic_in_the_seed(self, deposit_kit):
        a = run_deposit_scenario(4242, kit=deposit_kit)
        b = run_deposit_scenario(4242, kit=deposit_kit)
        assert (a.verdicts, a.crashes, a.dropped, a.findings) == (
            b.verdicts, b.crashes, b.dropped, b.findings
        )

    def test_heavy_duplication_stays_exactly_once(self, deposit_kit):
        """Every request delivered twice; the books credit each token once."""
        plan = FaultPlan(seed=11, duplicate=1.0)
        result = run_deposit_scenario(plan, kit=deposit_kit)
        assert result.clean, result.report()
        assert result.duplicates == len(deposit_kit.requests)
        fresh = [r for r in deposit_kit.requests if not r.double_spend]
        assert result.ok == len(fresh)

    def test_drops_leave_requests_unanswered_and_books_clean(self, deposit_kit):
        plan = FaultPlan(seed=12, drop=0.5)
        result = run_deposit_scenario(plan, kit=deposit_kit)
        assert result.clean, result.report()
        dropped_rids = {deposit_kit.requests[i].rid for i in result.dropped}
        assert dropped_rids.isdisjoint(result.verdicts)
        assert len(result.verdicts) == len(deposit_kit.requests) - len(result.dropped)

    def test_reordering_cannot_break_invariants(self, deposit_kit):
        plan = FaultPlan(seed=13, reorder=1.0, max_slip=5)
        result = run_deposit_scenario(plan, kit=deposit_kit)
        assert result.clean, result.report()

    def test_report_is_a_repro_recipe(self, deposit_kit):
        plan = FaultPlan(seed=555, crash_points=(3,))
        result = run_deposit_scenario(plan, kit=deposit_kit)
        text = result.report()
        assert "555" in text
        assert "crash_points" in text and "[3]" in text
        assert "run_deposit_scenario(555)" in text


class TestPbsScenario:
    def test_crash_free_baseline(self, pbs_kit):
        result = run_pbs_scenario(FaultPlan(seed=0), kit=pbs_kit)
        assert result.clean, result.report()
        fresh = [r for r in pbs_kit.requests if not r.double_spend]
        frauds = [r for r in pbs_kit.requests if r.double_spend]
        assert result.ok == len(fresh)
        assert result.rejected == len(frauds)

    def test_crashes_between_every_deposit(self, pbs_kit):
        plan = FaultPlan(seed=21, crash_points=(1, 3, 5, 7))
        baseline = run_pbs_scenario(FaultPlan(seed=21), kit=pbs_kit)
        result = run_pbs_scenario(plan, kit=pbs_kit, checkpoint_every=2)
        assert result.clean, result.report()
        assert result.crashes >= 1
        assert result.recoveries == result.crashes
        assert result.verdicts == baseline.verdicts

    def test_duplicates_cannot_double_pay(self, pbs_kit):
        plan = FaultPlan(seed=22, duplicate=1.0)
        result = run_pbs_scenario(plan, kit=pbs_kit)
        assert result.clean, result.report()
        fresh = [r for r in pbs_kit.requests if not r.double_spend]
        assert result.ok == len(fresh)
