"""End-to-end campaign tests: the adversarial economy vs the live service.

Default scale is ~100 parties per campaign (seconds).  Setting
``REPRO_CAMPAIGN_SMOKE=1`` additionally runs the thousand-party mixed
campaign and the socket/cluster backends (the CI smoke job and the
nightly cron do; ``make campaign-smoke`` locally).
"""

from __future__ import annotations

import os

import pytest

from repro.sim.campaign import (
    Campaign,
    CampaignConfig,
    denomination_campaign,
    double_spend_campaign,
    honest_campaign,
    mixed_campaign,
    run_campaign,
)

SMOKE = bool(os.environ.get("REPRO_CAMPAIGN_SMOKE", "").strip())
smoke_only = pytest.mark.skipif(
    not SMOKE, reason="set REPRO_CAMPAIGN_SMOKE=1 to run the big campaigns"
)


def _run(config, campaign_substrate):
    params, keypair = campaign_substrate
    return run_campaign(config, params=params, keypair=keypair)


# ---------------------------------------------------------------------------
# honest economy
# ---------------------------------------------------------------------------

def test_honest_campaign_is_clean_with_zero_detections(campaign_substrate):
    report = _run(honest_campaign(1, scale=2), campaign_substrate)
    assert report.clean, report.summary()
    assert report.detections == {}
    assert set(report.verdicts) == {"OK"}  # nothing rejected, nothing shed
    assert report.conservation["outstanding"] == 0
    # every honest party must have completed its lifecycle, and no
    # machine rejected a delivery (each rejection would be a finding)
    assert all(
        ledger["done"] for ledger in report.parties.values()
    ), report.summary()


def test_report_embeds_seed_and_replay_command(campaign_substrate):
    report = _run(honest_campaign(4), campaign_substrate)
    assert f"--seed {report.seed}" in report.replay_command()
    broken = _run(honest_campaign(4), campaign_substrate)
    broken.invariants = ("synthetic finding",)
    text = broken.summary()
    assert "synthetic finding" in text
    assert broken.replay_command() in text  # failure output is replayable


# ---------------------------------------------------------------------------
# denomination attack (paper Section VI): PCBA/EPCBA sweep
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("algorithm", ["unitary", "pcba", "epcba"])
def test_denomination_attack_runs_at_paper_points(algorithm, campaign_substrate):
    report = _run(
        denomination_campaign(2, break_algorithm=algorithm), campaign_substrate
    )
    assert report.clean, report.summary()
    metrics = report.detections["denomination"]
    assert metrics["algorithm"] == algorithm
    assert metrics["scored"] > 0
    # the attack enumerates every consistent explanation, so the true
    # job is always in the anonymity set (the paper's completeness)
    assert metrics["truth_covered"]
    assert metrics["min_anonymity"] >= 1


def test_the_attack_scores_only_ppmsdec_jobs(campaign_substrate):
    """PPMSpbs jobs are unitary and live on the other MA's board: no
    scored account may count one among its candidate jobs."""
    params, keypair = campaign_substrate
    campaign = Campaign(mixed_campaign(2015), params, keypair)
    campaign.run()
    dec_jobs = {job.job_id for job in campaign.dec.board.jobs()}
    assert campaign.pbs.board.jobs()  # the mixed economy runs both schemes
    assert campaign.dec.results
    for aid, result in campaign.dec.results.items():
        assert result.candidates <= dec_jobs, (aid, result.candidates - dec_jobs)


def test_structured_breaks_leak_more_than_unitary(campaign_substrate):
    """Table-III direction: PCBA/EPCBA shrink the anonymity set that
    unitary coin breaking keeps maximal."""
    by_alg = {
        alg: _run(
            denomination_campaign(2, break_algorithm=alg), campaign_substrate
        ).detections["denomination"]
        for alg in ("unitary", "pcba", "epcba")
    }
    assert by_alg["unitary"]["mean_anonymity"] >= by_alg["pcba"]["mean_anonymity"]
    assert by_alg["unitary"]["mean_anonymity"] >= by_alg["epcba"]["mean_anonymity"]
    assert by_alg["unitary"]["unique_rate"] <= max(
        by_alg["pcba"]["unique_rate"], by_alg["epcba"]["unique_rate"]
    )


# ---------------------------------------------------------------------------
# double-spend rings and replayers
# ---------------------------------------------------------------------------

def test_double_spend_ring_always_caught_with_identity_revealed(
        campaign_substrate):
    report = _run(double_spend_campaign(3, scale=2), campaign_substrate)
    assert report.clean, report.summary()
    ds = report.detections["double_spend"]
    assert ds["caught"]  # at most one admission per ring
    assert ds["admitted"] == ds["rings"]
    assert ds["rejected"] == ds["deposits"] - ds["rings"]
    assert ds["identity_revealed"]  # evidence names a ring account
    replay = report.detections["replay"]
    assert replay["attempts"] > 0
    assert replay["detection_rate"] == 1.0


def test_mixed_campaign_detects_everything_and_stays_conserved(
        campaign_substrate):
    report = _run(mixed_campaign(5), campaign_substrate)
    assert report.clean, report.summary()
    assert {"denomination", "double_spend", "replay"} <= set(report.detections)
    assert report.detections["double_spend"]["caught"]
    assert report.detections["replay"]["detection_rate"] == 1.0
    # omission SPs leave value outstanding; conservation absorbs it
    assert report.conservation["outstanding"] > 0
    assert report.conservation["conserved"]


# ---------------------------------------------------------------------------
# seed replay: the regression the report format exists for
# ---------------------------------------------------------------------------

def test_same_seed_reproduces_report_byte_for_byte(campaign_substrate):
    first = _run(mixed_campaign(8), campaign_substrate)
    second = _run(mixed_campaign(8), campaign_substrate)
    assert first.trace_digest == second.trace_digest
    assert first.to_json() == second.to_json()
    assert first.digest() == second.digest()


def test_different_seeds_diverge(campaign_substrate):
    a = _run(honest_campaign(10), campaign_substrate)
    b = _run(honest_campaign(11), campaign_substrate)
    assert a.trace_digest != b.trace_digest


def test_config_roundtrips_through_report(campaign_substrate):
    config = mixed_campaign(6)
    report = _run(config, campaign_substrate)
    assert CampaignConfig.from_dict(report.config) == config


# ---------------------------------------------------------------------------
# scale + alternate backends (smoke / nightly)
# ---------------------------------------------------------------------------

@smoke_only
def test_thousand_party_mixed_campaign(campaign_substrate):
    report = _run(mixed_campaign(42, scale=45), campaign_substrate)
    assert report.n_parties >= 1000, report.n_parties
    assert report.clean, report.summary()
    assert report.detections["double_spend"]["caught"]
    assert report.detections["replay"]["detection_rate"] == 1.0
    denom = report.detections["denomination"]
    assert denom["scored_complete"] > 0  # some SPs escaped the fault plan
    assert denom["truth_covered"]  # completeness over fully-observed accounts


@smoke_only
def test_campaign_over_socket_frontend(campaign_substrate):
    report = _run(honest_campaign(7, backend="socket"), campaign_substrate)
    assert report.clean, report.summary()
    assert set(report.verdicts) == {"OK"}


@smoke_only
def test_campaign_over_local_cluster(campaign_substrate):
    report = _run(double_spend_campaign(9, backend="cluster"),
                  campaign_substrate)
    assert report.clean, report.summary()
    assert report.detections["double_spend"]["caught"]
