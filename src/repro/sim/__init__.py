"""Discrete-event market simulation: events engine, the timing-attack
simulation, and the seeded campaign engine that runs the protocol
machines over the live service."""

from repro.sim.campaign import (
    CAMPAIGNS,
    Campaign,
    CampaignConfig,
    denomination_campaign,
    double_spend_campaign,
    honest_campaign,
    mixed_campaign,
    run_campaign,
)
from repro.sim.events import EventQueue, SimulationError
from repro.sim.market_sim import (
    DepositPolicy,
    MarketSimulation,
    SimulationTrace,
    run_timing_attack,
)
from repro.sim.report import CampaignReport, canonical_json

__all__ = [
    "EventQueue",
    "SimulationError",
    "DepositPolicy",
    "MarketSimulation",
    "SimulationTrace",
    "run_timing_attack",
    # campaigns
    "Campaign",
    "CampaignConfig",
    "CampaignReport",
    "canonical_json",
    "run_campaign",
    "honest_campaign",
    "denomination_campaign",
    "double_spend_campaign",
    "mixed_campaign",
    "CAMPAIGNS",
]
