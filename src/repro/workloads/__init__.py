"""Synthetic workloads: sensing payloads and market populations."""

from repro.workloads.arrivals import bursty_arrivals, poisson_arrivals
from repro.workloads.population import JobSpec, MarketSpec, generate_market
from repro.workloads.sensing import (
    GENERATORS,
    health_telemetry,
    noise_map_reading,
    transit_trace,
)

__all__ = [
    "JobSpec",
    "MarketSpec",
    "generate_market",
    "GENERATORS",
    "noise_map_reading",
    "health_telemetry",
    "transit_trace",
    "poisson_arrivals",
    "bursty_arrivals",
]
