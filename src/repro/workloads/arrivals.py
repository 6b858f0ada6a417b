"""Arrival-process generators for the market simulator.

Real sensing markets are not steady streams: participation follows the
day (commute bursts for transit jobs, evenings for health telemetry).
These generators produce arrival time sequences with two shapes the
timing experiments care about, because the *density* of concurrent
deliveries is exactly what determines how well the random-wait defence
hides a depositor:

* :func:`poisson_arrivals` — memoryless baseline;
* :func:`bursty_arrivals` — Markov-modulated on/off bursts (worst case
  for the attacker inside a burst, best case between bursts).
"""

from __future__ import annotations

import random

__all__ = ["poisson_arrivals", "bursty_arrivals"]


def poisson_arrivals(rng: random.Random, *, rate: float, horizon: float) -> list[float]:
    """Homogeneous Poisson arrivals on ``[0, horizon)``."""
    if rate <= 0 or horizon <= 0:
        raise ValueError("rate and horizon must be positive")
    out = []
    t = rng.expovariate(rate)
    while t < horizon:
        out.append(t)
        t += rng.expovariate(rate)
    return out


def bursty_arrivals(
    rng: random.Random,
    *,
    rate_on: float,
    rate_off: float,
    mean_on: float,
    mean_off: float,
    horizon: float,
) -> list[float]:
    """Two-state Markov-modulated Poisson process.

    Alternates exponentially long ON (dense) and OFF (sparse) phases
    with their own arrival rates.
    """
    for name, v in (("rate_on", rate_on), ("mean_on", mean_on),
                    ("mean_off", mean_off), ("horizon", horizon)):
        if v <= 0:
            raise ValueError(f"{name} must be positive")
    if rate_off < 0:
        raise ValueError("rate_off must be non-negative")
    out: list[float] = []
    t = 0.0
    on = True
    while t < horizon:
        phase = rng.expovariate(1.0 / (mean_on if on else mean_off))
        phase_end = min(t + phase, horizon)
        rate = rate_on if on else rate_off
        if rate > 0:
            s = t + rng.expovariate(rate)
            while s < phase_end:
                out.append(s)
                s += rng.expovariate(rate)
        t = phase_end
        on = not on
    return out
