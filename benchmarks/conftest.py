"""Shared fixtures for the paper-reproduction benchmarks.

Run with::

    pytest benchmarks/ --benchmark-only

Each module regenerates one table or figure of the paper (see
DESIGN.md §4 and EXPERIMENTS.md).  Parameter sizes are chosen so the
whole suite completes on a laptop in minutes; the *shapes* of the
curves (growth with L, node depth, rounds; PPMSdec ≫ PPMSpbs) are what
reproduce the paper, not the absolute milliseconds.
"""

from __future__ import annotations

import random

import pytest

import repro.net  # noqa: F401 — codec registrations
from repro.ecash.dec import setup


#: RSA modulus for protocol benches (paper-era realistic: 1024)
BENCH_RSA_BITS = 1024


@pytest.fixture(scope="session")
def bench_rng():
    return random.Random(0xBEEC)


@pytest.fixture(scope="session")
def params_by_level(bench_rng):
    """DEC parameter sets for a range of tree levels (precomputed chains).

    Cached per session: Fig. 3/4 sweep node levels inside these.
    """
    cache = {}

    def get(level: int, *, edge_rounds: int = 8):
        key = (level, edge_rounds)
        if key not in cache:
            cache[key] = setup(
                level,
                bench_rng,
                edge_rounds=edge_rounds,
                real_pairing=True,
            )
        return cache[key]

    return get
