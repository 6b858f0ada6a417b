"""Table II — communication traffic per party and mechanism.

Paper's claimed rows (bytes; minimum level and node index for PPMSdec):

    scheme    JO in   JO out   SP in   SP out   total
    PPMSdec     664     4864    3840     2176   11.27 kB
    PPMSpbs     256      784     768      384    2.14 kB

We run one complete round of each mechanism over the byte-accounted
transport, print the measured table next to the paper's, and assert
the reproduced *shape*: PPMSdec's total traffic dominates PPMSpbs's by
a clear factor (the paper's ratio is ≈ 5.3×), and within PPMSdec the
payment path (JO output / SP input) carries the bulk.

Each session drives the engine's machines, so the messages metered are
the machines' own envelopes; the router charges each one to its
parties' roles (JO, SP, MA), never to a resident's name.
"""

from __future__ import annotations

import random

import pytest

from repro.core.dec_machine import PPMSdecSession
from repro.core.pbs_machine import PPMSpbsSession
from repro.metrics.opcount import format_traffic_table
from repro.net.transport import Transport

from benchmarks.conftest import BENCH_RSA_BITS

PAPER_TABLE2 = {
    "PPMSdec": {"JO": (664, 4864), "SP": (3840, 2176), "total_kb": 11.27},
    "PPMSpbs": {"JO": (256, 784), "SP": (768, 384), "total_kb": 2.14},
}


def _run_dec(params, seed: int) -> Transport:
    rng = random.Random(seed)
    session = PPMSdecSession(params, rng, rsa_bits=BENCH_RSA_BITS, break_algorithm="pcba")
    jo = session.new_job_owner("jo", funds=1 << params.tree_level)
    sp = session.new_participant("sp")
    session.run_job(jo, [sp], payment=1 << params.tree_level)  # minimal node index
    return session.transport


def _run_pbs(seed: int) -> Transport:
    rng = random.Random(seed)
    session = PPMSpbsSession(rng, rsa_bits=BENCH_RSA_BITS)
    jo = session.new_job_owner(funds=1)
    sp = session.new_participant()
    session.run_job(jo, [sp])
    return session.transport


def test_table2_report(benchmark, params_by_level, capsys):
    """Regenerate Table II and assert the traffic ordering."""
    params = params_by_level(2)
    dec = _run_dec(params, seed=1)
    pbs = _run_pbs(seed=2)

    lines = ["", "=== Table II: communication traffic (measured) ==="]
    for name, transport in (("PPMSdec", dec), ("PPMSpbs", pbs)):
        lines.append(format_traffic_table(transport, ["JO", "SP", "MA"], title=f"[{name}]"))
        claim = PAPER_TABLE2[name]
        lines.append(
            f"paper claims: JO in/out {claim['JO']}, SP in/out {claim['SP']}, "
            f"total {claim['total_kb']} kB"
        )
    with capsys.disabled():
        print("\n".join(lines))

    benchmark.pedantic(lambda: _run_pbs(seed=3), rounds=1, iterations=1)

    # reproduced shape: DEC total clearly dominates PBS total
    ratio = dec.total_bytes() / pbs.total_bytes()
    assert ratio > 2.0, f"expected PPMSdec ≫ PPMSpbs, measured ratio {ratio:.2f}"

    # within PPMSdec the encrypted payment dominates: JO output > JO input
    assert dec.output_bytes("JO") > dec.input_bytes("JO")
    # the SP receives (payment) more than it sends before deposits
    assert dec.input_bytes("SP") > 0


def test_dec_traffic_grows_with_node_depth(benchmark, params_by_level):
    """Deeper spend nodes ⇒ longer proofs ⇒ more bytes on the wire."""
    params = params_by_level(4)
    shallow = _run_dec_payment(params, payment=1 << params.tree_level, seed=5)
    deep = _run_dec_payment(params, payment=1, seed=6)
    assert deep > shallow
    benchmark.extra_info["bytes_shallow"] = shallow
    benchmark.extra_info["bytes_deep"] = deep
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def _run_dec_payment(params, payment: int, seed: int) -> int:
    rng = random.Random(seed)
    session = PPMSdecSession(params, rng, rsa_bits=BENCH_RSA_BITS, break_algorithm="pcba")
    jo = session.new_job_owner("jo", funds=1 << params.tree_level)
    sp = session.new_participant("sp")
    session.run_job(jo, [sp], payment=payment)
    return session.transport.total_bytes()


def test_pbs_traffic_flat_across_rounds(benchmark):
    """PPMSpbs per-round traffic is constant — no per-round state growth."""
    totals = []
    rng = random.Random(9)
    session = PPMSpbsSession(rng, rsa_bits=BENCH_RSA_BITS)
    jo = session.new_job_owner(funds=10)
    prev = 0
    for _ in range(4):
        sp = session.new_participant()
        session.run_job(jo, [sp])
        now = session.transport.total_bytes()
        totals.append(now - prev)
        prev = now
    spread = max(totals) - min(totals)
    assert spread < max(totals) * 0.1, f"per-round traffic varies: {totals}"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
