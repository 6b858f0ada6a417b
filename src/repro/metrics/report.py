"""One-shot experiment report: every paper artifact at CLI scale.

:func:`generate_report` runs reduced-scale versions of all six
evaluation artifacts (Figs. 2–5, Tables I–II) plus the privacy
experiments, and renders a single markdown document with measured
numbers next to the paper's claims.  It is the programmatic counterpart
of ``EXPERIMENTS.md`` — run it on your machine to get *your* numbers:

    repro-market report --out my_experiments.md

Scale knobs keep the full report in the minutes range; the pytest
benchmark suite remains the full-fidelity path.
"""

from __future__ import annotations

import random
import time

from repro.attacks.linkage import denomination_experiment
from repro.attacks.timing import timing_experiment
from repro.core.dec_machine import PPMSdecSession
from repro.core.pbs_machine import PPMSpbsSession
from repro.crypto.cl_sig import cl_blind_issue, cl_keygen
from repro.ecash.dec import begin_withdrawal, finish_withdrawal, setup
from repro.ecash.spend import create_spend, verify_spend
from repro.ecash.tree import NodeId, derive_key_chain
from repro.metrics.series import FigureData, render_table
from repro.metrics.timing import time_operation

__all__ = ["generate_report"]


def _fig2(rng: random.Random, out: list[str], *, max_level: int, chain_bits: int) -> None:
    fig = FigureData(title="Fig. 2 — setup time vs level (seconds)",
                     xlabel="L", ylabel="s")
    search = fig.new_series("chain-search")
    offline = fig.new_series("precomputed")
    for level in range(max_level + 1):
        t0 = time.perf_counter()
        setup(level, rng, use_known_chain=False, chain_bits=chain_bits,
              real_pairing=False)
        search.add(level, time.perf_counter() - t0)
        t0 = time.perf_counter()
        setup(level, rng, use_known_chain=True, real_pairing=False)
        offline.add(level, time.perf_counter() - t0)
    out.append("## Fig. 2\n\nPaper: setup explodes once the chain length "
               "grows; offline (precomputed chain) setup stays flat.\n")
    out.append("```\n" + render_table(fig, precision=4) + "\n```\n")


def _fig3_fig4(rng: random.Random, out: list[str], *, level: int) -> None:
    params = setup(level, rng, edge_rounds=8)
    bank_kp = cl_keygen(params.backend, rng)
    secret, request = begin_withdrawal(params, rng)
    signature = cl_blind_issue(params.backend, bank_kp, request, rng)
    coin = finish_withdrawal(params, bank_kp.public, secret, signature)

    fig3 = FigureData(title=f"Fig. 3 — spend+verify per node level (ms, L={level})",
                      xlabel="Ni", ylabel="ms")
    series = fig3.new_series("spend+verify")
    fig4 = FigureData(title=f"Fig. 4 — path derivation per node level (ms, L={level})",
                      xlabel="Ni", ylabel="ms")
    deriv = fig4.new_series("derive")
    for ni in range(level + 1):
        node = NodeId(ni, 0)
        r = time_operation(
            lambda: verify_spend(params, bank_kp.public, create_spend(
                params, bank_kp.public, coin.secret, coin.signature, node, rng)),
            repeats=3, warmup=0,
        )
        series.add(ni, r.mean_ms)
        r = time_operation(lambda: derive_key_chain(params.tower, coin.secret, node),
                           repeats=30, warmup=1)
        deriv.add(ni, r.mean_ms)
    out.append("## Fig. 3\n\nPaper: grows with node depth, 'acceptable' "
               "rate (affine in Ni).\n")
    out.append("```\n" + render_table(fig3) + "\n```\n")
    out.append("## Fig. 4\n\nPaper: deeper breaking node ⇒ higher cost, "
               "small dynamic range.\n")
    out.append("```\n" + render_table(fig4) + "\n```\n")


def _fig5_tables(rng: random.Random, out: list[str], *, rounds: int) -> None:
    params = setup(3, rng, edge_rounds=8)

    t0 = time.perf_counter()
    dec = PPMSdecSession(params, rng, rsa_bits=768)
    jo = dec.new_job_owner("jo", funds=8 * rounds)
    for i in range(rounds):
        dec.run_job(jo, [dec.new_participant(f"sp-{i}")], payment=1 + i % 8)
    dec_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    pbs = PPMSpbsSession(rng, rsa_bits=768)
    jo_p = pbs.new_job_owner(funds=rounds)
    for _ in range(rounds):
        pbs.run_job(jo_p, [pbs.new_participant()])
    pbs_time = time.perf_counter() - t0

    out.append("## Fig. 5\n")
    out.append(f"- PPMSdec: {rounds} rounds in {dec_time:.2f}s "
               f"({dec_time / rounds * 1000:.0f} ms/round)")
    out.append(f"- PPMSpbs: {rounds} rounds in {pbs_time:.2f}s "
               f"({pbs_time / rounds * 1000:.0f} ms/round)")
    out.append(f"- slope ratio ≈ {dec_time / pbs_time:.1f}× "
               "(paper's plot: PPMSpbs far below PPMSdec)\n")

    out.append("## Table I — operation counts (measured, whole run)\n")
    out.append("```")
    for name, counter in (("PPMSdec", dec.counter), ("PPMSpbs", pbs.counter)):
        out.append(f"[{name}]  " + "  ".join(
            f"{party}: {counter.summary(party)}" for party in ("JO", "SP", "MA")
        ))
    out.append("```")
    out.append("Paper (per round, minimal point): PPMSdec JO=(8+i)ZKP+4Enc+1Dec+1H, "
               "SP=4Dec, MA=1Enc; PPMSpbs JO=2Enc+1H, SP=2Dec+3H, MA=1Dec+2H.\n")

    out.append("## Table II — traffic (measured, whole run)\n")
    out.append("```")
    for name, transport in (("PPMSdec", dec.transport), ("PPMSpbs", pbs.transport)):
        total = transport.total_bytes()
        out.append(f"[{name}]  total {total / 1024:.2f} kB "
                   f"({total / rounds / 1024:.2f} kB/round)")
    out.append("```")
    out.append("Paper (one round): PPMSdec 11.27 kB, PPMSpbs 2.14 kB.\n")


def _privacy(rng: random.Random, out: list[str], *, trials: int) -> None:
    out.append("## Privacy experiments\n")
    out.append("Denomination attack (L=6, 12 jobs):\n\n```")
    out.append(f"{'strategy':>9} {'ident-rate':>11} {'anon-set':>9}")
    for strategy in ("none", "pcba", "epcba", "unitary"):
        s = denomination_experiment(strategy, level=6, n_jobs=12,
                                    trials=trials, rng=rng)
        out.append(f"{strategy:>9} {s.identification_rate:>10.1%} "
                   f"{s.mean_anonymity_set:>9.2f}")
    out.append("```\n")
    t = timing_experiment(participants=15, trials=max(20, trials // 5), rng=rng)
    out.append(f"Deposit timing attack: immediate deposits linked "
               f"{t.immediate_accuracy:.0%}, randomized waits "
               f"{t.randomized_accuracy:.0%} (chance {1/15:.0%}).\n")

    from repro.attacks.combined import combined_experiment

    out.append("Combined adversary (defence in depth):\n\n```")
    out.append(f"{'defences':<20} {'timing':>8} {'denom':>8} {'combined':>10}")
    for strategy, waits, label in (
        (None, False, "none"),
        (None, True, "waits only"),
        ("unitary", False, "break only"),
        ("unitary", True, "both"),
    ):
        r = combined_experiment(level=6, participants=10,
                                trials=max(10, trials // 10), rng=rng,
                                break_strategy=strategy, random_waits=waits)
        out.append(f"{label:<20} {r.timing_only:>7.0%} "
                   f"{r.denomination_only:>7.0%} {r.combined:>9.0%}")
    out.append("```\n")


def generate_report(
    *,
    seed: int = 2015,
    fig2_max_level: int = 3,
    fig2_chain_bits: int = 12,
    fig3_level: int = 4,
    fig5_rounds: int = 8,
    privacy_trials: int = 200,
) -> str:
    """Run every experiment at reduced scale and render markdown."""
    rng = random.Random(seed)
    out: list[str] = [
        "# Experiment report (generated)",
        "",
        f"Seed {seed}; reduced-scale run — see `pytest benchmarks/ "
        "--benchmark-only` for full fidelity.",
        "",
    ]
    _fig2(rng, out, max_level=fig2_max_level, chain_bits=fig2_chain_bits)
    _fig3_fig4(rng, out, level=fig3_level)
    _fig5_tables(rng, out, rounds=fig5_rounds)
    _privacy(rng, out, trials=privacy_trials)
    return "\n".join(out)
