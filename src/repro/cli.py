"""Command-line interface: demos, attacks and figure regeneration.

Installed as ``repro-market`` (see ``pyproject.toml``), also runnable
as ``python -m repro.cli``.  Subcommands:

* ``demo dec`` / ``demo pbs`` — run one full market session and print
  the Table-I/Table-II style meters.
* ``attack denomination`` — Monte-Carlo denomination-attack sweep over
  the cash-break strategies.
* ``attack timing`` — the deposit timing-correlation experiment (why
  the paper's random waits exist).
* ``attack combined`` — the fused timing×denomination adversary: shows
  either defence alone fails (defence in depth).
* ``fig2`` / ``fig5`` — regenerate the corresponding paper figure as an
  ASCII table + plot at CLI-friendly sizes (the pytest benches are the
  full-fidelity versions).
* ``report`` — run every experiment at reduced scale and emit one
  markdown report with paper-vs-measured numbers.
* ``chain`` — search a first-kind Cunningham chain (feel Fig. 2's cost
  directly).
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from repro.attacks.linkage import denomination_experiment
from repro.attacks.timing import timing_experiment
from repro.core.dec_machine import PPMSdecSession
from repro.core.pbs_machine import PPMSpbsSession
from repro.crypto.cunningham import find_chain_with_stats
from repro.ecash.dec import setup
from repro.metrics import format_table, format_traffic_table
from repro.metrics.series import FigureData, render_ascii_plot, render_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-market",
        description="Privacy Preserving Market Schemes for Mobile Sensing (ICPP 2015) — reproduction CLI",
    )
    parser.add_argument("--seed", type=int, default=2015, help="master RNG seed")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run one market session end to end")
    demo.add_argument("mechanism", choices=["dec", "pbs"])
    demo.add_argument("--level", type=int, default=3, help="coin tree level L (dec)")
    demo.add_argument("--payment", type=int, default=5, help="per-SP payment (dec)")
    demo.add_argument("--participants", type=int, default=2)
    demo.add_argument("--rsa-bits", type=int, default=1024)
    demo.add_argument(
        "--break", dest="break_algorithm", default="epcba",
        choices=["unitary", "pcba", "epcba"],
    )

    attack = sub.add_parser("attack", help="run a privacy-attack experiment")
    attack_sub = attack.add_subparsers(dest="attack_kind", required=True)
    denom = attack_sub.add_parser("denomination")
    denom.add_argument("--level", type=int, default=6)
    denom.add_argument("--jobs", type=int, default=20)
    denom.add_argument("--trials", type=int, default=300)
    timing = attack_sub.add_parser("timing")
    timing.add_argument("--participants", type=int, default=20)
    timing.add_argument("--trials", type=int, default=200)
    combined = attack_sub.add_parser("combined")
    combined.add_argument("--participants", type=int, default=10)
    combined.add_argument("--trials", type=int, default=50)
    combined.add_argument("--level", type=int, default=6)

    fig2 = sub.add_parser("fig2", help="setup time vs level (chain search)")
    fig2.add_argument("--max-level", type=int, default=4)
    fig2.add_argument("--chain-bits", type=int, default=12)

    fig5 = sub.add_parser("fig5", help="multi-round PPMSdec vs PPMSpbs")
    fig5.add_argument("--max-rounds", type=int, default=15)
    fig5.add_argument("--step", type=int, default=5)

    report = sub.add_parser("report", help="run every experiment at reduced scale")
    report.add_argument("--out", default=None, help="write markdown here (default: stdout)")
    report.add_argument("--trials", type=int, default=200)
    report.add_argument("--rounds", type=int, default=8)

    chain = sub.add_parser("chain", help="search a first-kind Cunningham chain")
    chain.add_argument("length", type=int)
    chain.add_argument("--bits", type=int, default=12)

    return parser


def _cmd_demo(args, rng: random.Random) -> int:
    if args.mechanism == "dec":
        params = setup(args.level, rng)
        session = PPMSdecSession(params, rng, rsa_bits=args.rsa_bits,
                                 break_algorithm=args.break_algorithm)
        jo = session.new_job_owner("jo", funds=(1 << args.level) * args.participants)
        sps = [session.new_participant(f"sp-{i}") for i in range(args.participants)]
        session.run_job(jo, sps, payment=args.payment)
        for i in range(args.participants):
            print(f"sp-{i} balance: {session.ma.bank.balance(f'sp-{i}')}")
        counter, transport = session.counter, session.transport
    else:
        session = PPMSpbsSession(rng, rsa_bits=args.rsa_bits)
        jo = session.new_job_owner(funds=args.participants)
        sps = [session.new_participant() for _ in range(args.participants)]
        session.run_job(jo, sps)
        for i, sp in enumerate(sps):
            print(f"sp-{i} balance: "
                  f"{session.ma.bank.balance(sp.account_pub.fingerprint())}")
        counter, transport = session.counter, session.transport
    print()
    print(format_table(counter, ["JO", "SP", "MA"], title="Operation counts:"))
    print()
    print(format_traffic_table(transport, ["JO", "SP", "MA"], title="Traffic:"))
    return 0


def _cmd_attack(args, rng: random.Random) -> int:
    if args.attack_kind == "denomination":
        import repro.core.optimal_break  # noqa: F401 — registers "optimal"

        print(f"{'strategy':>10} {'ident-rate':>12} {'anonymity-set':>15}")
        for strategy in ("none", "pcba", "epcba", "optimal", "unitary"):
            summary = denomination_experiment(
                strategy, level=args.level, n_jobs=args.jobs,
                trials=args.trials, rng=rng,
            )
            print(f"{strategy:>10} {summary.identification_rate:>11.1%} "
                  f"{summary.mean_anonymity_set:>15.2f}")
    elif args.attack_kind == "timing":
        result = timing_experiment(
            participants=args.participants, trials=args.trials, rng=rng
        )
        print(f"immediate deposits : adversary links {result.immediate_accuracy:.1%}")
        print(f"randomized waits   : adversary links {result.randomized_accuracy:.1%}")
        print(f"chance level       : {1 / result.participants:.1%}")
    else:
        from repro.attacks.combined import combined_experiment

        print(f"{'defences':<22} {'timing':>8} {'denom':>8} {'combined':>10}")
        for strategy, waits, label in (
            (None, False, "none"),
            (None, True, "random waits only"),
            ("unitary", False, "cash break only"),
            ("unitary", True, "both (the paper's)"),
        ):
            r = combined_experiment(
                level=args.level, participants=args.participants,
                trials=args.trials, rng=rng,
                break_strategy=strategy, random_waits=waits,
            )
            print(f"{label:<22} {r.timing_only:>7.0%} "
                  f"{r.denomination_only:>7.0%} {r.combined:>9.0%}")
    return 0


def _cmd_fig2(args, rng: random.Random) -> int:
    fig = FigureData(title="Fig. 2 — Setup executing time vs level",
                     xlabel="level L", ylabel="seconds")
    search = fig.new_series("chain-search")
    offline = fig.new_series("precomputed")
    for level in range(args.max_level + 1):
        t0 = time.perf_counter()
        setup(level, rng, use_known_chain=False, chain_bits=args.chain_bits,
              real_pairing=False)
        search.add(level, time.perf_counter() - t0)
        t0 = time.perf_counter()
        setup(level, rng, use_known_chain=True, real_pairing=False)
        offline.add(level, time.perf_counter() - t0)
    print(render_table(fig, precision=4))
    print()
    print(render_ascii_plot(fig, logy=True))
    return 0


def _cmd_fig5(args, rng: random.Random) -> int:
    fig = FigureData(title="Fig. 5 — cumulative executing time over rounds",
                     xlabel="rounds", ylabel="seconds")
    dec_series = fig.new_series("PPMSdec")
    pbs_series = fig.new_series("PPMSpbs")
    params = setup(3, rng)
    for n_rounds in range(args.step, args.max_rounds + 1, args.step):
        t0 = time.perf_counter()
        session = PPMSdecSession(params, rng, rsa_bits=512)
        jo = session.new_job_owner("jo", funds=8 * n_rounds)
        for i in range(n_rounds):
            session.run_job(jo, [session.new_participant(f"sp-{i}")],
                            payment=1 + i % 8)
        dec_series.add(n_rounds, time.perf_counter() - t0)

        t0 = time.perf_counter()
        session_p = PPMSpbsSession(rng, rsa_bits=512)
        jo_p = session_p.new_job_owner(funds=n_rounds)
        for _ in range(n_rounds):
            session_p.run_job(jo_p, [session_p.new_participant()])
        pbs_series.add(n_rounds, time.perf_counter() - t0)
    print(render_table(fig))
    print()
    print(render_ascii_plot(fig))
    return 0


def _cmd_chain(args, rng: random.Random) -> int:
    t0 = time.perf_counter()
    chain, attempts = find_chain_with_stats(args.length, args.bits, rng)
    elapsed = time.perf_counter() - t0
    print(f"chain of length {chain.length} found in {elapsed:.3f}s "
          f"after {attempts} candidates:")
    for p in chain.primes():
        print(f"  {p}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    rng = random.Random(args.seed)
    if args.command == "demo":
        return _cmd_demo(args, rng)
    if args.command == "attack":
        return _cmd_attack(args, rng)
    if args.command == "fig2":
        return _cmd_fig2(args, rng)
    if args.command == "fig5":
        return _cmd_fig5(args, rng)
    if args.command == "report":
        from repro.metrics.report import generate_report

        text = generate_report(seed=args.seed, privacy_trials=args.trials,
                               fig5_rounds=args.rounds)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
            print(f"report written to {args.out}")
        else:
            print(text)
        return 0
    if args.command == "chain":
        return _cmd_chain(args, rng)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
