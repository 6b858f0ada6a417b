"""``python -m benchmarks.e2e run|compare`` — the benchmark for people.

::

    PYTHONPATH=src python -m benchmarks.e2e run --seed 7 --out e2e.json
    PYTHONPATH=src python -m benchmarks.e2e run --seed 7 --workload rpc_async \\
        --traced --repeat 5 --out e2e.json
    PYTHONPATH=src python -m benchmarks.e2e compare before.json after.json

``run`` replays every workload (or the ones named), prints every metric
by name with its unit, writes a result file with provenance, and exits
non-zero if any output check failed.  ``--traced`` reruns each workload
with the span wrappers installed, adds the per-layer metrics and the
tracing overhead, and copies the spans to ``<out>.spans.jsonl``.
``--repeat N`` runs seeds ``S .. S+N-1`` and reports each metric's
median, quartiles and spread.  ``compare`` applies the bounds of
``BENCHMARK.json`` to two result files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from benchmarks.e2e import procstat
from benchmarks.e2e.compare import compare_files, format_rows, summarise
from benchmarks.e2e.harness import E2E_UNITS, ROOT, load_contract, run_workload
from benchmarks.e2e.layers import PER_LAYER_UNITS
from benchmarks.e2e.workloads import WORKLOADS


def _slim(record: dict) -> dict:
    """What a result file keeps of one run record."""
    keep = ("seed", "seconds", "traced", "valid", "invalid_reason", "correct",
            "problems", "e2e", "per_layer", "setup_samples_s")
    out = {key: record[key] for key in keep if key in record}
    out["attempted"] = record["client"]["attempted"]
    out["failed"] = record["client"]["failed"]
    out["latency_samples"] = record["client"]["latency_samples"]
    out["gen_lag_ms_p99"] = \
        record["client"]["layer_metrics"]["client.gen_lag_ms_p99"]
    return out


def _append_spans(source: str, target: str, workload: str, seed: int) -> None:
    """Copy one server's span file under a header line naming its run."""
    if not os.path.exists(source):
        return
    with open(source, encoding="utf-8") as src, \
            open(target, "a", encoding="utf-8") as dst:
        dst.write(json.dumps({"workload": workload, "seed": seed}) + "\n")
        for line in src:
            dst.write(line)
    os.unlink(source)


def _summaries(runs: list[dict], key: str, units: dict) -> dict:
    valid = [run for run in runs if run["valid"] and key in run]
    return {name: {"unit": unit, **summarise([run[key][name] for run in valid])}
            for name, unit in units.items() if valid}


def _print_workload(name: str, entry: dict) -> None:
    runs = entry["runs"]
    print(f"\n== {name}: {len(runs)} run(s), "
          f"{sum(run['attempted'] for run in runs)} ops attempted, "
          f"{sum(run['failed'] for run in runs)} failed, latency samples "
          f"{[run['latency_samples'] for run in runs]}")
    for run in runs:
        if not run["valid"]:
            print(f"   INVALID seed {run['seed']}: {run['invalid_reason']}")
        for problem in run["problems"]:
            print(f"   CHECK FAILED seed {run['seed']}: {problem}")
    for title, table in (("end to end", entry["summary"]),
                         ("per layer", entry.get("per_layer_summary", {}))):
        if not table:
            continue
        print(f"   -- {title}")
        for metric, row in table.items():
            line = f"   {metric:<36} {row['median']:>14.4f} {row['unit']:<6}"
            if row["n"] > 1:
                line += (f" q1 {row['q1']:.4f} q3 {row['q3']:.4f} "
                         f"spread {row['spread']:.1%} n={row['n']}")
            print(line)
    if "tracing_overhead" in entry:
        print(f"   {'tracing_overhead':<36} {entry['tracing_overhead']:>14.4f} ratio")


def cmd_run(args: argparse.Namespace) -> int:
    provenance = procstat.provenance(ROOT)
    if args.baseline and provenance["dirty"]:
        print("refusing to write a baseline from a dirty tree "
              "(commit or stash first, or drop --baseline)", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None \
        else load_contract()["run_seconds"]
    names = args.workload or list(WORKLOADS)
    spans_out = args.out + ".spans.jsonl"
    if args.traced and os.path.exists(spans_out):
        os.unlink(spans_out)
    result = {"benchmark": "benchmarks/e2e", "provenance": provenance,
              "seed": args.seed, "seconds": seconds, "repeat": args.repeat,
              "baseline": args.baseline, "workloads": {}}
    ok = True
    for name in names:
        runs, traced_runs = [], []
        for seed in range(args.seed, args.seed + args.repeat):
            runs.append(_slim(run_workload(name, seed=seed, seconds=seconds)))
            if args.traced:
                fd, scratch = tempfile.mkstemp(suffix=".spans",
                                               dir=os.path.dirname(args.out) or ".")
                os.close(fd)
                traced_runs.append(_slim(run_workload(
                    name, seed=seed, seconds=seconds, traced=True,
                    spans_path=scratch)))
                _append_spans(scratch, spans_out, name, seed)
        entry = {"why": WORKLOADS[name].why, "runs": runs,
                 "summary": _summaries(runs, "e2e", E2E_UNITS)}
        if traced_runs:
            entry["traced_runs"] = traced_runs
            entry["per_layer_summary"] = _summaries(traced_runs, "per_layer",
                                                    PER_LAYER_UNITS)
            plain = entry["summary"].get("throughput_norm_ops_s", {}).get("median")
            traced = _summaries(traced_runs, "e2e", E2E_UNITS).get(
                "throughput_norm_ops_s", {}).get("median")
            if plain and traced:
                entry["tracing_overhead"] = traced / plain - 1.0
        result["workloads"][name] = entry
        _print_workload(name, entry)
        ok = ok and all(run["correct"] and run["valid"]
                        for run in runs + traced_runs)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(f"\nwrote {args.out}" + (f" and {spans_out}" if args.traced else "")
          + (" [dirty tree]" if provenance["dirty"] else ""))
    return 0 if ok else 1


def cmd_compare(args: argparse.Namespace) -> int:
    rows = compare_files(args.a, args.b, load_contract())
    print(format_rows(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads, write a result file")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--workload", action="append", choices=list(WORKLOADS),
                     help="run only this workload (repeatable)")
    run.add_argument("--traced", action="store_true")
    run.add_argument("--repeat", type=int, default=1)
    run.add_argument("--seconds", type=float, default=None,
                     help="trace length (default: BENCHMARK.json run_seconds)")
    run.add_argument("--baseline", action="store_true",
                     help="a result meant for committing: refused on a dirty tree")
    run.add_argument("--out", required=True)
    run.set_defaults(fn=cmd_run)
    compare = sub.add_parser("compare", help="apply the bounds to two results")
    compare.add_argument("a")
    compare.add_argument("b")
    compare.set_defaults(fn=cmd_compare)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
