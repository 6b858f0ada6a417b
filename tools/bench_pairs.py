#!/usr/bin/env python
"""Alternating parent/change pairs through the benchmark's own command.

ROADMAP item 1's protocol, as a tool: for every seed and workload run
``BENCHMARK.json``'s command (``python3 benchmarks/e2e/run.py --workload
W --seed N --seconds S --trace 0``) once in a checkout of the parent
commit and once in this tree, alternating which side goes first, then
append one entry — medians, quartiles and pair wins of the bounded
end-to-end metrics, both sides' provenance — to the trajectory file::

    git clone -q . /tmp/parent && git -C /tmp/parent checkout -q HEAD~1
    python tools/bench_pairs.py --parent /tmp/parent --label "PR 18" \\
        --seeds 1-10 --out BENCH_e2e.json

Every run's JSON line is kept in ``<out>.runs.jsonl`` as it finishes, so
an interrupted sweep resumes where it stopped and the entry can be
rebuilt from the raw rows.  Nothing under ``benchmarks/e2e/`` is
modified; the summary statistics and the provenance block are the
benchmark's own (``compare.summarise``, ``procstat.provenance``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from benchmarks.e2e import procstat  # noqa: E402
from benchmarks.e2e.compare import summarise  # noqa: E402


def _run_once(contract: dict, checkout: str, workload: str, seed: int,
              seconds: int) -> dict:
    command = [*contract["command"], "--workload", workload, "--seed",
               str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True, check=False)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                  "error": done.stderr[-2000:]}
    result["exit"] = done.returncode
    return result


def _entry(contract: dict, rows: list[dict], args, seeds: list[int]) -> dict:
    workloads: dict = {}
    for workload in args.workloads:
        table: dict = {}
        mine = [row for row in rows if row["workload"] == workload]
        for metric in contract["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            sides = {
                side: {row["seed"]: row["metrics"][name]["value"]
                       for row in mine
                       if row["side"] == side and name in row["metrics"]}
                for side in ("parent", "change")
            }
            paired = sorted(set(sides["parent"]) & set(sides["change"]))
            if not paired:
                continue
            wins = sum(
                (sides["change"][s] < sides["parent"][s]) if lower
                else (sides["change"][s] > sides["parent"][s])
                for s in paired)
            ties = sum(sides["change"][s] == sides["parent"][s] for s in paired)
            table[name] = {
                "unit": metric["unit"], "better": metric["better"],
                "bound": metric["bound"], "pairs": len(paired),
                "change_better": wins, "ties": ties,
                "parent": summarise([sides["parent"][s] for s in paired]),
                "change": summarise([sides["change"][s] for s in paired]),
            }
        workloads[workload] = {
            "attempted": {side: sum(r["attempted"] for r in mine
                                    if r["side"] == side)
                          for side in ("parent", "change")},
            "failed": {side: sum(r["failed"] for r in mine
                                 if r["side"] == side)
                       for side in ("parent", "change")},
            "incorrect_runs": sum(not r["correct"] for r in mine),
            "metrics": table,
        }
    return {
        "label": args.label,
        "protocol": "alternating parent/change pairs, one run per side per "
                    "seed, through BENCHMARK.json's command with --trace 0",
        "seeds": seeds, "seconds": args.seconds,
        "parent": procstat.provenance(os.path.abspath(args.parent)),
        "change": procstat.provenance(ROOT),
        "workloads": workloads,
    }


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--seconds", type=int, default=contract["run_seconds"])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_e2e.json"))
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    checkouts = {"parent": os.path.abspath(args.parent), "change": ROOT}
    raw = args.out + ".runs.jsonl"
    rows: list[dict] = []
    if os.path.exists(raw):
        with open(raw, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh if line.strip()]
    done = {(r["workload"], r["seed"], r["side"]) for r in rows}
    for seed in seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for workload in args.workloads:
            for side in order:
                if (workload, seed, side) in done:
                    continue
                row = {"workload": workload, "seed": seed, "side": side,
                       **_run_once(contract, checkouts[side], workload, seed,
                                   args.seconds)}
                rows.append(row)
                with open(raw, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(row) + "\n")
                print(f"{workload} seed {seed} {side}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in row["metrics"].items()),
                    flush=True)
    trajectory = {"benchmark": "benchmarks/e2e", "trajectory": []}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            trajectory = json.load(fh)
    trajectory["trajectory"].append(_entry(contract, rows, args, seeds))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(trajectory, fh, indent=1)
        fh.write("\n")
    print(f"appended {args.label!r} to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
