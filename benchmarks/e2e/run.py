"""The benchmark's one command: one workload, one run, one JSON line.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S
--trace 0|1`` from the root of a checkout.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the end-to-end ones ``BENCHMARK.json``
names, with ``--trace 1`` the per-layer ones.  Exit status is non-zero
when an output check failed.

The run itself happens in a child of this process (``--inner``).  This
process adopts whatever the child's process tree abandons —
multiprocessing's resource tracker, started by the minting pool here and
by the verification pool in the server, ends only *after* the process
that started it — and returns once every one of them has ended and been
waited for, killing what will not end.  Nothing is alive when it exits.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _terminated(signum, _frame):
    sys.exit(128 + signum)  # as an exception, so ``finally`` blocks run


def _supervise(argv: list[str]) -> int:
    """Run ``--inner`` in a child; return when its whole tree has ended."""
    from benchmarks.e2e import procstat

    if not procstat.adopt_orphans():
        print("cannot adopt orphaned processes on this kernel: helpers that "
              "outlive the run are left to init", file=sys.stderr)
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--inner", *argv])
    try:
        status = child.wait()
    finally:
        if child.poll() is None:  # this process was told to stop
            child.terminate()  # the run tears its servers down itself
            try:
                child.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                procstat.kill_tree([child.pid])
                child.wait()
        killed = procstat.reap_descendants()
        if killed:
            print(f"killed {len(killed)} process(es) the run left behind: "
                  f"{killed}", file=sys.stderr)
    return status if status >= 0 else 128 - status


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inner", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, _terminated)
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    if not args.inner:
        return _supervise(argv)
    from benchmarks.e2e.harness import E2E_UNITS, load_contract, run_workload
    from benchmarks.e2e.layers import PER_LAYER_UNITS

    contract = load_contract()
    record = run_workload(args.workload, seed=args.seed, seconds=args.seconds,
                          traced=bool(args.trace))
    if args.trace:
        values, units = record["per_layer"], PER_LAYER_UNITS
        names = [metric["name"] for metric in contract["per_layer"]]
    else:
        values, units = record["e2e"], E2E_UNITS
        names = [metric["name"] for metric in contract["end_to_end"]]
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if not record["valid"]:
        print(f"invalid run: {record['invalid_reason']}", file=sys.stderr)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["client"]["attempted"],
        "failed": record["client"]["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in names},
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
