"""Repeat statistics, and the verdict on two result files.

``summarise`` is what ``run --repeat N`` reports for every metric:
median, quartiles and spread (interquartile distance as a share of the
median — the same figure the benchmark driver computes).  ``compare``
applies the bounds of ``BENCHMARK.json`` to every pairing of end-to-end
metric and workload and prints one row for each:

* **better** — every run of B reads better than every run of A, or B's
  median is better by more than A's own interquartile distance;
* **within bound** — B's median is not worse than A's by more than the
  metric's bound;
* **worse** — it is;
* **unresolved** — the run-to-run spread of either side is wider than
  the bound, so the comparison cannot tell (never reported as unchanged).
"""

from __future__ import annotations

import json
import statistics

__all__ = ["summarise", "verdict", "compare_files", "format_rows"]


def summarise(values: list[float]) -> dict:
    """Median, quartiles and spread of one metric's repeated values."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0}


def verdict(a: list[float], b: list[float], *, better: str,
            bound: float) -> tuple[str, float]:
    """``(verdict, share by which B's median is worse than A's)``."""
    sa, sb = summarise(a), summarise(b)
    lower = better == "lower"
    base = abs(sa["median"]) or 1.0
    gain = (sa["median"] - sb["median"]) if lower else (sb["median"] - sa["median"])
    worse_by = -gain / base
    if (max(b) < min(a)) if lower else (min(b) > max(a)):
        return "better", worse_by
    if max(sa["spread"], sb["spread"]) > bound:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if gain > sa["q3"] - sa["q1"]:
        return "better", worse_by
    return "within bound", worse_by


def _values(result: dict, workload: str, metric: str) -> list[float]:
    runs = result["workloads"].get(workload, {}).get("runs", [])
    return [run["e2e"][metric] for run in runs
            if run.get("valid", True) and metric in run.get("e2e", {})]


def compare_files(path_a: str, path_b: str, contract: dict) -> list[dict]:
    """One row per (workload, end-to-end metric) the two files share."""
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    rows = []
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            va = _values(a, workload, metric["name"])
            vb = _values(b, workload, metric["name"])
            if not va or not vb:
                continue
            outcome, worse_by = verdict(va, vb, better=metric["better"],
                                        bound=metric["bound"])
            rows.append({
                "workload": workload, "metric": metric["name"],
                "unit": metric["unit"], "bound": metric["bound"],
                "a": summarise(va), "b": summarise(vb),
                "worse_by": worse_by, "verdict": outcome,
            })
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = [f"{'workload':<16} {'metric':<22} {'A median':>12} {'B median':>12} "
             f"{'unit':<5} {'worse by':>9} {'bound':>6} {'spread A/B':>13}  verdict"]
    for row in rows:
        lines.append(
            f"{row['workload']:<16} {row['metric']:<22} "
            f"{row['a']['median']:>12.4f} {row['b']['median']:>12.4f} "
            f"{row['unit']:<5} {row['worse_by']:>+9.1%} {row['bound']:>6.0%} "
            f"{row['a']['spread']:>6.1%}/{row['b']['spread']:<6.1%} "
            f" {row['verdict']}")
    return "\n".join(lines)
