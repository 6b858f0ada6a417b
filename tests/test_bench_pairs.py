"""tools/bench_pairs.py: an entry summarises only the seeds it was asked for."""

from __future__ import annotations

import argparse
import importlib.util
import pathlib

import pytest

_TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"

CONTRACT = {"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower",
                            "bound": 0.25}]}


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _row(seed: int, side: str, value: float) -> dict:
    return {"workload": "w", "seed": seed, "side": side, "correct": True,
            "attempted": seed, "failed": 0,
            "metrics": {"setup_s": {"value": value}}}


def test_two_sweeps_in_one_raw_file_pair_only_the_requested_seeds(bench_pairs, tmp_path):
    # a first sweep (seeds 1-3) and a held-out one (seeds 11-12) share the rows
    rows = [_row(seed, side, 100.0 + seed) for seed in (1, 2, 3)
            for side in ("parent", "change")]
    rows += [_row(seed, side, seed + (0.5 if side == "parent" else 0.0))
             for seed in (11, 12) for side in ("parent", "change")]
    args = argparse.Namespace(workloads=["w"], label="held out", seconds=6,
                              parent=str(tmp_path))
    entry = bench_pairs._entry(CONTRACT, rows, args, [11, 12])
    assert entry["seeds"] == [11, 12]
    workload = entry["workloads"]["w"]
    metric = workload["metrics"]["setup_s"]
    assert metric["pairs"] == 2
    assert metric["change_better"] == 2
    assert metric["parent"]["median"] == 12.0
    assert metric["change"]["median"] == 11.5
    assert workload["attempted"] == {"parent": 23, "change": 23}
