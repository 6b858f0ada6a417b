"""Every workload at 1/32 scale, through the same code path as a full run.

``PYTHONPATH=src python -m pytest benchmarks/e2e -q``

One traced run per workload yields both metric sets (a traced run
measures the end-to-end metrics too, only under the wrappers), so six
runs check every named metric: present, finite, with a unit.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

import pytest

from benchmarks.e2e.compare import summarise, verdict
from benchmarks.e2e.harness import E2E_UNITS, ROOT, load_contract, run_workload
from benchmarks.e2e.layers import LAYERS, PER_LAYER_UNITS
from benchmarks.e2e.workloads import WORKLOADS

#: the ISSUE's full-size traces are ~16 s of traffic at these rates
SMOKE_SECONDS = 0.5


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_reports_every_metric(name, tmp_path):
    spans = tmp_path / "spans.jsonl"
    record = run_workload(name, seed=11, seconds=SMOKE_SECONDS, traced=True,
                          setup_repeats=1, spans_path=str(spans))
    assert record["correct"], record["problems"]
    assert record["client"]["failed"] == 0
    assert record["e2e"]["failed_share"] == 0.0
    for table, units in ((record["e2e"], E2E_UNITS),
                         (record["per_layer"], PER_LAYER_UNITS)):
        assert table.keys() == units.keys()
        for metric, value in table.items():
            assert math.isfinite(value), metric
            assert units[metric], metric
    for metric in load_contract()["end_to_end"]:  # "metrics that are never 0"
        assert record["e2e"][metric["name"]] > 0, metric["name"]
    shares = sum(record["per_layer"][f"layer.share.{layer}"] for layer in LAYERS)
    assert shares == pytest.approx(1.0, abs=1e-6)
    first = json.loads(spans.read_text().splitlines()[0])
    assert {"id", "name", "start", "end", "parent", "cid"} <= first.keys()


def test_benchmark_json_names_what_the_code_reports():
    contract = load_contract()
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    for metric in contract["end_to_end"]:
        assert E2E_UNITS[metric["name"]] == metric["unit"]
        assert 0 < metric["bound"] <= 0.25
    assert "setup_s" in {m["name"] for m in contract["end_to_end"]}
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == PER_LAYER_UNITS
    assert all(part.startswith("benchmarks/e2e") or "/" not in part
               for part in contract["command"])


def test_driver_entry_prints_one_result_line():
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "rpc_async",
         "--seed", "3", "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result.keys() == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert result["metrics"].keys() == \
        {m["name"] for m in load_contract()["end_to_end"]}


def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(steady, [v * 1.02 for v in steady],
                   better="lower", bound=0.1)[0] == "within bound"
    assert verdict(steady, [v * 1.3 for v in steady],
                   better="lower", bound=0.1)[0] == "worse"
    assert verdict(steady, [v * 0.8 for v in steady],
                   better="lower", bound=0.1)[0] == "better"
    assert verdict(steady, [v * 0.8 for v in steady],
                   better="higher", bound=0.1)[0] == "worse"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert verdict(noisy, [v * 1.05 for v in noisy],
                   better="lower", bound=0.1)[0] == "unresolved"
    assert summarise(steady)["spread"] == pytest.approx(0.015)
