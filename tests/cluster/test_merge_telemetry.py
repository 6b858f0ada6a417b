"""tools/merge_telemetry.py: fold per-node metric dumps into one view."""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

from repro.obs.registry import MetricsRegistry

_TOOL = os.path.join(os.path.dirname(__file__), "..", "..", "tools",
                     "merge_telemetry.py")


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("merge_telemetry", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _node_snapshot(frames: int, lsn: int) -> dict:
    registry = MetricsRegistry()
    registry.counter("repro_frontend_frames_total", "request frames").inc(frames)
    registry.gauge("repro_journal_lsn", "newest lsn").set(lsn)
    return registry.snapshot()


def test_merge_tags_every_series_with_its_node(tool):
    merged = tool.merge_snapshots([
        ("n0", _node_snapshot(frames=3, lsn=7)),
        ("n1", _node_snapshot(frames=5, lsn=2)),
    ])
    snapshot = merged.snapshot()
    counters = {(c["name"], c["labels"].get("node")): c["value"]
                for c in snapshot["counters"]}
    assert counters[("repro_frontend_frames_total", "n0")] == 3
    assert counters[("repro_frontend_frames_total", "n1")] == 5
    gauges = {(g["name"], g["labels"].get("node")): g["value"]
              for g in snapshot["gauges"]}
    assert gauges[("repro_journal_lsn", "n0")] == 7
    assert gauges[("repro_journal_lsn", "n1")] == 2


def test_aggregate_sums_counters_across_nodes(tool):
    merged = tool.merge_snapshots(
        [("n0", _node_snapshot(frames=3, lsn=7)),
         ("n1", _node_snapshot(frames=5, lsn=2))],
        aggregate=True,
    )
    snapshot = merged.snapshot()
    counters = {c["name"]: c["value"] for c in snapshot["counters"]}
    assert counters["repro_frontend_frames_total"] == 8
    for entry in snapshot["counters"] + snapshot["gauges"]:
        assert "node" not in entry["labels"]


def test_cli_merges_files_and_writes_json(tool, tmp_path, capsys):
    for name, frames in (("n0", 2), ("n1", 4)):
        with open(tmp_path / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(_node_snapshot(frames=frames, lsn=frames), fh)
    out = tmp_path / "merged.json"
    rc = tool.main([str(tmp_path / "n0.json"), str(tmp_path / "n1.json"),
                    "-o", str(out)])
    assert rc == 0
    merged = json.loads(out.read_text())
    nodes = {c["labels"].get("node") for c in merged["counters"]
             if c["name"] == "repro_frontend_frames_total"}
    assert nodes == {"n0", "n1"}  # node names default to the file stems


def test_cli_accepts_wrapped_dumps_and_name_overrides(tool, tmp_path, capsys):
    # a saved control-frame reply nests the snapshot under "metrics"
    with open(tmp_path / "reply.json", "w", encoding="utf-8") as fh:
        json.dump({"ok": True, "metrics": _node_snapshot(frames=9, lsn=1)}, fh)
    rc = tool.main([f"alpha={tmp_path / 'reply.json'}", "--prometheus",
                    "-o", str(tmp_path / "out.prom")])
    assert rc == 0
    text = (tmp_path / "out.prom").read_text()
    assert 'node="alpha"' in text
    assert "repro_frontend_frames_total" in text


def test_cli_rejects_non_snapshot_files(tool, tmp_path):
    with open(tmp_path / "junk.json", "w", encoding="utf-8") as fh:
        json.dump({"hello": "world"}, fh)
    with pytest.raises(ValueError, match="not a metrics snapshot"):
        tool.main([str(tmp_path / "junk.json")])
