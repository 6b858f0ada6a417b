#!/usr/bin/env python
"""Merge per-node metrics dumps into one cluster-wide snapshot.

Each cluster node runs its own :class:`repro.obs.MetricsRegistry` and
dumps it independently (``metrics.json`` from ``Telemetry.dump``, or
the ``telemetry`` control frame's ``metrics`` value saved to a file).
This tool folds N such snapshots into one registry the way the
registries themselves define merging — counters and histogram buckets
add, gauges take the last value — and tags every series with a
``node`` label first, so per-node series stay distinguishable after
the merge (``node`` is on the redaction allowlist; it is an
operator-chosen id like ``n0``, not participant data).

    python tools/merge_telemetry.py n0.json n1.json n2.json
    python tools/merge_telemetry.py --prometheus -o cluster.prom *.json
    python tools/merge_telemetry.py --aggregate n*.json   # drop node label

Node names default to each file's stem; override with ``name=path``
arguments (``n0=run/a.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.obs.registry import MetricsRegistry  # noqa: E402


def _load_snapshot(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    # accept a raw snapshot, a Telemetry.export() dict, or a saved
    # control-frame reply — anything that carries the snapshot shape
    for key in ("metrics",):
        if key in data and isinstance(data[key], dict):
            data = data[key]
    if not any(k in data for k in ("counters", "gauges", "histograms")):
        raise ValueError(f"{path}: not a metrics snapshot")
    return data


def _tag(snapshot: dict, node: str) -> dict:
    """The snapshot with ``node=<id>`` added to every series' labels."""
    tagged: dict = {}
    for family in ("counters", "gauges", "histograms"):
        tagged[family] = []
        for entry in snapshot.get(family, ()):
            entry = dict(entry)
            labels = dict(entry.get("labels", {}))
            labels.setdefault("node", node)
            entry["labels"] = labels
            tagged[family].append(entry)
    return tagged


def merge_snapshots(sources: list[tuple[str, dict]], *,
                    aggregate: bool = False) -> MetricsRegistry:
    """Fold ``(node, snapshot)`` pairs into one registry.

    With *aggregate* the node label is omitted and same-name series
    sum across nodes — the fleet-wide totals view.
    """
    registry = MetricsRegistry()
    for node, snapshot in sources:
        registry.merge(snapshot if aggregate else _tag(snapshot, node))
    return registry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="merge per-node metrics JSON dumps into one snapshot",
    )
    parser.add_argument("inputs", nargs="+", metavar="[NAME=]PATH",
                        help="per-node metrics.json files")
    parser.add_argument("-o", "--out", default=None,
                        help="write here instead of stdout")
    parser.add_argument("--prometheus", action="store_true",
                        help="emit text exposition format instead of JSON")
    parser.add_argument("--aggregate", action="store_true",
                        help="sum across nodes without a node label")
    args = parser.parse_args(argv)

    sources: list[tuple[str, dict]] = []
    for spec in args.inputs:
        if "=" in spec:
            node, path = spec.split("=", 1)
        else:
            path = spec
            node = os.path.splitext(os.path.basename(path))[0]
        sources.append((node, _load_snapshot(path)))

    registry = merge_snapshots(sources, aggregate=args.aggregate)
    text = registry.to_prometheus() if args.prometheus else registry.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"merged {len(sources)} snapshot(s) -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
