#!/usr/bin/env python
"""Validate exported telemetry against the checked-in schema.

CI gate for ``make obs-demo``: loads ``trace.json`` and
``metrics.json`` from the given directory and checks both against
``tools/telemetry_schema.json``.  The schema language is the small
JSON-Schema subset the validator below implements — ``type``,
``properties``, ``required``, ``items``, ``enum`` — which is enough to
pin the exporter's wire shape (Chrome trace events, registry
snapshot) without any third-party dependency.

Beyond the schema, a handful of semantic invariants are enforced:
traces are non-empty, complete events have non-negative ``ts``/
``dur``, histogram ``counts`` sum to ``count`` and carry one overflow
slot more than ``buckets``, and a metric the schema's ``instruments``
table registers by name is exported as the registered kind.

Exit status is non-zero on any finding; findings are printed one per
line as ``<file> <json-path>: <problem>``.
"""

from __future__ import annotations

import json
import pathlib
import sys

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


def validate(value, schema: dict, path: str = "$") -> list[str]:
    """Check *value* against *schema*, returning a list of findings."""
    findings: list[str] = []
    expected = schema.get("type")
    if expected is not None:
        python_type = _TYPES[expected]
        ok = isinstance(value, python_type)
        if ok and expected in ("integer", "number") and isinstance(value, bool):
            ok = False
        if not ok:
            findings.append(f"{path}: expected {expected}, "
                            f"got {type(value).__name__}")
            return findings
    if "enum" in schema and value not in schema["enum"]:
        findings.append(f"{path}: {value!r} not in {schema['enum']}")
    for key in schema.get("required", ()):
        if not isinstance(value, dict) or key not in value:
            findings.append(f"{path}: missing required key {key!r}")
    for key, sub in schema.get("properties", {}).items():
        if isinstance(value, dict) and key in value:
            findings.extend(validate(value[key], sub, f"{path}.{key}"))
    if "items" in schema and isinstance(value, list):
        for i, item in enumerate(value):
            findings.extend(validate(item, schema["items"], f"{path}[{i}]"))
    return findings


def check_trace(events) -> list[str]:
    findings = validate(events, _SCHEMA["trace"], "$")
    if isinstance(events, list):
        if not events:
            findings.append("$: trace is empty — the demo recorded nothing")
        for i, event in enumerate(events):
            if not isinstance(event, dict) or event.get("ph") != "X":
                continue
            if event.get("ts", 0) < 0:
                findings.append(f"$[{i}].ts: negative timestamp")
            if event.get("dur", 0) < 0:
                findings.append(f"$[{i}].dur: negative duration")
    return findings


def check_metrics(snapshot) -> list[str]:
    findings = validate(snapshot, _SCHEMA["metrics"], "$")
    if isinstance(snapshot, dict):
        for kind in ("counters", "gauges", "histograms"):
            for i, entry in enumerate(snapshot.get(kind, [])):
                name = entry.get("name") if isinstance(entry, dict) else None
                registered = _SCHEMA["instruments"].get(name, kind)
                if registered != kind:
                    findings.append(f"$.{kind}[{i}]: {name} is registered "
                                    f"under {registered}")
        for i, entry in enumerate(snapshot.get("histograms", [])):
            if not isinstance(entry, dict):
                continue
            counts = entry.get("counts", [])
            buckets = entry.get("buckets", [])
            where = f"$.histograms[{i}]"
            if len(counts) != len(buckets) + 1:
                findings.append(f"{where}: want len(buckets)+1 counts "
                                f"(overflow slot), got {len(counts)}")
            if sum(counts) != entry.get("count"):
                findings.append(f"{where}: counts sum {sum(counts)} != "
                                f"count {entry.get('count')}")
    return findings


_SCHEMA = json.loads(
    (pathlib.Path(__file__).parent / "telemetry_schema.json").read_text()
)


def main(argv: list[str]) -> int:
    directory = pathlib.Path(argv[1] if len(argv) > 1 else "telemetry")
    findings: list[str] = []
    for name, checker in (("trace.json", check_trace),
                          ("metrics.json", check_metrics)):
        target = directory / name
        if not target.exists():
            findings.append(f"{target}: missing")
            continue
        try:
            data = json.loads(target.read_text())
        except json.JSONDecodeError as exc:
            findings.append(f"{target}: invalid JSON: {exc}")
            continue
        findings.extend(f"{target} {f}" for f in checker(data))
    if findings:
        print(f"telemetry check: {len(findings)} finding(s)")
        for finding in findings:
            print(f"  {finding}")
        return 1
    print(f"telemetry check: OK ({directory}/trace.json, metrics.json)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
