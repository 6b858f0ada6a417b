"""Typed metric instruments with Prometheus-text and JSON export.

A :class:`MetricsRegistry` is the one place the service's counters
live: fastexp cache hits, batcher occupancy, admission sheds, journal
LSNs, recovery replay counts.  Three instrument types, deliberately no
more:

* :class:`Counter` — monotone totals (``..._total`` by convention);
* :class:`Gauge` — last-written level (queue depth, newest LSN);
* :class:`Histogram` — distributions over **fixed log-scale buckets**.
  The bucket ladder is part of the metric's identity: every shard,
  process and incarnation observing into the same ladder makes
  snapshots *mergeable* by plain element-wise addition — no rebinning,
  no information loss beyond the ladder itself.

Instruments are get-or-create by ``(name, labels)``; label values pass
the :class:`~repro.obs.redact.RedactionPolicy` gate at creation, so a
label can never smuggle an account id into a scrape.  Recording is
always on: an ``inc``/``set``/``observe`` is one addition, no
allocation, so there is no switch to forget on a deployed node.

Cross-process aggregation goes through :meth:`MetricsRegistry.snapshot`
(a codec-friendly plain dict) and :meth:`MetricsRegistry.merge`:
counters and histogram buckets add, gauges take the incoming value
(per-shard gauges should carry a ``shard`` label instead of relying on
merge order).  Export formats are the Prometheus text exposition
format and the same snapshot as JSON.
"""

from __future__ import annotations

import json
import math
from typing import Iterable

from repro.obs.redact import DEFAULT_POLICY, RedactionPolicy

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
    "SIZE_BUCKETS",
]

#: Log-scale latency ladder in seconds: powers of two from ~1 µs to 16 s.
LATENCY_BUCKETS: tuple[float, ...] = tuple(2.0 ** e for e in range(-20, 5))

#: Log-scale count/size ladder: powers of two from 1 to 64 Ki.
SIZE_BUCKETS: tuple[float, ...] = tuple(float(2 ** e) for e in range(0, 17))


class _Instrument:
    """Common identity: name, scrubbed labels, help text."""

    __slots__ = ("name", "labels", "help")

    kind = "untyped"

    def __init__(self, name: str, labels: dict, help: str) -> None:
        self.name = name
        self.labels = labels
        self.help = help


class Counter(_Instrument):
    """Monotonically increasing total."""

    __slots__ = ("value",)

    kind = "counter"

    def __init__(self, name, labels, help) -> None:
        super().__init__(name, labels, help)
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n


class Gauge(_Instrument):
    """Last-written level."""

    __slots__ = ("value",)

    kind = "gauge"

    def __init__(self, name, labels, help) -> None:
        super().__init__(name, labels, help)
        self.value = 0

    def set(self, value: int | float) -> None:
        self.value = value

    def inc(self, n: int | float = 1) -> None:
        self.value += n

    def dec(self, n: int | float = 1) -> None:
        self.inc(-n)


class Histogram(_Instrument):
    """Distribution over a fixed bucket ladder (upper bounds, + inf)."""

    __slots__ = ("buckets", "counts", "sum", "count")

    kind = "histogram"

    def __init__(self, name, labels, help, buckets: Iterable[float]) -> None:
        super().__init__(name, labels, help)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("bucket bounds must be non-empty and ascending")
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot = +inf overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: int | float) -> None:
        # linear scan beats bisect here: the ladder is short and hot
        # observations (latencies, batch sizes) land in the low buckets
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.sum += value
        self.count += 1

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the q-quantile observation.

        A ladder-resolution estimate (exact values are not kept); the
        overflow bucket reports ``inf``.  Raises on an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            raise ValueError("no observations recorded")
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= rank:
                return self.buckets[i] if i < len(self.buckets) else math.inf
        return math.inf  # pragma: no cover - unreachable


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def _format_labels(labels: dict, extra: dict | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        f'{k}="{_escape(str(v))}"' for k, v in sorted(merged.items())
    )
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class MetricsRegistry:
    """Get-or-create instrument store with merge and export."""

    def __init__(self, *, policy: RedactionPolicy | None = None) -> None:
        self.policy = policy if policy is not None else DEFAULT_POLICY
        self._instruments: dict[tuple[str, tuple], _Instrument] = {}

    def __len__(self) -> int:
        return len(self._instruments)

    # -- construction ------------------------------------------------------
    def _get(self, cls, name: str, help: str, labels: dict, **extra):
        if not name or not name.replace("_", "").replace(":", "").isalnum():
            raise ValueError(f"invalid metric name {name!r}")
        scrubbed = self.policy.scrub(labels)
        key = (name, _label_key(scrubbed))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, scrubbed, help, **extra)
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise ValueError(
                f"metric {name!r} already registered as {instrument.kind}"
            )
        return instrument

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] = LATENCY_BUCKETS,
                  **labels) -> Histogram:
        return self._get(Histogram, name, help, labels, buckets=tuple(buckets))

    def instruments(self) -> list[_Instrument]:
        return [self._instruments[k] for k in sorted(self._instruments)]

    def clear(self) -> None:
        self._instruments.clear()

    # -- merge (cross-shard / cross-process aggregation) -------------------
    def snapshot(self) -> dict:
        """Plain-data copy of every instrument (JSON/codec friendly)."""
        out: dict = {"counters": [], "gauges": [], "histograms": []}
        for instrument in self.instruments():
            entry: dict = {
                "name": instrument.name,
                "labels": dict(instrument.labels),
                "help": instrument.help,
            }
            if isinstance(instrument, Histogram):
                entry.update(
                    buckets=list(instrument.buckets),
                    counts=list(instrument.counts),
                    sum=instrument.sum,
                    count=instrument.count,
                )
                out["histograms"].append(entry)
            elif isinstance(instrument, Counter):
                entry["value"] = instrument.value
                out["counters"].append(entry)
            else:
                entry["value"] = instrument.value
                out["gauges"].append(entry)
        return out

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's snapshot into this one.

        Counters and histogram buckets add; gauges take the snapshot's
        value.  Histogram ladders must match exactly — mergeability is
        the reason the ladders are fixed.
        """
        for entry in snapshot.get("counters", ()):
            self.counter(entry["name"], entry.get("help", ""),
                         **entry["labels"]).value += entry["value"]
        for entry in snapshot.get("gauges", ()):
            self.gauge(entry["name"], entry.get("help", ""),
                       **entry["labels"]).value = entry["value"]
        for entry in snapshot.get("histograms", ()):
            hist = self.histogram(
                entry["name"], entry.get("help", ""),
                buckets=entry["buckets"], **entry["labels"],
            )
            if list(hist.buckets) != list(entry["buckets"]):
                raise ValueError(
                    f"histogram {entry['name']!r}: bucket ladders differ"
                )
            for i, n in enumerate(entry["counts"]):
                hist.counts[i] += n
            hist.sum += entry["sum"]
            hist.count += entry["count"]

    # -- export ------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True, indent=1) + "\n"

    def to_prometheus(self) -> str:
        """The text exposition format scrapers ingest."""
        lines: list[str] = []
        seen_headers: set[str] = set()
        for instrument in self.instruments():
            if instrument.name not in seen_headers:
                seen_headers.add(instrument.name)
                if instrument.help:
                    lines.append(f"# HELP {instrument.name} {instrument.help}")
                lines.append(f"# TYPE {instrument.name} {instrument.kind}")
            labels = instrument.labels
            if isinstance(instrument, Histogram):
                cumulative = 0
                for bound, n in zip(instrument.buckets, instrument.counts):
                    cumulative += n
                    lines.append(
                        f"{instrument.name}_bucket"
                        f"{_format_labels(labels, {'le': _finite(bound)})}"
                        f" {cumulative}"
                    )
                lines.append(
                    f"{instrument.name}_bucket"
                    f"{_format_labels(labels, {'le': '+Inf'})}"
                    f" {instrument.count}"
                )
                lines.append(
                    f"{instrument.name}_sum{_format_labels(labels)}"
                    f" {_num(instrument.sum)}"
                )
                lines.append(
                    f"{instrument.name}_count{_format_labels(labels)}"
                    f" {instrument.count}"
                )
            else:
                lines.append(
                    f"{instrument.name}{_format_labels(labels)}"
                    f" {_num(instrument.value)}"
                )
        return "\n".join(lines) + ("\n" if lines else "")


def _finite(bound: float) -> str:
    return repr(bound) if bound != int(bound) else str(int(bound))


def _num(value: int | float) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)
