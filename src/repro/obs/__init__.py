"""repro.obs — zero-dependency tracing and metrics for the market.

The observability layer the serving stack reports into:

* :mod:`repro.obs.trace` — explicit-clock spans, one trace id per
  request, ring-buffered, exported as Chrome/Perfetto trace JSON;
* :mod:`repro.obs.registry` — typed ``Counter``/``Gauge``/``Histogram``
  instruments with fixed log-scale buckets, mergeable snapshots, and
  Prometheus-text/JSON exporters;
* :mod:`repro.obs.redact` — the allowlist privacy gate every exported
  attribute and label passes through (serials, account ids, coin
  values and blinded material are hashed or dropped, never published).

A :class:`Telemetry` pairs one tracer with one registry; the serving
layer threads a single ``Telemetry`` through service → bank → batcher
→ admission → journal so one trace id follows a request end to end
and all counters land in one scrape.

**Toggles.**  Metrics always count.  Tracing is the one switch: the
module-default tracer starts from ``REPRO_TRACE=1`` (default **off**;
the disabled path costs one attribute check per span and hands out the
shared no-op span).  ``Telemetry()`` is a private stack with tracing
off; tests build private ``Telemetry.enabled()`` stacks instead of
touching the global one.

Layering: this package imports nothing from the rest of ``repro``
(enforced by ``tools/lint_imports.py``) — in particular it may not
import ``service``; the service imports *it*.

See ``docs/observability.md`` for the span/metric inventory and
``docs/runbook.md`` for how an operator reads the exports.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.obs.redact import (
    DEFAULT_POLICY,
    DROP_KEYS,
    SAFE_KEYS,
    RedactionPolicy,
    hash_value,
    trace_id,
)
from repro.obs.registry import (
    LATENCY_BUCKETS,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import NOOP_SPAN, Span, SpanRecord, Tracer

__all__ = [
    "Telemetry",
    "Tracer",
    "Span",
    "SpanRecord",
    "NOOP_SPAN",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "SIZE_BUCKETS",
    "RedactionPolicy",
    "DEFAULT_POLICY",
    "SAFE_KEYS",
    "DROP_KEYS",
    "hash_value",
    "trace_id",
    "get_default",
]


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "0").strip().lower() in ("1", "true", "yes", "on")


@dataclass
class Telemetry:
    """One tracer + one registry: the unit the service stack shares."""

    tracer: Tracer = field(default_factory=lambda: Tracer(enabled=False))
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def tracing(self) -> bool:
        return self.tracer.enabled

    @classmethod
    def enabled(cls, *, capacity: int = 4096,
                policy: RedactionPolicy | None = None,
                clock=None) -> "Telemetry":
        """A fully-on private stack (what tests and the demo build)."""
        kwargs = {"enabled": True, "capacity": capacity}
        if policy is not None:
            kwargs["policy"] = policy
        if clock is not None:
            kwargs["clock"] = clock
        return cls(
            tracer=Tracer(**kwargs),
            registry=MetricsRegistry(policy=policy),
        )

    def export(self) -> dict:
        """All exports in one dict: trace JSONL, metrics JSON + text."""
        return {
            "trace": self.tracer.export_jsonl(),
            "metrics": self.registry.snapshot(),
            "prometheus": self.registry.to_prometheus(),
        }

    def dump(self, directory) -> dict[str, str]:
        """Write ``trace.json`` / ``metrics.json`` / ``metrics.prom``.

        Returns the path of each file written.  The directory is
        created if missing.
        """
        os.makedirs(directory, exist_ok=True)
        paths = {
            "trace": os.path.join(directory, "trace.json"),
            "metrics": os.path.join(directory, "metrics.json"),
            "prometheus": os.path.join(directory, "metrics.prom"),
        }
        self.tracer.dump(paths["trace"])
        with open(paths["metrics"], "w", encoding="utf-8") as fh:
            fh.write(self.registry.to_json())
        with open(paths["prometheus"], "w", encoding="utf-8") as fh:
            fh.write(self.registry.to_prometheus())
        return paths


#: The process-default telemetry; its tracer is off unless the
#: environment says otherwise, so an untraced run pays one attribute
#: check per would-be span and allocates nothing for it.
_DEFAULT = Telemetry(tracer=Tracer(enabled=_env_flag("REPRO_TRACE")))


def get_default() -> Telemetry:
    """The telemetry components fall back to when given none."""
    return _DEFAULT

