"""Instrumentation: operation counters, traffic meters, timing harness.

Three modules back the paper's evaluation artifacts: Table I
(:mod:`~repro.metrics.opcount`), Table II (:mod:`~repro.metrics.traffic`)
and the timing methodology of Figs. 2–5 (:mod:`~repro.metrics.timing`).
:mod:`~repro.metrics.latency` serves the layer the paper doesn't have:
per-request latency quantiles and SLO checks for :mod:`repro.service`.
"""

from repro.metrics.latency import (
    LatencyRecorder,
    LatencyReport,
    SLOTarget,
    format_latency_report,
)
from repro.metrics.opcount import OPS, OpCounter, format_table
from repro.metrics.parallel import SweepPoint, default_processes, sweep
from repro.metrics.series import FigureData, Series, render_ascii_plot, render_table
from repro.metrics.timing import TimingResult, time_operation
from repro.metrics.traffic import TrafficMeter, format_traffic_table

__all__ = [
    "LatencyRecorder",
    "LatencyReport",
    "SLOTarget",
    "format_latency_report",
    "OpCounter",
    "OPS",
    "format_table",
    "TrafficMeter",
    "format_traffic_table",
    "TimingResult",
    "time_operation",
    "sweep",
    "SweepPoint",
    "default_processes",
    "Series",
    "FigureData",
    "render_table",
    "render_ascii_plot",
]
