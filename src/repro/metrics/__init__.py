"""Instrumentation: operation counters, table rendering, timing harness.

Two modules back the paper's evaluation artifacts: Tables I and II
(:mod:`~repro.metrics.opcount`; Table II's bytes are the transport's
envelope log, :class:`repro.net.transport.Transport`) and the timing
methodology of Figs. 2–5 (:mod:`~repro.metrics.timing`).
:mod:`~repro.metrics.latency` serves the layer the paper doesn't have:
per-request latency quantiles and SLO checks for :mod:`repro.service`.
"""

from repro.metrics.latency import (
    LatencyRecorder,
    LatencyReport,
    SLOTarget,
    format_latency_report,
)
from repro.metrics.opcount import OPS, OpCounter, format_table, format_traffic_table
from repro.metrics.parallel import SweepPoint, default_processes, sweep
from repro.metrics.series import FigureData, Series, render_ascii_plot, render_table
from repro.metrics.timing import TimingResult, time_operation

__all__ = [
    "LatencyRecorder",
    "LatencyReport",
    "SLOTarget",
    "format_latency_report",
    "OpCounter",
    "OPS",
    "format_table",
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
