"""Explicit-clock spans with one trace id per request lifecycle.

A :class:`Tracer` answers the operator question the latency report
cannot: *which phase* of one request was slow — admission, waiting for
a batch, the pairing math, the journal append, or the reply?  Design
constraints, in order:

* **near-zero cost when off.**  ``span()`` on a disabled tracer is one
  attribute check returning a shared no-op singleton — no allocation,
  no clock read, no string work.  The hot verify loop runs the same
  bytecode it ran before this module existed.
* **explicit clock.**  The tracer reads time only through the callable
  it was built with, so service code under the fault harness's
  simulated clocks traces identically to wall-clock runs, and tests
  assert on exact timestamps.
* **bounded memory.**  Finished spans land in a ring buffer
  (``capacity`` newest records); a service traced for hours degrades
  to "the recent window", never to OOM.
* **privacy.**  Every attribute passes the
  :class:`~repro.obs.redact.RedactionPolicy` gate *at record time* —
  a secret that never enters the buffer can never be exported.

Trace context is a stack: a span opened while another is active
inherits its trace id and becomes its child, which is how one
``submit`` span accumulates ``admission`` and ``journal_append``
children without any plumbing at the call sites.  Phases that run
outside the request's call stack (the batcher verifying many requests
in one flush) attach themselves with an explicit ``trace=`` id or via
:meth:`Tracer.emit`.

Export is the Chrome trace-event JSON the ``chrome://tracing`` and
Perfetto UIs load directly: a JSON array, one complete-event object
per line (line-oriented for grepping, valid JSON as a whole).  Each
trace id gets its own ``tid`` lane plus a thread-name metadata record,
so one request reads top-to-bottom as a timeline.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.obs.redact import DEFAULT_POLICY, RedactionPolicy

__all__ = ["SpanRecord", "Span", "Tracer", "NOOP_SPAN"]


@dataclass(frozen=True)
class SpanRecord:
    """One finished span, already scrubbed, as stored in the ring."""

    trace: str
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _NoopSpan:
    """The shared do-nothing span handed out while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set(self, **attrs) -> None:
        return None


#: Singleton returned by every ``span()`` call on a disabled tracer;
#: the overhead smoke test asserts on its identity.
NOOP_SPAN = _NoopSpan()


class Span:
    """An open span; close it (``with`` or :meth:`finish`) to record it."""

    __slots__ = ("_tracer", "name", "trace", "span_id", "parent", "start",
                 "_attrs", "_open")

    def __init__(self, tracer: "Tracer", name: str, trace: str,
                 span_id: int, parent: int | None, start: float,
                 attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.trace = trace
        self.span_id = span_id
        self.parent = parent
        self.start = start
        self._attrs = attrs
        self._open = True

    def set(self, **attrs) -> None:
        """Attach attributes discovered mid-span (scrubbed on finish)."""
        self._attrs.update(attrs)

    def finish(self, *, end: float | None = None) -> None:
        if not self._open:
            return
        self._open = False
        self._tracer._finish(self, end)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc) -> None:
        self.finish()


class Tracer:
    """Span recorder with a context stack and a bounded ring buffer."""

    def __init__(
        self,
        *,
        enabled: bool = True,
        clock: Callable[[], float] = time.perf_counter,
        capacity: int = 4096,
        policy: RedactionPolicy | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.enabled = enabled
        self.clock = clock
        self.capacity = capacity
        self.policy = policy if policy is not None else DEFAULT_POLICY
        self._ring: deque[SpanRecord] = deque(maxlen=capacity)
        self._stack: list[Span] = []
        self._next_span = 0
        self._next_trace = 0
        self.dropped = 0  # records pushed out of the ring

    def __len__(self) -> int:
        return len(self._ring)

    # -- recording ---------------------------------------------------------
    def span(self, name: str, *, trace: str | None = None, **attrs):
        """Open a span; returns :data:`NOOP_SPAN` while disabled.

        With ``trace=None`` the span joins the innermost active span's
        trace (and becomes its child); with no active span it starts a
        fresh background trace.  An explicit ``trace=`` attaches the
        span to that trace without parenting across traces.
        """
        if not self.enabled:
            return NOOP_SPAN
        current = self._stack[-1] if self._stack else None
        if trace is None:
            if current is not None:
                trace = current.trace
            else:
                trace = f"bg{self._next_trace}"
                self._next_trace += 1
        parent = (
            current.span_id
            if current is not None and current.trace == trace
            else None
        )
        span = Span(self, name, trace, self._next_span, parent,
                    self.clock(), attrs)
        self._next_span += 1
        self._stack.append(span)
        return span

    def emit(self, name: str, *, trace: str, start: float, end: float,
             **attrs) -> None:
        """Record one already-timed span (the explicit-clock path).

        Used where the work happened outside the caller's stack — e.g.
        the batcher attributing one flush's wall time to every request
        verified in it.
        """
        if not self.enabled:
            return
        self._record(SpanRecord(
            trace=trace, span_id=self._next_span, parent=None, name=name,
            start=start, end=end, attrs=self.policy.scrub(attrs),
        ))
        self._next_span += 1

    def current_trace(self) -> str | None:
        """Trace id of the innermost active span, if any."""
        return self._stack[-1].trace if self._stack else None

    def _finish(self, span: Span, end: float | None) -> None:
        # tolerate out-of-order closes (an inner span leaked by an
        # exception): pop down to — and including — this span
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        self._record(SpanRecord(
            trace=span.trace, span_id=span.span_id, parent=span.parent,
            name=span.name, start=span.start,
            end=self.clock() if end is None else end,
            attrs=self.policy.scrub(span._attrs),
        ))

    def _record(self, record: SpanRecord) -> None:
        if len(self._ring) == self._ring.maxlen:
            self.dropped += 1
        self._ring.append(record)

    # -- reading -----------------------------------------------------------
    def records(self) -> list[SpanRecord]:
        """Finished spans, oldest first (newest ``capacity`` kept)."""
        return list(self._ring)

    def clear(self) -> None:
        self._ring.clear()
        self.dropped = 0

    # -- export ------------------------------------------------------------
    def export_events(self) -> list[dict]:
        """Chrome trace-event dicts: one lane (tid) per trace id."""
        records = sorted(self._ring, key=lambda r: (r.start, r.span_id))
        base = records[0].start if records else 0.0
        lanes: dict[str, int] = {}
        events: list[dict] = []
        for record in records:
            tid = lanes.get(record.trace)
            if tid is None:
                tid = lanes[record.trace] = len(lanes) + 1
                events.append({
                    "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                    "ts": 0, "args": {"name": record.trace},
                })
            args = dict(record.attrs)
            args["trace"] = record.trace
            if record.parent is not None:
                args["parent"] = record.parent
            events.append({
                "name": record.name,
                "cat": "repro",
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": round((record.start - base) * 1e6, 3),
                "dur": round(record.duration * 1e6, 3),
                "id": record.span_id,
                "args": args,
            })
        return events

    def export_jsonl(self) -> str:
        """The events as a JSON array with one event per line.

        The whole string is valid JSON (``chrome://tracing`` / Perfetto
        load it as-is) and each event sits alone on its line, so shell
        tooling — including the planted-secret grep test — works
        line-by-line.
        """
        events = self.export_events()
        if not events:
            return "[]\n"
        lines = [json.dumps(event, sort_keys=True) for event in events]
        return "[\n" + ",\n".join(lines) + "\n]\n"

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.export_jsonl())
