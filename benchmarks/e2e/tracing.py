"""Spans recorded from outside: wrappers around bound public methods.

The traced run replaces a bound method on an object the benchmark
constructed (``service.submit``, ``journal.append`` ...) with a closure
that records one span per call: name, wall start and end, the span
that was open on the same thread when it started (its parent), the
request id when the call carries one, and the thread CPU it consumed.
Nothing under ``src/`` knows it is being traced.

Spans stay in memory until the run ends.  A span's **self time** is its
own duration minus the durations of its direct children, so the self
times of one thread never count an interval twice.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable

__all__ = ["Tracer", "self_times"]

# span layout (a list, mutated once when the call returns)
NAME, START, END, PARENT, CID, CPU = range(6)


class Tracer:
    """In-memory span store shared by every wrapper of one server."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        self._local = threading.local()

    def reset(self) -> None:
        """Drop everything recorded so far and start recording."""
        self.spans = []
        self.enabled = True

    def wrap(self, obj: Any, attr: str, name: str, *,
             cid: Callable[[tuple, dict], Any] | None = None,
             before: Callable[[tuple, dict], Any] | None = None,
             after: Callable[[Any, Any, float], None] | None = None) -> None:
        """Shadow ``obj.attr`` with a span-recording closure.

        *cid* picks the request id out of the call's arguments (a span
        without one inherits its parent's).  *before* runs ahead of the
        call and its result is handed to *after* together with the
        call's return value and wall duration — the hooks the per-layer
        counters hang off.  An exception closes the span and propagates;
        *after* then sees the exception in place of the return value.
        """
        fn = getattr(obj, attr)
        local = self._local

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            spans = self.spans
            parent = getattr(local, "open", -1)
            request = cid(args, kwargs) if cid is not None else None
            if request is None and parent >= 0:
                request = spans[parent][CID]
            token = before(args, kwargs) if before is not None else None
            index = len(spans)
            span = [name, 0.0, 0.0, parent, request, 0]
            spans.append(span)
            local.open = index
            cpu0 = time.thread_time_ns()
            span[START] = start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                result = exc
                raise
            finally:
                span[END] = end = time.perf_counter()
                span[CPU] = time.thread_time_ns() - cpu0
                local.open = parent
                if after is not None:
                    after(token, result, end - start)
            return result

        setattr(obj, attr, traced)

    def dump(self, path: str) -> int:
        """Write one JSON object per span; returns the span count."""
        spans = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(spans):
                fh.write(json.dumps({
                    "id": index, "name": span[NAME], "start": span[START],
                    "end": span[END], "parent": span[PARENT],
                    "cid": span[CID], "cpu_ns": span[CPU],
                }))
                fh.write("\n")
        return len(spans)


def self_times(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, wall seconds, self wall and self CPU seconds."""
    child_wall: dict[int, float] = defaultdict(float)
    child_cpu: dict[int, int] = defaultdict(int)
    for span in spans:
        if span[PARENT] >= 0:
            child_wall[span[PARENT]] += span[END] - span[START]
            child_cpu[span[PARENT]] += span[CPU]
    out: dict[str, dict[str, float]] = {}
    for index, span in enumerate(spans):
        row = out.setdefault(span[NAME], {"calls": 0, "wall_s": 0.0,
                                          "self_wall_s": 0.0, "self_cpu_s": 0.0})
        wall = span[END] - span[START]
        row["calls"] += 1
        row["wall_s"] += wall
        row["self_wall_s"] += wall - child_wall[index]
        row["self_cpu_s"] += (span[CPU] - child_cpu[index]) / 1e9
    return out
