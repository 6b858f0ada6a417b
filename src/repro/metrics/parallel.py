"""Parallel parameter sweeps for benchmarks and experiments.

The evaluation grids (levels × node levels × strategies × trials) are
embarrassingly parallel, and the heavy work is arbitrary-precision
arithmetic that releases nothing to threads — so the right tool is a
*process* pool.  :func:`sweep` maps a top-level worker function over a
grid with ``concurrent.futures.ProcessPoolExecutor``, preserving input
order and propagating worker exceptions.

Two ergonomic guarantees keep results reproducible and picklable:

* every grid point carries its own integer seed (derived from the
  sweep seed and the point index), so results are independent of
  worker scheduling;
* ``processes=1`` skips multiprocessing entirely (exact same code
  path in-process), which is what the test suite uses and what callers
  should use under profilers.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Sequence

__all__ = [
    "SweepPoint",
    "sweep",
    "sweep_points",
    "default_processes",
    "env_processes",
]


@dataclass(frozen=True)
class SweepPoint:
    """One grid point handed to the worker: parameters plus a seed."""

    index: int
    seed: int
    params: Any


def env_processes(default: int | None = None) -> int | None:
    """The ``REPRO_PROCESSES`` override, or *default* when unset/invalid.

    This is the one place the environment variable is parsed — the
    sweep heuristic, the verification worker pool and the service test
    fixtures all resolve their worker counts through it, so one env
    knob pins every pool in the process.  Non-positive or non-numeric
    values are ignored.
    """
    override = os.environ.get("REPRO_PROCESSES", "").strip()
    if override:
        try:
            n = int(override)
        except ValueError:
            n = 0
        if n >= 1:
            return n
    return default


def default_processes() -> int:
    """A sensible worker count: physical-ish cores, at least 1.

    A ``REPRO_PROCESSES`` environment variable overrides the heuristic —
    the 1-core bench VM and CI use it to force serial (or deliberately
    oversubscribed) runs without code edits.
    """
    override = env_processes()
    if override is not None:
        return override
    return max(1, (os.cpu_count() or 2) - 1)


def sweep_points(grid: Sequence[Any], seed: int = 0) -> list[SweepPoint]:
    """The grid as seeded :class:`SweepPoint`\\ s (deterministic per point).

    Factored out so every dispatch backend — the in-process loop here,
    and the persistent :mod:`repro.service.workers` pool — derives
    bit-identical per-point seeds from the same ``(seed, index)`` pair;
    results then never depend on *which* executor ran the grid.
    """
    return [
        SweepPoint(index=i, seed=(seed * 1_000_003 + i * 7919) & 0x7FFFFFFF, params=p)
        for i, p in enumerate(grid)
    ]


def sweep(
    worker: Callable[[SweepPoint], Any],
    grid: Sequence[Any],
    *,
    seed: int = 0,
    processes: int | None = None,
) -> list[Any]:
    """Evaluate ``worker`` at every point of *grid*, possibly in parallel.

    *worker* must be a module-level function (picklability); it receives
    a :class:`SweepPoint` whose ``params`` is the grid entry and whose
    ``seed`` is unique and deterministic per point.  Results come back
    in grid order.  Exceptions in workers propagate to the caller.
    """
    points = sweep_points(grid, seed)
    n_proc = processes if processes is not None else default_processes()
    if n_proc <= 1 or len(points) <= 1:
        return [worker(point) for point in points]
    with ProcessPoolExecutor(max_workers=min(n_proc, len(points))) as pool:
        return list(pool.map(worker, points))
