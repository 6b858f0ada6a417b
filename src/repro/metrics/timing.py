"""Wall-clock timing harness (Section VI methodology).

The paper runs every experiment 100 times and reports the average,
discarding JVM warm-up effects.  :func:`time_operation` mirrors that:
optional warm-up runs, then *repeats* timed runs, returning mean and
spread.  The benches use fewer repetitions at expensive parameter
points (as any practical reproduction must) and record the counts.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

__all__ = ["TimingResult", "time_operation"]


@dataclass(frozen=True)
class TimingResult:
    """Aggregate of repeated timed runs (durations in seconds)."""

    mean: float
    std: float
    minimum: float
    maximum: float
    repeats: int

    @property
    def mean_ms(self) -> float:
        return self.mean * 1e3

    def __str__(self) -> str:
        return f"{self.mean_ms:.3f} ms ± {self.std * 1e3:.3f} ms (n={self.repeats})"


def time_operation(
    fn: Callable[[], object],
    *,
    repeats: int = 100,
    warmup: int = 1,
) -> TimingResult:
    """Time *fn* over *repeats* runs after *warmup* discarded runs."""
    if repeats < 1:
        raise ValueError("need at least one timed run")
    for _ in range(warmup):
        fn()
    durations = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        durations.append(time.perf_counter() - start)
    mean = sum(durations) / repeats
    var = sum((d - mean) ** 2 for d in durations) / repeats
    return TimingResult(
        mean=mean,
        std=math.sqrt(var),
        minimum=min(durations),
        maximum=max(durations),
        repeats=repeats,
    )
