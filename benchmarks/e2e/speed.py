"""How fast the box was while the window was open.

The benchmark's home is a shared two-core VM whose cores run at one of
two speeds — a fixed computation takes 1.0x or about 1.5x as long, for
tens of seconds at a time, depending on what the host is doing with the
sibling hardware threads.  Ten runs of one commit therefore land in two
clusters, and the spread of any timing metric is the gap between the
clusters, not anything the commit did.

:class:`SpeedProbe` measures the box instead of guessing: during the
timed window a thread of the load-generator process runs a fixed
reference kernel every 20 ms and records the thread CPU each pass took.
``slowdown`` is the median pass over the kernel's duration on the quiet
box.  The harness reports every timing metric both as measured and
divided by that factor ("as the quiet box would have shown it"); the
second is what ``BENCHMARK.json`` bounds.  The probe costs ~3 % of one
core of the generator.

The kernel is the server's kind of work and nothing of the server's
code: a plain interpreter loop, and products in a quadratic extension
of the integers modulo a 512-bit number, written as tuples of Python
integers — short bigints, a function call and fresh objects per product,
as the pairing arithmetic is.  What matters is that it slows *by the same factor* as
the server when the box does.  Measured here over 24 ``deposit_closed``
and 16 ``rpc_threaded`` runs that caught both speeds, server CPU per
operation went as this kernel's duration to the power 0.9-1.05 and the
normalised spread was 5-6 %; the kernel this one replaced (the same loop
plus 1024-bit squarings, which are one long C call each and slow less)
gave a power of 1.35-1.55 and a spread of 9-10 %, against 20-25 % raw.
About 5 % of run-to-run variation is seen by no kernel tried (neither
allocation-heavy nor cache-missing ones) and stays.
"""

from __future__ import annotations

import statistics
import threading
import time

__all__ = ["SpeedProbe", "REFERENCE_S"]

#: thread CPU one pass of the kernel takes on the quiet box
REFERENCE_S = 0.53e-3
_PERIOD_S = 0.02
_MODULUS = (1 << 511) + 111
_FACTOR = ((1 << 500) + 12345, (1 << 499) + 777)


def _fp2_mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    a0, a1 = a
    b0, b1 = b
    return (a0 * b0 - a1 * b1) % _MODULUS, (a0 * b1 + a1 * b0) % _MODULUS


def _kernel() -> float:
    """One pass: a quarter interpreter loop, the rest 512-bit F_p2 products."""
    start = time.thread_time()
    x = 0
    for i in range(2500):
        x += i * i
    b = _FACTOR
    for _ in range(120):
        b = _fp2_mul(_FACTOR, b)
    return time.thread_time() - start


class SpeedProbe:
    """``with SpeedProbe() as probe: ...`` then read ``probe.slowdown``."""

    def __init__(self) -> None:
        self._passes: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe",
                                        daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(_PERIOD_S):
            self._passes.append(_kernel())

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    @property
    def slowdown(self) -> float:
        """Median pass ÷ quiet-box pass; 1.0 when the window was too short."""
        if len(self._passes) < 5:
            return 1.0
        return statistics.median(self._passes) / REFERENCE_S
