"""Seed-driven fault schedules and the crash-injecting transport.

One integer seed determines *everything*: the drop/duplicate/reorder
rates, the per-request fault decisions, and the envelope indices at
which the service is killed.  Re-running a scenario with the same seed
replays the identical fault schedule — a failing run is a repro
recipe, not an anecdote.

Three layers of injection:

* **Request-stream faults** (:meth:`FaultPlan.perturb`) model an
  at-least-once network between residents and the MA: a request may be
  dropped (never arrives), duplicated (arrives twice under the same
  request id), or delayed/reordered (slips a few positions later in
  the arrival order).  Delay is positional, not temporal — the service
  loop is synchronous, so "arrives three requests later" is the
  faithful simulation of "arrives 300 ms later".
* **Crash points** (:class:`FaultyTransport` + :class:`FaultClock`)
  kill the service at scripted *envelope* indices.  The scenario sends
  every request through the transport on its way into ``submit`` and
  every delivered reply through it on the way out, so a crash point
  can land between accepting a request and applying it, or mid-way
  through applying a flushed batch — exactly the windows the
  write-ahead journal must cover.  The clock is shared across service
  incarnations, so crash points keep firing after recoveries.
* **Storage crash points** (:class:`StorageCrasher`) kill the process
  *between two storage operations* of the journal — inside an append's
  segment roll, a checkpoint or a compaction — by wrapping its
  :class:`~repro.service.storage.Storage`: production code carries no
  hook, and every mutating call is a point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.net.transport import Transport
from repro.service.storage import Storage, StorageWrapper

__all__ = [
    "CrashPoint",
    "FaultClock",
    "FaultPlan",
    "FaultyTransport",
    "StorageCrasher",
    "Delivery",
]


class CrashPoint(RuntimeError):
    """The scripted death of the service, raised mid-envelope.

    The harness treats this as the process being killed: the service
    and bank objects are abandoned, and recovery starts from the
    journal plus the last checkpoint.  *label* names the storage
    operation a :class:`StorageCrasher` died before; envelope-clock
    crashes leave it empty.
    """

    def __init__(self, envelope_seq: int, label: str = "") -> None:
        where = f" ({label})" if label else ""
        super().__init__(f"scripted crash at envelope {envelope_seq}{where}")
        self.envelope_seq = envelope_seq
        self.label = label


class StorageCrasher(StorageWrapper):
    """A :class:`~repro.service.storage.Storage` that dies on schedule.

    Wraps *inner* and records ``"<op>:<name>"`` for every mutating call
    (:attr:`steps`; a ``replace`` is named by its destination).  When
    *crash_at* is set, the call at that index raises
    :class:`CrashPoint` *before* it reaches *inner* — the harness's
    SIGKILL between two storage operations; what *inner* holds then is
    what the process left behind.  Typical use: one recording pass with
    ``crash_at=None`` to learn the operations a workload performs, then
    one sweep run per index.
    """

    def __init__(self, inner: Storage, crash_at: int | None = None) -> None:
        super().__init__(inner)
        self.crash_at = crash_at
        self.steps: list[str] = []
        self.fired: str | None = None

    def mutate(self, op: str, args: tuple) -> None:
        index = len(self.steps)
        self.steps.append(f"{op}:{args[1] if op == 'replace' else args[0]}")
        if index == self.crash_at:
            self.fired = self.steps[index]
            raise CrashPoint(index, label=self.fired)
        super().mutate(op, args)


class FaultClock:
    """Monotone envelope counter shared across service incarnations.

    Each scripted crash point fires exactly once; points the clock has
    already passed (because a crash lost some envelopes) are skipped
    rather than fired late.
    """

    def __init__(self, crash_points: tuple[int, ...] = ()) -> None:
        self.ticks = 0
        self._pending = sorted(crash_points)
        self.fired: list[int] = []

    def tick(self) -> bool:
        """Advance one envelope; ``True`` when this one is a crash."""
        t = self.ticks
        self.ticks += 1
        while self._pending and self._pending[0] < t:
            self._pending.pop(0)
        if self._pending and self._pending[0] == t:
            self._pending.pop(0)
            self.fired.append(t)
            return True
        return False


class FaultyTransport(Transport):
    """A :class:`Transport` that dies at scripted envelope indices.

    The crash is raised *before* the envelope is delivered — the
    message in flight is lost with the process, which is the harshest
    honest model.  All byte accounting and logging of surviving
    envelopes is inherited unchanged.
    """

    def __init__(self, clock: FaultClock | None = None) -> None:
        super().__init__()
        self.clock = clock if clock is not None else FaultClock()

    def send(self, sender: str, receiver: str, kind: str, payload):
        if self.clock.tick():
            raise CrashPoint(self.clock.ticks - 1)
        return super().send(sender, receiver, kind, payload)


@dataclass(frozen=True)
class Delivery:
    """One entry of a perturbed arrival schedule."""

    original: int    # index into the pristine request sequence
    duplicate: bool  # True for the injected second copy


@dataclass(frozen=True)
class FaultPlan:
    """A complete fault schedule, derivable from one seed.

    Build via :meth:`from_seed` for a randomized-but-deterministic
    plan, or construct directly to pin exact rates and crash points
    (e.g. "crash at envelope 17, nothing else").
    """

    seed: int
    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    max_slip: int = 3
    crash_points: tuple[int, ...] = ()

    @classmethod
    def from_seed(
        cls,
        seed: int,
        *,
        intensity: float = 0.15,
        max_crashes: int = 3,
        horizon: int = 160,
    ) -> "FaultPlan":
        """Derive a plan from *seed*: rates in ``[0, intensity]``, up to
        *max_crashes* crash points scattered over the first *horizon*
        envelopes."""
        rng = random.Random(f"fault-plan:{seed}")
        n_crashes = rng.randint(0, max_crashes)
        crash_points = tuple(sorted(rng.sample(range(2, horizon), n_crashes)))
        return cls(
            seed=seed,
            drop=rng.random() * intensity,
            duplicate=rng.random() * intensity,
            reorder=rng.random() * intensity,
            max_slip=rng.randint(1, 5),
            crash_points=crash_points,
        )

    def perturb(self, n: int) -> tuple[tuple[Delivery, ...], tuple[int, ...]]:
        """Fault the arrival order of *n* requests.

        Returns ``(schedule, dropped)``: the delivery schedule (original
        indices, possibly duplicated and reordered) and the indices
        that were dropped outright.  Deterministic in ``self.seed`` and
        *n* alone.
        """
        rng = random.Random(f"fault-perturb:{self.seed}")
        keyed: list[tuple[int, int, bool]] = []
        dropped: list[int] = []
        for i in range(n):
            if rng.random() < self.drop:
                dropped.append(i)
                continue
            copies = 2 if rng.random() < self.duplicate else 1
            for copy in range(copies):
                slip = (
                    rng.randrange(1, self.max_slip + 1)
                    if rng.random() < self.reorder
                    else 0
                )
                keyed.append((i + slip, i, copy > 0))
        keyed.sort(key=lambda t: (t[0], t[1], t[2]))
        schedule = tuple(Delivery(original=i, duplicate=dup) for _, i, dup in keyed)
        return schedule, tuple(dropped)

    def describe(self) -> dict:
        """The schedule as a dict — embedded in failure reports."""
        return {
            "seed": self.seed,
            "drop": round(self.drop, 4),
            "duplicate": round(self.duplicate, 4),
            "reorder": round(self.reorder, 4),
            "max_slip": self.max_slip,
            "crash_points": list(self.crash_points),
        }
