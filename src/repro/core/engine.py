"""Message-driven protocol engine.

The ``PPMS*Session`` classes orchestrate the paper's algorithms
imperatively — convenient for tests and benches, but not how deployed
parties run.  This engine provides the production shape: every party is
a :class:`Party` that *only* reacts to delivered messages, and a
:class:`Router` moves envelopes between parties through the accounted
:class:`~repro.net.transport.Transport` until the system is quiescent.

Rules the router enforces:

* parties never touch each other's objects — everything crosses the
  codec (so any state smuggling fails loudly);
* delivery order is FIFO per router (deterministic);
* a handler raising :class:`ProtocolError` poisons only that delivery;
  the error is recorded and the rest of the system keeps running —
  exactly how a real MA must treat a malformed client message;
* a message of the wrong shape (a missing field, a payload that is not
  a mapping, a value of the wrong type) is such a message: a
  ``KeyError`` / ``TypeError`` / ``ValueError`` escaping a handler is
  recorded the same way, its error starting ``"malformed"``.

:mod:`repro.core.dec_machine` and :mod:`repro.core.pbs_machine` put
PPMSdec and PPMSpbs on this engine: each party there is its actor class
(the protocol steps, written once) plus :class:`Party` (addressing,
message order, rejection).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.net.transport import Transport

__all__ = ["Outbound", "Party", "ProtocolError", "Router", "DeliveryFailure"]


class ProtocolError(Exception):
    """A party rejected a message (malformed, out of order, forged)."""


@dataclass(frozen=True)
class Outbound:
    """A message a handler wants sent."""

    receiver: str
    kind: str
    payload: Any


@dataclass(frozen=True)
class DeliveryFailure:
    """Record of a delivery its handler rejected (see the module rules)."""

    sender: str
    receiver: str
    kind: str
    error: str


class Party(ABC):
    """A protocol participant addressed by ``name``."""

    def __init__(self, name: str) -> None:
        self.name = name

    def start(self) -> list[Outbound]:
        """Messages to emit when the party is activated (default: none)."""
        return []

    @abstractmethod
    def handle(self, sender: str, kind: str, payload: Any) -> list[Outbound]:
        """React to a delivered message; return follow-up messages."""


class Router:
    """Delivers messages FIFO until no party has anything left to say."""

    def __init__(
        self,
        transport: Transport | None = None,
        *,
        shuffle_rng: "random.Random | None" = None,
    ) -> None:
        """With *shuffle_rng* the router delivers queued messages in a
        random order instead of FIFO — the async-network model.  State
        machines must converge to the same outcome either way (the MA
        holds payments until both sides exist precisely so reordering
        is harmless); the test suite checks that."""
        self.transport = transport or Transport()
        self.parties: dict[str, Party] = {}
        self.failures: list[DeliveryFailure] = []
        self._queue: deque[tuple[str, Outbound]] = deque()
        self._shuffle_rng = shuffle_rng

    def add(self, party: Party) -> None:
        if party.name in self.parties:
            raise ValueError(f"party {party.name!r} already registered")
        self.parties[party.name] = party

    def activate(self, name: str) -> None:
        """Run a party's :meth:`Party.start` and enqueue its messages."""
        for out in self.parties[name].start():
            self._queue.append((name, out))

    def post(self, sender: str, out: Outbound) -> None:
        """Inject a message from outside (e.g. a driver or an attacker)."""
        self._queue.append((sender, out))

    def run(self, *, max_deliveries: int = 100_000) -> int:
        """Deliver until quiescent; returns the number of deliveries."""
        delivered = 0
        while self._queue:
            if delivered >= max_deliveries:
                raise RuntimeError(f"delivery budget exhausted ({max_deliveries})")
            if self._shuffle_rng is not None and len(self._queue) > 1:
                self._queue.rotate(-self._shuffle_rng.randrange(len(self._queue)))
            sender, out = self._queue.popleft()
            receiver = self.parties.get(out.receiver)
            if receiver is None:
                raise KeyError(f"message for unknown party {out.receiver!r}")
            payload = self.transport.send(sender, out.receiver, out.kind, out.payload)
            replies, error = [], None
            try:
                replies = receiver.handle(sender, out.kind, payload)
            except ProtocolError as exc:
                error = str(exc)
            except (KeyError, TypeError, ValueError) as exc:
                error = f"malformed {out.kind} message: {exc!r}"
            if error is not None:
                self.failures.append(
                    DeliveryFailure(sender=sender, receiver=out.receiver,
                                    kind=out.kind, error=error)
                )
            for reply in replies:
                self._queue.append((out.receiver, reply))
            delivered += 1
        return delivered
