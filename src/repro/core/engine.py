"""Message-driven protocol engine.

Every party is a :class:`Party` that *only* reacts to delivered
messages, and a :class:`Router` moves envelopes between parties through
the accounted :class:`~repro.net.transport.Transport` until the system
is quiescent.  :mod:`repro.core.dec_machine` and
:mod:`repro.core.pbs_machine` put PPMSdec and PPMSpbs on this engine:
each party there is one :class:`Party` subclass (its protocol steps,
their addressing, message order and rejection), and each mechanism's
session drives its machines through one router per job.

Rules the router enforces:

* parties never touch each other's objects — everything crosses the
  codec (so any state smuggling fails loudly);
* a party may answer to several names (a resident to its account and
  to its current pseudonym), sends only under a name it was added
  under, and says which in :attr:`Outbound.sender`;
* the transport meters each message under its parties' *roles*, not
  their names, so Table II stays per role and the envelope log names no
  resident;
* delivery order is FIFO per router (deterministic);
* a party reads its messages from one table (:attr:`Party.table`,
  a :class:`~repro.net.schema.Table` beside its handlers): a message
  of an unknown kind or of the wrong shape (a missing or surplus field,
  a value of the wrong type or past its bound, a payload that is not a
  mapping) is refused before any handler runs, as ``"malformed <kind>
  message: <problem>"``; a JO, SP or ring hears only the MA;
* a :class:`ProtocolError` poisons only its own delivery: the router
  records it and the rest of the system keeps running — exactly how a
  real MA must treat a hostile client message.  Any other exception is
  a bug and escapes.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.net.codec import decode
from repro.net.schema import Message, Table
from repro.net.transport import Transport

__all__ = ["Outbound", "Party", "ProtocolError", "Router", "DeliveryFailure", "drive",
           "settle", "unseal"]


class ProtocolError(ValueError):
    """A party rejected a message (malformed, out of order, forged)."""


@dataclass(frozen=True)
class Outbound:
    """A message a handler wants sent."""

    receiver: str
    kind: str
    payload: Any
    #: the sending party's name this goes out under (``None``: its own)
    sender: str | None = None


@dataclass(frozen=True)
class DeliveryFailure:
    """Record of a delivery its handler rejected (see the module rules)."""

    sender: str
    receiver: str
    kind: str
    error: str


class Party:
    """A protocol participant addressed by ``name``."""

    #: what the transport meters this party's traffic as (``None``: its name)
    role: str | None = None
    #: the one sender this party takes messages from (``None``: anyone)
    hears: str | None = None
    #: every kind this party takes: its payload's fields and its handler
    table: Table

    def __init__(self, name: str) -> None:
        self.name = name

    def start(self) -> list[Outbound]:
        """Messages to emit when the party is activated (default: none)."""
        return []

    def handle(self, sender: str, kind: str, payload: Any) -> list[Outbound]:
        """React to a delivered message; return follow-up messages.

        The only dispatch: the one-sender rule, then the kind's row of
        :attr:`table`, then the handler the row names — looked up by
        name, so a subclass overrides a step by redefining its handler.
        """
        if self.hears is not None and sender != self.hears:
            raise ProtocolError(f"{self.role or self.name} hears only the {self.hears}, "
                                f"not {sender!r}")
        entry = _checked(self.table, kind, payload)
        return getattr(self, entry.handler.__name__)(sender, payload)


def _checked(table: Table, kind: Any, body: Any) -> Message:
    """*kind*'s row of *table*, once *body* fits it."""
    entry, problem = table.check(kind, body)
    if entry is None:
        raise ProtocolError(problem)
    if problem is not None:
        raise ProtocolError(f"malformed {kind} message: {problem.removeprefix(f'{kind}: ')}")
    return entry


def unseal(table: Table, kind: str, plaintext: bytes) -> dict:
    """Decode the decrypted *plaintext* of a sealed *kind* and check it
    against its row of *table*, as :meth:`Party.handle` checks a message."""
    try:
        body = decode(plaintext)
    except ValueError as exc:
        raise ProtocolError(f"malformed {kind} message: {exc}") from exc
    _checked(table, kind, body)
    return body


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

    def add(self, party: Party, *aliases: str) -> None:
        """Address *party* by its name and by each of *aliases* (a name
        it already has is kept; another party's is refused)."""
        for name in (party.name, *aliases):
            if self.parties.setdefault(name, party) is not party:
                raise ValueError(f"party {name!r} already registered")

    def activate(self, name: str) -> None:
        """Run a party's :meth:`Party.start` and enqueue its messages."""
        party = self.parties[name]
        self._enqueue(party, party.start())

    def post(self, sender: str, out: Outbound) -> None:
        """Queue a message for delivery: a party's own, or one injected
        from outside (e.g. a driver or an attacker).  Every message
        passes here, so a router on another clock overrides this."""
        self._queue.append((sender, out))

    def run(self, *, max_deliveries: int = 100_000) -> int:
        """Deliver until quiescent; returns the number of deliveries."""
        delivered = 0
        while self._queue:
            if delivered >= max_deliveries:
                raise RuntimeError(f"delivery budget exhausted ({max_deliveries})")
            if self._shuffle_rng is not None and len(self._queue) > 1:
                self._queue.rotate(-self._shuffle_rng.randrange(len(self._queue)))
            self._deliver(*self._queue.popleft())
            delivered += 1
        return delivered

    def _deliver(self, sender: str, out: Outbound) -> None:
        receiver = self.parties.get(out.receiver)
        if receiver is None:
            raise KeyError(f"message for unknown party {out.receiver!r}")
        payload = self.transport.send(
            self._role(sender), self._role(out.receiver), out.kind, out.payload)
        try:
            replies = receiver.handle(sender, out.kind, payload)
        except ProtocolError as exc:
            self.failures.append(DeliveryFailure(sender=sender, receiver=out.receiver,
                                                 kind=out.kind, error=str(exc)))
        else:
            self._enqueue(receiver, replies)

    def _enqueue(self, party: Party, outs: list[Outbound]) -> None:
        for out in outs:
            name = party.name if out.sender is None else out.sender
            if self.parties.get(name) is not party:
                raise ValueError(f"party {party.name!r} cannot send as {name!r}")
            self.post(name, out)

    def _role(self, name: str) -> str:
        party = self.parties.get(name)
        return name if party is None or party.role is None else party.role


def drive(router: Router, party: Party, *aliases: str) -> None:
    """One step of a synchronous session: add *party* (under *aliases*
    too), activate it and run the router to quiescence.

    A session runs honest parties, so a rejected delivery means the run
    failed: the first one is raised as a :class:`ProtocolError`.
    """
    router.add(party, *aliases)
    router.activate(party.name)
    settle(router)


def settle(router: Router) -> None:
    """Run *router* to quiescence, raising its first rejected delivery
    as a :class:`ProtocolError` (see :func:`drive`)."""
    router.run()
    if router.failures:
        failure = router.failures[0]
        raise ProtocolError(
            f"{failure.kind} from {failure.sender!r} rejected: {failure.error}")
