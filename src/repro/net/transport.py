"""Simulated point-to-point transport with byte accounting.

All market traffic flows resident ↔ MA (paper Section III-A).  The
transport serializes every payload with the canonical codec, logs one
:class:`Envelope` per message (roles, kind, wire bytes) and delivers
the *decoded copy* — so protocols cannot accidentally share mutable
state through "the network", and anything unencodable fails loudly at
the send site.  Table II is that log summed: :meth:`Transport.input_bytes`,
:meth:`~Transport.output_bytes` and :meth:`~Transport.total_bytes`.

An optional observer callback sees every envelope (sender, receiver,
kind, wire bytes); the attack simulations use it to model a network
eavesdropper or a curious MA tapping its own switch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.net.codec import decode, encode

__all__ = ["Envelope", "Transport"]


@dataclass(frozen=True)
class Envelope:
    """One delivered message."""

    sender: str
    receiver: str
    kind: str
    payload: Any
    wire_bytes: int
    seq: int


@dataclass
class Transport:
    """The simulated network fabric.

    Attributes
    ----------
    log:
        Every envelope ever delivered, in order (Table II's source of
        truth).
    observers:
        Callbacks invoked on each delivery (eavesdroppers, debuggers).
    """

    log: list[Envelope] = field(default_factory=list)
    observers: list[Callable[[Envelope], None]] = field(default_factory=list)
    _seq: int = 0

    def send(self, sender: str, receiver: str, kind: str, payload: Any) -> Any:
        """Deliver *payload* and return the received (decoded) copy."""
        wire = encode(payload)
        delivered = decode(wire)
        envelope = Envelope(
            sender=sender,
            receiver=receiver,
            kind=kind,
            payload=delivered,
            wire_bytes=len(wire),
            seq=self._seq,
        )
        self._seq += 1
        self.log.append(envelope)
        for observer in self.observers:
            observer(envelope)
        return delivered

    def add_observer(self, observer: Callable[[Envelope], None]) -> None:
        self.observers.append(observer)

    def output_bytes(self, party: str) -> int:
        """Table II's "Output" column: bytes *party* sent."""
        return sum(e.wire_bytes for e in self.log if e.sender == party)

    def input_bytes(self, party: str) -> int:
        """Table II's "Input" column: bytes *party* received."""
        return sum(e.wire_bytes for e in self.log if e.receiver == party)

    def total_bytes(self) -> int:
        """Total unidirectional traffic (each message counted once)."""
        return sum(e.wire_bytes for e in self.log)

    def messages_between(self, a: str, b: str) -> list[Envelope]:
        """All envelopes exchanged (either direction) between two parties."""
        return [
            e
            for e in self.log
            if (e.sender == a and e.receiver == b) or (e.sender == b and e.receiver == a)
        ]

    def reset(self) -> None:
        self.log.clear()
        self._seq = 0
