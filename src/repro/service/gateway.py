"""Gateways: the ways a client reaches the market administrator.

Every gateway answers ``request(kind, payload, *, sender, rid, now)``
with the service's verdict dict (``status`` plus the body, the wire
envelope stripped), waited out before it returns.  :class:`InProcessGateway`
steps a :class:`~repro.service.server.MarketService` in this interpreter,
:class:`SocketGateway` speaks :mod:`repro.net.wire` frames to a
:class:`~repro.service.frontend.ServiceFrontend`, and
:class:`repro.cluster.router.ClusterRouter` has the same face.  The load
generator mints and replays through them; the campaign engine runs
whole economies through them.
"""

from __future__ import annotations

from typing import Any

from repro.service.frontend import ServiceClient
from repro.service.server import MarketService

__all__ = ["InProcessGateway", "SocketGateway", "strip_envelope"]


def strip_envelope(reply: dict) -> dict:
    """A wire reply minus its connection- and node-local counters."""
    return {k: v for k, v in reply.items() if k not in ("cid", "req")}


class InProcessGateway:
    """The service object in the same interpreter, stepped by hand."""

    def __init__(self, service: MarketService) -> None:
        self.service = service
        self._captured: dict[int, dict] = {}  # seq -> verdict
        service.add_reply_observer(self._observe)

    def _observe(self, sender: str, reply: dict) -> None:
        self._captured[reply["req"]] = strip_envelope(reply)

    def request(self, kind: str, payload: Any, *, sender: str,
                rid: str | None = None, now: float = 0.0) -> dict:
        """Submit one request and force-step the service until it answers."""
        self._captured.clear()
        seq = self.service.submit(sender, kind, payload, now=now, rid=rid)
        for _ in range(10_000):
            if seq in self._captured:
                return self._captured[seq]
            self.service.step(force=True)
        raise RuntimeError(f"request {rid!r} never answered")  # service wedged


class SocketGateway:
    """A :class:`~repro.service.frontend.ServiceFrontend` address.

    :meth:`request` is one blocking round trip on a lazily dialled
    connection (:meth:`ServiceClient.call`: reconnect and resend under a
    stable rid).  *connections* and *pipeline_depth* shape trace replay
    (:func:`repro.service.loadgen.run_trace`): that many sockets, each at
    most that many requests deep — one deep pipeline is a single busy
    peer, many shallow ones the mobile-sensing population.  *timeout*
    bounds a whole replay.
    """

    def __init__(self, address: tuple[str, int], *, connections: int,
                 pipeline_depth: int, timeout: float | None = 120.0) -> None:
        if connections < 1:
            raise ValueError("connections must be positive")
        if pipeline_depth < 1:
            raise ValueError("pipeline_depth must be positive")
        self.address = address
        self.connections = connections
        self.pipeline_depth = pipeline_depth
        self.timeout = timeout
        self._client: ServiceClient | None = None

    def request(self, kind: str, payload: Any, *, sender: str | None = None,
                rid: str | None = None, now: float = 0.0) -> dict:
        if self._client is None:
            self._client = ServiceClient(self.address)
        return strip_envelope(
            self._client.call(kind, payload, rid=rid, now=now, sender=sender))

    def close(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None
