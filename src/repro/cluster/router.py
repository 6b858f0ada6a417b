"""Client-side request routing over the cluster map, plus a thin proxy.

:class:`ClusterRouter` is how a client speaks to the sharded cluster
as if it were one market administrator.  Every account-scoped request
carries its partition key (the account id); the router hashes it onto
the ring, dials the owning node's current address over the existing
RPW1 wire protocol (:class:`~repro.service.frontend.ServiceClient`),
and returns the node's verdict with the transport-local envelope
fields (``cid``, ``req`` — connection- and node-relative counters)
stripped.  What remains is exactly the service's verdict dict, which
is why a cluster's replies are byte-identical to the single-node
service's for the same deterministic trace (the parity suite encodes
both through the canonical codec and compares bytes).

Failure handling is two nested loops:

* **inside one node address** — :meth:`ServiceClient.call` retries
  with bounded backoff under a *stable rid*, so a lost reply is
  re-answered from the service's reply cache, never re-executed;
* **across map versions** — when an address is conclusively dead
  (retries exhausted), the router polls its ``refresh`` callback for a
  newer cluster map.  Failover never changes key ownership (the ring
  is fixed; only the dead node's address is rebound to its adopter),
  so re-routing after a version bump is deterministic: same key, same
  owning node id, new address.  If no newer map appears within the
  budget, :class:`StaleClusterMapError` tells the caller the router's
  view of the world is the problem — the runbook entry for "router
  sees stale cluster map" keys off this exception.

:class:`ClusterProxy` is the thin server-side form of the same logic:
a TCP front-end speaking the ordinary single-node wire protocol whose
handler is a router call, so unmodified clients (``run_trace`` over a
``SocketGateway``, the examples) can drive the whole cluster through
one address.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any

from repro.cluster.replicate import FrameListener
from repro.cluster.ring import ClusterMap
from repro.net.wire import FrameDecoder, WireError, encode_frame
from repro.service.frontend import ServiceClient
from repro.service.gateway import strip_envelope

__all__ = ["ClusterRouter", "ClusterProxy", "StaleClusterMapError", "RouteError"]


class RouteError(ValueError):
    """The request carries no partition key the router can hash."""


class StaleClusterMapError(RuntimeError):
    """A node is unreachable and no newer cluster map could be fetched."""

    def __init__(self, message: str, *, version: int) -> None:
        super().__init__(message)
        self.version = version


class ClusterRouter:
    """Routes requests by partition key over a versioned cluster map.

    *refresh* is the map feed: a zero-argument callable returning the
    newest :class:`ClusterMap` (or a ``to_state`` dict, or ``None`` for
    "nothing newer").  In-process harnesses pass a closure over the
    launcher's map; remote clients pass something that asks any live
    node's control port.

    Thread safety: one router may be shared across threads (the proxy
    does); each node's client is guarded by a per-node lock, so two
    threads talking to *different* nodes proceed in parallel while two
    talking to the same node serialize — the single connection per
    node is deliberate (it preserves per-sender FIFO through the
    node's dispatcher).
    """

    def __init__(self, cmap: ClusterMap, *, refresh=None,
                 timeout: float = 30.0, connect_timeout: float | None = 5.0,
                 attempts: int = 3, backoff: float = 0.05,
                 refresh_attempts: int = 25,
                 refresh_backoff: float = 0.2) -> None:
        self.map = cmap
        self.refresh = refresh
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.attempts = attempts
        self.backoff = backoff
        self.refresh_attempts = refresh_attempts
        self.refresh_backoff = refresh_backoff
        self._clients: dict[str, ServiceClient] = {}
        self._node_locks: dict[str, threading.Lock] = {}
        self._lock = threading.Lock()
        self._next_rid = 0
        self.reroutes = 0

    # -- plumbing ----------------------------------------------------------
    def _node_lock(self, node: str) -> threading.Lock:
        with self._lock:
            if node not in self._node_locks:
                self._node_locks[node] = threading.Lock()
            return self._node_locks[node]

    def _client(self, node: str) -> ServiceClient:
        """The (cached) connection to *node*'s current address."""
        address = self.map.address_of(node)
        client = self._clients.get(node)
        if client is not None and client.address == (address[0], int(address[1])):
            return client
        if client is not None:
            client.close()
        client = ServiceClient(address, timeout=self.timeout,
                               connect_timeout=self.connect_timeout)
        self._clients[node] = client
        return client

    def _drop_client(self, node: str) -> None:
        client = self._clients.pop(node, None)
        if client is not None:
            client.close()

    def _mint_rid(self, sender: str | None) -> str:
        with self._lock:
            n = self._next_rid
            self._next_rid += 1
        return f"router:{sender or 'anon'}:{n}"

    def _refreshed_map(self, *, newer_than: int) -> ClusterMap | None:
        """Poll the refresh feed until a map newer than *newer_than*."""
        if self.refresh is None:
            return None
        delay = self.refresh_backoff
        for attempt in range(self.refresh_attempts):
            if attempt:
                time.sleep(delay)
            fetched = self.refresh()
            if isinstance(fetched, dict):
                fetched = ClusterMap.from_state(fetched)
            if fetched is not None and fetched.version > newer_than:
                return fetched
        return None

    # -- the routed request ------------------------------------------------
    def key_of(self, kind: str, payload: Any) -> str:
        """The partition key of one request: the account id, or one fixed
        key for every ``pbs-*`` kind (the PPMSpbs book is unsharded)."""
        if kind.startswith("pbs-"):
            return "pbs"
        if isinstance(payload, dict) and isinstance(payload.get("aid"), str):
            return payload["aid"]
        raise RouteError(
            f"{kind} payload carries no 'aid' partition key; "
            "use fan-out helpers (audit) for keyless requests"
        )

    def request(self, kind: str, payload: Any, *, sender: str | None = None,
                rid: str | None = None, now: float = 0.0,
                key: str | None = None) -> dict:
        """Route one request to its owner; re-route across failover.

        Returns the service verdict dict (envelope fields stripped).
        The rid is minted once and pinned across every retry and every
        re-route, so a request that straddles a failover — accepted by
        the dying node, retried against the adopter — is answered from
        the adopted reply cache instead of running twice.
        """
        if key is None:
            key = self.key_of(kind, payload)
        if rid is None:
            rid = self._mint_rid(sender)
        while True:
            node = self.map.owner_of(key)
            with self._node_lock(node):
                try:
                    client = self._client(node)
                    reply = client.call(
                        kind, payload, rid=rid, now=now, sender=sender,
                        attempts=self.attempts, backoff=self.backoff,
                    )
                    return strip_envelope(reply)
                except (OSError, WireError) as exc:
                    self._drop_client(node)
                    stale_version = self.map.version
                    cause = exc
            newer = self._refreshed_map(newer_than=stale_version)
            if newer is None:
                raise StaleClusterMapError(
                    f"node {node!r} at {self.map.address_of(node)} is "
                    f"unreachable and no cluster map newer than version "
                    f"{stale_version} was published", version=stale_version,
                ) from cause
            self.map = newer
            self.reroutes += 1

    # -- fan-out helpers ---------------------------------------------------
    def audit(self) -> dict:
        """Cluster-wide audit: every node's verdict, merged.

        ``clean`` only when every node is clean; findings come back
        prefixed with the owning node id so an operator can tell which
        slice is sick.
        """
        findings: list[str] = []
        clean = True
        for node in self.map.nodes:
            reply = self.request("audit", {}, key=f"@{node}",
                                 rid=self._mint_rid(f"audit:{node}"))
            if reply.get("status") != "OK":
                clean = False
                findings.append(f"{node}: audit failed: {reply}")
                continue
            if not reply.get("clean", False):
                clean = False
            findings.extend(f"{node}: {f}" for f in reply.get("findings", ()))
        return {"status": "OK", "clean": clean, "findings": findings}

    def close(self) -> None:
        with self._lock:
            clients, self._clients = dict(self._clients), {}
        for client in clients.values():
            client.close()

    def __enter__(self) -> "ClusterRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ClusterProxy(FrameListener):
    """A single-address TCP front door whose backend is the router.

    Speaks the exact single-node wire protocol — request frames with
    ``cid``/``kind``/``payload``/``sender``/``rid``/``now`` — so any
    existing client or load generator can point at the proxy and drive
    the whole cluster.  One thread per connection, requests answered in
    order per connection (the thin mode: no cross-connection batching —
    the per-node dispatchers behind it still batch across everything
    the proxy forwards).
    """

    def __init__(self, router: ClusterRouter, *, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.router = router
        #: requests *handled*, not necessarily *delivered*: incremented
        #: once _answer returns, before the reply is written to the
        #: socket (so a client holding a reply always observes the
        #: count).  A send that then fails still counts — the OSError
        #: tears the connection down, not the tally.
        self.served = 0
        super().__init__(host, port, name="proxy")

    def _serve(self, sock: socket.socket) -> None:
        decoder = FrameDecoder()
        try:
            while self._running:
                data = sock.recv(65536)
                if not data:
                    return
                decoder.feed(data)
                for request in decoder.frames():
                    reply = self._answer(request)
                    # count before sending: a client that has the reply
                    # in hand must observe the request as served
                    self.served += 1
                    sock.sendall(encode_frame(reply))
        except (OSError, WireError):
            return
        finally:
            try:
                sock.close()
            except OSError:
                pass

    def _answer(self, request: Any) -> dict:
        if not isinstance(request, dict) or not isinstance(request.get("kind"), str):
            return {"cid": request.get("cid") if isinstance(request, dict) else None,
                    "status": "ERROR", "error": "request must be a dict with a 'kind'"}
        cid = request.get("cid")
        try:
            if request["kind"] == "audit":
                verdict = self.router.audit()
            else:
                verdict = self.router.request(
                    request["kind"], request.get("payload"),
                    sender=request.get("sender"), rid=request.get("rid"),
                    now=request.get("now", 0.0),  # the node checks it
                )
        except (RouteError, StaleClusterMapError, WireError, OSError) as exc:
            return {"cid": cid, "status": "ERROR", "error": str(exc)}
        return {"cid": cid, **verdict}
