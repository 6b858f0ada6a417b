"""Consistent-hash ring and the versioned cluster map.

The cluster partitions the market administrator's keyspace across
*nodes*, one bank per node, by a stable
:func:`repro.crypto.hashing.sha256` hash — never Python's salted
``hash()``, so placement survives restarts and processes.
Every routable request carries a partition key (the account id for all
account-scoped operations), and :class:`HashRing` maps that key to
exactly one node:

* each node contributes ``vnodes`` points on a 64-bit circle, at
  ``sha256("cluster-ring", node, index)``;
* a key lands at ``sha256("cluster-key", key)`` and is owned by the
  first node point at or clockwise after it (wrapping at the top).

Virtual nodes smooth the slice sizes (with one point per node a
3-node ring can be arbitrarily lopsided); the assignment depends only
on the *ring membership* and the vnode count, so every router, node
and test derives the identical ring with no coordination.

:class:`ClusterMap` adds what the ring deliberately leaves out — where
each node currently *is*.  Failover never changes the ring: a dead
node's identity (and therefore its slice) is adopted by a survivor,
which starts serving the dead node's keys at a new address.  Only the
address table changes, under a bumped ``version``; routers holding a
stale map keep routing to the dead address, fail, refresh, and land on
the adopter deterministically.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.crypto.hashing import sha256

__all__ = ["HashRing", "ClusterMap", "ring_point", "key_point", "DEFAULT_VNODES"]

#: Virtual-node count per physical node.  128 keeps the largest slice
#: within a few percent of fair for small clusters while the ring stays
#: tiny (3 nodes -> 384 points).
DEFAULT_VNODES = 128

_SPACE_BITS = 64
_SPACE = 1 << _SPACE_BITS


def ring_point(node: str, index: int) -> int:
    """The 64-bit circle position of one virtual node."""
    digest = sha256(b"cluster-ring", node.encode(), index.to_bytes(4, "big"))
    return int.from_bytes(digest[:8], "big")


def key_point(key: str) -> int:
    """The 64-bit circle position of one partition key."""
    digest = sha256(b"cluster-key", key.encode())
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Deterministic consistent-hash ring over a fixed node membership."""

    def __init__(self, nodes: tuple[str, ...] | list[str], *,
                 vnodes: int = DEFAULT_VNODES) -> None:
        if not nodes:
            raise ValueError("a ring needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise ValueError("ring nodes must be unique")
        if vnodes < 1:
            raise ValueError("vnodes must be positive")
        self.nodes = tuple(nodes)
        self.vnodes = vnodes
        points: list[tuple[int, str]] = []
        for node in self.nodes:
            for index in range(vnodes):
                points.append((ring_point(node, index), node))
        # sha256 collisions on the 64-bit circle are effectively
        # impossible, but sorting the (point, node) pair keeps even that
        # case deterministic
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [n for _, n in points]

    def owner(self, key: str) -> str:
        """The node owning *key*: first point clockwise from the key."""
        at = key_point(key)
        index = bisect.bisect_left(self._points, at)
        if index == len(self._points):
            index = 0  # wrap past the top of the circle
        return self._owners[index]

    def slice_share(self) -> dict[str, float]:
        """Share of the key space owned per node.

        Measured arc length, not sampled keys: exact for the ring's
        point set, cheap, and deterministic.
        """
        arcs: dict[str, int] = {node: 0 for node in self.nodes}
        for i, point in enumerate(self._points):
            prev = self._points[i - 1] if i else self._points[-1] - _SPACE
            arcs[self._owners[i]] += point - prev
        return {node: arc / _SPACE for node, arc in arcs.items()}

    def successor(self, node: str) -> str:
        """The next node in membership order (the designated replica peer)."""
        index = self.nodes.index(node)
        return self.nodes[(index + 1) % len(self.nodes)]


@dataclass(frozen=True)
class ClusterMap:
    """Versioned view of the cluster: fixed ring membership + live addresses.

    ``nodes`` lists the *ring* members — the partition of the keyspace —
    and never changes after setup.  ``addresses`` maps each member to
    the host/port currently serving its slice; failover rebinds a dead
    member's address to its adopter and bumps ``version``.  Everything
    is plain data so the map crosses the wire through the canonical
    codec.
    """

    version: int
    nodes: tuple[str, ...]
    addresses: dict[str, tuple[str, int]]
    vnodes: int = DEFAULT_VNODES
    _ring: HashRing | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        missing = [n for n in self.nodes if n not in self.addresses]
        if missing:
            raise ValueError(f"nodes without an address: {missing}")
        object.__setattr__(self, "_ring", HashRing(self.nodes, vnodes=self.vnodes))

    @property
    def ring(self) -> HashRing:
        return self._ring  # type: ignore[return-value]

    def owner_of(self, key: str) -> str:
        return self.ring.owner(key)

    def address_of(self, node: str) -> tuple[str, int]:
        return self.addresses[node]

    def route(self, key: str) -> tuple[str, tuple[str, int]]:
        """``(owner node, current address)`` for one partition key."""
        node = self.owner_of(key)
        return node, self.addresses[node]

    def replica_peer(self, node: str) -> str:
        """Where *node* ships its checkpoints and journal segments."""
        if len(self.nodes) < 2:
            raise ValueError("replication needs at least two nodes")
        return self.ring.successor(node)

    def rebind(self, node: str, address: tuple[str, int]) -> "ClusterMap":
        """New map (version + 1) with *node* served at *address*.

        This is the failover primitive: the ring — and with it every
        key's owner — is untouched; only where that owner answers
        changes.
        """
        if node not in self.addresses:
            raise KeyError(f"unknown node {node!r}")
        addresses = dict(self.addresses)
        addresses[node] = (address[0], int(address[1]))
        return ClusterMap(version=self.version + 1, nodes=self.nodes,
                          addresses=addresses, vnodes=self.vnodes)

    # -- wire form ---------------------------------------------------------
    def to_state(self) -> dict:
        return {
            "version": self.version,
            "nodes": list(self.nodes),
            "addresses": {n: [h, p] for n, (h, p) in self.addresses.items()},
            "vnodes": self.vnodes,
        }

    @classmethod
    def from_state(cls, state: dict) -> "ClusterMap":
        return cls(
            version=int(state["version"]),
            nodes=tuple(state["nodes"]),
            addresses={n: (a[0], int(a[1]))
                       for n, a in state["addresses"].items()},
            vnodes=int(state.get("vnodes", DEFAULT_VNODES)),
        )
