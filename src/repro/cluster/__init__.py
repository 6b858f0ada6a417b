"""Horizontally sharded multi-node market administrator.

One :class:`~repro.service.server.MarketService` scales vertically
(worker pools, batching); this package scales it *horizontally*: N
node processes each own a consistent-hash slice of the account space,
clients route by partition key, and every node ships its journal and
checkpoints to a designated peer so a survivor can adopt a dead node's
slice.  The layers:

* :mod:`repro.cluster.ring` — deterministic hash ring + versioned
  :class:`~repro.cluster.ring.ClusterMap` (failover rebinds addresses,
  never ownership);
* :mod:`repro.cluster.router` — client-side
  :class:`~repro.cluster.router.ClusterRouter` (and the thin
  :class:`~repro.cluster.router.ClusterProxy` front door) producing
  replies byte-identical to a single node's;
* :mod:`repro.cluster.replicate` — synchronous journal shipping +
  periodic checkpoints between peers;
* :mod:`repro.cluster.node` — one node's wiring, plus the in-process
  :class:`~repro.cluster.node.LocalCluster` harness;
* :mod:`repro.cluster.launcher` — subprocess launcher, bootstrap
  blobs, and the :class:`~repro.cluster.launcher.ProcessCluster`
  orchestrator (the real-SIGKILL harness).
"""

from repro.cluster.node import ClusterNode, LocalCluster
from repro.cluster.replicate import (
    JournalShipper,
    ReplicaReceiver,
    control_call,
)
from repro.cluster.ring import DEFAULT_VNODES, ClusterMap, HashRing
from repro.cluster.router import (
    ClusterProxy,
    ClusterRouter,
    RouteError,
    StaleClusterMapError,
)

__all__ = [
    "HashRing",
    "ClusterMap",
    "DEFAULT_VNODES",
    "ClusterRouter",
    "ClusterProxy",
    "RouteError",
    "StaleClusterMapError",
    "ReplicaReceiver",
    "JournalShipper",
    "control_call",
    "ClusterNode",
    "LocalCluster",
]
