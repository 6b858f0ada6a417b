"""One cluster node: a sliced market service plus its cluster plumbing.

A :class:`ClusterNode` wires together, for one ring member:

* a fresh :class:`~repro.service.server.MarketService` (its own
  :class:`~repro.service.shard.ShardedBank`, journal, reply cache) that
  owns this node's slice of the account space — sharding partitions
  *state*; every node holds the same DEC parameters and CL issuing key,
  so any node's verdicts verify under the one bank public key;
* a :class:`~repro.service.frontend.ServiceFrontend` serving the slice
  over the ordinary wire protocol (routers don't know nodes are sliced);
* a :class:`~repro.cluster.replicate.ReplicaReceiver` that doubles as
  the node's **control plane** — ping / map exchange / adopt / dump /
  telemetry / shutdown frames ride the replication port — and stores
  whatever the ring predecessor ships here;
* a :class:`~repro.cluster.replicate.JournalShipper` under the
  journal, copying every storage operation (synchronously, before
  replies) to the ring successor — record appends, and the checkpoints
  and compactions :class:`~repro.service.journal.JournalMaintenance`
  cuts on the frontend's ``after_batch`` hook.

**Adoption** is the failover move: when a node dies, its designated
peer takes the dead node's replica — a byte copy of its journal
storage — and reopens it exactly as a restarted server reopens its own
(``Journal(storage)``, ``load_checkpoint()``,
:meth:`MarketService.recover`, the machinery the single-node crash
tests prove), then serves the dead node's slice at a new address
through the same journal → maintenance → frontend steps as its own.
The cluster map then rebinds the dead node id to that address
(version + 1); the ring, and with it every key's owner, never changes.

:class:`LocalCluster` runs N nodes in one process (threads, ephemeral
ports) — the fast harness the cluster test suite drives; the
subprocess form lives in :mod:`repro.cluster.launcher`.
"""

from __future__ import annotations

import random
import threading

import repro.obs as obs
from repro.cluster.replicate import JournalShipper, ReplicaReceiver
from repro.cluster.ring import ClusterMap, DEFAULT_VNODES
from repro.net.schema import MAX_ID, Field, Message, Table
from repro.service.frontend import ServiceFrontend
from repro.service.journal import DEFAULT_SEGMENT_RECORDS, Journal, JournalMaintenance
from repro.service.server import MarketService
from repro.service.shard import ShardedBank
from repro.service.storage import MemoryStorage, StorageWrapper

__all__ = ["ClusterNode", "LocalCluster", "CONTROL", "open_dump"]


class ClusterNode:
    """One ring member: sliced service + frontend + replication endpoints."""

    def __init__(self, node_id: str, params, keypair, *,
                 n_shards: int = 4, host: str = "127.0.0.1",
                 port: int = 0, replica_port: int = 0, seed: int = 0,
                 checkpoint_every: int = 64,
                 segment_records: int = DEFAULT_SEGMENT_RECORDS,
                 telemetry: "obs.Telemetry | None" = None) -> None:
        self.id = node_id
        self.params = params
        self.keypair = keypair
        self.n_shards = n_shards
        self.host = host
        self.checkpoint_every = checkpoint_every
        self.segment_records = segment_records
        self.telemetry = telemetry if telemetry is not None else obs.Telemetry()
        self.telemetry.registry.gauge(
            "repro_cluster_node_info", "cluster node identity", node=node_id,
        ).set(1)
        self._m_adoptions = self.telemetry.registry.counter(
            "repro_cluster_adoptions_total", "slices adopted from dead peers",
            node=node_id,
        )

        # the slice: an in-memory journal — durability here is the
        # *peer's* copy of its storage (every operation shipped before
        # any reply), which is exactly what a SIGKILL leaves behind
        self.shipper = JournalShipper(node_id, MemoryStorage())
        self.journal, self.service, self.maintenance, self.frontend = \
            self._serve(self.shipper, port=port, seed=seed)
        self.receiver = ReplicaReceiver(host=host, port=replica_port,
                                        control=self.control)
        self.map: ClusterMap | None = None
        #: dead peer id -> (recovered service, its frontend)
        self.adopted: dict[str, tuple[MarketService, ServiceFrontend]] = {}
        self._lock = threading.Lock()
        self.shutdown_requested = threading.Event()

    @property
    def address(self) -> tuple[str, int]:
        """Where this node's own slice answers requests."""
        return self.frontend.address

    @property
    def replica_address(self) -> tuple[str, int]:
        """Where peers ship state and operators send control frames."""
        return self.receiver.address

    def serving(self) -> list[str]:
        """Every slice this node currently answers for (own + adopted)."""
        with self._lock:
            return [self.id, *self.adopted]

    def _serve(self, storage, *, port: int = 0, seed: int | None = None):
        """Serve a slice over *storage*: journal, service, maintenance, frontend.

        With *seed* the books start empty (the own slice); without, they
        are recovered from *storage* as a restart recovers (an adopted
        slice).  Both compact with :class:`JournalMaintenance`'s defaults.
        """
        journal = Journal(storage, segment_records=self.segment_records,
                          telemetry=self.telemetry)
        if seed is None:
            service = MarketService.recover(
                self.params, self.keypair, journal,
                checkpoint=journal.load_checkpoint(), n_shards=self.n_shards,
                telemetry=self.telemetry,
            )
        else:
            bank = ShardedBank(self.params, self.keypair, random.Random(seed),
                               n_shards=self.n_shards, journal=journal,
                               telemetry=self.telemetry)
            service = MarketService(bank, journal=journal, telemetry=self.telemetry)
        maintenance = JournalMaintenance(journal, service.checkpoint,
                                         checkpoint_every=self.checkpoint_every)
        frontend = ServiceFrontend(service, host=self.host, port=port,
                                   telemetry=self.telemetry)
        maintenance.attach(frontend)
        return journal, service, maintenance, frontend.start()

    # -- replication out ---------------------------------------------------
    def connect_shipper(self, peer: tuple[str, int]) -> None:
        """Start copying this node's journal storage to *peer* (ring successor).

        Called once the peer's receiver is listening; every storage
        operation since the node was built is spooled and goes first.
        """
        self.shipper.connect(peer)

    # -- control plane -----------------------------------------------------
    def control(self, frame: dict) -> dict:
        """Answer one control frame (from the receiver or called directly)."""
        entry, error = CONTROL.check(frame.get("type"), frame)
        if error is not None:
            return {"ok": False, "error": error}
        # a handler answers its own fields; adopt answers in full
        return {"ok": True, "node": self.id, **entry.handler(self, frame)}

    def _set_map(self, frame: dict) -> dict:
        cmap = ClusterMap.from_state(frame["map"])
        with self._lock:
            # versions are monotonic; a racing stale push is ignored
            if self.map is None or cmap.version > self.map.version:
                self.map = cmap
            return {"version": self.map.version}

    def _shutdown(self, frame: dict) -> dict:
        self.shutdown_requested.set()
        return {}

    def adopt(self, dead: str) -> dict:
        """Recover *dead*'s slice from its replica; serve it here.

        Waits for the dead peer's final in-flight bytes to drain (the
        kernel delivers ``sendall``-ed data after a SIGKILL), takes the
        replica out of the receiver — later frames from *dead* are
        refused — and reopens it the way a restarted server reopens its
        store: checkpoint restore + rid-idempotent journal replay.  Then
        serves the slice from a fresh frontend, with its own journal
        maintenance.  Idempotent: a second adopt call answers with the
        already-serving address.  A failed adoption puts the replica
        back, so it can be retried.
        """
        with self._lock:
            if dead in self.adopted:
                _svc, front = self.adopted[dead]
                return {"ok": True, "node": dead, "adopter": self.id,
                        "address": list(front.address), "already": True}
        if dead == self.id:
            return {"ok": False, "error": "a node cannot adopt itself"}
        try:
            storage = self.receiver.take(dead)
        except LookupError as exc:
            return {"ok": False, "error": f"cannot adopt: {exc}"}
        try:
            # wrapped, so a dump can copy it between two operations
            journal, service, maintenance, frontend = self._serve(
                StorageWrapper(storage))
        except BaseException:
            self.receiver.slot(dead).storage = storage
            raise
        with self._lock:
            self.adopted[dead] = (service, frontend)
        self._m_adoptions.inc()
        return {"ok": True, "node": dead, "adopter": self.id,
                "address": list(frontend.address),
                "checkpoint_lsn": maintenance.last_checkpoint_lsn,
                "last_lsn": journal.last_lsn}

    def dump_storage(self) -> dict[str, dict]:
        """``{slice: {"segment_records", "storage"}}`` for every served slice.

        Each storage is copied under its wrapper's lock (the own slice's
        is the shipper), so it is a crash point :func:`open_dump` reopens.
        """
        with self._lock:
            journals = {self.id: self.journal}
            journals.update((dead, service.journal)
                            for dead, (service, _front) in self.adopted.items())
        return {node: {"segment_records": self.segment_records,
                       "storage": journal.storage.snapshot()}
                for node, journal in journals.items()}

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Graceful teardown (tests, clean shutdown — not the SIGKILL path)."""
        self.shipper.close()
        self.frontend.close()
        with self._lock:
            adopted, self.adopted = dict(self.adopted), {}
        for _dead, (_service, frontend) in adopted.items():
            frontend.close()
        self.receiver.close()

    def kill(self) -> None:
        """Abrupt in-process death: drop every socket, skip all draining.

        The closest a thread-hosted node gets to SIGKILL — anything the
        shipper already ``sendall``-ed survives in the peer's kernel
        buffer, everything else (books, journal, reply cache) is simply
        abandoned with the object.
        """
        self.shipper.close()
        self.frontend.close()
        self.receiver.close()

    def __enter__(self) -> "ClusterNode":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: The control half of the replication port (the stream half is
#: :data:`repro.cluster.replicate.STREAM`): a frame that breaks its row
#: is answered ``{ok: false, error}``.  Every answer carries ``ok`` and
#: ``node``; ``docs/cluster.md`` renders the table.
CONTROL = Table("control frame", key="type", messages={
    "ping": Message({}, lambda node, _: {"serving": node.serving()},
                    answers="`serving`: slices served here"),
    "map": Message({}, lambda node, _: {
        "map": node.map.to_state() if node.map is not None else None},
        answers="`map`: this node's cluster map"),
    "set-map": Message({"map": Field(dict)}, ClusterNode._set_map,
                       answers="`version` held after a newer map is installed"),
    "adopt": Message({"node": Field(str, high=MAX_ID)},
                     lambda node, frame: node.adopt(frame["node"]),
                     answers="`node`, `adopter`, `address` of the adopted slice"),
    "dump": Message({}, lambda node, _: {"slices": node.dump_storage()},
                    answers="`slices`: per served slice, `storage` (name → "
                            "bytes) and `segment_records`"),
    "telemetry": Message({}, lambda node, _: {
        "metrics": node.telemetry.registry.snapshot()},
        answers="`metrics`: the registry snapshot"),
    "shutdown": Message({}, ClusterNode._shutdown,
                        answers="nothing more; the node process exits"),
})


def open_dump(dump: dict) -> Journal:
    """Reopen one slice of a ``dump``: its bytes in a fresh storage.

    The journal loads them exactly as a restart or an adoption loads
    its store; ``load_checkpoint()`` on the result gives the checkpoint
    its retained tail continues.
    """
    storage = MemoryStorage()
    for name, data in dump["storage"].items():
        storage.write(name, data)
    return Journal(storage, segment_records=dump["segment_records"])


class LocalCluster:
    """N cluster nodes in one process — the fast, test-friendly harness.

    Builds the nodes, composes the version-0 :class:`ClusterMap` from
    their ephemeral frontend ports, pushes it everywhere, and connects
    each node's shipper to its ring successor.  ``kill`` + ``failover``
    model the crash story without subprocesses; the launcher module
    provides the real-SIGKILL equivalent.
    """

    def __init__(self, params, keypair, *, n_nodes: int = 3,
                 n_shards: int = 4, vnodes: int = DEFAULT_VNODES,
                 checkpoint_every: int = 64,
                 segment_records: int = DEFAULT_SEGMENT_RECORDS) -> None:
        if n_nodes < 2:
            raise ValueError("a cluster needs at least two nodes")
        self.params = params
        self.keypair = keypair
        names = tuple(f"n{i}" for i in range(n_nodes))
        self.nodes: dict[str, ClusterNode] = {}
        for i, name in enumerate(names):
            self.nodes[name] = ClusterNode(
                name, params, keypair, n_shards=n_shards, seed=i,
                checkpoint_every=checkpoint_every,
                segment_records=segment_records,
            )
        self.map = ClusterMap(
            version=0, nodes=names,
            addresses={n: self.nodes[n].address for n in names},
            vnodes=vnodes,
        )
        self.dead: set[str] = set()
        for node in self.nodes.values():
            node.control({"type": "set-map", "map": self.map.to_state()})
        for name in names:
            peer = self.map.replica_peer(name)
            self.nodes[name].connect_shipper(self.nodes[peer].replica_address)

    def router(self, **kwargs):
        """A :class:`ClusterRouter` over this cluster's live map."""
        from repro.cluster.router import ClusterRouter

        kwargs.setdefault("refresh", lambda: self.map)
        return ClusterRouter(self.map, **kwargs)

    def kill(self, name: str) -> None:
        """Abruptly kill one node (no drain, no goodbye)."""
        if name in self.dead:
            return
        self.dead.add(name)
        self.nodes[name].kill()

    def failover(self, dead: str) -> str:
        """Have *dead*'s peer adopt its slice; publish the rebound map.

        Returns the adopter's node id.  The new map (version + 1) is
        pushed to every survivor, so any router refreshing off a live
        node re-routes deterministically.
        """
        adopter = self.map.replica_peer(dead)
        if adopter in self.dead:
            raise RuntimeError(
                f"designated peer {adopter!r} of {dead!r} is also dead; "
                "re-replication after failover is out of scope"
            )
        result = self.nodes[adopter].adopt(dead)
        if not result.get("ok"):
            raise RuntimeError(f"adoption of {dead!r} failed: {result}")
        self.map = self.map.rebind(dead, tuple(result["address"]))
        for name, node in self.nodes.items():
            if name not in self.dead:
                node.control({"type": "set-map", "map": self.map.to_state()})
        return adopter

    def dump_storage(self) -> dict[str, dict]:
        """Every live node's :meth:`ClusterNode.dump_storage`, merged."""
        dumps: dict[str, dict] = {}
        for name, node in self.nodes.items():
            if name not in self.dead:
                dumps.update(node.dump_storage())
        return dumps

    def telemetry_snapshots(self) -> dict[str, dict]:
        """Per-node metrics snapshots (feed for the merge tool)."""
        return {name: node.telemetry.registry.snapshot()
                for name, node in self.nodes.items() if name not in self.dead}

    def close(self) -> None:
        for name, node in self.nodes.items():
            if name not in self.dead:
                node.close()

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
