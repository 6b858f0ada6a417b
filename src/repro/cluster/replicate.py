"""Checkpoint and journal-segment shipping between cluster nodes.

Every node streams its durability state to one designated peer (its
ring successor) so that peer can **adopt the node's slice** after a
crash, using the exact recovery machinery the single-node service
already proves out (:meth:`repro.service.server.MarketService.recover`
= snapshot restore + rid-idempotent tail replay).  Two kinds of
payload cross the replication link, both as RPW1 frames over a
dedicated TCP listener:

* **journal records** — shipped *synchronously* from the journal's
  append hook (:meth:`repro.service.journal.Journal.add_observer`):
  the ``sendall`` happens on the appending thread before the append
  returns, and the service only answers a request after its journal
  records are appended.  Every acknowledged request is therefore on
  the peer's wire (or the send raised and the shipper degraded) before
  the client could have seen the verdict — a SIGKILL after that point
  loses nothing, because the kernel still delivers sent bytes.
* **checkpoints** — periodic full snapshots (taken on the frontend's
  ``after_batch`` hook, the one place the service is quiescent) that
  bound how much journal tail an adoption must replay.  The newest
  checkpoint supersedes older ones.

When the link is down, records spool in order and a background thread
reconnects with bounded backoff, re-shipping a fresh checkpoint first
(the spool may have overflowed the peer's view otherwise — a full
snapshot plus the spooled tail is always sufficient).  During a
degraded window the no-loss guarantee narrows to "whatever reached the
peer"; the runbook's failover entry spells this out.

Shipping is **segment-aware** (see ``docs/storage.md``): every record
frame carries the segment id its LSN maps to, and a reconnect opens
with a *sync* hello — the receiver answers with its cursor
``(segment, lsn)``, the high-water mark it already holds, and the
shipper prunes its spool to strictly-newer records before replaying.
Resume cost is therefore the gap, not the spool; and a receiver
running with ``trim_on_checkpoint=True`` keeps only the journal tail
after each shipped checkpoint, bounding replica memory the same way
compaction bounds source disk.

:class:`ReplicaReceiver` is the listening side: it stores per-source
checkpoint + record streams, answers control frames (ping/adopt/dump —
the handler is injected by :class:`repro.cluster.node.ClusterNode`),
and tracks stream liveness so adoption can wait for the kernel to
drain a dead peer's final bytes before recovering.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.net.wire import FrameDecoder, encode_frame, read_frame, write_frame, WireError
from repro.service.journal import (
    DEFAULT_SEGMENT_RECORDS,
    Checkpoint,
    JournalError,
    JournalRecord,
)

__all__ = [
    "FrameListener",
    "ReplicaSlot",
    "ReplicaReceiver",
    "JournalShipper",
    "control_call",
]


def control_call(address: tuple[str, int], frame: dict, *,
                 timeout: float = 30.0) -> dict:
    """One request/reply exchange with a node's replication listener."""
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.settimeout(timeout)
        write_frame(sock, frame)
        reply = read_frame(sock)
    if reply is None:
        raise WireError(f"replication peer {address} closed during a control call")
    return reply


class FrameListener:
    """A TCP listener, one thread per connection, that ``close()`` stops.

    The accept/teardown half of :class:`ReplicaReceiver` and
    :class:`~repro.cluster.router.ClusterProxy`; subclasses supply
    ``_serve(sock)``, which runs on the connection's own thread and
    returns when ``recv`` does (EOF, error, or :meth:`close` shutting
    the socket down under it).  After :meth:`close` returns the port is
    unbound and no accept or connection thread is left running.
    """

    def __init__(self, host: str, port: int, *, name: str) -> None:
        self._listener = socket.create_server((host, port))
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._name = name
        self._running = True
        self._conn_lock = threading.Lock()
        self._conns: list[tuple[threading.Thread, socket.socket]] = []
        self._accept = threading.Thread(target=self._accept_loop,
                                        name=f"{name}-accept", daemon=True)
        self._accept.start()

    def _serve(self, sock: socket.socket) -> None:
        raise NotImplementedError

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _peer = self._listener.accept()
            except OSError:
                return
            with self._conn_lock:
                if not self._running:
                    sock.close()  # close()'s wake-up connection
                    return
                thread = threading.Thread(target=self._serve, args=(sock,),
                                          name=f"{self._name}-conn", daemon=True)
                # finished connections leave the join list here, so it
                # does not grow without bound on a long-lived listener
                self._conns = [c for c in self._conns if c[0].is_alive()]
                self._conns.append((thread, sock))
                thread.start()

    def close(self) -> None:
        with self._conn_lock:
            if not self._running:
                return
            self._running = False
        # a thread parked in accept() keeps the listening socket alive
        # (and the port answering) after the fd is closed under it; dial
        # one throwaway connection to kick it out first
        try:
            socket.create_connection(self.address, timeout=1.0).close()
        except OSError:
            pass
        self._accept.join(timeout=5.0)
        self._listener.close()
        with self._conn_lock:
            conns, self._conns = self._conns, []
        for _thread, sock in conns:
            try:
                sock.shutdown(socket.SHUT_RDWR)  # wakes a parked recv()
            except OSError:
                pass
        for thread, _sock in conns:
            if thread is not threading.current_thread():
                thread.join(timeout=5.0)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class ReplicaSlot:
    """Everything one source node has shipped here.

    ``last_lsn``/``last_segment`` are real fields (not derived from
    ``records``) so they survive checkpoint trimming: the cursor a sync
    hello answers with must be the true high-water mark even after the
    records below a checkpoint were dropped.
    """

    node: str
    checkpoint: bytes | None = None
    checkpoint_lsn: int = -1
    records: list[dict] = field(default_factory=list)
    streams: int = 0  # live shipping connections for this source
    last_lsn: int = -1
    last_segment: int = -1


class ReplicaReceiver(FrameListener):
    """TCP listener accepting replica streams and control frames.

    Stream frames (fire-and-forget from the shipper, except the sync
    hello which is answered with a cursor)::

        {type: "hello",      node}                   opens a stream
        {type: "hello",      node, sync: true}       opens + cursor reply
        {type: "record",     node, segment, record}  one journal record
        {type: "checkpoint", node, blob}             newest full snapshot

    The cursor reply is ``{ok, type: "cursor", node, segment, lsn}`` —
    the highest LSN (and its segment) this receiver already holds for
    the source, so a reconnecting shipper can prune its spool instead
    of replaying everything since the last checkpoint.

    Any other frame is treated as a *control* request: handed to the
    injected ``control`` callable, whose dict result is written back as
    the reply (exceptions become ``{ok: false, error}``).  The control
    plane — ping, map exchange, adoption, dumps — therefore rides the
    same listener, one port per node.

    With ``trim_on_checkpoint=True``, every checkpoint frame drops the
    stored records it covers (LSN ≤ the checkpoint's cut): adoption
    then restores the checkpoint and replays only the tail, and the
    slot's memory is bounded the way compaction bounds source disk.
    The default (``False``) keeps the full stream, which the cluster
    sweep's uncompacted shadow replay requires.
    """

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 control: Callable[[dict], dict] | None = None,
                 trim_on_checkpoint: bool = False) -> None:
        self.trim_on_checkpoint = trim_on_checkpoint
        self.control = control
        self._slots: dict[str, ReplicaSlot] = {}
        self._lock = threading.Lock()
        super().__init__(host, port, name="replica")

    # -- store -------------------------------------------------------------
    def slot(self, node: str) -> ReplicaSlot:
        with self._lock:
            if node not in self._slots:
                self._slots[node] = ReplicaSlot(node=node)
            return self._slots[node]

    def sources(self) -> list[str]:
        with self._lock:
            return sorted(self._slots)

    def wait_drained(self, node: str, *, timeout: float = 10.0) -> ReplicaSlot:
        """The slot for *node*, once no shipping stream is live.

        After a source dies, its final ``sendall``-ed bytes are still
        in flight in the kernel; the reader thread drains them and then
        sees EOF.  Waiting for the stream count to hit zero is what
        makes "adopt from shipped state" race-free against the kill.
        """
        deadline = time.monotonic() + timeout
        slot = self.slot(node)
        while time.monotonic() < deadline:
            with self._lock:
                if slot.streams == 0:
                    return slot
            time.sleep(0.01)
        return slot  # adopt from what arrived; recovery is idempotent

    # -- wire side ---------------------------------------------------------
    def _serve(self, sock: socket.socket) -> None:
        decoder = FrameDecoder()
        stream_node: str | None = None
        try:
            while self._running:
                data = sock.recv(65536)
                if not data:
                    return
                decoder.feed(data)
                for frame in decoder.frames():
                    reply = self._handle(frame, sock)
                    if stream_node is None and isinstance(frame, dict) \
                            and frame.get("type") == "hello":
                        stream_node = frame["node"]
                    if reply is not None:
                        sock.sendall(encode_frame(reply))
        except (OSError, WireError):
            return
        finally:
            if stream_node is not None:
                with self._lock:
                    self._slots[stream_node].streams -= 1
            try:
                sock.close()
            except OSError:
                pass

    def _handle(self, frame: Any, sock: socket.socket) -> dict | None:
        if not isinstance(frame, dict):
            return {"ok": False, "error": "frame must be a dict"}
        kind = frame.get("type")
        if kind == "hello":
            slot = self.slot(frame["node"])
            with self._lock:
                slot.streams += 1
                if frame.get("sync"):
                    return {"ok": True, "type": "cursor", "node": slot.node,
                            "segment": slot.last_segment,
                            "lsn": slot.last_lsn}
            return None
        if kind == "record":
            slot = self.slot(frame["node"])
            record = frame["record"]
            with self._lock:
                # idempotent by LSN: a reconnecting shipper replays its
                # (cursor-pruned) spool, and overlap with records that
                # already arrived must not duplicate
                if record["lsn"] > slot.last_lsn:
                    slot.records.append(record)
                    slot.last_lsn = record["lsn"]
                    segment = frame.get("segment")
                    if segment is None:
                        segment = record["lsn"] // DEFAULT_SEGMENT_RECORDS
                    slot.last_segment = segment
            return None
        if kind == "checkpoint":
            slot = self.slot(frame["node"])
            blob = frame["blob"]
            cut = -1
            if self.trim_on_checkpoint:
                try:
                    cut = Checkpoint.from_bytes(blob).lsn
                except JournalError:
                    cut = -1  # keep everything rather than trust a bad blob
            with self._lock:
                slot.checkpoint = blob
                if cut >= 0:
                    slot.checkpoint_lsn = cut
                    slot.records = [r for r in slot.records if r["lsn"] > cut]
            return None
        if self.control is not None:
            try:
                return self.control(frame)
            except Exception as exc:  # control errors answer, not kill
                return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        return {"ok": False, "error": f"unknown frame type {kind!r}"}


class JournalShipper:
    """Streams one node's journal records and checkpoints to its peer.

    Register :meth:`on_record` as a journal observer and call
    :meth:`maybe_checkpoint` from the frontend's ``after_batch`` hook.
    ``healthy`` is the degradation flag: ``False`` means the link is
    down and records are spooling for the reconnect thread.

    *segment_records* is the shipping-side segment geometry: each
    record frame carries ``lsn // segment_records`` as its segment id
    so receiver cursors speak ``(segment, lsn)``.  It should match the
    source journal's geometry.
    ``last_checkpoint_lsn`` is the cut of the newest checkpoint that
    reached the peer (-1 before the first) — the LSN local compaction
    may safely treat as replica-durable.
    """

    def __init__(self, node: str, peer: tuple[str, int], *,
                 checkpoint_every: int = 256,
                 segment_records: int = DEFAULT_SEGMENT_RECORDS,
                 timeout: float = 10.0,
                 reconnect_backoff: float = 0.1,
                 max_backoff: float = 5.0) -> None:
        self.node = node
        self.peer = (peer[0], int(peer[1]))
        self.checkpoint_every = checkpoint_every
        self.segment_records = segment_records
        self.last_checkpoint_lsn = -1
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._lock = threading.Lock()
        self._spool: list[dict] = []
        self._since_checkpoint = 0
        self._running = True
        self._backoff = reconnect_backoff
        self._max_backoff = max_backoff
        self.shipped_records = 0
        self.shipped_checkpoints = 0
        self._reconnector: threading.Thread | None = None
        self._checkpoint_source: Callable[[], Checkpoint] | None = None
        try:
            self._open()
        except OSError:
            self._degrade()

    @property
    def healthy(self) -> bool:
        return self._sock is not None

    def bind_checkpoints(self, source: Callable[[], Checkpoint]) -> None:
        """Set the checkpoint factory (the service's, on its thread)."""
        self._checkpoint_source = source

    # -- hot path (journal observer, appending thread) ---------------------
    def on_record(self, record: JournalRecord) -> None:
        frame = {"type": "record", "node": self.node,
                 "segment": record.lsn // self.segment_records,
                 "record": record.to_state()}
        with self._lock:
            if self._sock is not None:
                try:
                    self._sock.sendall(encode_frame(frame))
                    self.shipped_records += 1
                    self._since_checkpoint += 1
                    return
                except OSError:
                    self._drop_locked()
            self._spool.append(frame)
        self._degrade()

    def maybe_checkpoint(self, *, force: bool = False) -> bool:
        """Ship a fresh checkpoint when the segment budget is spent.

        Must run where the service is quiescent (the dispatcher's
        ``after_batch`` hook): taking the snapshot reads every shard.
        """
        if self._checkpoint_source is None:
            return False
        with self._lock:
            due = force or self._since_checkpoint >= self.checkpoint_every
            if not due or self._sock is None:
                return False
        checkpoint = self._checkpoint_source()
        frame = {"type": "checkpoint", "node": self.node,
                 "blob": checkpoint.to_bytes()}
        with self._lock:
            if self._sock is None:
                return False
            try:
                self._sock.sendall(encode_frame(frame))
            except OSError:
                self._drop_locked()
                self._degrade()
                return False
            self.shipped_checkpoints += 1
            self.last_checkpoint_lsn = checkpoint.lsn
            self._since_checkpoint = 0
        return True

    # -- link management ---------------------------------------------------
    def _open(self) -> None:
        sock = socket.create_connection(self.peer, timeout=self.timeout)
        sock.settimeout(self.timeout)
        sock.sendall(encode_frame({"type": "hello", "node": self.node}))
        with self._lock:
            self._sock = sock

    def _drop_locked(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _degrade(self) -> None:
        with self._lock:
            if not self._running or self._reconnector is not None:
                return
            self._reconnector = threading.Thread(
                target=self._reconnect_loop, name=f"ship-{self.node}",
                daemon=True,
            )
            self._reconnector.start()

    def _reconnect_loop(self) -> None:
        delay = self._backoff
        while self._running:
            time.sleep(delay)
            delay = min(delay * 2, self._max_backoff)
            try:
                sock = socket.create_connection(self.peer, timeout=self.timeout)
                sock.settimeout(self.timeout)
                sock.sendall(encode_frame(
                    {"type": "hello", "node": self.node, "sync": True}))
                cursor = read_frame(sock)
            except (OSError, WireError):
                continue
            if not isinstance(cursor, dict) or cursor.get("type") != "cursor":
                try:
                    sock.close()
                except OSError:
                    pass
                continue
            # the cursor is the peer's (segment, lsn) high-water mark:
            # everything at or below it already arrived (the receiver
            # dedups by LSN anyway, but pruning here avoids re-sending
            # a potentially large spool over a slow link)
            acked = cursor.get("lsn", -1)
            with self._lock:
                self._spool = [f for f in self._spool
                               if f["record"]["lsn"] > acked]
            # replay the spool on the *private* socket before publishing
            # it: while ``_sock`` is None the hot path keeps spooling, so
            # live records can never interleave with (or overtake) the
            # backlog.  The spool is complete — every record since the
            # drop either shipped or spooled — so no checkpoint is
            # needed for correctness; one is marked due anyway (shipped
            # later from the dispatcher thread, the only thread allowed
            # to snapshot the bank) to bound the peer's replay tail.
            failed = False
            while not failed:
                with self._lock:
                    if not self._spool:
                        self._sock = sock
                        self._since_checkpoint = self.checkpoint_every
                        self._reconnector = None
                        return
                    batch, self._spool = self._spool, []
                for index, frame in enumerate(batch):
                    try:
                        sock.sendall(encode_frame(frame))
                        self.shipped_records += 1
                    except OSError:
                        with self._lock:
                            self._spool = batch[index:] + self._spool
                        try:
                            sock.close()
                        except OSError:
                            pass
                        failed = True
                        break

    def close(self) -> None:
        self._running = False
        with self._lock:
            self._drop_locked()
