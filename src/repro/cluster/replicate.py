"""Journal-storage replication between cluster nodes.

Every node keeps a byte copy of its journal storage on one designated
peer (its ring successor), so that peer can **adopt the node's slice**
after a crash by reopening the copy the way a restarted single server
reopens its own store: ``Journal(storage)`` + ``load_checkpoint()`` +
:meth:`repro.service.server.MarketService.recover`.

What crosses the link is the storage's own history: every mutating
operation (:data:`repro.service.storage.MUTATING` — ``append``,
``write``, ``replace``, ``truncate``, ``unlink``) with its name and
bytes, numbered from 1, one RPW1 *op frame* each, over a dedicated TCP
listener.  :class:`JournalShipper` is a storage wrapper under the
node's journal: it applies op *n* locally, then sends it on the calling
thread before the call returns.  The service answers a request only
after its journal records are appended, so every acknowledged request
is on the peer's wire (or the send raised and the shipper degraded)
before the client could have seen the verdict — a SIGKILL after that
point loses nothing, because the kernel still delivers sent bytes.
A checkpoint needs no frame of its own: the node's journal maintenance
writes blobs and a manifest and compacts, and those are operations
like any other.

:class:`ReplicaReceiver` applies op *n* to a per-source
:class:`~repro.service.storage.MemoryStorage` only after op *n - 1*, so
a replica always holds a prefix of its source's operation history —
exactly what a crash before op *n* would have left in the source's own
store, every one of which the crash-at-every-storage-operation sweep
recovers.  Replication is crash consistency.

When the link is down, frames spool in order (a shipper spools from
birth, before it knows its peer) and a background thread reconnects
with bounded backoff.  Every connection opens with a *sync* hello; the
receiver answers with its cursor ``{"ops": applied}``, and the shipper
drops what the cursor covers and replays the rest before going live.
A cursor the spool cannot resume — the peer lost frames that had
already been sent — triggers a *resync*: the shipper respools its
store as it is now, one ``write`` per name renumbered from op 1, and
its next hello carries ``reset`` (that count), which restarts the
peer's slot from an empty storage.  Until the snapshot has fully
arrived the slot refuses adoption.  During a degraded window the
no-loss guarantee narrows to "whatever reached the peer"; the
runbook's failover entry spells this out.

Stream frames are the rows of :data:`STREAM`; the receiver hands every
other frame to an injected control handler (the rows of
:data:`repro.cluster.node.CONTROL`) and tracks stream liveness, so
adoption can wait for the kernel to drain a dead peer's final bytes.
Adoption then *takes* the replica: frames
from that source are refused from then on, so no stream can write
under the journal it opens.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.net.schema import MAX_ID, Field, Message, Table
from repro.net.wire import FrameDecoder, encode_frame, read_frame, write_frame, WireError
from repro.service.storage import MUTATING, MemoryStorage, Storage, StorageWrapper

__all__ = [
    "ReplicaSlot",
    "ReplicaReceiver",
    "JournalShipper",
    "STREAM",
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


@dataclass
class ReplicaSlot:
    """One source node's replica: a byte copy of its journal storage.

    ``applied`` counts the source's storage operations applied to
    ``storage``, in order — the cursor a sync hello answers with.
    ``storage`` is ``None`` once adoption has taken it.  After a reset
    the storage is a copy only once ``applied`` reaches ``resync_ops``,
    the length of the source's snapshot.
    """

    node: str
    storage: MemoryStorage | None = field(default_factory=MemoryStorage)
    applied: int = 0
    resync_ops: int = 0
    streams: int = 0  # live shipping connections for this source

    def apply(self, frame: dict) -> None:
        """Apply op frame *n*: once, in order, and never after adoption.

        A frame at or below ``applied`` is reconnect overlap and is
        skipped.  A gap, an unknown operation, arguments of the wrong
        types or a taken storage raise :class:`WireError` — the stream
        is closed, the storage untouched.
        """
        n, op, args = frame["n"], frame["op"], frame["args"]
        if self.storage is None:
            raise WireError(f"{self.node} was adopted: its stream is refused")
        if n <= self.applied:
            return
        if n != self.applied + 1:
            raise WireError(f"{self.node}: op {n} cannot follow op {self.applied}")
        if tuple(map(type, args)) != MUTATING.get(op):
            raise WireError(f"{self.node}: op {n} is no storage operation "
                            "over these argument types")
        getattr(self.storage, op)(*args)
        self.applied = n


class ReplicaReceiver:
    """TCP listener accepting replica streams and control frames.

    Stream frames are the rows of :data:`STREAM`: fire-and-forget from
    the shipper, except a sync hello, answered with the cursor — how
    many of the source's operations this receiver has applied — so a
    reconnecting shipper resends only what is missing.  A hello with
    ``reset`` starts the slot over (``applied`` 0, an empty storage)
    for a shipper resyncing with a *k*-op snapshot.  A stream frame
    that breaks its schema, a gap, an unknown operation, or any stream
    frame for a source whose replica adoption took, closes the
    connection (see :meth:`ReplicaSlot.apply`).

    Any other frame is treated as a *control* request: handed to the
    injected ``control`` callable, whose dict result is written back as
    the reply (exceptions become ``{ok: false, error}``).  The control
    plane — :data:`repro.cluster.node.CONTROL` — therefore rides the
    same listener, one port per node.

    One thread per connection; after :meth:`close` returns the port is
    unbound and no accept or connection thread is left running.
    """

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 control: Callable[[dict], dict] | None = None) -> None:
        self.control = control
        self._slots: dict[str, ReplicaSlot] = {}
        self._lock = threading.Lock()
        self._listener = socket.create_server((host, port))
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._running = True
        self._conn_lock = threading.Lock()
        self._conns: list[tuple[threading.Thread, socket.socket]] = []
        self._accept = threading.Thread(target=self._accept_loop,
                                        name="replica-accept", daemon=True)
        self._accept.start()

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

    def take(self, node: str) -> MemoryStorage:
        """Detach *node*'s replica once its stream drained: adoption's move.

        Every later frame from *node* is refused, so nothing can write
        under the journal adoption opens on the returned storage.
        Raises :class:`LookupError`, leaving the slot as it was, when
        there is no whole copy to take: another adoption took it,
        nothing was shipped, or a resync's snapshot is still arriving.
        """
        slot = self.wait_drained(node)
        with self._lock:
            if slot.storage is None:
                raise LookupError(f"an adoption of {node!r} is already in progress")
            if slot.applied < slot.resync_ops:
                raise LookupError(f"{node!r} is resyncing: {slot.applied} of "
                                  f"{slot.resync_ops} snapshot ops arrived")
            if not slot.storage.names():
                raise LookupError(f"nothing shipped from {node!r}")
            storage, slot.storage = slot.storage, None
        return storage

    # -- listener ------------------------------------------------------------
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
                                          name="replica-conn", daemon=True)
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

    # -- wire side ---------------------------------------------------------
    def _serve(self, sock: socket.socket) -> None:
        decoder = FrameDecoder()
        streams: list[ReplicaSlot] = []  # one entry per hello on this socket
        try:
            while self._running:
                data = sock.recv(65536)
                if not data:
                    return
                decoder.feed(data)
                for frame in decoder.frames():
                    reply = self._handle(frame, streams)
                    if reply is not None:
                        sock.sendall(encode_frame(reply))
        except (OSError, WireError):
            return
        finally:
            with self._lock:
                for slot in streams:
                    slot.streams -= 1
            try:
                sock.close()
            except OSError:
                pass

    def _handle(self, frame: Any, streams: list[ReplicaSlot]) -> dict | None:
        if not isinstance(frame, dict):
            return {"ok": False, "error": "frame must be a dict"}
        entry, error = STREAM.check(frame.get("type"), frame)
        if entry is None:  # not a stream frame: the control plane's
            if self.control is None:
                return {"ok": False, "error": error}
            try:
                return self.control(frame)
            except Exception as exc:  # control errors answer, not kill
                return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        if error is not None:
            raise WireError(error)
        return entry.handler(self, frame, streams)

    # -- stream frames: the rows of STREAM -----------------------------------
    def _hello(self, frame: dict, streams: list[ReplicaSlot]) -> dict | None:
        slot = self.slot(frame["node"])
        with self._lock:
            if slot.storage is None:
                raise WireError(f"{slot.node} was adopted: its stream is refused")
            if frame.get("reset") is not None:
                slot.storage, slot.applied = MemoryStorage(), 0
                slot.resync_ops = frame["reset"]
            slot.streams += 1
            streams.append(slot)
            if frame.get("sync"):
                return {"ok": True, "type": "cursor", "node": slot.node,
                        "ops": slot.applied}
        return None

    def _op(self, frame: dict, streams: list[ReplicaSlot]) -> None:
        slot = self.slot(frame["node"])
        with self._lock:
            slot.apply(frame)


_NODE = Field(str, high=MAX_ID)

#: The stream half of the replication port (the control half is
#: :data:`repro.cluster.node.CONTROL`): a frame that breaks its row
#: closes its own connection.  ``docs/cluster.md`` renders it.
STREAM = Table("stream frame", key="type", messages={
    "hello": Message(
        {"node": _NODE, "sync": Field(bool, optional=True),
         "reset": Field(int, optional=True, low=0)},
        ReplicaReceiver._hello,
        answers="with `sync`: `{ok, type: cursor, node, ops}`; "
                "`reset: k` first empties the slot"),
    "op": Message(
        {"node": _NODE, "n": Field(int, low=1), "op": Field(str, high=MAX_ID),
         "args": Field(list, high=2)},
        ReplicaReceiver._op,
        answers="nothing: the source's storage operation *n*, applied "
                "after *n − 1*"),
})


class JournalShipper(StorageWrapper):
    """A node's journal storage that copies every operation to its peer.

    Wraps *inner*, the storage the node's journal writes to.  Under the
    wrapper's lock, a mutating call is applied to *inner*, becomes op
    frame *n* and is ``sendall``-ed on the calling thread before the
    call returns, so the peer sees the operations in the order they
    happened.  Until :meth:`connect` names the peer, and whenever the
    link is down, frames spool in order (``healthy`` is ``False``); a
    background thread reconnects, drops what the peer's cursor covers
    and replays the rest before going live.  A peer whose cursor the
    spool cannot resume — it lost frames that had already been sent —
    is resynced from *inner* itself (:meth:`_resync_locked`).
    """

    def __init__(self, node: str, inner: Storage, *,
                 timeout: float = 10.0,
                 reconnect_backoff: float = 0.1,
                 max_backoff: float = 5.0) -> None:
        super().__init__(inner)
        self.node = node
        self.peer: tuple[str, int] | None = None
        self.timeout = timeout
        self._backoff = reconnect_backoff
        self._max_backoff = max_backoff
        self._sock: socket.socket | None = None
        self._spool: list[dict] = []
        self._ops = 0  # operations applied to inner: n of the newest frame
        self._reset: int | None = None  # snapshot length the next hello resets to
        self._attaching = False  # True while an attach owns the spool replay
        self._running = True
        self.shipped_ops = 0

    @property
    def healthy(self) -> bool:
        return self._sock is not None

    def connect(self, peer: tuple[str, int]) -> None:
        """Ship to *peer* from now on, everything spooled since birth first."""
        with self._lock:
            if self.peer is not None:
                raise RuntimeError(f"{self.node}: shipper already connected")
            self.peer = (peer[0], int(peer[1]))
            self._attaching = True
        if not self._attach():
            threading.Thread(target=self._reconnect_loop, name=f"ship-{self.node}",
                             daemon=True).start()

    # -- hot path (the journal's thread) -----------------------------------
    def mutate(self, op: str, args: tuple) -> None:
        with self._lock:
            getattr(self.inner, op)(*args)
            self._ops += 1
            frame = {"type": "op", "node": self.node, "n": self._ops,
                     "op": op, "args": list(args)}
            if self._sock is not None:
                try:
                    self._sock.sendall(encode_frame(frame))
                    self.shipped_ops += 1
                    return
                except OSError:
                    self._drop_locked()
            self._spool.append(frame)
        self._degrade()

    # -- link management ---------------------------------------------------
    def _attach(self) -> bool:
        """One attempt to open the link; ``True`` once it is live.

        Sends the sync hello, drops the spooled frames the peer's cursor
        covers and replays the rest on the new socket *before*
        publishing it: while ``_sock`` is ``None`` the hot path keeps
        spooling, so live frames never overtake the backlog.
        """
        try:
            sock = socket.create_connection(self.peer, timeout=self.timeout)
        except OSError:
            return False
        try:
            sock.settimeout(self.timeout)
            hello = {"type": "hello", "node": self.node, "sync": True}
            if self._reset is not None:  # only this thread sets it
                hello["reset"] = self._reset
            sock.sendall(encode_frame(hello))
            applied = read_frame(sock)["ops"]
            with self._lock:
                self._reset = None  # the cursor answers the reset, if any
                self._spool = [f for f in self._spool if f["n"] > applied]
                resumes = self._spool[0]["n"] if self._spool else self._ops + 1
                if resumes != applied + 1:
                    self._resync_locked()
            if resumes != applied + 1:
                raise WireError(f"peer holds {applied} ops, the spool "
                                f"resumes at op {resumes}: resyncing")
            while True:
                with self._lock:
                    if not self._spool:
                        if self._running:
                            self._sock = sock
                        else:
                            sock.close()
                        self._attaching = False
                        return True
                    batch, self._spool = self._spool, []
                for index, frame in enumerate(batch):
                    try:
                        sock.sendall(encode_frame(frame))
                    except OSError:
                        with self._lock:
                            self._spool = batch[index:] + self._spool
                        raise
                    self.shipped_ops += 1
        except (OSError, WireError, KeyError, TypeError):
            sock.close()
            return False

    def _resync_locked(self) -> None:
        """Respool the store as it is now, as ops renumbered from 1.

        One ``write`` per name of *inner*; the next hello carries their
        count as ``reset``, so the peer empties its slot first and
        refuses adoption until the last of them has arrived.  Ops after
        the snapshot spool behind it as usual.
        """
        self._spool = [{"type": "op", "node": self.node, "n": n, "op": "write",
                        "args": [name, self.inner.read(name)]}
                       for n, name in enumerate(self.inner.names(), 1)]
        self._ops = self._reset = len(self._spool)

    def _drop_locked(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _degrade(self) -> None:
        with self._lock:
            if not self._running or self.peer is None or self._attaching:
                return
            self._attaching = True
        threading.Thread(target=self._reconnect_loop, name=f"ship-{self.node}",
                         daemon=True).start()

    def _reconnect_loop(self) -> None:
        delay = self._backoff
        while self._running:
            time.sleep(delay)
            delay = min(delay * 2, self._max_backoff)
            if self._attach():
                return

    def close(self) -> None:
        """Stop shipping (the socket is this storage's OS handle)."""
        self._running = False
        with self._lock:
            self._drop_locked()
        self.inner.close()
