"""TCP front door: the market service as an actual network peer.

Everything below :class:`~repro.service.server.MarketService` already
speaks the canonical codec; this module puts that codec on real
sockets using the length-prefixed frames of :mod:`repro.net.wire`, so
``loadgen`` (or any client) can drive the service across a wire
instead of by method call.  The paper's market administrator faces
thousands of mobile sensing participants holding long-lived,
mostly-idle connections, so :class:`ServiceFrontend` multiplexes every
socket on a single event loop thread — it is the only thing in
:mod:`repro.service` that accepts a connection.

Wire protocol — one request frame, one reply frame, pipelined::

    request  {cid, kind, payload, sender?, rid?, now?}
    reply    {cid, req, status, ...body}          (service verdicts)
    reply    {cid?, status: "ERROR", error}       (front-end rejections)
    reply    {status: "BUSY", reason}             (pre-parse shed, no cid)

``kind``, ``payload`` and the envelope (``sender``, ``rid``, ``now``)
are the rows of :data:`repro.service.server.REQUESTS`; the service
checks them and answers a malformed request ``ERROR`` itself.
``cid`` is the client's correlation id, echoed verbatim on the reply;
it exists because replies are *not* FIFO on the wire (a ``BUSY`` shed
answers immediately while an earlier accepted deposit is still waiting
for its batch).  ``rid`` is the service's exactly-once key, exactly as
in-process.  ``now`` carries the simulated arrival clock for admission
(the same two-clock discipline as :mod:`repro.service.loadgen`).

Threading model — **one dispatcher owns the service**:

* the event loop thread owns every socket and all per-connection
  state.  Each connection feeds an incremental
  :class:`~repro.net.wire.FrameDecoder` and enqueues parsed requests;
  a torn or corrupt frame poisons *only that connection* (best-effort
  ``ERROR`` frame, then close) — the mid-frame-disconnect tests hold
  this;
* a single dispatcher thread (:class:`DispatchCore`) drains the queue
  in arrival order, submits a batch of requests to the
  (single-threaded) ``MarketService``, steps it, and routes the
  replies it delivers back to the owning connection by service
  sequence number.
  Submitting the whole backlog before stepping is what lets requests
  from *different connections* share one verification batch — the
  cross-core win of the worker pool survives the wire.

The two threads meet only at the work queue (loop → dispatcher) and at
``call_soon_threadsafe`` (dispatcher → loop, for reply writes and
window releases).

* **Backpressure, per connection.**  Each connection gets a bounded
  in-flight *window*.  Requests past the window queue in a
  per-connection backlog and the transport's reads are **paused**, so
  a flooding client throttles itself instead of growing the
  dispatcher queue.  Completed requests release slots through a
  round-robin pump over the paused connections — one backlogged
  request per connection per turn — so a chatty client cannot starve
  a polite one.
* **Pre-parse admission.**  When the service reports overload
  (:meth:`~repro.service.server.MarketService.overloaded`, fed the
  front door's own backlog), complete frames are shed with an
  immediate ``BUSY`` reply built from the *frame header alone* —
  :meth:`~repro.net.wire.FrameDecoder.raw_frames` keeps the stream
  synchronized without CRC-checking or decoding the payload, so an
  overload costs 12 bytes of header parse per shed request.  A
  pre-parse ``BUSY`` carries no ``cid`` (the cid lives in the payload
  that was never decoded); clients must treat a cid-less BUSY as
  "one outstanding request was shed".

The front door holds no bank state and makes no crypto decisions; it
is a framing shim, so every correctness property (FIFO per sender,
exactly-once by rid, parallel-verify/serial-apply) is inherited from
the service unchanged — ``tests/service/test_frontend_conformance.py``
holds socket-driven and in-process runs to byte-identical replies,
journals and counters.
"""

from __future__ import annotations

import asyncio
import os
import queue
import socket
import threading
import time
from collections import deque
from typing import Any, Callable

import repro.obs as obs
from repro.net.wire import (
    FrameDecoder,
    WireError,
    decode_payload,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.service.server import MarketService

__all__ = ["DispatchCore", "ServiceFrontend", "ServiceClient",
           "ClientRetryError", "DEFAULT_WINDOW"]

#: Default per-connection in-flight window.  Deep enough to keep the
#: verification batcher fed from a handful of pipelining clients, small
#: enough that one flooding connection holds at most this many slots.
DEFAULT_WINDOW = 32


class DispatchCore:
    """The one-dispatcher-owns-the-service loop behind the front door.

    Connection objects handed to :meth:`enqueue` need three things: a
    ``name`` (the default sender), a thread-safe ``send(value) -> bool``
    (best-effort framed reply, ``False`` once the peer is gone), and a
    ``drop(cid)`` callback for admitted requests that will never be
    answered (a duplicate of an in-flight rid is deliberately dropped —
    the original's reply answers for both).  ``drop`` is what lets the
    front door keep an exact per-connection in-flight count.

    Everything that decides *what the service does* — submission order
    into the service, batching greed, reply correlation by sequence
    number — lives here and only here, which is the structural argument
    for a socket-driven run answering byte-identically to an in-process
    one.
    """

    def __init__(self, service: MarketService,
                 telemetry: "obs.Telemetry") -> None:
        self.service = service
        self.obs = telemetry
        self._work: queue.Queue = queue.Queue()
        self._route: dict[int, tuple[Any, Any]] = {}  # seq -> (conn, cid)
        self._reply_box: list[dict] = []
        self._thread: threading.Thread | None = None
        self.served = 0
        # run on the dispatcher thread after each dispatched batch,
        # while the service is quiescent — the one safe place for
        # periodic maintenance that must own the service
        self._after_batch: list[Callable[[], None]] = []
        self._m_frames = telemetry.registry.counter(
            "repro_frontend_frames_total", "request frames accepted"
        )
        # the dispatcher is the only thread that touches the service;
        # this observer therefore only fires on the dispatcher thread
        service.add_reply_observer(self._capture_reply)

    @property
    def backlog(self) -> int:
        """Frames enqueued or submitted but not yet answered.

        The ingestion tier's own contribution to the not-yet-applied
        backlog; the front door adds it to the service's queue depth
        when asking admission for the pre-parse overload signal.
        """
        return self._work.qsize() + len(self._route)

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="frontend-dispatch", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._work.put(None)  # dispatcher sentinel
        self._thread.join(timeout=5.0)
        self._thread = None

    def add_after_batch(self, fn: Callable[[], None]) -> None:
        """Run *fn* after every dispatched batch, service quiescent.

        Maintenance tasks (journal checkpoint + compaction via
        :class:`~repro.service.journal.JournalMaintenance`, on a single
        server and on every cluster node) share the quiescent point;
        they run on the dispatcher thread in registration order.
        """
        self._after_batch.append(fn)

    # -- the dispatcher ----------------------------------------------------
    def enqueue(self, conn: Any, request: Any) -> None:
        """Hand one parsed request frame to the dispatcher (any thread)."""
        self._work.put(("request", conn, request))

    def _capture_reply(self, sender: str, reply: dict) -> None:
        # boxed, not routed: BUSY and cached verdicts are delivered from
        # inside submit(), before the request's seq has a route
        self._reply_box.append(reply)

    def _dispatch_loop(self) -> None:
        while True:
            item = self._work.get()
            if item is None:
                return
            batch = [item]
            # greedily take the whole backlog (bounded by the batcher's
            # coalescing window) so concurrent connections share a flush
            limit = max(1, self.service.batcher.max_batch) - 1
            while limit > 0:
                try:
                    extra = self._work.get_nowait()
                except queue.Empty:
                    break
                if extra is None:
                    self._dispatch(batch)
                    return
                batch.append(extra)
                limit -= 1
            self._dispatch(batch)

    def _dispatch(self, batch: list[tuple[str, Any, Any]]) -> None:
        for _tag, conn, request in batch:
            self._submit_one(conn, request)
        # flush + apply until every accepted request has answered;
        # the observer boxes the replies, routed back by seq below
        self.service.drain()
        self._flush_replies()
        for hook in self._after_batch:
            hook()

    def _submit_one(self, conn: Any, request: Any) -> None:
        if not isinstance(request, dict):
            conn.send({"cid": None, "status": "ERROR",
                       "error": "request must be a dict with a 'kind'"})
            return
        self._m_frames.inc()
        # the service checks every field against its request table and
        # answers a malformed request itself, like a BUSY
        seq = self.service.submit(
            request.get("sender") or conn.name, request.get("kind"),
            request.get("payload"), now=request.get("now", 0.0),
            rid=request.get("rid"),
        )
        self._route[seq] = (conn, request.get("cid"))

    def _flush_replies(self) -> None:
        replies, self._reply_box = self._reply_box, []
        for payload in replies:
            seq = payload.get("req")
            routed = self._route.pop(seq, None)
            if routed is None:
                continue  # a recovery-synthesized or duplicate reply
            conn, cid = routed
            if conn.send({"cid": cid, **payload}):
                self.served += 1
        # after a drain every accepted request has answered; whatever is
        # still routed is a deliberately dropped duplicate of an
        # in-flight rid — the original's reply already answered its
        # sender, so release the window slot instead of leaking it
        if self._route:
            leftovers, self._route = self._route, {}
            for conn, cid in leftovers.values():
                conn.drop(cid)


class _Conn(asyncio.Protocol):
    """One multiplexed client connection (event-loop side).

    Implements the connection contract :class:`DispatchCore` expects —
    ``name``, thread-safe ``send(value) -> bool``, ``drop(cid)`` — plus
    the window accounting the loop uses for backpressure.  All mutable
    state is loop-thread only; the dispatcher reaches it via
    ``call_soon_threadsafe``.
    """

    def __init__(self, frontend: "ServiceFrontend") -> None:
        self.frontend = frontend
        self.name = f"conn{frontend._next_conn}"
        frontend._next_conn += 1
        self.decoder = FrameDecoder()
        self.transport: asyncio.Transport | None = None
        self.open = False
        self.inflight = 0
        self.backlog: deque[Any] = deque()
        self.paused = False
        self._errored = False

    # -- protocol callbacks (event loop thread) ---------------------------
    def connection_made(self, transport) -> None:
        self.transport = transport
        self.open = True
        self.frontend._register(self)

    def data_received(self, data: bytes) -> None:
        fe = self.frontend
        try:
            self.decoder.feed(data)
            for _length, crc, payload in self.decoder.raw_frames():
                if fe._overloaded():
                    # shed from the header alone: the payload is never
                    # CRC-checked or decoded, so overload costs ~nothing
                    fe.preparse_busy += 1
                    fe._m_busy.inc()
                    self._send_local({"status": "BUSY", "reason": "overload"})
                    continue
                self._admit(decode_payload(payload, crc))
        except WireError as exc:
            # a torn/corrupt frame poisons only this connection
            self._errored = True
            fe.conn_errors += 1
            fe._m_conn_errors.inc()
            self._send_local({"status": "ERROR", "error": f"wire: {exc}"})
            self._close_transport()

    def connection_lost(self, exc) -> None:
        if not self._errored and self.decoder.pending_bytes:
            # mid-frame disconnect: the torn frame was never enqueued,
            # so nothing downstream is half-applied
            self.frontend.conn_errors += 1
            self.frontend._m_conn_errors.inc()
        self.open = False
        self.backlog.clear()
        self.frontend._unregister(self)

    # -- window / backpressure (event loop thread) ------------------------
    def _admit(self, request: Any) -> None:
        fe = self.frontend
        if self.inflight < fe.window:
            self.inflight += 1
            fe.core.enqueue(self, request)
        else:
            self.backlog.append(request)
            self._pause()

    def _pause(self) -> None:
        if self.paused or not self.open:
            return
        self.paused = True
        fe = self.frontend
        fe.pauses += 1
        fe._paused.append(self)
        fe._m_paused.set(len(fe._paused))
        try:
            self.transport.pause_reading()
        except (OSError, RuntimeError):
            pass

    def _resume(self) -> None:
        if not self.paused:
            return
        self.paused = False
        self.frontend.resumes += 1
        if self.open:
            try:
                self.transport.resume_reading()
            except (OSError, RuntimeError):
                pass

    # -- DispatchCore contract (called from the dispatcher thread) --------
    def send(self, value: Any) -> bool:
        """Best-effort framed reply for one admitted request.

        Marshals the write to the loop thread; the request's window
        slot is released there.  ``False`` once the peer is gone.
        """
        # sample liveness *before* scheduling: once the loop has the
        # callback it may write the reply, let the peer read it and
        # close, and process connection_lost — all before this thread
        # runs again.  A reply handed to a live connection counts.
        was_open = self.open
        try:
            self.frontend._loop.call_soon_threadsafe(self._complete, value)
        except RuntimeError:  # loop already closed (shutdown race)
            return False
        return was_open

    def drop(self, cid: Any) -> None:
        """An admitted request was deliberately never answered.

        Still releases its window slot — otherwise every deliberately
        dropped duplicate would leak in-flight budget until the window
        wedged shut.
        """
        try:
            self.frontend._loop.call_soon_threadsafe(self._complete, None)
        except RuntimeError:
            pass

    # -- loop-thread internals --------------------------------------------
    def _complete(self, value: Any | None) -> None:
        """One admitted request finished: write its reply, free its slot."""
        if value is not None and self.open:
            try:
                self.transport.write(encode_frame(value))
            except (OSError, WireError):
                self._close_transport()
        self.inflight -= 1
        self.frontend._pump()

    def _send_local(self, value: Any) -> None:
        """Loop-originated frame (BUSY, wire error) — no window slot."""
        if self.open:
            try:
                self.transport.write(encode_frame(value))
            except (OSError, WireError):
                pass

    def _close_transport(self) -> None:
        self.open = False
        if self.transport is not None:
            self.transport.close()


class ServiceFrontend:
    """Serve a :class:`MarketService` over TCP from one event loop.

    ``port=0`` (the default) binds an OS-assigned port readable at
    :attr:`address` immediately after construction.  Use as a context
    manager or call :meth:`close` — the listener, dispatcher and every
    live connection are torn down; the service itself (and its worker
    pool) belong to the caller.  *window* bounds each connection's
    in-flight requests (see the module docstring for the backpressure
    and pre-parse admission story).
    """

    def __init__(
        self,
        service: MarketService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        window: int = DEFAULT_WINDOW,
        telemetry: "obs.Telemetry | None" = None,
    ) -> None:
        if window < 1:
            raise ValueError("window must allow at least one in-flight request")
        self.service = service
        self.obs = telemetry if telemetry is not None else service.obs
        self.window = window
        self.core = DispatchCore(service, self.obs)
        self._listener = socket.create_server((host, port))
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Future | None = None
        self._thread: threading.Thread | None = None
        self._conns: set[_Conn] = set()
        self._paused: deque[_Conn] = deque()
        self._next_conn = 0
        self._running = False
        self.conn_errors = 0
        self.preparse_busy = 0
        self.pauses = 0
        self.resumes = 0
        registry = self.obs.registry
        self._m_conns = registry.gauge(
            "repro_frontend_connections", "live client connections"
        )
        self._m_conn_errors = registry.counter(
            "repro_frontend_conn_errors_total",
            "connections dropped for wire violations",
        )
        self._m_paused = registry.gauge(
            "repro_frontend_paused_connections",
            "connections with reads paused for backpressure",
        )
        self._m_busy = registry.counter(
            "repro_frontend_preparse_busy_total",
            "frames shed BUSY from the header alone under overload",
        )

    # the dispatcher's scorecard and maintenance hook live on the core
    @property
    def served(self) -> int:
        return self.core.served

    def add_after_batch(self, fn: Callable[[], None]) -> None:
        """Chain *fn* onto the after-batch maintenance hook."""
        self.core.add_after_batch(fn)

    @property
    def paused_connections(self) -> int:
        """Connections currently read-paused for backpressure."""
        return len(self._paused)

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "ServiceFrontend":
        if self._running:
            return self
        self._running = True
        self.core.start()
        self._loop = asyncio.new_event_loop()
        self._stop = self._loop.create_future()
        started = threading.Event()
        self._thread = threading.Thread(
            target=self._run, args=(started,), name="frontend-loop", daemon=True
        )
        self._thread.start()
        if not started.wait(timeout=5.0):
            raise RuntimeError("front door event loop failed to start")
        return self

    def _run(self, started: threading.Event) -> None:
        loop = self._loop
        asyncio.set_event_loop(loop)
        # one loop run from listen to teardown: a close() that lands the
        # instant start() returns finds the loop already waiting on
        # ``_stop`` (or about to), never between two runs
        try:
            loop.run_until_complete(self._serve(started))
        except OSError:
            pass  # could not listen; close() cleans up
        finally:
            started.set()
            loop.close()

    async def _serve(self, started: threading.Event) -> None:
        server = await self._loop.create_server(
            lambda: _Conn(self), sock=self._listener
        )
        started.set()
        await self._stop
        server.close()
        for conn in list(self._conns):
            conn._close_transport()
        # transports finish closing (and call connection_lost) on the
        # next loop turn; take it before the loop goes away
        await asyncio.sleep(0)

    def close(self) -> None:
        if not self._running:
            return
        self._running = False
        try:
            self._loop.call_soon_threadsafe(self._stop.set_result, None)
        except RuntimeError:
            pass  # loop already gone
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.core.stop()
        self._conns.clear()
        self._paused.clear()
        self._m_conns.set(0)
        self._m_paused.set(0)

    def __enter__(self) -> "ServiceFrontend":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- event-loop internals ----------------------------------------------
    def _overloaded(self) -> bool:
        # the service cannot see frames the front door has parsed but
        # not yet submitted, so its own backlog rides along
        return self.service.overloaded(self.core.backlog)

    def _register(self, conn: _Conn) -> None:
        self._conns.add(conn)
        self._m_conns.set(len(self._conns))

    def _unregister(self, conn: _Conn) -> None:
        self._conns.discard(conn)
        self._m_conns.set(len(self._conns))

    def _pump(self) -> None:
        """Round-robin one backlogged request per paused connection.

        Runs on the loop thread after every released window slot: each
        paused connection gets at most one admission per turn, so
        freed capacity spreads across flooders instead of draining one
        connection's backlog to exhaustion first.  A connection leaves
        the paused set (and resumes reads) only once its backlog is
        empty *and* its window has room.
        """
        paused = self._paused
        for _ in range(len(paused)):
            conn = paused.popleft()
            if not conn.open:
                continue
            if conn.backlog and conn.inflight < self.window:
                conn.inflight += 1
                self.core.enqueue(conn, conn.backlog.popleft())
            if conn.backlog or conn.inflight >= self.window:
                paused.append(conn)  # still throttled
            else:
                conn._resume()
        self._m_paused.set(len(paused))


class ClientRetryError(WireError):
    """Every retry attempt of :meth:`ServiceClient.call` failed.

    Carries the last underlying error (``__cause__``) and the number of
    attempts made, so callers (the cluster router) can distinguish "the
    peer is dead" from a wire violation on a healthy peer.
    """

    def __init__(self, message: str, *, attempts: int) -> None:
        super().__init__(message)
        self.attempts = attempts


class ServiceClient:
    """Blocking framed client for :class:`ServiceFrontend`.

    :meth:`request` is the one-shot call-and-wait form.  For pipelined
    traffic (the load generator) use :meth:`send` / :meth:`recv` from
    separate threads — the front-end echoes each request's ``cid`` so
    out-of-order replies correlate.

    Two timeouts guard against a dead peer: *connect_timeout* bounds
    :func:`socket.create_connection` (``None`` falls back to
    *timeout*), and *timeout* bounds every read/write after that — a
    peer that stops answering costs one timeout, never a hang.
    :meth:`call` layers bounded reconnect-with-backoff on top; plain
    :meth:`request` stays single-shot.
    """

    def __init__(self, address: tuple[str, int], *, sender: str | None = None,
                 timeout: float | None = 30.0,
                 connect_timeout: float | None = None) -> None:
        self.address = (address[0], int(address[1]))
        self.timeout = timeout
        self.connect_timeout = connect_timeout if connect_timeout is not None else timeout
        self.sender = sender
        self.sock = self._connect()
        self._next_cid = 0
        self._wlock = threading.Lock()

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(self.address,
                                        timeout=self.connect_timeout)
        sock.settimeout(self.timeout)
        return sock

    def reconnect(self) -> None:
        """Drop the current connection and dial the address again.

        Any replies in flight on the old connection are lost — callers
        pairing this with retries must resend under the *same* rid so
        the service's exactly-once layer, not the network, decides
        whether the request runs again.
        """
        self.close()
        self.sock = self._connect()

    def send(self, kind: str, payload: Any, *, rid: str | None = None,
             now: float = 0.0, sender: str | None = None) -> int:
        """Frame one request without waiting; returns its ``cid``."""
        if self.sock is None:
            raise OSError("client is closed")
        with self._wlock:
            cid = self._next_cid
            self._next_cid += 1
            request: dict[str, Any] = {"cid": cid, "kind": kind, "payload": payload,
                                       "now": now}
            effective = sender if sender is not None else self.sender
            if effective is not None:
                request["sender"] = effective
            if rid is not None:
                request["rid"] = rid
            write_frame(self.sock, request)
        return cid

    def recv(self) -> dict:
        """Next reply frame (any ``cid``); raises on EOF mid-stream."""
        if self.sock is None:
            raise OSError("client is closed")
        reply = read_frame(self.sock)
        if reply is None:
            raise WireError("server closed the connection")
        return reply

    def request(self, kind: str, payload: Any, *, rid: str | None = None,
                now: float = 0.0, sender: str | None = None) -> dict:
        """Send one request and wait for *its* reply.

        A reply without a ``cid`` (the front door's pre-parse ``BUSY``,
        its wire-``ERROR`` frame) was built before the request's payload
        was decoded; it answers the single request outstanding here.
        """
        cid = self.send(kind, payload, rid=rid, now=now, sender=sender)
        while True:
            reply = self.recv()
            if reply.get("cid") in (cid, None):
                return reply

    def call(self, kind: str, payload: Any, *, rid: str | None = None,
             now: float = 0.0, sender: str | None = None, attempts: int = 4,
             backoff: float = 0.05, max_backoff: float = 2.0,
             retry_busy: bool = False) -> dict:
        """One request with bounded reconnect-with-backoff.

        The resilient form of :meth:`request`: a connection failure or
        read timeout drops the socket, sleeps (exponential backoff,
        capped at *max_backoff*), reconnects, and resends — up to
        *attempts* tries total, then :class:`ClientRetryError`.

        Idempotence is the caller's protection, not luck: every resend
        carries the **same rid** (one is minted here when the caller
        did not supply one), so if the first attempt was accepted and
        only its reply was lost, the retry is answered from the
        service's reply cache — never re-executed.

        With *retry_busy* a ``BUSY`` verdict also backs off and
        retries (sheds are not cached, so the retry is a genuine new
        admission attempt); without it BUSY is returned to the caller,
        who may hold better context for pacing.
        """
        if attempts < 1:
            raise ValueError("attempts must be positive")
        if rid is None:
            # stable across every retry below, unique across clients
            rid = f"call:{os.urandom(8).hex()}"
        delay = backoff
        last_error: Exception | None = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(delay)
                delay = min(delay * 2, max_backoff)
            try:
                if self.sock is None:
                    self.reconnect()
                reply = self.request(kind, payload, rid=rid, now=now,
                                     sender=sender)
            except (OSError, WireError) as exc:
                last_error = exc
                self.close()
                continue
            if reply.get("status") == "BUSY" and retry_busy \
                    and attempt + 1 < attempts:
                continue
            return reply
        raise ClientRetryError(
            f"{kind} to {self.address} failed after {attempts} attempt(s): "
            f"{last_error}", attempts=attempts,
        ) from last_error

    def close(self) -> None:
        if self.sock is None:
            return
        try:
            self.sock.close()
        except OSError:
            pass
        self.sock = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
