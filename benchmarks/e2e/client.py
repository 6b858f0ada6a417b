"""The load generator: one asyncio loop, two connections, three loops.

* **closed** — each connection keeps *window* requests outstanding and
  sends the next only when a reply frees a slot, so a slow server
  receives less load;
* **open** — requests go out at their seeded due times whatever the
  server is doing, and each is timed *from its due time*, so a stall is
  charged to every request it delays;
* **sequential** — one request at a time through a
  :class:`~repro.cluster.router.ClusterRouter` (the cluster workload).

Every operation carries a deadline.  A reply that does not arrive in
time fails its operation — and everything still queued behind it on
that connection — so a stalled server yields failed operations and a
non-zero exit, never a hung benchmark.  Every reply is checked against
the verdict the trace expects.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from repro.cluster.router import StaleClusterMapError
from repro.net.wire import (
    HEADER_SIZE,
    WireError,
    decode_payload,
    encode_frame,
    parse_header,
)

from benchmarks.e2e.workloads import CONNECTIONS, Op

__all__ = ["Outcome", "LoadClient", "run_sequential", "encode_ops",
           "OP_DEADLINE_S"]

#: default per-operation deadline; generous against the ~0.5 s a full
#: closed-loop batch queue takes, small against the driver's 180 s limit
OP_DEADLINE_S = 20.0


@dataclass
class Outcome:
    """What the load generator saw, per operation and in total."""

    n_ops: int
    latency: list = field(init=False)              # seconds, None = failed
    status: list = field(init=False)
    lag: list = field(default_factory=list)        # open loop: send - due
    problems: list = field(default_factory=list)   # first few, for the log
    failed: int = 0
    bytes_out: int = 0
    bytes_in: int = 0
    started: float = 0.0
    finished: float = 0.0
    backlog_at_segment_end: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.latency = [None] * self.n_ops
        self.status = [None] * self.n_ops

    def fail(self, index: int, why: str) -> None:
        if self.status[index] is None:
            self.status[index] = "FAILED"
        self.failed += 1
        if len(self.problems) < 8:
            self.problems.append(f"op {index}: {why}")

    def check(self, index: int, op: Op, reply: dict, seconds: float,
              deadline: float) -> None:
        status = reply.get("status")
        self.status[index] = status
        if status != op.expect:
            self.fail(index, f"{op.kind} answered {status} "
                             f"({reply.get('error') or reply.get('reason')}), "
                             f"trace expects {op.expect}")
        elif any(reply.get(k) != v for k, v in op.expect_body.items()):
            self.fail(index, f"{op.kind} answered {reply}, "
                             f"trace expects {op.expect_body}")
        elif seconds > deadline:
            self.fail(index, f"{op.kind} took {seconds:.1f}s, past its deadline")
        else:
            self.latency[index] = seconds


def encode_ops(ops: list[Op], rid_prefix: str) -> list[bytes]:
    """One request frame per op; ``cid`` is the op's index in the trace."""
    return [
        encode_frame({"cid": i, "kind": op.kind, "payload": op.payload,
                      "sender": op.sender, "rid": f"{rid_prefix}:{i}", "now": 0.0})
        for i, op in enumerate(ops)
    ]


async def _read_reply(reader: asyncio.StreamReader) -> tuple[dict, int]:
    """One reply frame and its size on the wire."""
    header = await reader.readexactly(HEADER_SIZE)
    length, crc = parse_header(header)
    payload = await reader.readexactly(length)
    return decode_payload(payload, crc), HEADER_SIZE + length


class LoadClient:
    """Two pipelined connections to one front door, on the running loop."""

    def __init__(self, address: tuple[str, int], *,
                 deadline: float = OP_DEADLINE_S,
                 watchdog: float = 90.0) -> None:
        self.address = address
        self.deadline = deadline
        #: seconds a whole trace may take; what is unanswered then fails
        self.watchdog = watchdog
        self._streams: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self._next_cid = -1

    async def connect(self) -> None:
        for _ in range(CONNECTIONS):
            self._streams.append(await asyncio.wait_for(
                asyncio.open_connection(*self.address), self.deadline))

    async def close(self) -> None:
        for _reader, writer in self._streams:
            writer.close()
        for _reader, writer in self._streams:
            try:
                await asyncio.wait_for(writer.wait_closed(), 2.0)
            except (OSError, asyncio.TimeoutError):
                pass
        self._streams = []

    async def request(self, kind: str, payload: dict, *, sender: str) -> dict:
        """One out-of-window request on connection 0 (set-up and checks)."""
        reader, writer = self._streams[0]
        self._next_cid -= 1  # negative: never collides with a trace index
        writer.write(encode_frame({"cid": self._next_cid, "kind": kind,
                                   "payload": payload, "sender": sender}))

        async def answer() -> dict:
            while True:  # late replies of an abandoned trace come first
                reply, _size = await _read_reply(reader)
                if reply.get("cid") == self._next_cid:
                    return reply

        return await asyncio.wait_for(answer(), self.deadline)

    # -- closed loop ------------------------------------------------------
    async def run_closed(self, ops: list[Op], frames: list[bytes],
                         window: int) -> Outcome:
        out = Outcome(len(ops))
        lanes = [[i for i, op in enumerate(ops) if op.conn == c]
                 for c in range(CONNECTIONS)]
        out.started = time.perf_counter()
        abort_at = out.started + self.watchdog
        await asyncio.gather(*(
            self._closed_lane(stream, lane, ops, frames, window, out, abort_at)
            for stream, lane in zip(self._streams, lanes)))
        out.finished = time.perf_counter()
        return out

    async def _closed_lane(self, stream, lane, ops, frames, window, out,
                           abort_at) -> None:
        reader, writer = stream
        sent_at: dict[int, float] = {}  # insertion order = send order
        upcoming = iter(lane)

        def refill() -> None:
            while len(sent_at) < window:
                index = next(upcoming, None)
                if index is None:
                    return
                sent_at[index] = time.perf_counter()
                writer.write(frames[index])
                out.bytes_out += len(frames[index])

        refill()
        try:
            while sent_at:
                oldest = next(iter(sent_at.values()))
                budget = min(oldest + self.deadline, abort_at) \
                    - time.perf_counter()
                if budget <= 0:
                    raise asyncio.TimeoutError("deadline or watchdog passed")
                reply, size = await asyncio.wait_for(_read_reply(reader), budget)
                done = time.perf_counter()
                out.bytes_in += size
                index = reply.get("cid")
                if index not in sent_at:
                    # a pre-parse BUSY carries no cid: it shed the oldest
                    index = next(iter(sent_at))
                out.check(index, ops[index], reply, done - sent_at.pop(index),
                          self.deadline)
                refill()
        except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                OSError, WireError) as exc:
            why = f"connection abandoned: {type(exc).__name__} {exc}"
            for index in (*sent_at, *upcoming):
                out.fail(index, why)

    # -- open loop ----------------------------------------------------------
    async def run_open(self, ops: list[Op], frames: list[bytes]) -> Outcome:
        out = Outcome(len(ops))
        out.lag = [0.0] * len(ops)
        due_at: dict[int, float] = {}
        lanes = [sum(1 for op in ops if op.conn == c) for c in range(CONNECTIONS)]
        readers = [asyncio.ensure_future(
            self._open_reader(stream[0], expected, ops, due_at, out))
            for stream, expected in zip(self._streams, lanes)]
        out.started = origin = time.perf_counter() + 0.02
        abort_at = origin + self.watchdog
        segment = 0
        try:
            for index, op in enumerate(ops):
                if time.perf_counter() > abort_at:
                    raise asyncio.TimeoutError("watchdog passed")
                if op.segment != segment:
                    out.backlog_at_segment_end[segment] = len(due_at)
                    segment = op.segment
                target = origin + op.due
                delay = target - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                out.lag[index] = time.perf_counter() - target
                due_at[index] = target
                self._streams[op.conn][1].write(frames[index])
                out.bytes_out += len(frames[index])
            out.backlog_at_segment_end[segment] = len(due_at)
            # everything is sent: every reply is due within one deadline
            await asyncio.wait_for(
                asyncio.gather(*readers),
                max(0.001, min(self.deadline, abort_at - time.perf_counter())))
        except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                OSError, WireError) as exc:
            why = f"replies abandoned: {type(exc).__name__} {exc}"
            for index in range(len(ops)):
                if out.status[index] is None:
                    out.fail(index, why)
        finally:
            for task in readers:
                task.cancel()
            await asyncio.gather(*readers, return_exceptions=True)
        out.finished = time.perf_counter()
        return out

    async def _open_reader(self, reader, expected, ops, due_at, out) -> None:
        for _ in range(expected):
            reply, size = await _read_reply(reader)
            done = time.perf_counter()
            out.bytes_in += size
            index = reply.get("cid")
            if index not in due_at:
                index = next(iter(due_at))
            out.check(index, ops[index], reply, done - due_at.pop(index),
                      self.deadline)


# -- sequential (cluster) ---------------------------------------------------
def run_sequential(router, ops: list[Op], rid_prefix: str, *,
                   deadline: float, watchdog: float) -> Outcome:
    """One routed request at a time; *watchdog* bounds the whole trace."""
    out = Outcome(len(ops))
    out.started = time.perf_counter()
    for index, op in enumerate(ops):
        start = time.perf_counter()
        if start - out.started > watchdog:
            out.fail(index, "watchdog: trace abandoned")
            continue
        try:
            reply = router.request(op.kind, op.payload, sender=op.sender,
                                   rid=f"{rid_prefix}:{index}")
        except (StaleClusterMapError, OSError, WireError) as exc:
            out.fail(index, f"{type(exc).__name__}: {exc}")
            continue
        out.check(index, op, reply, time.perf_counter() - start, deadline)
        # the router strips the envelope; its two counters are put back so
        # the size is the reply frame's
        out.bytes_in += len(encode_frame({"cid": index, "req": index, **reply}))
    out.finished = time.perf_counter()
    return out
