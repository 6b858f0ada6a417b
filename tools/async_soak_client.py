#!/usr/bin/env python
"""Client-side flood driver for the async frontend soak.

Opens ``--connections`` concurrent sockets against a running frontend
(ramped in batches so the listen backlog is never swamped), holds them
**all open at once**, then drives ``--rounds`` request/reply probes
down every connection and reports latency percentiles as JSON on
stdout:

.. code-block:: json

    {"connections": 10000, "opened": 10000, "connect_failures": 0,
     "peak_open": 10000, "connect_p50_ms": ..., "connect_p99_ms": ...,
     "rtt_p50_ms": ..., "rtt_p99_ms": ..., "rtt_max_ms": ...,
     "ok": ..., "busy": 0, "errors": 0, "elapsed_s": ...}

It runs as a **separate process** from the server on purpose: the
container's file-descriptor ceiling is per-process, so a 10k-socket
soak needs the 10k client fds and the 10k server fds in different fd
tables.  The soak test (``tests/service/test_async_soak.py``) spawns
this script and parses the report; it is also handy standalone against
any live frontend.  Stdlib + ``repro.net.wire`` only.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import pathlib
import resource
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.net.wire import read_frame_async, write_frame_async  # noqa: E402


def _raise_fd_limit(need: int) -> None:
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft < need and hard > soft:
        resource.setrlimit(resource.RLIMIT_NOFILE, (min(need, hard), hard))


def _percentile(samples: list[float], q: float) -> float:
    """Nearest-rank quantile (the ceil(q*n)-th order statistic), the
    rule ``repro.metrics.latency`` reports small samples by."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


async def _soak(args: argparse.Namespace) -> dict:
    address = (args.host, args.port)
    connect_ms: list[float] = []
    rtt_ms: list[float] = []
    lanes: list[tuple] = []
    counts = {"ok": 0, "busy": 0, "errors": 0, "connect_failures": 0}

    async def dial(index: int) -> None:
        started = time.monotonic()
        for attempt in range(4):
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(*address), args.timeout)
                connect_ms.append((time.monotonic() - started) * 1000.0)
                lanes.append((index, reader, writer))
                return
            except (OSError, asyncio.TimeoutError):
                # the listen backlog pushed back — yield and retry
                await asyncio.sleep(0.05 * (attempt + 1))
        counts["connect_failures"] += 1

    # ramp: batches keep simultaneous SYNs under the listen backlog
    began = time.monotonic()
    for start in range(0, args.connections, args.ramp):
        batch = range(start, min(start + args.ramp, args.connections))
        await asyncio.gather(*(dial(i) for i in batch))
    peak_open = len(lanes)

    async def probe(index: int, reader, writer) -> None:
        for round_no in range(args.rounds):
            started = time.monotonic()
            try:
                await write_frame_async(writer, {
                    "cid": round_no, "kind": args.kind,
                    "payload": dict(args.payload), "now": 0.0,
                    "sender": f"soak{index}",
                })
                reply = await asyncio.wait_for(read_frame_async(reader),
                                               args.timeout)
            except Exception:  # any wire/socket/timeout failure is an error
                counts["errors"] += 1
                return
            if reply is None:
                counts["errors"] += 1
                return
            status = reply.get("status")
            if status == "BUSY":
                counts["busy"] += 1
            elif status == "OK":
                counts["ok"] += 1
                rtt_ms.append((time.monotonic() - started) * 1000.0)
            else:
                counts["errors"] += 1

    # every connection held open while every other one probes: this IS
    # the C10k claim, not sequential reuse of one socket
    await asyncio.gather(*(probe(i, r, w) for i, r, w in lanes))

    for _i, _r, writer in lanes:
        writer.close()
    for _i, _r, writer in lanes:
        try:
            await asyncio.wait_for(writer.wait_closed(), 5)
        except (OSError, asyncio.TimeoutError):
            pass

    return {
        "connections": args.connections,
        "opened": len(connect_ms),
        "peak_open": peak_open,
        "connect_failures": counts["connect_failures"],
        "connect_p50_ms": round(_percentile(connect_ms, 0.50), 3),
        "connect_p99_ms": round(_percentile(connect_ms, 0.99), 3),
        "connect_max_ms": round(max(connect_ms, default=0.0), 3),
        "rtt_count": len(rtt_ms),
        "rtt_p50_ms": round(_percentile(rtt_ms, 0.50), 3),
        "rtt_p99_ms": round(_percentile(rtt_ms, 0.99), 3),
        "rtt_max_ms": round(max(rtt_ms, default=0.0), 3),
        "ok": counts["ok"],
        "busy": counts["busy"],
        "errors": counts["errors"],
        "elapsed_s": round(time.monotonic() - began, 3),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--connections", type=int, default=10_000)
    parser.add_argument("--rounds", type=int, default=2,
                        help="probes per connection once all are open")
    parser.add_argument("--ramp", type=int, default=250,
                        help="sockets dialed per ramp batch")
    parser.add_argument("--kind", default="balance")
    parser.add_argument("--payload", type=json.loads,
                        default={"aid": "soak"})
    parser.add_argument("--timeout", type=float, default=60.0)
    args = parser.parse_args(argv)

    _raise_fd_limit(args.connections + 64)
    report = asyncio.run(_soak(args))
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0 if report["errors"] == 0 and report["connect_failures"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
