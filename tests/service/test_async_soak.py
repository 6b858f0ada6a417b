"""Opt-in C10k soak: 10,000 concurrent sockets on one event loop.

Run with ``REPRO_SOAK=1`` (CI runs it on the nightly cron).  The front
door serves every socket from one event loop so that connection
*count* costs a protocol object, not a thread stack.  This soak holds
ten thousand sockets open **simultaneously** against one
:class:`~repro.service.frontend.ServiceFrontend`, probes every one of
them, and holds the SLOs:

* every socket connects (ramped under the listen backlog) and every
  probe is answered — zero errors, zero sheds;
* accept latency and request RTT stay bounded (generous absolute
  ceilings — CI machines vary — plus a sanity ratio against the same
  door's RTT floor at 512 sockets).

The client flood runs in a **subprocess** (``tools/async_soak_client
.py``): the container's fd ceiling is per-process, so server and
client each get their own 10k-descriptor budget.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import resource
import subprocess
import sys
import time

import pytest

from repro.service import (
    MarketService,
    ServiceFrontend,
    ShardedBank,
    VerificationBatcher,
)

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_SOAK") != "1",
    reason="soak test: set REPRO_SOAK=1 to run (CI nightly cron does)",
)

#: concurrent sockets the front door must sustain — the issue floor
N_SOCKETS = 10_000
ROUNDS = 2
#: scale of the RTT-floor leg the C10k leg is compared against
BASELINE_SOCKETS = 512

CLIENT = pathlib.Path(__file__).resolve().parents[2] / "tools" / "async_soak_client.py"


def _raise_fd_limit(need: int) -> None:
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft < need and hard > soft:
        resource.setrlimit(resource.RLIMIT_NOFILE, (min(need, hard), hard))


def _make_service(dec_params_toy) -> MarketService:
    bank = ShardedBank.create(dec_params_toy, random.Random(0xA10C))
    batcher = VerificationBatcher(bank.params, bank.keypair, max_batch=16,
                                  seed=3)
    service = MarketService(bank, batcher=batcher, rng=random.Random(0xBEEF))
    service.bank.open_account("soak", 7)  # the balance probes' target
    return service


def _flood(port: int, connections: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(CLIENT), "--port", str(port),
         "--connections", str(connections), "--rounds", str(ROUNDS)],
        capture_output=True, text=True, timeout=1200,
    )
    assert proc.returncode == 0, (
        f"soak client failed (rc={proc.returncode}):\n"
        f"stdout: {proc.stdout}\nstderr: {proc.stderr}"
    )
    return json.loads(proc.stdout)


def test_front_door_sustains_10k_sockets(dec_params_toy):
    _raise_fd_limit(N_SOCKETS + 256)

    # -- the RTT floor: the same door, lightly loaded
    with ServiceFrontend(_make_service(dec_params_toy)) as baseline_front:
        baseline = _flood(baseline_front.address[1], BASELINE_SOCKETS)
    assert baseline["opened"] == BASELINE_SOCKETS
    assert baseline["errors"] == 0

    # -- the C10k leg --------------------------------------------------
    with ServiceFrontend(_make_service(dec_params_toy)) as front:
        report = _flood(front.address[1], N_SOCKETS)
        # `served` is bumped just after the send that unblocks the
        # client, so give the counter a moment to land
        deadline = time.monotonic() + 10.0
        while front.served < report["ok"] and time.monotonic() < deadline:
            time.sleep(0.05)
        served = front.served
    print(f"\nsoak report: {json.dumps(report)}")
    print(f"RTT floor ({BASELINE_SOCKETS} sockets): "
          f"{json.dumps(baseline)}")

    # every socket opened, was concurrently held, and was answered
    assert report["opened"] == N_SOCKETS
    assert report["peak_open"] == N_SOCKETS
    assert report["connect_failures"] == 0
    assert report["errors"] == 0
    assert report["busy"] == 0
    assert report["ok"] == N_SOCKETS * ROUNDS
    assert served >= report["ok"]

    # -- SLOs -----------------------------------------------------------
    # absolute ceilings, deliberately generous for shared CI iron
    assert report["connect_p99_ms"] < 2_000, report
    assert report["rtt_p99_ms"] < 10_000, report
    # and the sanity ratio: 20x the sockets may not cost more than ~50x
    # the baseline's median RTT at its own p99 — the loop must degrade
    # smoothly, not collapse
    floor_ms = max(baseline["rtt_p50_ms"], 1.0)
    assert report["rtt_p99_ms"] < 50 * floor_ms, (report, baseline)
