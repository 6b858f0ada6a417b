"""A stalled server fails operations; every exit path tears everything down.

``PYTHONPATH=src python -m pytest benchmarks/e2e -q``
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from benchmarks.e2e import harness, procstat
from benchmarks.e2e.client import LoadClient, encode_ops
from benchmarks.e2e.workloads import ACCOUNTS, Op


@pytest.fixture
def stalled_server():
    """Accepts connections, reads whatever arrives, never answers."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.2)
    held: list[socket.socket] = []
    running = threading.Event()
    running.set()

    def accept() -> None:
        while running.is_set():
            try:
                held.append(listener.accept()[0])
            except OSError:
                pass

    thread = threading.Thread(target=accept, daemon=True)
    thread.start()
    yield listener.getsockname()[:2]
    running.clear()
    thread.join(timeout=2.0)
    assert not thread.is_alive()
    for sock in (*held, listener):
        sock.close()


def _ops(n: int) -> list[Op]:
    ops = [Op("balance", "c0", {"aid": ACCOUNTS[0]}, conn=i % 2, journaled=False)
           for i in range(n)]
    for i, op in enumerate(ops):  # an open-loop schedule, 1 ms apart
        op.due = i * 0.001
    return ops


@pytest.mark.parametrize("loop", ["closed", "open"])
def test_stalled_server_fails_every_op_within_the_deadline(stalled_server, loop):
    ops = _ops(40)
    frames = encode_ops(ops, "stall")

    async def drive():
        client = LoadClient(stalled_server, deadline=0.4)
        await client.connect()
        try:
            if loop == "closed":
                return await client.run_closed(ops, frames, window=4)
            return await client.run_open(ops, frames)
        finally:
            await client.close()

    started = time.perf_counter()
    outcome = asyncio.run(asyncio.wait_for(drive(), 10.0))
    assert time.perf_counter() - started < 5.0, "the benchmark hung on a stall"
    assert outcome.failed == len(ops)
    assert all(latency is None for latency in outcome.latency)
    assert outcome.problems, "failures must say why"


def _leftovers(before: set[int]) -> list[str]:
    """Command lines of processes started since *before* and still alive."""
    out = []
    for pid in set(procstat.tree_pids([os.getpid()])) - before:
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                command = fh.read().replace(bytes(1), b" ").decode()
        except OSError:
            continue  # gone between the listing and the read
        # multiprocessing's own helper lives as long as this process does
        if "multiprocessing.resource_tracker" not in command:
            out.append(f"{pid}: {command}")
    return out


def _scratch_of(name: str) -> list[str]:
    if not os.path.isdir(harness.WORK_ROOT):
        return []
    return [entry for entry in os.listdir(harness.WORK_ROOT)
            if entry.startswith(name + "-")]


def test_watchdog_fails_the_trace_and_leaves_nothing_behind():
    before = set(procstat.tree_pids([os.getpid()]))
    record = harness.run_workload("rpc_threaded", seed=5, seconds=0.2,
                                  setup_repeats=1, watchdog=0.001)
    assert not record["correct"]
    assert record["client"]["failed"] > 0
    assert record["e2e"]["failed_share"] > 0
    assert not _leftovers(before), "server subprocess outlived the run"
    assert not _scratch_of("rpc_threaded")


def test_set_up_that_gets_no_answer_raises_and_leaves_nothing_behind():
    before = set(procstat.tree_pids([os.getpid()]))
    with pytest.raises((TimeoutError, OSError)):
        harness.run_workload("rpc_threaded", seed=5, seconds=0.2,
                             setup_repeats=1, deadline=1e-6)
    assert not _leftovers(before), "server subprocess outlived the run"
    assert not _scratch_of("rpc_threaded")


def test_cluster_rundir_and_nodes_are_torn_down_on_failure():
    before = set(procstat.tree_pids([os.getpid()]))
    with pytest.raises(Exception):
        # every routed request times out at once, so minting cannot start
        harness.run_workload("cluster_deposit", seed=5, seconds=0.2,
                             setup_repeats=1, deadline=1e-6)
    assert not _leftovers(before), "cluster nodes outlived the run"
    assert not _scratch_of("cluster_deposit")


def test_the_driver_command_outlives_every_helper_process():
    """``run.py`` returns only once nothing it started, or that its children
    started, is alive — multiprocessing's resource trackers included."""
    assert procstat.adopt_orphans()  # whatever run.py abandoned lands here
    before = set(procstat.tree_pids([os.getpid()]))
    done = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
         "--workload", "market_mix", "--seed", "5", "--seconds", "0.3",
         "--trace", "0"], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"]
    assert set(procstat.tree_pids([os.getpid()])) <= before, \
        "a process outlived the driver command"
    assert not _scratch_of("market_mix")
