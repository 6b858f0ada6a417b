"""One workload, end to end: launch, mint, replay, check, measure, tear down.

:func:`run_workload` is the single code path behind the driver entry
(``run.py``), the ``run`` command and the smoke tests.  It owns every
process it starts: whatever happens — a failed check, a stalled server,
an exception, the watchdog — the ``finally`` blocks stop the server
subprocesses (and their process trees, if they will not exit) and remove
the work directory.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import queue
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from repro.cluster.launcher import ProcessCluster
from repro.net.codec import encoded_size
from repro.service.frontend import ServiceClient

from benchmarks.e2e import procstat
from benchmarks.e2e.client import (
    OP_DEADLINE_S,
    LoadClient,
    Outcome,
    encode_ops,
    run_sequential,
)
from benchmarks.e2e.layers import per_layer_metrics, quantile
from benchmarks.e2e.speed import SpeedProbe
from benchmarks.e2e.tracing import Tracer
from benchmarks.e2e.workloads import (
    ACCOUNTS,
    COIN_VALUE,
    OPEN_RATES,
    WORKLOADS,
    Op,
    Workload,
    coins_for,
    derive_market,
    mint_tokens,
)

__all__ = ["run_workload", "load_contract", "E2E_UNITS", "ROOT", "SLO_MS",
           "MAX_GEN_LAG_MS"]

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
#: scratch space (journals, cluster rundirs, server logs); git-ignored
WORK_ROOT = os.path.join(ROOT, ".bench_e2e")

#: the open-loop latency limit, on p95, from each request's due time
SLO_MS = 100.0
#: an open-loop run whose generator ran later than this (p99) measured
#: the generator, not the server, and is marked invalid
MAX_GEN_LAG_MS = 5.0
#: deposits replayed against a plain single node to price the cluster's
#: routing + replication (traced cluster runs only)
_REFERENCE_DEPOSITS = 64

def load_contract() -> dict:
    """``BENCHMARK.json``: the workloads, metrics and bounds the driver checks."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


#: ``*_norm_*`` are the measured value divided by how much slower than
#: its quiet self the box ran during the window (see ``speed.py``)
E2E_UNITS = {
    "setup_s": "s",
    "setup_raw_s": "s",
    "throughput_norm_ops_s": "1/s",
    "latency_p50_norm_ms": "ms",
    "server_cpu_norm_ms_per_op": "ms",
    "box_slowdown": "ratio",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "latency_p99_ms": "ms",
    "slo_miss_share": "ratio",
    "rate_ok_ops_s": "1/s",
    "failed_share": "ratio",
    "server_cpu_ms_per_op": "ms",
    "server_peak_rss_mb": "MB",
    "journal_bytes_per_op": "B",
}


# -- the server subprocess --------------------------------------------------
class ServerProcess:
    """``serve.py`` as a child process, driven over its stdin/stdout."""

    def __init__(self, workload: Workload, seed: int, work: str, *,
                 traced: bool, spans_path: str | None = None,
                 timeout: float = 60.0) -> None:
        self.journal_dir = tempfile.mkdtemp(prefix="journal-", dir=work)
        self._log = open(os.path.join(work, "server.log"), "ab")
        command = [sys.executable, "-m", "benchmarks.e2e.serve",
                   "--seed", str(seed), "--frontend", workload.frontend,
                   "--workers", str(workload.workers),
                   "--journal", self.journal_dir, "--trace", str(int(traced))]
        if spans_path:
            command += ["--spans", spans_path]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [ROOT, os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")])
        launched = time.perf_counter()
        self.proc = subprocess.Popen(command, cwd=ROOT, env=env,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self._log)
        self._lines: queue.Queue = queue.Queue()
        threading.Thread(target=self._pump, daemon=True,
                         name="server-stdout").start()
        try:
            with SpeedProbe() as probe:
                ready = self._next(timeout)
                self.address = (ready["address"][0], int(ready["address"][1]))
                # "first reply possible" is shown by getting one
                with ServiceClient(self.address, timeout=timeout) as client:
                    client.request("audit", {})
                self.setup_raw_s = time.perf_counter() - launched
            self.setup_s = self.setup_raw_s / probe.slowdown
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _next(self, timeout: float) -> dict:
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError("server did not answer on its control pipe") from None
        if line is None:
            self._log.flush()
            with open(self._log.name, "rb") as fh:  # the run removes the log
                tail = fh.read()[-2000:].decode("utf-8", "replace")
            raise RuntimeError(
                f"server exited with status {self.proc.wait()}:\n{tail}")
        return json.loads(line)

    def command(self, name: str, *, timeout: float = 60.0) -> dict:
        self.proc.stdin.write(name.encode() + b"\n")
        self.proc.stdin.flush()
        return self._next(timeout)

    def stop(self) -> None:
        """Ask the server to exit; insist if it does not."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(b"exit\n")
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                procstat.kill_tree([self.proc.pid])
                self.proc.wait(timeout=10.0)
        self.proc.stdout.close()
        self._log.close()
        shutil.rmtree(self.journal_dir, ignore_errors=True)


# -- set-up shared by every workload -----------------------------------------
def _open_and_mint(gateway, workload: Workload, seed: int, seconds: float):
    """Open the depositing accounts, mint the tokens; returns both."""
    opening = workload.opening_balances(seconds)
    for aid, balance in opening.items():
        reply = gateway.request("open-account", {"aid": aid, "balance": balance},
                                sender=aid)
        if reply.get("status") != "OK":
            raise RuntimeError(f"open-account {aid!r} failed: {reply}")
    tokens, spend_s = mint_tokens(gateway, seed, workload.n_tokens(seconds))
    return opening, tokens, spend_s


def _expected_balances(workload: Workload, opening: dict, ops: list[Op],
                       outcome: Outcome, seconds: float) -> dict[str, int]:
    """Opening balance, less the coins minted, plus every accepted credit."""
    expected = dict(opening)
    for aid, _level in coins_for(workload.n_tokens(seconds)):
        expected[aid] -= COIN_VALUE
    for op, status in zip(ops, outcome.status):
        if status == "OK" and op.credit:
            expected[op.payload["aid"]] += op.credit
    return expected


def _balance_problems(expected: dict[str, int], got: dict[str, dict]) -> list[str]:
    return [f"balance of {aid}: {got[aid]}, accepted credits say {want}"
            for aid, want in expected.items()
            if got[aid].get("balance") != want]


def _double_deposits(ops: list[Op], outcome: Outcome) -> int:
    """Tokens credited more than once (a replay shares its original's payload)."""
    accepted: dict[int, int] = {}
    for op, status in zip(ops, outcome.status):
        if op.kind == "deposit" and status == "OK":
            accepted[id(op.payload)] = accepted.get(id(op.payload), 0) + 1
    return sum(1 for count in accepted.values() if count > 1)


def _cpu_delta(before: dict[int, float], after: dict[int, float],
               roots: list[int]) -> dict[str, float]:
    spent = {pid: cpu - before.get(pid, 0.0) for pid, cpu in after.items()}
    root = sum(cpu for pid, cpu in spent.items() if pid in roots)
    return {"tree_s": sum(spent.values()), "root_s": root,
            "children_s": sum(spent.values()) - root}


# -- single node ----------------------------------------------------------------
def _run_single(workload: Workload, seed: int, seconds: float, work: str, *,
                traced: bool, setup_repeats: int, spans_path: str | None,
                deadline: float, watchdog: float) -> dict:
    params, _keypair = derive_market(seed)
    setups, server = [], None
    try:
        for _ in range(setup_repeats):
            if server is not None:
                server.stop()
            server = ServerProcess(workload, seed, work, traced=traced,
                                   spans_path=spans_path)
            setups.append((server.setup_s, server.setup_raw_s))

        generated = time.perf_counter()
        with ServiceClient(server.address, timeout=deadline) as gateway:
            opening, tokens, spend_s = _open_and_mint(gateway, workload, seed,
                                                      seconds)
        ops = workload.trace(tokens, seed, seconds, params)
        frames = encode_ops(ops, workload.name)
        tracegen_s = time.perf_counter() - generated

        async def drive():
            client = LoadClient(server.address, deadline=deadline,
                                watchdog=watchdog)
            await client.connect()
            try:
                server.command("mark")
                cpu0 = procstat.tree_cpu([server.pid])
                # a collection over the minted tokens would stall the
                # generator for milliseconds in the middle of the window
                gc.disable()
                try:
                    with SpeedProbe() as probe:
                        if workload.loop == "open":
                            outcome = await client.run_open(ops, frames)
                        else:
                            outcome = await client.run_closed(
                                ops, frames, workload.window)
                finally:
                    gc.enable()
                cpu = _cpu_delta(cpu0, procstat.tree_cpu([server.pid]),
                                 [server.pid])
                rss = procstat.tree_peak_rss_mb([server.pid])
                report = server.command("report", timeout=30.0)
                problems = []
                audit = await client.request("audit", {}, sender="auditor")
                if audit.get("status") != "OK" or not audit.get("clean"):
                    problems.append(f"audit not clean: {audit}")
                expected = _expected_balances(workload, opening, ops, outcome,
                                              seconds)
                problems += _balance_problems(expected, {
                    aid: await client.request("balance", {"aid": aid},
                                              sender="auditor")
                    for aid in expected})
                return outcome, probe.slowdown, cpu, rss, report, problems
            finally:
                await client.close()

        outcome, slowdown, cpu, rss, report, problems = asyncio.run(drive())
    finally:
        if server is not None:
            server.stop()
    counters = report["counters"]
    return _record(
        workload, seed, seconds, traced, ops, outcome, problems,
        setups=setups, slowdown=slowdown, cpu=cpu, rss=rss, server=report,
        journal_bytes=counters["wal_bytes"],
        journal_records=counters["journal_records"],
        client_layers={"client.tracegen_s": tracegen_s,
                       "client.create_spend_ms_per_token": spend_s * 1e3},
    )


# -- cluster --------------------------------------------------------------------
def _run_cluster(workload: Workload, seed: int, seconds: float, work: str, *,
                 traced: bool, setup_repeats: int, spans_path: str | None,
                 deadline: float, watchdog: float) -> dict:
    params, keypair = derive_market(seed)
    refreshes = [0]
    setups, cluster, router = [], None, None
    try:
        for attempt in range(setup_repeats):
            if cluster is not None:
                router.close()
                cluster.close()
            launched = time.perf_counter()
            before = set(procstat.tree_pids([os.getpid()]))
            with SpeedProbe() as probe:
                try:
                    cluster = ProcessCluster(
                        params, keypair,
                        os.path.join(work, f"cluster{attempt}"), n_nodes=3)
                except BaseException:
                    # a constructor that gives up has already spawned its
                    # nodes and keeps the only reference to them
                    cluster = None
                    procstat.kill_tree(sorted(
                        set(procstat.tree_pids([os.getpid()])) - before))
                    raise

                def refresh(cluster=cluster):
                    refreshes[0] += 1
                    return cluster.map

                router = cluster.router(timeout=deadline, attempts=1,
                                        refresh_attempts=1, refresh=refresh)
                router.audit()  # one reply from every node
                raw = time.perf_counter() - launched
            setups.append((raw / probe.slowdown, raw))
        roots = [proc.pid for proc in cluster.procs.values()]

        generated = time.perf_counter()
        opening, tokens, spend_s = _open_and_mint(router, workload, seed, seconds)
        ops = workload.trace(tokens, seed, seconds, params)
        tracegen_s = time.perf_counter() - generated

        tracer = Tracer()
        if traced:
            tracer.wrap(router, "request", "router.request",
                        cid=lambda args, kwargs: kwargs.get("rid"))
            tracer.wrap(router, "key_of", "router.key_of")
            tracer.reset()
        cpu0 = procstat.tree_cpu(roots)
        with SpeedProbe() as probe:
            outcome = run_sequential(router, ops, workload.name,
                                     deadline=deadline, watchdog=watchdog)
        cpu = _cpu_delta(cpu0, procstat.tree_cpu(roots), roots)
        rss = procstat.tree_peak_rss_mb(roots)
        tracer.enabled = False
        if traced and spans_path:
            tracer.dump(spans_path)

        problems = []
        audit = router.audit()
        if not audit.get("clean"):
            problems.append(f"cluster audit not clean: {audit}")
        expected = _expected_balances(workload, opening, ops, outcome, seconds)
        problems += _balance_problems(expected, {
            aid: router.request("balance", {"aid": aid}, sender="auditor")
            for aid in expected})
        # the nodes' journals are in memory: size the window's records as
        # the segment files would frame them (4-byte length + 8-byte digest)
        window = [state for states in cluster.dump_journals().values()
                  for state in states
                  if state["rid"].startswith(workload.name + ":")]
        journal_bytes = sum(12 + encoded_size(state) for state in window)
        outcome.bytes_out = sum(map(len, encode_ops(ops, workload.name)))

        routed = time.perf_counter()
        for op in ops:
            router.map.owner_of(router.key_of(op.kind, op.payload))
        route_us = (time.perf_counter() - routed) * 1e6 / max(1, len(ops))
        client_layers = {
            "client.tracegen_s": tracegen_s,
            "client.create_spend_ms_per_token": spend_s * 1e3,
            "router.route_us_per_op": route_us,
            "router.retries": router.reroutes,
            "router.map_refreshes": refreshes[0],
            "replicate.records_shipped": len(window),
        }
    finally:
        if router is not None:
            router.close()
        if cluster is not None:
            cluster.close()
    if traced:
        reference = _reference_p50(seed, work, tokens, deadline)
        done = [s for s in outcome.latency if s is not None]
        client_layers["replicate.overhead_ms_p50"] = \
            quantile(done, 0.5) * 1e3 - reference
    return _record(
        workload, seed, seconds, traced, ops, outcome, problems,
        setups=setups, slowdown=probe.slowdown, cpu=cpu, rss=rss, server=None,
        journal_bytes=journal_bytes, journal_records=len(window),
        client_layers=client_layers,
    )


def _reference_p50(seed: int, work: str, tokens: list, deadline: float) -> float:
    """p50 (ms) of the same deposits, one at a time, against one plain node."""
    server = ServerProcess(WORKLOADS["deposit_closed"], seed, work, traced=False)
    try:
        with ServiceClient(server.address, timeout=deadline) as client:
            for aid in ACCOUNTS:
                client.request("open-account", {"aid": aid, "balance": 0},
                               sender=aid)
            samples = []
            for token in tokens[:_REFERENCE_DEPOSITS]:
                start = time.perf_counter()
                reply = client.request(
                    "deposit", {"aid": token.aid, "token": token.token},
                    sender=token.aid)
                if reply.get("status") == "OK":
                    samples.append(time.perf_counter() - start)
    finally:
        server.stop()
    return quantile(samples, 0.5) * 1e3


# -- the run record ---------------------------------------------------------------
def _record(workload: Workload, seed: int, seconds: float, traced: bool,
            ops: list[Op], outcome: Outcome, problems: list[str], *,
            setups: list[tuple[float, float]], slowdown: float, cpu: dict,
            rss: float, server: dict | None, journal_bytes: int,
            journal_records: int, client_layers: dict) -> dict:
    attempted = len(ops)
    journaled = sum(1 for op in ops if op.journaled)
    elapsed = outcome.finished - outcome.started
    done = [s for s in outcome.latency if s is not None]
    doubles = _double_deposits(ops, outcome)
    if doubles:
        problems.append(f"{doubles} token(s) credited more than once")
    problems = outcome.problems + problems

    # per-rate latency (ms) of the open loop, failures counting as missing
    # any limit; every other loop has no segments and reads 0 throughout
    ms = [[float("inf") if outcome.latency[i] is None
           else outcome.latency[i] * 1e3
           for i, op in enumerate(ops) if op.segment == s]
          if workload.loop == "open" else [] for s in range(len(OPEN_RATES))]
    rate_ok = 0.0
    for index, (rate, segment) in enumerate(zip(OPEN_RATES, ms)):
        backlog = outcome.backlog_at_segment_end.get(index, 0)
        if segment and quantile(segment, 0.95) <= SLO_MS \
                and backlog <= max(4, len(segment) // 20):
            rate_ok = rate
    lag_p99 = quantile(outcome.lag, 0.99) * 1e3
    open_layers = {
        "client.gen_lag_ms_p99": lag_p99,
        "open.slo_miss_share":
            sum(1 for segment in ms for v in segment if v > SLO_MS)
            / max(1, attempted),
        "open.rate_ok_ops_s": rate_ok,
        **{f"open.p{q}_ms_r{rate:.0f}": quantile(segment, q / 100)
           for rate, segment in zip(OPEN_RATES, ms) for q in (50, 95)},
    }
    valid = lag_p99 <= MAX_GEN_LAG_MS
    invalid_reason = None if valid else (
        f"generator lag p99 {lag_p99:.2f} ms exceeds {MAX_GEN_LAG_MS} ms: "
        f"the run measured the generator, not the server")

    throughput = len(done) / elapsed if elapsed > 0 else 0.0
    p50_ms = quantile(done, 0.50) * 1e3
    cpu_ms = cpu["tree_s"] * 1e3 / max(1, attempted)
    e2e = {
        "setup_s": statistics.median(scaled for scaled, _raw in setups),
        "setup_raw_s": statistics.median(raw for _scaled, raw in setups),
        # an open loop completes what it is offered unless the server falls
        # behind: its throughput is a rate, not a speed, and is not scaled
        "throughput_norm_ops_s":
            throughput if workload.loop == "open" else throughput * slowdown,
        "latency_p50_norm_ms": p50_ms / slowdown,
        "server_cpu_norm_ms_per_op": cpu_ms / slowdown,
        "box_slowdown": slowdown,
        "throughput_ops_s": throughput,
        "latency_p50_ms": p50_ms,
        "latency_p95_ms": quantile(done, 0.95) * 1e3,
        "latency_p99_ms": quantile(done, 0.99) * 1e3,
        "slo_miss_share": open_layers["open.slo_miss_share"],
        "rate_ok_ops_s": open_layers["open.rate_ok_ops_s"],
        "failed_share": outcome.failed / max(1, attempted),
        "server_cpu_ms_per_op": cpu_ms,
        "server_peak_rss_mb": rss,
        "journal_bytes_per_op": journal_bytes / max(1, journaled),
    }
    record = {
        "workload": {"name": workload.name, "frontend": workload.frontend,
                     "loop": workload.loop, "workers": workload.workers},
        "seed": seed, "seconds": seconds, "traced": traced,
        "valid": valid, "invalid_reason": invalid_reason,
        "correct": outcome.failed == 0 and not problems,
        "problems": problems[:12],
        "client": {
            "attempted": attempted, "failed": outcome.failed,
            "journaled": journaled, "latency_samples": len(done),
            "window_s": elapsed,
            "bytes_out": outcome.bytes_out, "bytes_in": outcome.bytes_in,
            "layer_metrics": {
                "router.route_us_per_op": 0.0, "router.retries": 0,
                "router.map_refreshes": 0, "replicate.overhead_ms_p50": 0.0,
                "replicate.records_shipped": 0,
                **open_layers, **client_layers,
            },
        },
        "setup_samples_s": [raw for _scaled, raw in setups],
        "cpu": cpu, "server": server, "journal_records": journal_records,
        "e2e": e2e,
    }
    if traced:
        record["per_layer"] = per_layer_metrics(record)
    return record


def run_workload(name: str, *, seed: int, seconds: float, traced: bool = False,
                 setup_repeats: int = 3, spans_path: str | None = None,
                 deadline: float = OP_DEADLINE_S,
                 watchdog: float = 90.0) -> dict:
    """Run workload *name* once; returns its run record.

    *seconds* scales the trace (the sizes in ``workloads.py`` are per
    second).  *setup_repeats* launches the server that many times and
    reports the median launch-to-first-reply time; the last launch is the
    one measured.  *deadline* bounds every operation and *watchdog* the
    whole timed window: what is unanswered by then is a failed operation.
    Set-up that cannot get an answer raises, after tearing everything down.
    """
    workload = WORKLOADS[name]
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    runner = _run_cluster if workload.frontend == "cluster" else _run_single
    try:
        return runner(workload, seed, seconds, work, traced=traced,
                      setup_repeats=max(1, setup_repeats),
                      spans_path=spans_path, deadline=deadline,
                      watchdog=watchdog)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run is using it
