"""Per-layer budget: what is wrapped, what is replayed, what is derived.

A layer is a module of ``src/repro``.  Three kinds of measurement feed
the per-layer metrics, all taken from the benchmark's own files:

* **spans** around the bound public methods of the objects ``serve.py``
  constructed (:class:`ServerProbe`) — time and thread CPU per call;
* **replays** after the window of what the run captured, through the
  module-level functions the front doors bind at import
  (``encode_frame``/``decode_frame``, ``codec.encode``/``decode``,
  ``batch_verify_spends``, ``cl_blind_issue``) — those cannot be
  shadowed on an instance, so they are timed on the run's own inputs;
* **public counters** the stack already keeps, read by ``serve.py``.

:func:`per_layer_metrics` turns one traced run into the named metrics;
:data:`PER_LAYER_UNITS` is the one list of their names.
"""

from __future__ import annotations

import math
import pickle
import random
import statistics
import time
from collections import deque
from typing import Any

from repro.crypto.cl_sig import cl_blind_issue
from repro.ecash.batch import batch_verify_spends
from repro.ecash.dec import DoubleSpendError
from repro.ecash.spend import verify_spend
from repro.metrics.parallel import sweep_points
from repro.net.codec import decode, encode
from repro.net.wire import decode_frame, encode_frame
from repro.service.batcher import DepositOutcome

from benchmarks.e2e.tracing import Tracer, self_times

__all__ = ["ServerProbe", "per_layer_metrics", "PER_LAYER_UNITS", "LAYERS",
           "quantile"]

#: span name -> layer whose self time it feeds
SPAN_LAYER = {
    "service.submit": "dispatch",
    "service.drain": "dispatch",
    "service.step": "dispatch",
    "admission.admit": "admission",
    "batcher.submit": "batcher",
    "batcher.flush": "batcher",
    "backend.run": "verify",
    "shard.apply": "shard",
    "journal.append": "journal",
    "maintenance.run": "maintenance",
    "reply.send": "reply",
}
#: every layer of the budget; ``frontdoor`` is thread CPU outside any
#: span (readers, event loop, dispatcher glue), ``workers`` is the CPU of
#: the server's child processes, ``unaccounted`` is the externally
#: measured process-tree CPU minus all of the above
LAYERS = ("dispatch", "admission", "batcher", "verify", "shard", "journal",
          "maintenance", "reply", "frontdoor", "workers", "unaccounted")

_SAMPLE = 128          # request / reply frames kept for the wire replays
_TOKENS_PER_LEVEL = 16  # tokens kept per node level for the verify replay

PER_LAYER_UNITS: dict[str, str] = {
    "wire.decode_us_per_frame": "us", "wire.encode_us_per_frame": "us",
    "wire.bytes_in_per_op": "B", "wire.bytes_out_per_op": "B",
    "codec.decode_us_per_kb": "us/KB", "codec.encode_us_per_kb": "us/KB",
    "frontdoor.busy_ms_per_op": "ms", "frontdoor.conn_errors": "count",
    "frontdoor.pauses": "count", "frontdoor.preparse_busy": "count",
    "dispatch.batch_size_mean": "count", "dispatch.backlog_max": "count",
    "dispatch.submit_us_per_op": "us",
    "admission.us_per_op": "us", "admission.shed": "count",
    "batcher.wait_ms_p50": "ms", "batcher.wait_ms_p99": "ms",
    "batcher.flushes": "count", "batcher.batch_size_mean": "count",
    "verify.ms_per_token": "ms",
    "verify.ms_per_token_l0": "ms", "verify.ms_per_token_l1": "ms",
    "verify.ms_per_token_l2": "ms", "verify.ms_per_token_l3": "ms",
    "verify.withdraw_ms_per_job": "ms", "verify.invalid_tokens": "count",
    "workers.chunks": "count", "workers.run_ms_per_flush": "ms",
    "workers.pickle_bytes_per_chunk": "B", "workers.degraded": "count",
    "fastexp.table_hit_ratio": "ratio", "fastexp.table_builds": "count",
    "shard.apply_us_per_op": "us", "shard.rejected_double_spends": "count",
    "journal.append_us_per_record": "us", "journal.records_per_op": "count",
    "journal.segments_written": "count", "journal.checkpoints": "count",
    "journal.compactions": "count", "journal.maintenance_ms_total": "ms",
    "journal.maintenance_stall_ms_max": "ms",
    "reply.write_us_per_op": "us", "reply.dedup_hits": "count",
    "router.route_us_per_op": "us", "router.retries": "count",
    "router.map_refreshes": "count",
    "replicate.overhead_ms_p50": "ms", "replicate.records_shipped": "count",
    "client.create_spend_ms_per_token": "ms", "client.gen_lag_ms_p99": "ms",
    "client.tracegen_s": "s",
    "open.p50_ms_r25": "ms", "open.p95_ms_r25": "ms",
    "open.p50_ms_r50": "ms", "open.p95_ms_r50": "ms",
    "open.slo_miss_share": "ratio", "open.rate_ok_ops_s": "1/s",
    # the traced run's own end-to-end readings, as measured (unscaled)
    "e2e.throughput_ops_s": "1/s", "e2e.latency_p50_ms": "ms",
    "e2e.latency_p95_ms": "ms", "e2e.latency_p99_ms": "ms",
    "e2e.server_cpu_ms_per_op": "ms", "e2e.box_slowdown": "ratio",
    "e2e.failed_share": "ratio",
    **{f"layer.share.{layer}": "ratio" for layer in LAYERS},
}


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (always an observed sample); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) - 1e-9)  # 0.95 * 100 is 94.99999...
    return ordered[max(rank, 1) - 1]


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


class ServerProbe:
    """Wraps the stack's public methods; owns what the wrappers collect."""

    def __init__(self, stack: dict) -> None:
        self.tracer = tracer = Tracer()
        service, batcher = stack["service"], stack["batcher"]
        bank, journal = stack["bank"], stack["journal"]
        self._batcher = batcher
        self._core = stack["frontend"].core
        self._submitted: deque[float] = deque()
        self.waits: list[float] = []
        self.invalid_tokens = 0
        self.rejected = 0
        self.drains = 0
        self.backlog_max = 0
        self.chunks = 0
        self.deposit_only = [0.0, 0]      # backend.run wall, tokens
        self.maintenance = [0.0, 0.0]     # total, longest
        self.requests: list[Any] = []
        self.replies: list[Any] = []
        self.tokens: dict[int, list] = {}
        self.withdraw_requests: list[Any] = []
        self.grids: list[tuple] = []

        rid_kw = lambda args, kwargs: kwargs.get("rid") or None  # noqa: E731
        tracer.wrap(service, "submit", "service.submit", cid=rid_kw)
        tracer.wrap(service, "drain", "service.drain", before=self._drain)
        tracer.wrap(service, "step", "service.step")
        tracer.wrap(service.admission, "admit", "admission.admit")
        tracer.wrap(batcher, "submit", "batcher.submit", before=self._job_in)
        tracer.wrap(batcher, "flush", "batcher.flush",
                    before=self._flush_begin, after=self._flush_end)
        tracer.wrap(batcher.backend, "run", "backend.run",
                    before=self._grid, after=self._grid_done)
        for method in ("apply_deposit", "apply_withdrawal", "open_account"):
            tracer.wrap(bank, method, "shard.apply", cid=rid_kw,
                        after=self._applied)
        tracer.wrap(journal, "append", "journal.append",
                    cid=lambda args, kwargs: args[1] or None)
        tracer.wrap(stack["maintenance"], "run", "maintenance.run",
                    after=self._maintained)
        self._wrap_enqueue()

    # -- hooks ------------------------------------------------------------
    def _wrap_enqueue(self) -> None:
        """Capture request samples; wrap each connection's ``send`` once.

        Connections are created inside the front door, so the first
        request a connection enqueues is where its ``send`` is shadowed.
        """
        core, tracer = self._core, self.tracer
        enqueue = core.enqueue
        seen: set[int] = set()

        def traced_enqueue(conn, request):
            if id(conn) not in seen:
                seen.add(id(conn))
                tracer.wrap(conn, "send", "reply.send",
                            cid=lambda args, kwargs: args[0].get("cid"),
                            before=self._reply)
            if tracer.enabled and len(self.requests) < _SAMPLE:
                self.requests.append(request)
            enqueue(conn, request)

        core.enqueue = traced_enqueue

    def _reply(self, args, kwargs) -> None:
        if len(self.replies) < _SAMPLE:
            self.replies.append(args[0])

    def _drain(self, args, kwargs) -> None:
        self.drains += 1
        self.backlog_max = max(self.backlog_max, self._core.backlog)

    def _job_in(self, args, kwargs) -> None:
        self._submitted.append(time.perf_counter())

    def _flush_begin(self, args, kwargs) -> None:
        now = time.perf_counter()
        for _ in range(min(self._batcher.max_batch, len(self._submitted))):
            self.waits.append(now - self._submitted.popleft())

    def _flush_end(self, token, outcomes, wall) -> None:
        if isinstance(outcomes, list):
            self.invalid_tokens += sum(
                1 for o in outcomes
                if isinstance(o, DepositOutcome) and not o.valid)

    def _grid(self, args, kwargs) -> int:
        """Note one dispatched grid; returns its token count (0 if mixed)."""
        worker, grid = args[0], args[1]
        self.chunks += len(grid)
        tokens = 0
        for point in grid:
            if point[0] == "deposit":
                tokens += len(point[3])
                for token in point[3]:
                    held = self.tokens.setdefault(token.node.level, [])
                    if len(held) < _TOKENS_PER_LEVEL:
                        held.append(token)
            elif len(self.withdraw_requests) < 8:
                self.withdraw_requests.extend(point[3][:2])
        if len(self.grids) < 4:
            self.grids.append((worker, list(grid), kwargs.get("seed", 0)))
        deposits_only = all(point[0] == "deposit" for point in grid)
        return tokens if deposits_only else 0

    def _grid_done(self, tokens, result, wall) -> None:
        if tokens:
            self.deposit_only[0] += wall
            self.deposit_only[1] += tokens

    def _applied(self, token, result, wall) -> None:
        if isinstance(result, DoubleSpendError):
            self.rejected += 1

    def _maintained(self, token, ran, wall) -> None:
        if ran is True:
            self.maintenance[0] += wall
            self.maintenance[1] = max(self.maintenance[1], wall)

    # -- window -------------------------------------------------------------
    def start(self) -> None:
        self._submitted.clear()
        self.tracer.reset()

    def stop(self) -> None:
        self.tracer.enabled = False

    # -- report -------------------------------------------------------------
    def report(self, stack: dict) -> dict:
        """Span aggregates, hook counters and the post-window replays."""
        spans = self_times(self.tracer.spans)
        batch = _per(stack["batcher"].jobs_processed, stack["batcher"].flushes)
        return {
            "spans": spans,
            "span_count": len(self.tracer.spans),
            "waits_ms": [quantile(self.waits, 0.50) * 1e3,
                         quantile(self.waits, 0.99) * 1e3],
            "invalid_tokens": self.invalid_tokens,
            "rejected": self.rejected,
            "drains": self.drains,
            "backlog_max": self.backlog_max,
            "chunks": self.chunks,
            "deposit_only": self.deposit_only,
            "maintenance_ms": [self.maintenance[0] * 1e3,
                               self.maintenance[1] * 1e3],
            "replay": {
                **_replay_wire(self.requests, self.replies),
                **_replay_verify(stack, self.tokens, max(1, round(batch))),
                "withdraw_ms": _replay_withdraw(stack, self.withdraw_requests),
                "pickle_bytes_per_chunk": _pickle_bytes(self.grids),
            },
        }


def _time_each(fn, items, *, repeat: int = 3) -> float:
    """Median over *repeat* passes of the mean seconds ``fn(item)`` takes."""
    if not items:
        return 0.0
    passes = []
    for _ in range(repeat):
        start = time.perf_counter()
        for item in items:
            fn(item)
        passes.append((time.perf_counter() - start) / len(items))
    return statistics.median(passes)


def _replay_wire(requests: list, replies: list) -> dict:
    frames = [encode_frame(request) for request in requests]
    payloads = [encode(request.get("payload")) for request in requests
                if isinstance(request, dict)]
    values = [decode(payload) for payload in payloads]
    kb = _per(sum(len(p) for p in payloads), len(payloads)) / 1024
    return {
        "wire_decode_us": _time_each(decode_frame, frames) * 1e6,
        "wire_encode_us": _time_each(encode_frame, replies) * 1e6,
        "codec_decode_us_per_kb": _per(_time_each(decode, payloads) * 1e6, kb),
        "codec_encode_us_per_kb": _per(_time_each(encode, values) * 1e6, kb),
    }


def _replay_verify(stack: dict, tokens: dict[int, list], batch: int) -> dict:
    """Verify cost per node level, at the run's own mean batch size."""
    params, public = stack["params"], stack["keypair"].public
    out = {}
    for level in range(params.tree_level + 1):
        held = tokens.get(level, [])[:batch]
        if not held:
            out[f"verify_ms_l{level}"] = 0.0
            continue
        start = time.perf_counter()
        if len(held) > 1:  # the same switch the batcher's chunk worker makes
            verdicts = batch_verify_spends(params, public, held,
                                           random.Random(level))
        else:
            verdicts = [verify_spend(params, public, held[0])]
        elapsed = time.perf_counter() - start
        if not all(verdicts):
            raise RuntimeError(f"replayed level-{level} tokens did not verify")
        out[f"verify_ms_l{level}"] = elapsed * 1e3 / len(held)
    return out


def _replay_withdraw(stack: dict, requests: list) -> float:
    params, keypair, rng = stack["params"], stack["keypair"], random.Random(0)
    return _time_each(
        lambda request: cl_blind_issue(params.backend, keypair, request, rng),
        requests, repeat=1) * 1e3


def _pickle_bytes(grids: list[tuple]) -> float:
    """Bytes one chunk costs to ship to a pool worker."""
    sizes = [len(pickle.dumps((worker, point)))
             for worker, grid, seed in grids
             for point in sweep_points(grid, seed)]
    return _per(sum(sizes), len(sizes))


# -- from one traced run to the named metrics -------------------------------
def per_layer_metrics(run: dict) -> dict[str, float]:
    """Every name in :data:`PER_LAYER_UNITS`, from a run record.

    *run* is what :func:`benchmarks.e2e.harness.run_workload` assembled:
    the client's view (``client``), the server's report (``server``,
    empty for the cluster, whose nodes are not wrapped), the externally
    measured CPU (``cpu``) and the ``e2e`` metrics.  Metrics of a layer
    the workload never touches are 0.
    """
    client, server, cpu = run["client"], run.get("server") or {}, run["cpu"]
    counters = server.get("counters", {})
    layers = server.get("layers", {})
    spans = layers.get("spans", {})
    replay = layers.get("replay", {})
    ops = max(1, client["attempted"])
    journaled = max(1, client["journaled"])

    def span(name: str, field: str = "wall_s") -> float:
        return spans.get(name, {}).get(field, 0.0)

    def calls(name: str) -> float:
        return spans.get(name, {}).get("calls", 0)

    layer_cpu = {layer: 0.0 for layer in LAYERS}
    for name, row in spans.items():
        layer_cpu[SPAN_LAYER[name]] += row["self_cpu_s"]
    threads_cpu = sum(server.get("thread_cpu_s", {}).values())
    layer_cpu["frontdoor"] = max(0.0, threads_cpu - sum(layer_cpu.values()))
    layer_cpu["workers"] = cpu["children_s"]
    # signed: thread clocks and /proc ticks are separate instruments, so
    # the budget can overshoot the tree's CPU by their disagreement.  The
    # cluster's nodes are not wrapped, so all of their CPU lands here.
    layer_cpu["unaccounted"] = cpu["tree_s"] - sum(layer_cpu.values())
    tree = cpu["tree_s"] or 1.0

    pooled = counters.get("pool_workers", 1) > 1
    run_calls = calls("backend.run")
    tokens_wall, tokens = layers.get("deposit_only", [0.0, 0])
    lookups = counters.get("table_hits", 0) + counters.get("table_misses", 0)
    out = {
        "wire.decode_us_per_frame": replay.get("wire_decode_us", 0.0),
        "wire.encode_us_per_frame": replay.get("wire_encode_us", 0.0),
        "wire.bytes_in_per_op": client["bytes_out"] / ops,
        "wire.bytes_out_per_op": client["bytes_in"] / ops,
        "codec.decode_us_per_kb": replay.get("codec_decode_us_per_kb", 0.0),
        "codec.encode_us_per_kb": replay.get("codec_encode_us_per_kb", 0.0),
        "frontdoor.busy_ms_per_op": layer_cpu["frontdoor"] * 1e3 / ops,
        "frontdoor.conn_errors": counters.get("conn_errors", 0),
        "frontdoor.pauses": counters.get("pauses", 0),
        "frontdoor.preparse_busy": counters.get("preparse_busy", 0),
        "dispatch.batch_size_mean": _per(calls("service.submit"),
                                         layers.get("drains", 0)),
        "dispatch.backlog_max": layers.get("backlog_max", 0),
        "dispatch.submit_us_per_op": _per(span("service.submit", "self_wall_s"),
                                          calls("service.submit")) * 1e6,
        "admission.us_per_op": _per(span("admission.admit"),
                                    calls("admission.admit")) * 1e6,
        "admission.shed": counters.get("shed", 0),
        "batcher.wait_ms_p50": layers.get("waits_ms", [0.0, 0.0])[0],
        "batcher.wait_ms_p99": layers.get("waits_ms", [0.0, 0.0])[1],
        "batcher.flushes": counters.get("flushes", 0),
        "batcher.batch_size_mean": _per(counters.get("jobs", 0),
                                        counters.get("flushes", 0)),
        "verify.ms_per_token": _per(tokens_wall, tokens) * 1e3,
        **{f"verify.ms_per_token_l{level}":
           replay.get(f"verify_ms_l{level}", 0.0) for level in range(4)},
        "verify.withdraw_ms_per_job": replay.get("withdraw_ms", 0.0),
        "verify.invalid_tokens": layers.get("invalid_tokens", 0),
        "workers.chunks": layers.get("chunks", 0) if pooled else 0,
        "workers.run_ms_per_flush":
            _per(span("backend.run"), run_calls) * 1e3 if pooled else 0.0,
        "workers.pickle_bytes_per_chunk":
            replay.get("pickle_bytes_per_chunk", 0.0) if pooled else 0.0,
        "workers.degraded": counters.get("pool_degraded", 0),
        "fastexp.table_hit_ratio": _per(counters.get("table_hits", 0), lookups),
        "fastexp.table_builds": counters.get("table_builds", 0),
        "shard.apply_us_per_op": _per(span("shard.apply", "self_wall_s"),
                                      calls("shard.apply")) * 1e6,
        "shard.rejected_double_spends": layers.get("rejected", 0),
        "journal.append_us_per_record": _per(span("journal.append"),
                                             calls("journal.append")) * 1e6,
        "journal.records_per_op": run["journal_records"] / journaled,
        "journal.segments_written": counters.get("journal_segments", 0),
        "journal.checkpoints": counters.get("checkpoints", 0),
        "journal.compactions": counters.get("journal_compactions", 0),
        "journal.maintenance_ms_total": layers.get("maintenance_ms", [0, 0])[0],
        "journal.maintenance_stall_ms_max":
            layers.get("maintenance_ms", [0, 0])[1],
        "reply.write_us_per_op": _per(span("reply.send"),
                                      calls("reply.send")) * 1e6,
        "reply.dedup_hits": counters.get("dedup_hits", 0),
        **{f"e2e.{name}": run["e2e"][name] for name in (
            "throughput_ops_s", "latency_p50_ms", "latency_p95_ms",
            "latency_p99_ms", "server_cpu_ms_per_op", "box_slowdown",
            "failed_share")},
        **{f"layer.share.{layer}": value / tree
           for layer, value in layer_cpu.items()},
    }
    # router.*, replicate.*, client.* and open.* are measured by the load
    # generator process itself
    out.update(client["layer_metrics"])
    missing = PER_LAYER_UNITS.keys() - out.keys()
    if missing:
        raise KeyError(f"per-layer metrics not produced: {sorted(missing)}")
    return out
