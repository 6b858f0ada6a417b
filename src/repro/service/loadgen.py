"""Load generation against the market service, with latency reporting.

Drives a :class:`~repro.service.server.MarketService` with request
traffic shaped by the workload layer — arrival processes from
:mod:`repro.workloads.arrivals` set *when* requests land (and thus how
admission and batching behave), market compositions from
:mod:`repro.workloads.population` set who is depositing — and records
what a production operator would: per-request latency quantiles
(p50/p95/p99), throughput, shed counts, and SLO verdicts via
:mod:`repro.metrics.latency`.

Two clocks coexist deliberately.  The **arrival clock** is simulated
(the trace's timestamps feed admission's token bucket), because waiting
out a real Poisson process would measure ``sleep()``.  **Latency** is
wall-clock from accept to reply — the real cost of queueing behind a
batch plus the crypto itself — under as-fast-as-possible replay.

:func:`mint_deposit_traffic` does the client-side work (withdrawals,
wallet allocation, spend-token minting) out of band: load generation
measures the *bank*, so the clients arrive with tokens already minted,
exactly like real SPs who minted while sensing.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from dataclasses import dataclass

from repro.crypto.cl_sig import cl_blind_issue
from repro.ecash.dec import begin_withdrawal, finish_withdrawal
from repro.ecash.spend import create_spend
from repro.metrics.latency import LatencyRecorder, LatencyReport, SLOTarget
from repro.net.wire import WireError, read_frame_async, write_frame_async
from repro.service.frontend import ServiceClient
from repro.service.server import Completion, MarketService

__all__ = [
    "Request",
    "LoadReport",
    "mint_deposit_traffic",
    "mint_offline_deposit_traffic",
    "mint_cluster_deposit_traffic",
    "run_trace",
    "run_socket_trace",
    "run_async_socket_trace",
    "run_cluster_trace",
]


@dataclass(frozen=True)
class Request:
    """One request the generator will submit.

    *rid* is the stable request id; ``None`` lets each backend mint
    its own.  Traces that pin rids replay with exactly-once semantics
    (retries and duplicates collapse onto one verdict), which is what
    the campaign engine and the fault scenarios need.
    """

    sender: str
    kind: str
    payload: dict
    rid: str | None = None


@dataclass(frozen=True)
class LoadReport:
    """Everything a load run observed."""

    latency: LatencyReport | None
    wall_elapsed: float
    submitted: int
    ok: int
    shed: int
    rejected: int
    errors: int
    slo_findings: tuple[str, ...]

    @property
    def completed(self) -> int:
        return self.ok + self.rejected + self.errors

    @property
    def slo_met(self) -> bool:
        return not self.slo_findings


def mint_deposit_traffic(
    service: MarketService,
    rng: random.Random,
    *,
    n_accounts: int,
    n_deposits: int,
    node_level: int | None = None,
    replay_fraction: float = 0.0,
    context: bytes = b"",
) -> list[Request]:
    """Fund accounts, withdraw coins, mint tokens; return deposit requests.

    Each account withdraws as many coins as its share of the traffic
    needs; tokens are minted round-robin across accounts so consecutive
    requests come from different senders (the worst case for per-sender
    FIFO).  With *replay_fraction* > 0, that fraction of the requests
    re-submit an earlier token — guaranteed double spends the service
    must reject.
    """
    params = service.bank.params
    bank = service.bank
    denomination, coin_value, per_account, coins_per_account, n_fresh, n_replays = \
        _traffic_shape(params, n_accounts, n_deposits, node_level, replay_fraction)

    by_account: list[list[Request]] = []
    for i in range(n_accounts):
        aid = f"sp{i}"
        bank.open_account(aid, coins_per_account * coin_value)
        mine: list[Request] = []
        for _ in range(coins_per_account):
            secret, request = begin_withdrawal(params, rng)
            signature = cl_blind_issue(params.backend, bank.keypair, request, rng)
            coin = finish_withdrawal(params, bank.public_key, secret, signature)
            bank.apply_withdrawal(aid)
            wallet = coin.wallet()
            while len(mine) < per_account and wallet.balance >= denomination:
                node = wallet.allocate(denomination)
                token = create_spend(
                    params, bank.public_key, coin.secret, coin.signature, node, rng
                )
                mine.append(
                    Request(sender=aid, kind="deposit",
                            payload={"aid": aid, "token": token, "context": context})
                )
        by_account.append(mine)

    # interleave senders round-robin so consecutive arrivals alternate
    # accounts (the worst case for per-sender FIFO)
    return _interleave_deposits(by_account, per_account,
                                n_fresh, n_replays, rng)


def _traffic_shape(params, n_accounts: int, n_deposits: int,
                   node_level: int | None, replay_fraction: float):
    """Validate the workload knobs; return the denomination arithmetic."""
    if n_accounts < 1 or n_deposits < 1:
        raise ValueError("need at least one account and one deposit")
    if not 0.0 <= replay_fraction < 1.0:
        raise ValueError("replay_fraction must be in [0, 1)")
    level = params.tree_level
    depth = level if node_level is None else node_level
    if not 0 <= depth <= level:
        raise ValueError(f"node_level must be in [0, {level}]")
    denomination = 1 << (level - depth)
    tokens_per_coin = 1 << depth
    coin_value = 1 << level
    n_replays = int(n_deposits * replay_fraction)
    n_fresh = n_deposits - n_replays
    per_account = -(-n_fresh // n_accounts)
    coins_per_account = -(-per_account // tokens_per_coin)
    return denomination, coin_value, per_account, coins_per_account, n_fresh, n_replays


def _interleave_deposits(by_account: list[list[Request]], per_account: int,
                         n_fresh: int, n_replays: int,
                         rng: random.Random) -> list[Request]:
    """Round-robin senders; splice in replayed (double-spend) requests."""
    fresh = [
        by_account[i][j]
        for j in range(per_account)
        for i in range(len(by_account))
        if j < len(by_account[i])
    ][:n_fresh]
    requests = list(fresh)
    for _ in range(n_replays):
        victim = fresh[rng.randrange(len(fresh))]
        requests.insert(rng.randrange(len(requests) + 1), victim)
    return requests


def mint_offline_deposit_traffic(
    params,
    keypair,
    rng: random.Random,
    *,
    n_accounts: int,
    n_deposits: int,
    node_level: int | None = None,
    replay_fraction: float = 0.0,
    context: bytes = b"",
) -> tuple[list[Request], list[Request]]:
    """Mint deposit traffic with the issuing key alone — no bank touched.

    Returns ``(open_requests, deposit_requests)``: the account-opening
    requests to replay first, then the deposits.  Issuance happens
    entirely client-side (the test harness holds the CL secrets), so
    the *same* request lists can be replayed against two independent
    services — the parity suite's tool for proving a cluster's replies
    byte-identical to a single node's.  The books don't conserve under
    this traffic (coins appear without withdrawal debits); use
    :func:`mint_cluster_deposit_traffic` when the sweep will check
    conservation.
    """
    denomination, coin_value, per_account, coins_per_account, n_fresh, n_replays = \
        _traffic_shape(params, n_accounts, n_deposits, node_level, replay_fraction)
    opens: list[Request] = []
    by_account: list[list[Request]] = []
    for i in range(n_accounts):
        aid = f"sp{i}"
        opens.append(Request(
            sender=aid, kind="open-account",
            payload={"aid": aid, "balance": coins_per_account * coin_value},
        ))
        mine: list[Request] = []
        for _ in range(coins_per_account):
            secret, request = begin_withdrawal(params, rng)
            signature = cl_blind_issue(params.backend, keypair, request, rng)
            coin = finish_withdrawal(params, keypair.public, secret, signature)
            wallet = coin.wallet()
            while len(mine) < per_account and wallet.balance >= denomination:
                node = wallet.allocate(denomination)
                token = create_spend(
                    params, keypair.public, coin.secret, coin.signature, node, rng
                )
                mine.append(
                    Request(sender=aid, kind="deposit",
                            payload={"aid": aid, "token": token, "context": context})
                )
        by_account.append(mine)
    return opens, _interleave_deposits(by_account, per_account,
                                       n_fresh, n_replays, rng)


def mint_cluster_deposit_traffic(
    router,
    params,
    public_key,
    rng: random.Random,
    *,
    n_accounts: int,
    n_deposits: int,
    node_level: int | None = None,
    replay_fraction: float = 0.0,
    context: bytes = b"",
) -> list[Request]:
    """Fund, withdraw and mint **over the wire**; return deposit requests.

    The cluster twin of :func:`mint_deposit_traffic`: that one reaches
    into ``service.bank`` directly, which no remote node allows, so
    here every account is opened and every coin withdrawn through the
    *router* — the blind-issuance signature comes back in the withdraw
    verdict and the client finishes the coin locally, exactly the
    paper's withdrawal protocol.  Books conserve (every deposited token
    traces to a journaled withdrawal debit on its account's node), so
    the cluster invariant sweep can hold conservation over the result.
    """
    denomination, coin_value, per_account, coins_per_account, n_fresh, n_replays = \
        _traffic_shape(params, n_accounts, n_deposits, node_level, replay_fraction)
    by_account: list[list[Request]] = []
    for i in range(n_accounts):
        aid = f"sp{i}"
        reply = router.request(
            "open-account",
            {"aid": aid, "balance": coins_per_account * coin_value},
            sender=aid,
        )
        if reply.get("status") != "OK":
            raise RuntimeError(f"open-account for {aid!r} failed: {reply}")
        mine: list[Request] = []
        for _ in range(coins_per_account):
            secret, request = begin_withdrawal(params, rng)
            reply = router.request("withdraw", {"aid": aid, "request": request},
                                   sender=aid)
            if reply.get("status") != "OK":
                raise RuntimeError(f"withdraw for {aid!r} failed: {reply}")
            coin = finish_withdrawal(params, public_key, secret,
                                     reply["signature"])
            wallet = coin.wallet()
            while len(mine) < per_account and wallet.balance >= denomination:
                node = wallet.allocate(denomination)
                token = create_spend(
                    params, public_key, coin.secret, coin.signature, node, rng
                )
                mine.append(
                    Request(sender=aid, kind="deposit",
                            payload={"aid": aid, "token": token, "context": context})
                )
        by_account.append(mine)
    return _interleave_deposits(by_account, per_account,
                                n_fresh, n_replays, rng)


def run_trace(
    service: MarketService,
    requests: list[Request],
    arrivals: list[float],
    *,
    slo: SLOTarget | None = None,
) -> LoadReport:
    """Replay *requests* at *arrivals* times; drain; report.

    The shorter of the two sequences bounds the run.  ``service.step``
    runs after every submission (so batches flush as soon as they
    fill), and the service is drained at the end — every admitted
    request is answered before the report is cut.
    """
    recorder = LatencyRecorder()
    counts = {"OK": 0, "BUSY": 0, "REJECTED": 0, "ERROR": 0}

    def observe(completion: Completion) -> None:
        counts[completion.status] = counts.get(completion.status, 0) + 1
        if completion.status != "BUSY":
            recorder.record(completion.latency)

    service.add_completion_observer(observe)
    wall_start = time.perf_counter()
    n = min(len(requests), len(arrivals))
    for request, at in zip(requests[:n], arrivals[:n]):
        service.submit(request.sender, request.kind, request.payload, now=at,
                       rid=request.rid)
        service.step()
    service.drain()
    wall_end = time.perf_counter()
    recorder.mark_span(wall_start, wall_end)

    report = recorder.report() if len(recorder) else None
    return LoadReport(
        latency=report,
        wall_elapsed=wall_end - wall_start,
        submitted=n,
        ok=counts["OK"],
        shed=counts["BUSY"],
        rejected=counts["REJECTED"],
        errors=counts["ERROR"],
        slo_findings=slo.check(report) if (slo is not None and report is not None) else (),
    )


def run_socket_trace(
    address: tuple[str, int],
    requests: list[Request],
    arrivals: list[float] | None = None,
    *,
    slo: SLOTarget | None = None,
    pipeline_depth: int = 64,
    timeout: float | None = 120.0,
) -> LoadReport:
    """Replay *requests* against a live socket front-end; drain; report.

    The service is a real network peer here: every request crosses the
    wire as a :mod:`repro.net.wire` frame and every verdict comes back
    as one.  Requests pipeline up to *pipeline_depth* outstanding on a
    single connection — deep enough to keep the front-end's dispatcher
    batching across the worker pool, bounded so latency numbers stay
    honest about queueing.  A reader thread correlates replies by
    ``cid`` (replies are not FIFO on the wire — BUSY sheds overtake
    batched deposits), so latency is wall-clock from frame-send to
    frame-receive, per request.

    *arrivals* feeds the service's simulated admission clock exactly as
    :func:`run_trace` does; ``None`` replays with all arrivals at 0.
    """
    if pipeline_depth < 1:
        raise ValueError("pipeline_depth must be positive")
    n = len(requests) if arrivals is None else min(len(requests), len(arrivals))
    recorder = LatencyRecorder()
    counts = {"OK": 0, "BUSY": 0, "REJECTED": 0, "ERROR": 0}
    sent_at: dict[int, float] = {}
    sent_lock = threading.Lock()  # orders "record send time" vs "pop it"
    window = threading.Semaphore(pipeline_depth)
    reader_error: list[BaseException] = []

    client = ServiceClient(address, timeout=timeout)

    def read_replies() -> None:
        try:
            for _ in range(n):
                reply = client.recv()
                done = time.perf_counter()
                status = reply.get("status", "ERROR")
                counts[status] = counts.get(status, 0) + 1
                with sent_lock:
                    start = sent_at.pop(reply.get("cid"), None)
                if status != "BUSY" and start is not None:
                    recorder.record(done - start)
                window.release()
        except BaseException as exc:  # surfaced to the submitting thread
            reader_error.append(exc)

    reader = threading.Thread(target=read_replies, name="loadgen-reader",
                              daemon=True)
    wall_start = time.perf_counter()
    reader.start()
    try:
        for i in range(n):
            window.acquire()
            if reader_error:
                raise reader_error[0]
            request = requests[i]
            at = arrivals[i] if arrivals is not None else 0.0
            with sent_lock:
                start = time.perf_counter()
                cid = client.send(request.kind, request.payload,
                                  sender=request.sender, now=at,
                                  rid=request.rid)
                sent_at[cid] = start
        reader.join(timeout=timeout)
        if reader.is_alive():
            raise TimeoutError(
                f"socket replay stalled: {len(sent_at)} replies outstanding"
            )
        if reader_error:
            raise reader_error[0]
    finally:
        client.close()
    wall_end = time.perf_counter()
    recorder.mark_span(wall_start, wall_end)

    report = recorder.report() if len(recorder) else None
    return LoadReport(
        latency=report,
        wall_elapsed=wall_end - wall_start,
        submitted=n,
        ok=counts["OK"],
        shed=counts["BUSY"],
        rejected=counts["REJECTED"],
        errors=counts["ERROR"],
        slo_findings=slo.check(report) if (slo is not None and report is not None) else (),
    )


def run_async_socket_trace(
    address: tuple[str, int],
    requests: list[Request],
    arrivals: list[float] | None = None,
    *,
    connections: int = 32,
    pipeline_depth: int = 8,
    slo: SLOTarget | None = None,
    timeout: float | None = 120.0,
) -> LoadReport:
    """Replay *requests* from many concurrent sockets; drain; report.

    The many-connection twin of :func:`run_socket_trace`: instead of
    one deep pipeline, the trace fans across *connections* sockets
    multiplexed on one client-side event loop — the same shape as a
    mobile-sensing population, many peers each a few requests deep.  Each sender is pinned to one connection
    (first appearance, round-robin), so per-sender request order is
    preserved on the wire and the service's per-sender FIFO still
    means what it means in the in-process harness.

    Replies correlate by ``cid`` per connection.  A reply *without* a
    cid is the front door's pre-parse ``BUSY`` (the payload holding
    the cid was never decoded); it is counted against the oldest
    outstanding request on that connection — the books stay balanced,
    the latency recorder skips it like any other shed.
    """
    if connections < 1:
        raise ValueError("connections must be positive")
    if pipeline_depth < 1:
        raise ValueError("pipeline_depth must be positive")
    n = len(requests) if arrivals is None else min(len(requests), len(arrivals))
    recorder = LatencyRecorder()
    counts: dict[str, int] = {"OK": 0, "BUSY": 0, "REJECTED": 0, "ERROR": 0}

    # pin each sender to one connection so its requests stay ordered
    assignment: dict[str, int] = {}
    per_conn: list[list[tuple[Request, float]]] = [[] for _ in range(connections)]
    for i in range(n):
        request = requests[i]
        at = arrivals[i] if arrivals is not None else 0.0
        slot = assignment.setdefault(request.sender, len(assignment) % connections)
        per_conn[slot].append((request, at))
    lanes = [lane for lane in per_conn if lane]

    async def drive(lane: list[tuple[Request, float]]) -> None:
        reader, writer = await asyncio.open_connection(*address)
        sent_at: dict[int, float] = {}
        window = asyncio.Semaphore(pipeline_depth)

        async def read_loop() -> None:
            remaining = len(lane)
            while remaining:
                reply = await read_frame_async(reader)
                if reply is None:
                    raise WireError("server closed the connection")
                done = time.perf_counter()
                status = reply.get("status", "ERROR")
                counts[status] = counts.get(status, 0) + 1
                cid = reply.get("cid")
                if cid is None and sent_at:
                    cid = next(iter(sent_at))  # pre-parse BUSY: oldest out
                start = sent_at.pop(cid, None)
                if status != "BUSY" and start is not None:
                    recorder.record(done - start)
                remaining -= 1
                window.release()

        read_task = asyncio.ensure_future(read_loop())
        try:
            for cid, (request, at) in enumerate(lane):
                await window.acquire()
                if read_task.done():
                    read_task.result()  # surface the reader's failure
                frame: dict = {"cid": cid, "kind": request.kind,
                               "payload": request.payload, "now": at,
                               "sender": request.sender}
                if request.rid is not None:
                    frame["rid"] = request.rid
                sent_at[cid] = time.perf_counter()
                await write_frame_async(writer, frame)
            await read_task
        finally:
            read_task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    async def replay() -> None:
        work = asyncio.gather(*(drive(lane) for lane in lanes))
        if timeout is not None:
            await asyncio.wait_for(work, timeout)
        else:
            await work

    wall_start = time.perf_counter()
    asyncio.run(replay())
    wall_end = time.perf_counter()
    recorder.mark_span(wall_start, wall_end)

    report = recorder.report() if len(recorder) else None
    return LoadReport(
        latency=report,
        wall_elapsed=wall_end - wall_start,
        submitted=n,
        ok=counts["OK"],
        shed=counts["BUSY"],
        rejected=counts["REJECTED"],
        errors=counts["ERROR"],
        slo_findings=slo.check(report) if (slo is not None and report is not None) else (),
    )


def run_cluster_trace(
    router,
    requests: list[Request],
    arrivals: list[float] | None = None,
    *,
    slo: SLOTarget | None = None,
) -> LoadReport:
    """Replay *requests* through a cluster router; report like the others.

    Each request is routed to its owning node by partition key and
    waited out before the next is sent — per-sender FIFO holds
    trivially, and a failover mid-trace surfaces as elevated latency on
    the re-routed requests rather than as errors (the router retries
    under the same rid, so the service's exactly-once layer absorbs
    the crash).  Latency is wall-clock across the full route-send-reply
    round trip, which is the honest number for a sharded deployment:
    it includes the routing decision and any re-route stalls.
    """
    recorder = LatencyRecorder()
    counts = {"OK": 0, "BUSY": 0, "REJECTED": 0, "ERROR": 0}
    n = len(requests) if arrivals is None else min(len(requests), len(arrivals))
    wall_start = time.perf_counter()
    for i in range(n):
        request = requests[i]
        at = arrivals[i] if arrivals is not None else 0.0
        start = time.perf_counter()
        reply = router.request(request.kind, request.payload,
                               sender=request.sender, now=at, rid=request.rid)
        done = time.perf_counter()
        status = reply.get("status", "ERROR")
        counts[status] = counts.get(status, 0) + 1
        if status != "BUSY":
            recorder.record(done - start)
    wall_end = time.perf_counter()
    recorder.mark_span(wall_start, wall_end)

    report = recorder.report() if len(recorder) else None
    return LoadReport(
        latency=report,
        wall_elapsed=wall_end - wall_start,
        submitted=n,
        ok=counts["OK"],
        shed=counts["BUSY"],
        rejected=counts["REJECTED"],
        errors=counts["ERROR"],
        slo_findings=slo.check(report) if (slo is not None and report is not None) else (),
    )
