"""Load generation against the market administrator, with latency reporting.

:func:`mint_deposit_traffic` does the client-side work (withdrawals,
wallet allocation, spend-token minting) out of band: load generation
measures the *bank*, so the clients arrive with tokens already minted,
exactly like real SPs who minted while sensing.  An *issuer* says how an
account is opened and a blind signature obtained (:class:`BankIssuer`,
:class:`OfflineIssuer`, :class:`WireIssuer`).  :func:`run_trace` replays
the result against a *target* — a :class:`MarketService`, a
:class:`~repro.service.gateway.SocketGateway`, or anything with a
synchronous ``request()`` such as the cluster router — at arrival times
from :mod:`repro.workloads.arrivals`, and reports latency quantiles,
throughput, shed counts and SLO verdicts via :mod:`repro.metrics.latency`.

Two clocks coexist deliberately.  The **arrival clock** is simulated
(the trace's timestamps feed admission's token bucket), because waiting
out a real Poisson process would measure ``sleep()``.  **Latency** is
wall-clock from accept to reply — the real cost of queueing behind a
batch plus the crypto itself — under as-fast-as-possible replay.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Callable

from repro.crypto.cl_sig import cl_blind_issue
from repro.ecash.dec import begin_withdrawal, finish_withdrawal
from repro.ecash.spend import create_spend
from repro.metrics.latency import LatencyRecorder, LatencyReport, SLOTarget
from repro.net.wire import WireError, read_frame_async, write_frame_async
from repro.service.gateway import SocketGateway
from repro.service.server import Completion, MarketService

__all__ = [
    "Request",
    "LoadReport",
    "BankIssuer",
    "OfflineIssuer",
    "WireIssuer",
    "mint_deposit_traffic",
    "run_trace",
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


class BankIssuer:
    """Issue directly on ``service.bank``; each coin debits its account."""

    def __init__(self, bank) -> None:
        self.bank = bank
        self.params = bank.params
        self.public_key = bank.public_key

    def open_account(self, aid: str, balance: int) -> None:
        self.bank.open_account(aid, balance)

    def sign(self, aid: str, request, rng: random.Random):
        signature = cl_blind_issue(self.params.backend, self.bank.keypair, request, rng)
        self.bank.apply_withdrawal(aid)
        return signature


class OfflineIssuer:
    """Issue with the keypair alone — no bank touched.

    Account openings collect in :attr:`opens` as requests to replay
    first, so the *same* trace can be replayed against two independent
    services (how the parity suite proves a cluster's replies
    byte-identical to a single node's).  The books don't conserve (coins
    appear without withdrawal debits); use :class:`WireIssuer` when a
    sweep will check conservation.
    """

    def __init__(self, params, keypair) -> None:
        self.params = params
        self.keypair = keypair
        self.public_key = keypair.public
        self.opens: list[Request] = []

    def open_account(self, aid: str, balance: int) -> None:
        self.opens.append(Request(sender=aid, kind="open-account",
                                  payload={"aid": aid, "balance": balance}))

    def sign(self, aid: str, request, rng: random.Random):
        return cl_blind_issue(self.params.backend, self.keypair, request, rng)


class WireIssuer:
    """Open and withdraw **through a gateway** (cluster router, socket).

    The blind-issuance signature comes back in the withdraw verdict and
    the client finishes the coin locally — the paper's withdrawal
    protocol.  Books conserve (every deposited token traces to a
    journaled withdrawal debit on its account's node), so the cluster
    invariant sweep can hold conservation over the result.
    """

    def __init__(self, gateway, params, public_key) -> None:
        self.gateway = gateway
        self.params = params
        self.public_key = public_key

    def _ask(self, aid: str, kind: str, payload: dict) -> dict:
        reply = self.gateway.request(kind, payload, sender=aid)
        if reply.get("status") != "OK":
            raise RuntimeError(f"{kind} for {aid!r} failed: {reply}")
        return reply

    def open_account(self, aid: str, balance: int) -> None:
        self._ask(aid, "open-account", {"aid": aid, "balance": balance})

    def sign(self, aid: str, request, rng: random.Random):
        return self._ask(aid, "withdraw", {"aid": aid, "request": request})["signature"]


def mint_deposit_traffic(
    issuer,
    rng: random.Random,
    *,
    n_accounts: int,
    n_deposits: int,
    node_level: int | None = None,
    replay_fraction: float = 0.0,
    context: bytes = b"",
) -> list[Request]:
    """Fund accounts, withdraw coins, mint tokens; return deposit requests.

    Each account (``sp0``, ``sp1``, …) withdraws as many coins as its
    share of the traffic needs, through *issuer*; tokens are minted
    round-robin across accounts so consecutive requests come from
    different senders (the worst case for per-sender FIFO).  With
    *replay_fraction* > 0, that fraction of the requests re-submit an
    earlier token — guaranteed double spends the service must reject.
    """
    if n_accounts < 1 or n_deposits < 1:
        raise ValueError("need at least one account and one deposit")
    if not 0.0 <= replay_fraction < 1.0:
        raise ValueError("replay_fraction must be in [0, 1)")
    params, public_key = issuer.params, issuer.public_key
    level = params.tree_level
    depth = level if node_level is None else node_level
    if not 0 <= depth <= level:
        raise ValueError(f"node_level must be in [0, {level}]")
    denomination = 1 << (level - depth)
    n_replays = int(n_deposits * replay_fraction)
    n_fresh = n_deposits - n_replays
    per_account = -(-n_fresh // n_accounts)
    coins_per_account = -(-per_account // (1 << depth))

    by_account: list[list[Request]] = []
    for i in range(n_accounts):
        aid = f"sp{i}"
        issuer.open_account(aid, coins_per_account << level)
        mine: list[Request] = []
        for _ in range(coins_per_account):
            secret, request = begin_withdrawal(params, rng)
            signature = issuer.sign(aid, request, rng)
            coin = finish_withdrawal(params, public_key, secret, signature)
            wallet = coin.wallet()
            while len(mine) < per_account and wallet.balance >= denomination:
                node = wallet.allocate(denomination)
                token = create_spend(params, public_key, coin.secret,
                                     coin.signature, node, rng)
                mine.append(Request(
                    sender=aid, kind="deposit",
                    payload={"aid": aid, "token": token, "context": context}))
        by_account.append(mine)

    # interleave senders round-robin so consecutive arrivals alternate
    # accounts, then splice in the replayed (double-spend) requests
    fresh = [mine[j] for j in range(per_account)
             for mine in by_account if j < len(mine)][:n_fresh]
    requests = list(fresh)
    for _ in range(n_replays):
        victim = fresh[rng.randrange(len(fresh))]
        requests.insert(rng.randrange(len(requests) + 1), victim)
    return requests


_Trace = list[tuple[Request, float]]  # (request, arrival time)
_Tally = Callable[[str, "float | None"], None]  # (status, latency)


def run_trace(
    target: Any,
    requests: list[Request],
    arrivals: list[float] | None = None,
    *,
    slo: SLOTarget | None = None,
) -> LoadReport:
    """Replay *requests* at *arrivals* times against *target*; report.

    *arrivals* feeds the simulated admission clock; ``None`` replays
    with every arrival at 0, otherwise the shorter sequence bounds the
    run.  Every admitted request is answered before the report is cut.

    * A :class:`MarketService` is submitted to directly and stepped after
      every submission (batches flush as soon as they fill), then
      drained; latency is the service's own accept-to-reply clock.
    * A :class:`SocketGateway` gets the trace over its ``connections``
      sockets, ``pipeline_depth`` outstanding on each, multiplexed on
      one client-side event loop; latency is frame-send to frame-receive.
    * Anything else is called through its synchronous ``request()`` (the
      cluster router, a ``ServiceClient``), each request waited out
      before the next — a failover mid-trace shows as latency on the
      re-routed requests, not as errors.
    """
    trace = list(zip(requests, repeat(0.0) if arrivals is None else arrivals))
    recorder = LatencyRecorder()
    counts = {"OK": 0, "BUSY": 0, "REJECTED": 0, "ERROR": 0}

    def tally(status: str, latency: float | None) -> None:
        counts[status] = counts.get(status, 0) + 1
        if status != "BUSY" and latency is not None:
            recorder.record(latency)

    wall_start = time.perf_counter()
    if isinstance(target, MarketService):
        _replay_in_process(target, trace, tally)
    elif isinstance(target, SocketGateway):
        asyncio.run(_replay_over_sockets(target, trace, tally))
    else:
        for request, at in trace:
            start = time.perf_counter()
            reply = target.request(request.kind, request.payload,
                                   sender=request.sender, now=at, rid=request.rid)
            tally(reply.get("status", "ERROR"), time.perf_counter() - start)
    wall_end = time.perf_counter()
    recorder.mark_span(wall_start, wall_end)

    report = recorder.report() if len(recorder) else None
    return LoadReport(
        latency=report,
        wall_elapsed=wall_end - wall_start,
        submitted=len(trace),
        ok=counts["OK"],
        shed=counts["BUSY"],
        rejected=counts["REJECTED"],
        errors=counts["ERROR"],
        slo_findings=slo.check(report) if (slo is not None and report is not None) else (),
    )


def _replay_in_process(service: MarketService, trace: _Trace, tally: _Tally) -> None:
    def observe(completion: Completion) -> None:
        tally(completion.status, completion.latency)

    service.add_completion_observer(observe)
    try:
        for request, at in trace:
            service.submit(request.sender, request.kind, request.payload, now=at,
                           rid=request.rid)
            service.step()
        service.drain()
    finally:
        service.remove_completion_observer(observe)


async def _replay_over_sockets(gateway: SocketGateway, trace: _Trace,
                               tally: _Tally) -> None:
    """Fan *trace* across the gateway's connections; await every reply.

    Each sender is pinned to one connection (first appearance,
    round-robin), so per-sender order is preserved on the wire and the
    service's per-sender FIFO means what it means in-process.  Replies
    correlate by ``cid`` per connection (they are not FIFO on the wire —
    BUSY sheds overtake batched deposits).  A reply *without* a cid is
    the front door's pre-parse ``BUSY`` (the payload holding the cid was
    never decoded); it is counted against the oldest outstanding request
    on that connection, and like any shed records no latency.
    """
    assignment: dict[str, int] = {}
    lanes: list[_Trace] = [[] for _ in range(gateway.connections)]
    for request, at in trace:
        slot = assignment.setdefault(request.sender,
                                     len(assignment) % gateway.connections)
        lanes[slot].append((request, at))

    async def drive(lane: _Trace) -> None:
        reader, writer = await asyncio.open_connection(*gateway.address)
        sent_at: dict[int, float] = {}
        window = asyncio.Semaphore(gateway.pipeline_depth)

        async def read_loop() -> None:
            for _ in lane:
                reply = await read_frame_async(reader)
                if reply is None:
                    raise WireError("server closed the connection")
                done = time.perf_counter()
                cid = reply.get("cid")
                if cid is None and sent_at:
                    cid = next(iter(sent_at))  # pre-parse BUSY: oldest out
                start = sent_at.pop(cid, None)
                tally(reply.get("status", "ERROR"),
                      None if start is None else done - start)
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

    work = asyncio.gather(*(drive(lane) for lane in lanes if lane))
    await asyncio.wait_for(work, gateway.timeout)
