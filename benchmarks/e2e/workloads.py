"""The six named workloads: their shapes, and the seeded traces they replay.

A workload is a traffic mix plus the server shape it runs against.  All
sizes are constants per second of ``--seconds`` — never derived from the
commit under test — so two commits replay the same inputs for the same
seed, and a faster commit simply finishes the same trace sooner.

Tokens are minted with the paper's own withdrawal protocol against the
server that will be measured (blind request → ``withdraw`` over the wire
→ unwrap → spend), before the timed window opens: the books conserve, so
the final ``audit`` is a real check.  Withdrawals go out one at a time,
which makes every issued signature — and therefore every token byte — a
function of the seed alone; only the client-side spend proofs fan out
over two worker processes.
"""

from __future__ import annotations

import multiprocessing
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.crypto.cl_sig import cl_keygen
from repro.ecash.dec import begin_withdrawal, finish_withdrawal, setup
from repro.ecash.spend import create_spend
from repro.workloads.arrivals import poisson_arrivals

__all__ = ["Workload", "WORKLOADS", "Op", "Token", "derive_market",
           "mint_tokens", "coins_for", "ACCOUNTS", "CONNECTIONS", "TREE_LEVEL",
           "COIN_VALUE", "OPEN_RATES"]

TREE_LEVEL = 3
COIN_VALUE = 1 << TREE_LEVEL
#: depositing accounts; with 4 shards that is two per shard
ACCOUNTS = tuple(f"sp{i}" for i in range(8))
#: the load generator's connection count (the box has two cores)
CONNECTIONS = 2
#: one coin per entry, spent whole at that node level: 32 tokens per
#: cycle, eight at each of levels 0..3.  The levels differ 3x in verify
#: cost and 6x in frame size, so every batch sees the whole range.
_COIN_CYCLE = (0,) * 8 + (1,) * 4 + (2,) * 2 + (3,)
_TOKENS_PER_CYCLE = sum(1 << level for level in _COIN_CYCLE)
#: open-loop offered rates (ops/s): a quarter and a half of the ~100/s
#: the default stack sustained at batches of one on the quiet box when the
#: benchmark was defined (10 ms of server CPU per deposit, one dispatcher
#: thread).  At half load a box running 1.4x slow still has headroom;
#: at two thirds it does not, and latency then measures the box.
OPEN_RATES = (25.0, 50.0)
#: share of an open-loop run spent at each rate
_OPEN_SPLIT = (0.4, 0.6)
#: what every account holds beyond the coins its trace withdraws
_SPARE_BALANCE = COIN_VALUE
_RPC_OPS_PER_S = 1200
_MIX_WITHDRAWS_PER_S = 18
_MIX_READS_PER_S = 48


def derive_market(seed: int):
    """``(params, keypair)`` of the market for *seed* (80-bit, Tate).

    Server and load generator both call this, so they agree on the
    public parameters and the issuing key without shipping either.
    """
    rng = random.Random(f"e2e:market:{seed}")
    params = setup(TREE_LEVEL, rng)
    return params, cl_keygen(params.backend, rng)


@dataclass(frozen=True)
class Token:
    """One minted spend token and the account and node level it is for."""

    aid: str
    level: int
    token: Any

    @property
    def amount(self) -> int:
        return 1 << (TREE_LEVEL - self.level)


@dataclass
class Op:
    """One request of a trace, with the verdict the trace expects."""

    kind: str
    sender: str
    payload: dict
    expect: str = "OK"
    conn: int = 0           # which of the generator's connections sends it
    due: float = 0.0        # open loop: seconds after the window opens
    segment: int = 0        # open loop: index into OPEN_RATES
    credit: int = 0         # what an OK verdict adds to payload["aid"]
    journaled: bool = True
    expect_body: dict = field(default_factory=dict)


# -- minting ----------------------------------------------------------------
_worker_market: tuple | None = None  # set once per pool worker, by its initializer


def _spend_worker_init(seed: int) -> None:
    global _worker_market
    import repro.net  # noqa: F401 — codec registrations for the tokens

    _worker_market = derive_market(seed)


def _spend_coin(seed: int, index: int, level: int, secret: int,
                signature) -> tuple[list, float]:
    """Unwrap one issued coin and spend all of it at *level* (pool worker).

    Returns the tokens and the seconds ``create_spend`` took.
    """
    params, keypair = _worker_market
    coin = finish_withdrawal(params, keypair.public, secret, signature)
    wallet = coin.wallet()
    rng = random.Random(f"e2e:spend:{seed}:{index}")
    denomination = 1 << (TREE_LEVEL - level)
    tokens, spent = [], 0.0
    while wallet.balance >= denomination:
        node = wallet.allocate(denomination)
        start = time.perf_counter()
        tokens.append(create_spend(params, keypair.public, coin.secret,
                                   coin.signature, node, rng))
        spent += time.perf_counter() - start
    return tokens, spent


def coins_for(n_tokens: int) -> list[tuple[str, int]]:
    """``(account, node level)`` of every coin needed for *n_tokens*."""
    cycles = -(-n_tokens // _TOKENS_PER_CYCLE)
    return [(ACCOUNTS[i % len(ACCOUNTS)], level)
            for i, level in enumerate(_COIN_CYCLE * cycles)]


def mint_tokens(gateway, seed: int, n_tokens: int) -> tuple[list[Token], float]:
    """Withdraw through *gateway* and spend: whole coin cycles, >= *n_tokens*.

    *gateway* is anything with the ``request(kind, payload, sender=)``
    call shape of :class:`~repro.service.frontend.ServiceClient` and
    :class:`~repro.cluster.router.ClusterRouter`; the accounts must be
    open and funded.  Also returns the mean seconds one ``create_spend``
    took.
    """
    if n_tokens <= 0:
        return [], 0.0
    params, _keypair = derive_market(seed)
    coins = coins_for(n_tokens)
    pool = ProcessPoolExecutor(
        max_workers=2, mp_context=multiprocessing.get_context("spawn"),
        initializer=_spend_worker_init, initargs=(seed,),
    )
    try:
        jobs = []
        for index, (aid, level) in enumerate(coins):
            rng = random.Random(f"e2e:coin:{seed}:{index}")
            secret, request = begin_withdrawal(params, rng)
            reply = gateway.request("withdraw", {"aid": aid, "request": request},
                                    sender=aid)
            if reply.get("status") != "OK":
                raise RuntimeError(f"withdraw for {aid!r} failed: {reply}")
            jobs.append(pool.submit(_spend_coin, seed, index, level, secret,
                                    reply["signature"]))
        minted: list[Token] = []
        spent = 0.0
        for (aid, level), job in zip(coins, jobs):
            tokens, seconds = job.result()
            spent += seconds
            minted.extend(Token(aid, level, token) for token in tokens)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    return minted, spent / len(minted)


# -- trace builders ---------------------------------------------------------
def _deposit(token: Token) -> Op:
    # senders are pinned to one connection so per-sender order holds
    return Op("deposit", token.aid, {"aid": token.aid, "token": token.token},
              conn=ACCOUNTS.index(token.aid) % CONNECTIONS,
              credit=token.amount, expect_body={"amount": token.amount})


def _with_replays(fresh: list[Op], share: float, rng: random.Random) -> list[Op]:
    """Splice double-spend replays in, each somewhere after its original.

    A replay has its original's sender, hence its connection, so the
    service sees the original first and the expected verdicts hold.
    """
    deposits = [i for i, op in enumerate(fresh) if op.kind == "deposit"]
    keyed = [(float(i), op) for i, op in enumerate(fresh)]
    for position in rng.sample(deposits, int(len(deposits) * share)):
        original = fresh[position]
        replay = Op("deposit", original.sender, original.payload,
                    expect="REJECTED", conn=original.conn)
        keyed.append((rng.uniform(position + 0.5, len(fresh)), replay))
    keyed.sort(key=lambda pair: pair[0])
    return [op for _key, op in keyed]


def _deposit_closed(tokens, rng, seconds, params) -> list[Op]:
    fresh = [_deposit(token) for token in tokens]
    rng.shuffle(fresh)
    return _with_replays(fresh, 0.05, rng)


def _deposit_open(tokens, rng, seconds, params) -> list[Op]:
    pool = list(tokens)
    rng.shuffle(pool)
    ops: list[Op] = []
    start = 0.0
    for segment, (rate, share) in enumerate(zip(OPEN_RATES, _OPEN_SPLIT)):
        horizon = seconds * share
        for at in poisson_arrivals(rng, rate=rate, horizon=horizon)[:len(pool)]:
            op = _deposit(pool.pop())
            op.due, op.segment = start + at, segment
            ops.append(op)
        start += horizon
    return ops


def _rpc(tokens, rng, seconds, params) -> list[Op]:
    senders = [f"c{i}" for i in range(8)]
    ops = []
    for i in range(int(_RPC_OPS_PER_S * seconds)):
        lane = i % len(senders)
        if rng.random() < 0.5:
            ops.append(Op("open-account", senders[lane],
                          {"aid": f"a{i}", "balance": 1},
                          conn=lane % CONNECTIONS, expect_body={"balance": 1}))
        else:
            # reads go to the accounts opened before the window, so the
            # expected verdict does not depend on cross-sender ordering
            ops.append(Op("balance", senders[lane],
                          {"aid": rng.choice(ACCOUNTS)},
                          conn=lane % CONNECTIONS, journaled=False,
                          expect_body={"balance": _SPARE_BALANCE}))
    return ops


def _market_mix(tokens, rng, seconds, params) -> list[Op]:
    fresh = [_deposit(token) for token in tokens]
    for i in range(int(_MIX_WITHDRAWS_PER_S * seconds)):
        aid = ACCOUNTS[i % len(ACCOUNTS)]
        _secret, request = begin_withdrawal(params, rng)
        fresh.append(Op("withdraw", aid, {"aid": aid, "request": request},
                        conn=ACCOUNTS.index(aid) % CONNECTIONS,
                        credit=-COIN_VALUE))
    for _ in range(int(_MIX_READS_PER_S * seconds)):
        aid = rng.choice(ACCOUNTS)
        fresh.append(Op("balance", aid, {"aid": aid},
                        conn=ACCOUNTS.index(aid) % CONNECTIONS,
                        journaled=False))
    rng.shuffle(fresh)
    return _with_replays(fresh, 0.10, rng)


def _cluster_deposit(tokens, rng, seconds, params) -> list[Op]:
    fresh = [_deposit(token) for token in tokens]
    rng.shuffle(fresh)
    return fresh


@dataclass(frozen=True)
class Workload:
    """A traffic mix and the server shape it is replayed against."""

    name: str
    why: str
    frontend: str           # "threaded" | "async" | "cluster"
    loop: str               # "closed" | "open" | "sequential"
    tokens_per_s: float     # deposits minted per second of --seconds
    build: Callable = field(repr=False)
    window: int = 32        # closed loop: outstanding per connection
    workers: int = 1        # verification processes (1 = inline)
    withdraws_per_s: float = 0.0

    def n_tokens(self, seconds: float) -> int:
        return int(self.tokens_per_s * seconds)

    def opening_balances(self, seconds: float) -> dict[str, int]:
        """What each account must hold before minting starts."""
        coins = {aid: 0 for aid in ACCOUNTS}
        for aid, _level in coins_for(self.n_tokens(seconds)):
            coins[aid] += 1
        extra = -(-int(self.withdraws_per_s * seconds) // len(ACCOUNTS))
        return {aid: (n + extra) * COIN_VALUE + _SPARE_BALANCE
                for aid, n in coins.items()}

    def trace(self, tokens: list[Token], seed: int, seconds: float,
              params) -> list[Op]:
        rng = random.Random(f"e2e:trace:{self.name}:{seed}")
        if self.loop != "open":  # the open loop takes what its arrivals need
            tokens = tokens[: self.n_tokens(seconds)]
        return self.build(tokens, rng, seconds, params)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "deposit_closed",
        "closed loop, 2 conns x 32 outstanding = full RLC batches: "
        "verification is ~70% of server CPU, so arithmetic, batch-verify "
        "and table changes show here and front-door changes barely do",
        frontend="threaded", loop="closed", tokens_per_s=100,
        build=_deposit_closed,
    ),
    Workload(
        "deposit_open",
        "open loop, Poisson 25/s then 50/s timed from due time: batches of "
        "1-3, so batching policy and dispatch latency show here and "
        "full-batch throughput gains do not",
        frontend="async", loop="open", tokens_per_s=46,
        build=_deposit_open,
    ),
    Workload(
        "rpc_threaded",
        "closed loop of cheap ops (half journaled open-account, half "
        "balance reads) on the threaded front door: crypto idle, so wire, "
        "codec, dispatch and journal are all of the work",
        frontend="threaded", loop="closed", tokens_per_s=0, window=16,
        build=_rpc,
    ),
    Workload(
        "rpc_async",
        "the rpc_threaded trace on the asyncio front door: the "
        "threaded-vs-async comparison at low connection counts",
        frontend="async", loop="closed", tokens_per_s=0, window=16,
        build=_rpc,
    ),
    Workload(
        "market_mix",
        "deposits, withdrawals, reads and 10% replays over a 2-worker "
        "pool: the only workload where chunking and pickling do work and "
        "where deposits and withdrawals share the batcher",
        frontend="async", loop="closed", tokens_per_s=48, workers=2,
        withdraws_per_s=_MIX_WITHDRAWS_PER_S, build=_market_mix,
    ),
    Workload(
        "cluster_deposit",
        "sequential deposits through a router into a 3-node cluster with "
        "synchronous journal shipping: batch-of-one verification plus "
        "routing and the replication round trip",
        frontend="cluster", loop="sequential", tokens_per_s=64,
        build=_cluster_deposit,
    ),
)}
