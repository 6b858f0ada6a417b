"""Opt-in socket soak: loadgen vs a pooled 4-worker service, at length.

Run with ``REPRO_SOAK=1`` (CI runs it on the nightly cron).  The point
is volume: ≥10k requests through the real TCP front-end against a
service whose verification fans out across a 4-process pool — long
enough for pool recycling, frame fragmentation and reply reordering to
actually happen — then a full invariant sweep over the books:

* the cross-shard audit is clean (balance conservation, placement,
  no duplicated serials);
* every spent leaf serial is recorded exactly once, globally;
* accounting closes: deposits credited == tokens accepted, and the
  double-spend replays were all rejected.

The mix is deliberately skewed cheap: crypto deposits are the
expensive minority (as in the paper's market, where balance probes and
account chatter dwarf coin motion), which is what lets a 10k-request
soak finish in CI-cron time while still pushing thousands of frames
through every layer.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.service import (
    BankIssuer,
    MarketService,
    ServiceFrontend,
    ShardedBank,
    SocketGateway,
    VerificationBatcher,
    make_backend,
    mint_deposit_traffic,
    run_trace,
)
from repro.service.loadgen import Request

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_SOAK") != "1",
    reason="soak test: set REPRO_SOAK=1 to run (CI nightly cron does)",
)

#: total requests pushed over the socket — the issue floor is 10k
N_REQUESTS = 10_000
N_DEPOSITS = 96
N_ACCOUNTS = 6
REPLAY_FRACTION = 0.25
WORKERS = 4


@pytest.fixture(scope="module")
def soak_stack(dec_params_toy):
    bank = ShardedBank.create(dec_params_toy, random.Random(0x50AC), n_shards=4)
    backend = make_backend(dec_params_toy, bank.public_key, processes=WORKERS)
    batcher = VerificationBatcher(
        bank.params, bank.keypair, max_batch=16, seed=3, backend=backend
    )
    service = MarketService(bank, batcher=batcher, rng=random.Random(0xBEEF))
    frontend = ServiceFrontend(service).start()
    yield frontend, backend
    frontend.close()
    backend.close()


def _soak_trace(service: MarketService) -> tuple[list[Request], int, int]:
    """≥10k requests: a crypto core plus a cheap-query flood."""
    rng = random.Random(0x10AD)
    deposits = mint_deposit_traffic(
        BankIssuer(service.bank), rng,
        n_accounts=N_ACCOUNTS, n_deposits=N_DEPOSITS,
        node_level=1, replay_fraction=REPLAY_FRACTION,
    )
    # mint_deposit_traffic appends int(n·fraction) duplicate submissions
    # of fresh tokens; exactly one submission per distinct token lands
    n_replays = int(N_DEPOSITS * REPLAY_FRACTION)
    n_fresh = N_DEPOSITS - n_replays
    aids = sorted({d.payload["aid"] for d in deposits})
    requests: list[Request] = list(deposits)
    while len(requests) < N_REQUESTS - 1:
        requests.append(Request(
            sender=rng.choice(aids), kind="balance",
            payload={"aid": rng.choice(aids)},
        ))
    requests.append(Request(sender="auditor", kind="audit", payload={}))
    rng.shuffle(requests)
    return requests, n_fresh, n_replays


def test_socket_soak_holds_every_invariant(soak_stack):
    frontend, backend = soak_stack
    service = frontend.service
    requests, n_fresh, n_replays = _soak_trace(service)
    assert len(requests) >= N_REQUESTS

    balance_before = {
        aid: service.bank.balance(aid)
        for shard in service.bank.shards for aid in shard.accounts
    }

    gateway = SocketGateway(frontend.address, connections=1,
                            pipeline_depth=64, timeout=3600.0)
    report = run_trace(gateway, requests)

    # -- delivery: every request answered, nothing lost or shed --------
    assert report.submitted == len(requests)
    assert report.completed == len(requests)
    assert report.errors == 0
    assert report.shed == 0
    # every replayed token rejected, every fresh one credited
    assert report.rejected == n_replays
    assert report.ok == len(requests) - n_replays

    # -- the pool actually carried the load (not a silent fallback) ----
    if hasattr(backend, "degraded"):
        assert not backend.degraded
        assert backend.dispatches > 0

    # -- invariant sweep over the books --------------------------------
    audit = service.bank.audit()
    assert audit.clean, f"audit findings after soak: {audit.findings}"

    # serial uniqueness, globally: no leaf serial on two shards, and
    # exactly one record per serial in the merged view
    seen: dict[int, int] = {}
    for index, shard in enumerate(service.bank.shards):
        for serial in shard._seen_serials:
            assert serial not in seen, (
                f"serial {serial} on shards {seen[serial]} and {index}"
            )
            seen[serial] = index
    merged = service.bank.merged()
    assert len(merged._seen_serials) == len(seen)

    # balance conservation: credits in == balance growth, account by
    # account (replays rejected ⇒ zero credit from them)
    credited: dict[str, int] = {}
    for aid, before in balance_before.items():
        after = service.bank.balance(aid)
        assert after >= before, f"{aid} lost money during the soak"
        credited[aid] = after - before
    total_leaves = sum(credited.values())
    # each fresh deposit at node_level=1 credits half a coin's leaves
    leaves_per_token = 1 << (service.bank.params.tree_level - 1)
    assert total_leaves == n_fresh * leaves_per_token

    # the service saw real concurrency worth of frames
    assert frontend.served >= report.completed - 1  # audit reply races close
