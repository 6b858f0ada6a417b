"""The load generator: one mint loop over issuers, one runner over targets."""

from __future__ import annotations

import random
from contextlib import contextmanager

import pytest

from repro.cluster import LocalCluster
from repro.crypto.cl_sig import cl_keygen
from repro.net.codec import encode
from repro.service import (
    BankIssuer,
    MarketService,
    OfflineIssuer,
    ServiceFrontend,
    ShardedBank,
    SocketGateway,
    mint_deposit_traffic,
    run_trace,
)

N_ACCOUNTS, N_DEPOSITS, REPLAY_FRACTION = 3, 10, 0.3


@pytest.fixture(scope="module")
def keypair(dec_params_toy):
    return cl_keygen(dec_params_toy.backend, random.Random(0x10AD))


@pytest.fixture(scope="module")
def seeded_trace(dec_params_toy, keypair):
    """Offline-issued, so the same requests replay on independent stacks."""
    issuer = OfflineIssuer(dec_params_toy, keypair)
    deposits = mint_deposit_traffic(
        issuer, random.Random(7), n_accounts=N_ACCOUNTS, n_deposits=N_DEPOSITS,
        node_level=2, replay_fraction=REPLAY_FRACTION,
    )
    return issuer.opens, deposits


def _fresh_service(params, keypair) -> MarketService:
    bank = ShardedBank(params, keypair, random.Random(1))
    return MarketService(bank, rng=random.Random(2))


@contextmanager
def _target(kind: str, params, keypair):
    if kind == "service":
        yield _fresh_service(params, keypair)
    elif kind == "socket":
        with ServiceFrontend(_fresh_service(params, keypair)) as frontend:
            yield SocketGateway(frontend.address, connections=2, pipeline_depth=4)
    else:
        with LocalCluster(params, keypair, n_nodes=3) as cluster:
            with cluster.router() as router:
                yield router


@pytest.mark.parametrize("kind", ["service", "socket", "router"])
def test_one_trace_same_verdicts_on_every_target(kind, seeded_trace,
                                                 dec_params_toy, keypair):
    opens, deposits = seeded_trace
    n_replays = int(N_DEPOSITS * REPLAY_FRACTION)
    with _target(kind, dec_params_toy, keypair) as target:
        # accounts first: a pipelined door checks the account at submit
        # time, before a still-queued open-account has been applied
        opened = run_trace(target, opens)
        report = run_trace(target, deposits)
    assert (opened.ok, opened.completed) == (N_ACCOUNTS, N_ACCOUNTS)
    assert report.submitted == len(deposits) == N_DEPOSITS
    assert (report.ok, report.rejected, report.shed, report.errors) == (
        N_DEPOSITS - n_replays, n_replays, 0, 0)
    assert report.latency is not None and report.latency.count == N_DEPOSITS


def test_bank_and_offline_issuers_mint_equal_deposits(dec_params_toy, keypair):
    """One seed, one request list: where the signature comes from must
    not leak into what is minted."""
    knobs = dict(n_accounts=2, n_deposits=6, node_level=1, replay_fraction=0.25)
    bank = ShardedBank(dec_params_toy, keypair, random.Random(1))
    on_bank = mint_deposit_traffic(BankIssuer(bank), random.Random(11), **knobs)
    offline = OfflineIssuer(dec_params_toy, keypair)
    off_bank = mint_deposit_traffic(offline, random.Random(11), **knobs)
    assert [encode(r.payload) for r in on_bank] == \
        [encode(r.payload) for r in off_bank]
    assert [r.sender for r in on_bank] == [r.sender for r in off_bank]
    # the bank issuer opened and debited for real what the offline one scripted
    coin = 1 << dec_params_toy.tree_level
    for opening in offline.opens:
        aid, funded = opening.payload["aid"], opening.payload["balance"]
        assert funded % coin == 0 and bank.balance(aid) == 0


def test_back_to_back_runs_detach_their_observer(service, rng):
    """Regression: ``run_trace`` left its reply observer attached, so a
    reused service fed every later reply to dead recorders."""
    requests = mint_deposit_traffic(BankIssuer(service.bank), rng,
                                    n_accounts=2, n_deposits=6)
    observers_before = len(service._reply_observers)
    first = run_trace(service, requests[:4])
    second = run_trace(service, requests[4:])
    assert len(service._reply_observers) == observers_before
    assert (first.ok, second.ok) == (4, 2)
    assert first.latency.count == 4 and second.latency.count == 2
