"""Service-layer fixtures.

Protocol-level service tests run on the toy pairing backend (the
crypto inside the batcher is exercised against the real Tate backend
by ``tests/ecash``); everything here is about the bank, batching,
admission and the serving loop.
"""

from __future__ import annotations

import random

import pytest

from repro.metrics.parallel import env_processes
from repro.service import MarketService, ShardedBank, VerificationBatcher, make_backend


@pytest.fixture(scope="session")
def service_backend(dec_params_toy):
    """Verification backend honoring ``REPRO_PROCESSES``.

    The CI worker matrix runs the service suite twice —
    ``REPRO_PROCESSES=1`` (inline) and ``=4`` (pooled) — and this is
    the hook that makes the second leg real: one warm pool shared
    across the whole session (spawning per test would swamp the suite
    in fork cost).  ``None`` means "use the batcher's inline default".
    The parity suite guarantees both legs see identical bytes.
    """
    n = env_processes(1)
    if n <= 1:
        yield None
        return
    backend = make_backend(dec_params_toy, None, processes=n)
    yield backend
    backend.close()


@pytest.fixture()
def sharded_bank(dec_params_toy, rng) -> ShardedBank:
    return ShardedBank.create(dec_params_toy, rng)


@pytest.fixture()
def service(sharded_bank, service_backend) -> MarketService:
    batcher = VerificationBatcher(
        sharded_bank.params, sharded_bank.keypair, max_batch=8, seed=1,
        backend=service_backend,
    )
    return MarketService(sharded_bank, batcher=batcher, rng=random.Random(5))


def mint_tokens(service: MarketService, rng, n: int, *, node_level: int | None = None):
    """Deposit-request list against *service* (accounts funded en route)."""
    from repro.service.loadgen import BankIssuer, mint_deposit_traffic

    return mint_deposit_traffic(
        BankIssuer(service.bank), rng,
        n_accounts=min(3, n), n_deposits=n, node_level=node_level,
    )
