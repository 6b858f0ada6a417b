"""Cross-process parity: pooled verification ≡ inline, bit for bit.

The worker pool is only admissible if it is *invisible* in every
observable output: the same seeded deposit/withdraw workload pushed
through an inline-backend service and a pooled-backend service must
produce

* byte-identical reply envelopes (canonical codec bytes, in order),
* byte-identical write-ahead journal records, and
* equal service/batcher metric counters,

with the fast-exp tables both on and off (the pool warms per-process
tables; warm vs cold may never change a verdict).  Any divergence here
means worker scheduling leaked into results — the exact failure mode
the shared :func:`repro.metrics.parallel.sweep_points` seed derivation
exists to prevent.
"""

from __future__ import annotations

import random

import pytest

import repro.obs as obs
from repro.crypto import fastexp
from repro.crypto.cl_sig import cl_keygen
from repro.ecash.dec import begin_withdrawal
from repro.net.codec import encode
from repro.service import (
    BankIssuer,
    InlineBackend,
    Journal,
    MarketService,
    PooledBackend,
    Request,
    ShardedBank,
    VerificationBatcher,
    mint_deposit_traffic,
)

#: enough deposits to span several batches and several pool chunks
N_DEPOSITS = 12
MAX_BATCH = 5


@pytest.fixture(scope="module")
def parity_workload(dec_params_toy):
    """One seeded request mix: deposits (with double-spend replays),
    withdrawals, account opens and balance probes."""
    params = dec_params_toy
    keypair = cl_keygen(params.backend, random.Random(0xA11CE))
    mint_bank = ShardedBank(params, keypair, random.Random(1), n_shards=1)
    deposits = mint_deposit_traffic(
        BankIssuer(mint_bank),
        random.Random(2),
        n_accounts=3,
        n_deposits=N_DEPOSITS,
        node_level=1,
        replay_fraction=0.2,
    )
    rng = random.Random(3)
    requests = list(deposits)
    # interleave cheap and withdraw traffic at fixed positions
    requests.insert(2, Request(sender="sp0", kind="balance",
                               payload={"aid": "sp0"}))
    requests.insert(5, Request(sender="fresh", kind="open-account",
                               payload={"aid": "fresh", "balance": 64}))
    _, issuance = begin_withdrawal(params, rng)
    requests.insert(7, Request(sender="fresh", kind="withdraw",
                               payload={"aid": "fresh", "request": issuance}))
    requests.append(Request(sender="sp1", kind="audit", payload={}))
    return params, keypair, mint_bank.merged(), requests


def _run(workload, backend_factory, *, fastexp_on: bool) -> dict:
    """The workload through one service; every comparable artefact."""
    params, keypair, book, requests = workload
    previous = fastexp.configure(enabled=fastexp_on)
    fastexp.reset()
    try:
        telemetry = obs.Telemetry.enabled()
        journal = Journal(telemetry=telemetry)
        bank = ShardedBank(params, keypair, random.Random(7), n_shards=4,
                           telemetry=telemetry)
        for aid, balance in book.accounts.items():
            bank.open_account(aid, balance)
        for aid in book.withdrawals:
            bank.account_home(aid).withdrawals.append(aid)
        backend = backend_factory(params, keypair)
        batcher = VerificationBatcher(
            params, keypair, max_batch=MAX_BATCH, seed=11,
            warm_tables=fastexp_on, backend=backend, telemetry=telemetry,
        )
        service = MarketService(bank, batcher=batcher, rng=random.Random(13),
                                journal=journal, telemetry=telemetry)
        reply_bytes: list[bytes] = []
        service.add_reply_observer(
            lambda sender, reply: reply_bytes.append(encode(reply)))
        for i, request in enumerate(requests):
            service.submit(request.sender, request.kind, request.payload,
                           rid=f"{request.sender}:parity:{i}")
            service.step()
        service.drain()
        backend.close()
        # ``failures`` keeps the most recent ones only; the comparison
        # below reads it whole, so the trace must stay under the bound
        assert len(service.failures) < service.failures.maxlen

        counters = {
            (m["name"], tuple(sorted(m["labels"].items()))): m["value"]
            for m in telemetry.registry.snapshot()["counters"]
            # pool-plumbing counters exist only on the pooled side and
            # are *about* the backend, not about verdicts
            if not m["name"].startswith("repro_pool_")
        }
        return {
            "replies": reply_bytes,
            "journal": [encode(rec.to_state()) for rec in journal.records()],
            "counters": counters,
            "statuses": {
                "completions": service.completions,
                "failures": [(f.sender, f.seq, f.kind, f.error)
                             for f in service.failures],
                "flushes": batcher.flushes,
                "jobs": batcher.jobs_processed,
            },
        }
    finally:
        fastexp.configure(**previous)
        fastexp.reset()


def _inline(params, keypair):
    return InlineBackend()


def _pooled(params, keypair):
    return PooledBackend(params, keypair.public, processes=2)


@pytest.mark.parametrize("fastexp_on", [False, True],
                         ids=["fastexp-off", "fastexp-on"])
def test_pooled_is_bit_identical_to_inline(parity_workload, fastexp_on):
    inline = _run(parity_workload, _inline, fastexp_on=fastexp_on)
    pooled = _run(parity_workload, _pooled, fastexp_on=fastexp_on)

    assert pooled["replies"] == inline["replies"], (
        "pooled backend changed a reply byte"
    )
    assert pooled["journal"] == inline["journal"], (
        "pooled backend changed a journal record"
    )
    assert pooled["counters"] == inline["counters"]
    assert pooled["statuses"] == inline["statuses"]


def test_workload_exercises_every_status(parity_workload):
    """The parity baseline is only meaningful if the workload actually
    covers OK, REJECTED (double spend) and all four request kinds."""
    inline = _run(parity_workload, _inline, fastexp_on=False)
    assert inline["statuses"]["failures"], "expected double-spend rejections"
    assert inline["statuses"]["flushes"] >= 2, "expected multiple batches"
    kinds = {request.kind for request in parity_workload[3]}
    assert {"deposit", "withdraw", "balance", "open-account", "audit"} <= kinds


def test_fastexp_toggle_does_not_change_replies(parity_workload):
    """Warm tables change time, never bytes — on either backend."""
    off = _run(parity_workload, _inline, fastexp_on=False)
    on = _run(parity_workload, _inline, fastexp_on=True)
    assert off["replies"] == on["replies"]
    assert off["journal"] == on["journal"]
