"""Fixed-base combs and multi-exponentiation: micro + end-to-end effect.

The acceptance experiments for :mod:`repro.crypto.fastexp`:

* **fixed-base micro** — at paper parameters (1024-bit modulus, 160-bit
  exponents) a Lim–Lee comb table must beat naive ``pow`` by at least
  **2×** on the same exponent stream;
* **multi-exp micro** — Straus interleaving over several bases must
  beat the product-of-``pow`` loop it replaces;
* **service end-to-end** — the sharded+batched deposit replay of
  :mod:`benchmarks.bench_service_throughput` must gain at least **15%**
  throughput with the tables enabled (the PR 1 code path is exactly
  the tables-disabled configuration);
* **node-time end-to-end** — the Fig. 3 spend+verify step is timed
  with tables on vs off and the ratio recorded.

All measured numbers land in ``benchmark.extra_info`` so that
``make fastexp-bench`` persists them in ``BENCH_fastexp.json``.

Setting ``REPRO_BENCH_SMOKE=1`` shrinks the workloads and turns the
speedup assertions into recorded-only numbers — the CI smoke step uses
this to check the benches *run* without gating on a loaded machine.
"""

from __future__ import annotations

import os
import random
import time

import pytest

from repro.crypto import fastexp
from repro.crypto.cl_sig import cl_blind_issue, cl_keygen
from repro.crypto.fastexp import FixedBaseTable
from repro.ecash.dec import begin_withdrawal, finish_withdrawal, setup
from repro.ecash.spend import create_spend, verify_spend
from repro.ecash.tree import NodeId
from repro.service import (
    AdmissionController,
    MarketService,
    ShardedBank,
    VerificationBatcher,
)
from repro.service.loadgen import BankIssuer, mint_deposit_traffic, run_trace

#: reduced-parameter mode for CI: still runs every bench, skips the
#: speedup gates (shared runners are too noisy to assert ratios on)
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

# Paper parameters: 1024-bit modulus, 160-bit exponents.  Generating a
# fresh 1024-bit safe prime takes minutes; this is the well-known RFC
# 2409 Oakley Group 2 safe prime (also pinned in tests/crypto).
P1024 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E08"
    "8A67CC74020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B"
    "302B0A6DF25F14374FE1356D6D51C245E485B576625E7EC6F44C42E9"
    "A637ED6B0BFF5CB6F406B7EDEE386BFB5A899FA5AE9F24117C4B1FE6"
    "49286651ECE65381FFFFFFFFFFFFFFFF",
    16,
)
Q1024 = (P1024 - 1) // 2
G1024 = 4  # quadratic residue -> generates the order-q subgroup

EXP_BITS = 160
N_EXPONENTS = 16 if SMOKE else 64
COMB_REQUIRED_SPEEDUP = 2.0

N_DEPOSITS = 16 if SMOKE else 64
SECURITY_BITS = 64
SERVICE_REQUIRED_GAIN = 1.15


def _exponents(rng: random.Random, n: int, bits: int = EXP_BITS) -> list[int]:
    return [rng.getrandbits(bits) | (1 << (bits - 1)) for _ in range(n)]


def _best_of(fn, rounds: int = 3) -> float:
    """Min wall seconds over *rounds* calls of *fn* (noise floor)."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(autouse=True)
def _default_fastexp_config():
    """Each bench starts from (and restores) the shipped defaults."""
    previous = fastexp.configure()
    fastexp.reset()
    yield
    fastexp.configure(**previous)
    fastexp.reset()


def test_fixed_base_comb_2x_over_pow(benchmark, bench_rng):
    """Acceptance: comb ≥ 2× naive ``pow`` at 1024-bit/160-bit."""
    exps = _exponents(bench_rng, N_EXPONENTS)
    table = FixedBaseTable(G1024, P1024, bits=EXP_BITS, order=Q1024)

    naive_wall = _best_of(lambda: [pow(G1024, e, P1024) for e in exps])
    assert [table.exp(e) for e in exps] == [pow(G1024, e, P1024) for e in exps]

    benchmark.pedantic(lambda: [table.exp(e) for e in exps],
                       rounds=3, iterations=1)
    comb_wall = benchmark.stats.stats.min
    speedup = naive_wall / comb_wall
    benchmark.extra_info.update(
        modulus_bits=P1024.bit_length(),
        exponent_bits=EXP_BITS,
        exponents=N_EXPONENTS,
        teeth=table.teeth,
        splits=table.splits,
        table_entries=table.table_size,
        naive_us_per_exp=round(naive_wall / N_EXPONENTS * 1e6, 1),
        comb_us_per_exp=round(comb_wall / N_EXPONENTS * 1e6, 1),
        speedup=round(speedup, 3),
        smoke=SMOKE,
    )
    if not SMOKE:
        assert speedup >= COMB_REQUIRED_SPEEDUP, (
            f"comb reached only {speedup:.2f}x over pow "
            f"(required {COMB_REQUIRED_SPEEDUP}x)"
        )


def test_multi_exp_over_pow_loop(benchmark, bench_rng):
    """Straus interleaving vs the product-of-pow loop it replaces."""
    n_bases = 4 if SMOKE else 8
    rounds_per_call = 4
    bases = [pow(G1024, bench_rng.randrange(1, Q1024), P1024)
             for _ in range(n_bases)]
    streams = [_exponents(bench_rng, n_bases) for _ in range(rounds_per_call)]

    def naive():
        out = []
        for exps in streams:
            acc = 1
            for b, e in zip(bases, exps):
                acc = acc * pow(b, e, P1024) % P1024
            out.append(acc)
        return out

    def straus():
        return [fastexp.multi_exp(bases, exps, P1024) for exps in streams]

    assert naive() == straus()
    naive_wall = _best_of(naive)
    benchmark.pedantic(straus, rounds=3, iterations=1)
    straus_wall = benchmark.stats.stats.min
    speedup = naive_wall / straus_wall
    benchmark.extra_info.update(
        modulus_bits=P1024.bit_length(),
        exponent_bits=EXP_BITS,
        bases=n_bases,
        products_per_call=rounds_per_call,
        naive_ms_per_product=round(naive_wall / rounds_per_call * 1e3, 3),
        straus_ms_per_product=round(straus_wall / rounds_per_call * 1e3, 3),
        speedup=round(speedup, 3),
        smoke=SMOKE,
    )
    if not SMOKE:
        assert speedup > 1.0, (
            f"multi-exp slower than the pow loop ({speedup:.2f}x)"
        )


@pytest.fixture(scope="module")
def service_workload(bench_rng):
    """Same minted deposit workload as bench_service_throughput."""
    params = setup(3, bench_rng, security_bits=SECURITY_BITS, edge_rounds=6)
    keypair = cl_keygen(params.backend, bench_rng)
    mint_bank = ShardedBank(params, keypair, random.Random(1), n_shards=1)
    requests = mint_deposit_traffic(
        BankIssuer(mint_bank),
        random.Random(2),
        n_accounts=8,
        n_deposits=N_DEPOSITS,
        node_level=1,
    )
    arrivals = [0.002 * i for i in range(len(requests))]
    return params, keypair, mint_bank.merged(), requests, arrivals


def _replay(workload, *, warm_tables: bool) -> float:
    """Wall seconds to serve the workload, batched config (PR 1 shape)."""
    params, keypair, book, requests, arrivals = workload
    bank = ShardedBank(params, keypair, random.Random(3), n_shards=4)
    for aid, balance in book.accounts.items():
        bank.open_account(aid, balance)
    for aid in book.withdrawals:
        bank.account_home(aid).withdrawals.append(aid)
    batcher = VerificationBatcher(
        params, keypair, max_batch=N_DEPOSITS, processes=1,
        seed=5, warm_tables=warm_tables,
    )
    service = MarketService(bank, batcher=batcher,
                            admission=AdmissionController())
    report = run_trace(service, requests, arrivals)
    assert report.ok == len(requests), report
    return report.wall_elapsed


def test_service_throughput_gain_with_tables(benchmark, service_workload):
    """Acceptance: deposit throughput ≥ 15% over the tables-off path.

    Tables off (``REPRO_FASTEXP`` disabled, no warm-up) is exactly the
    PR 1 verification code path; tables on is the shipped default.
    """
    disabled = fastexp.configure(enabled=False)
    fastexp.reset()
    try:
        off_wall = min(_replay(service_workload, warm_tables=False)
                       for _ in range(2))
    finally:
        fastexp.configure(**disabled)

    fastexp.reset()
    benchmark.pedantic(
        lambda: _replay(service_workload, warm_tables=True),
        rounds=2, iterations=1,
    )
    on_wall = benchmark.stats.stats.min
    gain = off_wall / on_wall
    benchmark.extra_info.update(
        deposits=N_DEPOSITS,
        security_bits=SECURITY_BITS,
        tables_off_wall_s=round(off_wall, 4),
        tables_on_wall_s=round(on_wall, 4),
        tables_off_throughput_rps=round(N_DEPOSITS / off_wall, 2),
        tables_on_throughput_rps=round(N_DEPOSITS / on_wall, 2),
        throughput_gain=round(gain, 3),
        cache=fastexp.stats(),
        smoke=SMOKE,
    )
    if not SMOKE:
        assert gain >= SERVICE_REQUIRED_GAIN, (
            f"tables gained only {gain:.2f}x deposit throughput "
            f"(required {SERVICE_REQUIRED_GAIN}x)"
        )


def test_node_spend_verify_with_tables(benchmark, params_by_level):
    """Fig. 3 step (L=3, Ni=2) with tables on vs off; ratio recorded."""
    level, node_level = (2, 1) if SMOKE else (3, 2)
    params = params_by_level(level)
    rng = random.Random(level * 100 + node_level)
    bank_kp = cl_keygen(params.backend, rng)
    secret, request = begin_withdrawal(params, rng)
    signature = cl_blind_issue(params.backend, bank_kp, request, rng)
    coin = finish_withdrawal(params, bank_kp.public, secret, signature)
    node = NodeId(node_level, 0)

    def spend_and_verify():
        token = create_spend(
            params, bank_kp.public, coin.secret, coin.signature, node, rng
        )
        assert verify_spend(params, bank_kp.public, token)

    disabled = fastexp.configure(enabled=False)
    fastexp.reset()
    try:
        off_wall = _best_of(spend_and_verify, rounds=2)
    finally:
        fastexp.configure(**disabled)

    fastexp.reset()
    spend_and_verify()  # promote/build tables before timing
    benchmark.pedantic(spend_and_verify, rounds=3, iterations=1)
    on_wall = benchmark.stats.stats.min
    benchmark.extra_info.update(
        level=level,
        node_level=node_level,
        tables_off_ms=round(off_wall * 1e3, 2),
        tables_on_ms=round(on_wall * 1e3, 2),
        node_time_ratio=round(off_wall / on_wall, 3),
        smoke=SMOKE,
    )
