"""Ablation benchmarks for the design choices DESIGN.md §6 calls out.

Not paper figures — these quantify the choices a re-implementer makes:

* **Pairing backend** — real Tate pairing vs the paper's own
  "multiplicative→additive" trivial map (Section VI-B).  The toy map is
  orders of magnitude faster, which is presumably why the authors
  mention it; the Tate numbers are what a secure deployment pays.
* **Deposit verification** — per-token ``verify_spend`` over a batch
  of unitary deposits, the bank's hot path (the RLC fold it was once
  compared against is gone: it was the slower of the two).
* **Edge-proof rounds** — the cut-and-choose soundness knob: spend cost
  vs ``2^-rounds`` soundness error per path edge.
* **Stadler double-log rounds** — same knob for the standalone proof.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto.cl_sig import cl_blind_issue, cl_keygen, cl_sign, cl_verify
from repro.crypto.groups import build_tower
from repro.crypto.hashing import Transcript
from repro.crypto.pairing import ToyPairing, TatePairing, generate_curve
from repro.crypto.zkp.double_log import prove_double_log, verify_double_log
from repro.ecash.dec import begin_withdrawal, finish_withdrawal, setup
from repro.ecash.spend import DECParams, create_spend, verify_spend
from repro.ecash.tree import NodeId


# ---------------------------------------------------------------------------
# pairing backend ablation
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def backends(bench_rng):
    return {
        "tate": TatePairing(generate_curve(48, bench_rng)),
        "toy": ToyPairing.generate(96, bench_rng),
    }


@pytest.mark.parametrize("backend_name", ["tate", "toy"])
def test_cl_sign_backend(benchmark, backends, backend_name):
    backend = backends[backend_name]
    rng = random.Random(1)
    kp = cl_keygen(backend, rng)
    benchmark(lambda: cl_sign(backend, kp, 123456, rng))


@pytest.mark.parametrize("backend_name", ["tate", "toy"])
def test_cl_verify_backend(benchmark, backends, backend_name):
    backend = backends[backend_name]
    rng = random.Random(2)
    kp = cl_keygen(backend, rng)
    sig = cl_sign(backend, kp, 123456, rng)
    benchmark(lambda: cl_verify(backend, kp.public, 123456, sig))


# ---------------------------------------------------------------------------
# deposit verification
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def deposit_batch(params_by_level):
    """A batch of 8 honest unitary deposits from one coin."""
    params = params_by_level(3)
    rng = random.Random(3)
    bank_kp = cl_keygen(params.backend, rng)
    secret, request = begin_withdrawal(params, rng)
    signature = cl_blind_issue(params.backend, bank_kp, request, rng)
    coin = finish_withdrawal(params, bank_kp.public, secret, signature)
    tokens = [
        create_spend(params, bank_kp.public, coin.secret, coin.signature, NodeId(3, i), rng)
        for i in range(8)
    ]
    return params, bank_kp, tokens


def test_deposit_verify_individual(benchmark, deposit_batch):
    params, bank_kp, tokens = deposit_batch
    result = benchmark(
        lambda: [verify_spend(params, bank_kp.public, t) for t in tokens]
    )
    assert all(result)


# ---------------------------------------------------------------------------
# soundness-rounds ablations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rounds", [8, 16, 32])
def test_spend_cost_vs_edge_rounds(benchmark, bench_rng, rounds):
    """Spend cost scales linearly with the per-edge soundness rounds."""
    params = setup(3, bench_rng, security_bits=48, edge_rounds=rounds)
    rng = random.Random(rounds)
    bank_kp = cl_keygen(params.backend, rng)
    secret, request = begin_withdrawal(params, rng)
    signature = cl_blind_issue(params.backend, bank_kp, request, rng)
    coin = finish_withdrawal(params, bank_kp.public, secret, signature)
    node = NodeId(3, 0)
    benchmark.pedantic(
        lambda: create_spend(params, bank_kp.public, coin.secret, coin.signature, node, rng),
        rounds=3, iterations=1,
    )
    benchmark.extra_info["soundness_error_per_edge"] = f"2^-{rounds}"


@pytest.mark.parametrize("rounds", [16, 32, 64])
def test_double_log_cost_vs_rounds(benchmark, bench_rng, rounds):
    tower = build_tower(2, bench_rng)
    inner, outer = tower.group(0), tower.group(1)
    rng = random.Random(rounds)
    x = rng.randrange(inner.q)
    y = outer.power(pow(inner.g, x, outer.q))

    def prove_and_verify():
        proof = prove_double_log(outer, inner.g, inner.q, y, x, rng,
                                 Transcript(b"bench"), rounds=rounds)
        assert verify_double_log(outer, inner.g, inner.q, y, proof, Transcript(b"bench"))

    benchmark.pedantic(prove_and_verify, rounds=3, iterations=1)
