"""Verification cost, counted rather than timed.

After :func:`warm_verification_tables`, one sequential ``verify_spend``
at ``setup(3)`` (80-bit Tate pairing, 68–74-bit storeys) must serve
every fixed-base exponentiation from a window table looked up once per
proof, and every variable-base exponentiation from
:func:`~repro.crypto.fastexp.powm`.  The ``powm`` calls are:

* three per-proof bases every token pays — the equality proof's
  commitment and the revealed edge's child and commitment;
* one per committed-double-log round whose challenge bit is 1 (the
  ``c_child^(γ^δ)`` term);
* at level 3, the 29 Euler-criterion membership checks of the
  cofactor-18 top storey (the safe-prime storeys use a Legendre symbol).

The only three-argument ``pow`` calls left are the three inversions of
the pairing checks' final exponentiations.  Counts are deterministic for
a given token, unlike a wall-clock race.  The compiled kernel does the
same operations as the Python loops, only cheaper: per level, the Miller
replays, table exponentiations, Legendre checks, F_p² powers, ``powm``
calls and the remaining ``pow`` calls are identical on both paths.  The
service's batch worker verifies a deposit chunk token by token: a chunk
of k tokens costs exactly its k one-token chunks.
"""

from __future__ import annotations

import builtins
import dataclasses
import random

import pytest

from repro.crypto import fastexp
from repro.crypto.cl_sig import cl_blind_issue, cl_keygen
from repro.crypto.hashing import Transcript
from repro.ecash.dec import begin_withdrawal, finish_withdrawal, setup
from repro.ecash.spend import create_spend, verify_spend, warm_verification_tables
from repro.ecash.tree import GEN_LEFT, GEN_RIGHT, NodeId
from repro.metrics.parallel import SweepPoint
from repro.service.batcher import _batch_worker

#: three-argument ``pow`` calls per token: the final exponentiations'
#: inversions
FINAL_EXP_INVERSIONS = 3
#: ``powm`` calls per level that no challenge bit decides: the equality
#: proof's and the revealed edge's per-proof bases, and the top storey's
#: Euler checks
FIXED_POWMS = {0: 3, 1: 3, 2: 3, 3: 3 + 29}
#: every kernel entry point, each counted on both paths
OPS = ("replay", "exp", "legendre", "fp2_pow", "powm")


@pytest.fixture(scope="module")
def market():
    rng = random.Random(0x3C0)
    params = setup(3, rng)
    keypair = cl_keygen(params.backend, rng)
    secret, request = begin_withdrawal(params, rng)
    signature = cl_blind_issue(params.backend, keypair, request, rng)
    coin = finish_withdrawal(params, keypair.public, secret, signature)
    tokens = [
        create_spend(params, keypair.public, coin.secret, coin.signature,
                     NodeId(level, 0), rng)
        for level in range(4)
    ]
    return params, keypair.public, tokens


@pytest.fixture()
def warm(market):
    params, bank_pk, _ = market
    fastexp.reset()
    warm_verification_tables(params, bank_pk)
    yield
    fastexp.reset()


def _fixed_bases(params) -> set[tuple[int, int]]:
    """``(base, modulus)`` of every base the warm-up tables."""
    bases = set()
    for storey in range(params.tree_level + 1):
        grp = params.tower.group(storey)
        g, h = params.commit_bases(storey)
        gens = params.tower.extra_generators[storey]
        bases |= {(b, grp.p) for b in (g, h, gens[GEN_LEFT], gens[GEN_RIGHT])}
    return bases


def _edge_bits(monkeypatch, rounds: int) -> list[int]:
    """Records the challenge of every cut-and-choose edge proof."""
    bits: list[int] = []
    real = Transcript.challenge

    def recording(self, upper):
        value = real(self, upper)
        if upper == 1 << rounds:
            bits.append(value)
        return value

    monkeypatch.setattr(Transcript, "challenge", recording)
    return bits


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_sequential_verify_is_served_from_tables(market, warm, level, monkeypatch):
    params, bank_pk, tokens = market
    fixed = _fixed_bases(params)
    real_pow, real_powm = builtins.pow, fastexp.powm
    real_fixed, real_exp_fixed = fastexp.fixed_base, fastexp.exp_fixed
    pows: list[tuple] = []
    powms: list[tuple] = []
    lookups = []

    def counting_pow(*args):
        if len(args) == 3:
            pows.append(args)
        return real_pow(*args)

    def counting_powm(*args):
        powms.append(args)
        return real_powm(*args)

    def counting_fixed(*args, **kwargs):
        lookups.append(None)
        return real_fixed(*args, **kwargs)

    def counting_exp_fixed(*args, **kwargs):
        lookups.append(None)
        return real_exp_fixed(*args, **kwargs)

    before = fastexp.stats()["fastexp.int"]
    powm_py = fastexp.KERNEL_CALLS["powm_py"]
    powm_before = powm_py + fastexp.KERNEL_CALLS["powm_c"]
    edge_bits = _edge_bits(monkeypatch, params.edge_rounds)
    monkeypatch.setattr(builtins, "pow", counting_pow)
    monkeypatch.setattr(fastexp, "powm", counting_powm)
    monkeypatch.setattr(fastexp, "fixed_base", counting_fixed)
    monkeypatch.setattr(fastexp, "exp_fixed", counting_exp_fixed)
    try:
        assert verify_spend(params, bank_pk, tokens[level])
    finally:
        monkeypatch.undo()
    after = fastexp.stats()["fastexp.int"]

    # every table lookup (one per fixed base per edge proof, one per
    # use elsewhere) is a hit: nothing missed or built
    assert after["hits"] - before["hits"] == len(lookups) > 0
    for counter in ("misses", "builds"):
        assert after[counter] == before[counter], counter
    # no fixed base reaches pow or powm
    assert not [a for a in pows + powms if (a[0], a[2]) in fixed]
    # powm: the fixed per-level calls plus one per challenge-bit-1 round
    # (the kernel's edge_rounds makes a round's power itself, and is
    # credited with it in KERNEL_CALLS)
    assert len(edge_bits) == level
    ones = sum(bin(bits).count("1") for bits in edge_bits)
    powm_ops = fastexp.KERNEL_CALLS["powm_py"] + fastexp.KERNEL_CALLS["powm_c"] - powm_before
    assert powm_ops == FIXED_POWMS[level] + ones
    assert len(powms) == powm_ops - (ones if fastexp.KERNEL is not None else 0)
    # pow: the inversions, plus every powm the Python path served
    assert len(pows) == FINAL_EXP_INVERSIONS + fastexp.KERNEL_CALLS["powm_py"] - powm_py


def _operation_counts(run, monkeypatch) -> dict[str, int]:
    """What ``run()`` costs, whichever path served it."""
    real_pow = builtins.pow
    pows = []

    def counting_pow(*args):
        if len(args) == 3:
            pows.append(None)
        return real_pow(*args)

    fastexp.KERNEL_CALLS.update(dict.fromkeys(fastexp.KERNEL_CALLS, 0))
    with monkeypatch.context() as patch:
        patch.setattr(builtins, "pow", counting_pow)
        run()
    calls = fastexp.KERNEL_CALLS
    counts = {op: calls[f"{op}_c"] + calls[f"{op}_py"] for op in OPS}
    # a powm on the Python path is a pow call too: count it once
    counts["pow"] = len(pows) - calls["powm_py"]
    counts["served_by_kernel"] = sum(calls[f"{op}_c"] for op in OPS)
    return counts


def _verify(params, bank_pk, token):
    def run():
        assert verify_spend(params, bank_pk, token)
    return run


@pytest.mark.skipif(fastexp.KERNEL is None, reason="the verification kernel is not built")
@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_kernel_and_python_paths_do_the_same_operations(market, warm, level, monkeypatch):
    params, bank_pk, tokens = market
    run = _verify(params, bank_pk, tokens[level])
    on_kernel = _operation_counts(run, monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(fastexp, "KERNEL", None)
        on_python = _operation_counts(run, monkeypatch)
    assert on_python.pop("served_by_kernel") == 0
    served = on_kernel.pop("served_by_kernel")
    assert on_kernel == on_python
    assert min(on_kernel.values()) > 0
    assert on_kernel["pow"] == FINAL_EXP_INVERSIONS
    # the kernel served every operation it has an entry point for
    assert served == sum(on_kernel[op] for op in OPS)


def test_a_deposit_chunk_costs_its_tokens_one_by_one(market, warm, monkeypatch):
    """No fold across tokens: the service's batch worker pays, for a
    chunk of k deposits, exactly the k one-token chunks' operations."""
    params, bank_pk, tokens = market

    def chunk(batch, seed):
        point = SweepPoint(index=0, seed=seed,
                           params=("deposit", params, bank_pk, tuple(batch), b""))

        def run():
            assert all(valid and error is None
                       for valid, _serials, error in _batch_worker(point))
        return run

    singles = [_operation_counts(chunk([token], seed), monkeypatch)
               for seed, token in enumerate(tokens)]
    together = _operation_counts(chunk(tokens, 99), monkeypatch)
    assert len(tokens) == 4
    assert together == {op: sum(single[op] for single in singles) for op in together}


@pytest.mark.skipif(fastexp.KERNEL is None, reason="the verification kernel is not built")
@pytest.mark.parametrize("equation", [1, 2])
def test_a_proof_failing_at_round_j_costs_the_same_on_both_paths(market, warm, equation,
                                                                   monkeypatch):
    """A level-2 token whose second edge proof fails at round j on the
    given equation (η or v tampered: the first; ε or σ: the second) is
    refused on both paths with equal counts: the kernel's
    ``edge_rounds`` is credited with what its Python loop calls, up to
    the round and equation it stops at."""
    params, bank_pk, tokens = market
    token = tokens[2]
    edge = token.edges[1]
    exps = []
    for j in range(edge.rounds):
        responses = list(edge.responses)
        slot = equation  # response index 1 feeds equation 1 only, index 2 equation 2
        responses[j] = tuple(v + (i == slot) for i, v in enumerate(responses[j]))
        bad = dataclasses.replace(token, edges=(token.edges[0], dataclasses.replace(
            edge, responses=tuple(responses))))

        def run():
            assert not verify_spend(params, bank_pk, bad)

        on_kernel = _operation_counts(run, monkeypatch)
        with monkeypatch.context() as patch:
            patch.setattr(fastexp, "KERNEL", None)
            on_python = _operation_counts(run, monkeypatch)
        assert on_python.pop("served_by_kernel") == 0
        on_kernel.pop("served_by_kernel")
        assert on_kernel == on_python, j
        exps.append(on_kernel["exp"])
    # a later stop costs more: each round passed is paid for
    assert all(a < b for a, b in zip(exps, exps[1:]))
