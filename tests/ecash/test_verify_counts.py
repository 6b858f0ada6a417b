"""Verification cost, counted rather than timed.

After :func:`warm_verification_tables`, one sequential ``verify_spend``
at ``setup(3)`` (80-bit Tate pairing, 68–74-bit storeys) must serve
every fixed-base exponentiation from a window table, so the only
three-argument ``pow`` calls left are:

* ``SchnorrGroup.exp`` on per-proof bases — three in the equality
  proof, plus one per committed-double-log round whose challenge bit
  is 1 (the ``c_child^(γ^δ)`` term), at most ``edge_rounds`` per edge;
* the three inversions of the pairing checks' final exponentiations;
* at level 3, the 29 Euler-criterion membership checks of the
  cofactor-18 top storey (the safe-prime storeys use a Legendre symbol).

Counts are deterministic for a given token, unlike a wall-clock race.
The compiled kernel does the same operations as the Python loops, only
cheaper: per level, the Miller replays, table exponentiations, Legendre
checks, F_p² powers and three-argument ``pow`` calls are identical on
both paths.
"""

from __future__ import annotations

import builtins
import random

import pytest

from repro.crypto import fastexp
from repro.crypto.cl_sig import cl_blind_issue, cl_keygen
from repro.crypto.groups import SchnorrGroup
from repro.ecash.dec import begin_withdrawal, finish_withdrawal, setup
from repro.ecash.spend import create_spend, verify_spend, warm_verification_tables
from repro.ecash.tree import GEN_LEFT, GEN_RIGHT, NodeId

#: three-argument pows per level that no challenge bit decides: the
#: final-exponentiation inversions, and the top storey's memberships
FIXED_POWS = {0: 3, 1: 3, 2: 3, 3: 3 + 29}
#: per-proof exponentiations every token pays: the equality proof's
EQUALITY_EXPS = 3


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
    previous = fastexp.configure(enabled=True)
    fastexp.reset()
    warm_verification_tables(params, bank_pk)
    yield
    fastexp.configure(**previous)
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


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_sequential_verify_is_served_from_tables(market, warm, level, monkeypatch):
    params, bank_pk, tokens = market
    fixed = _fixed_bases(params)
    real_pow, real_exp_fixed, real_exp = builtins.pow, fastexp.exp_fixed, SchnorrGroup.exp
    pows: list[tuple] = []
    exp_fixed_calls = []
    per_proof = []

    def counting_pow(*args):
        if len(args) == 3:
            pows.append(args)
        return real_pow(*args)

    def counting_exp_fixed(*args, **kwargs):
        exp_fixed_calls.append(None)
        return real_exp_fixed(*args, **kwargs)

    def counting_exp(self, base, exponent):
        per_proof.append(None)
        return real_exp(self, base, exponent)

    before = fastexp.stats()["fastexp.int"]
    monkeypatch.setattr(builtins, "pow", counting_pow)
    monkeypatch.setattr(fastexp, "exp_fixed", counting_exp_fixed)
    monkeypatch.setattr(SchnorrGroup, "exp", counting_exp)
    try:
        assert verify_spend(params, bank_pk, tokens[level])
    finally:
        monkeypatch.undo()
    after = fastexp.stats()["fastexp.int"]

    # every exp_fixed is a table hit: nothing bypassed, missed or built
    assert after["hits"] - before["hits"] == len(exp_fixed_calls) > 0
    for counter in ("bypasses", "misses", "builds"):
        assert after[counter] == before[counter], counter
    # no fixed base reaches pow, and every pow is accounted for
    assert not [a for a in pows if (a[0], a[2]) in fixed]
    assert len(pows) == FIXED_POWS[level] + len(per_proof)
    assert EQUALITY_EXPS <= len(per_proof) <= EQUALITY_EXPS + level * params.edge_rounds


def _operation_counts(params, bank_pk, token, monkeypatch) -> dict[str, int]:
    """One warm ``verify_spend``'s operations, whichever path served them."""
    real_pow = builtins.pow
    pows = []

    def counting_pow(*args):
        if len(args) == 3:
            pows.append(None)
        return real_pow(*args)

    fastexp.KERNEL_CALLS.update(dict.fromkeys(fastexp.KERNEL_CALLS, 0))
    with monkeypatch.context() as patch:
        patch.setattr(builtins, "pow", counting_pow)
        assert verify_spend(params, bank_pk, token)
    calls = fastexp.KERNEL_CALLS
    counts = {op: calls[f"{op}_c"] + calls[f"{op}_py"]
              for op in ("replay", "exp", "legendre", "fp2_pow")}
    counts["pow"] = len(pows)
    counts["served_by_kernel"] = sum(calls[f"{op}_c"] for op in ("replay", "exp", "legendre", "fp2_pow"))
    return counts


@pytest.mark.skipif(fastexp.KERNEL is None, reason="the verification kernel is not built")
@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_kernel_and_python_paths_do_the_same_operations(market, warm, level, monkeypatch):
    params, bank_pk, tokens = market
    on_kernel = _operation_counts(params, bank_pk, tokens[level], monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(fastexp, "KERNEL", None)
        on_python = _operation_counts(params, bank_pk, tokens[level], monkeypatch)
    assert on_python.pop("served_by_kernel") == 0
    served = on_kernel.pop("served_by_kernel")
    assert on_kernel == on_python
    assert min(on_kernel.values()) > 0
    # the kernel served every operation it has an entry point for
    assert served == sum(on_kernel[op] for op in ("replay", "exp", "legendre", "fp2_pow"))
