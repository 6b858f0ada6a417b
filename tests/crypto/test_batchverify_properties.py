"""Property tests: RLC batch verdicts ≡ sequential verdicts.

Two families, both driven by hypothesis:

* **Sigma equations** — random batches of Schnorr proofs over the
  64-bit test group: honest batches accept, and a single mutated
  response/commitment/statement makes the batch reject with the
  bisection fingering exactly the mutated item.  Each property runs
  with the fast-exp tables enabled and disabled — the combination is
  computed through :func:`repro.crypto.fastexp.multi_exp` either way,
  and a verdict may never depend on the cache state.
* **Pairing products** — random multi-term pairing equations pushed
  through both backends' ``pairing_batch`` accumulators (the toy
  exponent backend and the Tate backend's shared-final-exponentiation
  batch): the batched verdict must equal the exact per-term product.
"""

from __future__ import annotations

import dataclasses
import random

from hypothesis import given, settings, strategies as st

from repro.crypto import fastexp
from repro.crypto.batchverify import verify_each
from repro.crypto.hashing import Transcript
from repro.crypto.zkp.schnorr import collect_dlog, prove_dlog, verify_dlog

_FASTEXP_MODES = (
    {"enabled": True, "promote_after": 0},
    {"enabled": False},
)


def _with_fastexp(config, fn):
    previous = fastexp.configure(**config)
    fastexp.reset()
    try:
        return fn()
    finally:
        fastexp.configure(**previous)
        fastexp.reset()


def _make_batch(group, seeds):
    items = []
    for i, seed in enumerate(seeds):
        rng = random.Random(seed)
        witness = rng.randrange(1, group.q)
        statement = group.exp(group.g, witness)
        transcript = Transcript(b"rlc-prop")
        transcript.absorb_int(i)
        proof = prove_dlog(group, group.g, statement, witness, rng, transcript)
        items.append((statement, proof))
    return items


def _collect_all(group, items):
    batches = []
    for i, (statement, proof) in enumerate(items):
        transcript = Transcript(b"rlc-prop")
        transcript.absorb_int(i)
        checks = collect_dlog(group, group.g, statement, proof, transcript)
        assert checks is not None
        batches.append(checks)
    return batches


def _sequential(group, items):
    out = []
    for i, (statement, proof) in enumerate(items):
        transcript = Transcript(b"rlc-prop")
        transcript.absorb_int(i)
        out.append(verify_dlog(group, group.g, statement, proof, transcript))
    return out


@given(
    seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=6),
    batch_seed=st.integers(0, 2**64),
)
@settings(max_examples=25)
def test_honest_batches_accept(schnorr_group, seeds, batch_seed):
    items = _make_batch(schnorr_group, seeds)
    for config in _FASTEXP_MODES:
        verdicts = _with_fastexp(
            config,
            lambda: verify_each(_collect_all(schnorr_group, items), seed=batch_seed),
        )
        assert verdicts == [True] * len(items)


@given(
    seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=6),
    batch_seed=st.integers(0, 2**64),
    position=st.integers(0, 5),
    mutation=st.sampled_from(["response", "commitment", "statement"]),
    delta=st.integers(1, 2**16),
)
@settings(max_examples=25)
def test_single_mutation_rejected_and_fingered(
    schnorr_group, seeds, batch_seed, position, mutation, delta
):
    group = schnorr_group
    items = _make_batch(group, seeds)
    bad = position % len(items)
    statement, proof = items[bad]
    if mutation == "response":
        proof = dataclasses.replace(
            proof, response=(proof.response + delta) % group.q
        )
    elif mutation == "commitment":
        # multiply by g^delta: still a subgroup member, so the mutation
        # survives the eager membership screen and must be caught by
        # the (batched) equation itself
        proof = dataclasses.replace(
            proof, commitment=group.mul(proof.commitment, group.exp(group.g, delta))
        )
    else:
        statement = group.mul(statement, group.exp(group.g, delta))
    items[bad] = (statement, proof)

    expected = _sequential(group, items)
    assert expected[bad] is False
    for config in _FASTEXP_MODES:
        verdicts = _with_fastexp(
            config,
            lambda: verify_each(_collect_all(group, items), seed=batch_seed),
        )
        assert verdicts == expected
        assert verdicts[bad] is False
        assert all(v for i, v in enumerate(verdicts) if i != bad)


# ---------------------------------------------------------------------------
# pairing-batch accumulators
# ---------------------------------------------------------------------------

def _pairing_batch_property(backend, terms, tamper):
    """Assert batched == exact for Π ê(g^a, g^b)^k (· tampered term)."""
    g = backend.g
    batch = backend.pairing_batch()
    acc = backend.gt_one()
    for a, b, k in terms:
        left = backend.exp(g, a)
        right = backend.exp(g, b)
        batch.add_pair(left, right, k)
        acc = backend.gt_mul(acc, backend.gt_exp(backend.pair(left, right), k))
        # balance in G_T: ê(g,g)^{-abk}
        balance = (-a * b * k) % backend.order
        batch.add_gt(backend.pair(g, g), balance)
        acc = backend.gt_mul(acc, backend.gt_exp(backend.pair(g, g), balance))
    if tamper:
        batch.add_gt(backend.pair(g, g), tamper)
        acc = backend.gt_mul(acc, backend.gt_exp(backend.pair(g, g), tamper))
    exact = backend.gt_eq(acc, backend.gt_one())
    assert batch.check() == exact
    if not tamper:
        assert batch.check()
    return exact


@given(
    terms=st.lists(
        st.tuples(
            st.integers(1, 2**24), st.integers(1, 2**24), st.integers(1, 2**24)
        ),
        min_size=1,
        max_size=4,
    ),
    tamper=st.integers(0, 2**24),
)
@settings(max_examples=15)
def test_tate_pairing_batch_matches_exact(tate_backend, terms, tamper):
    for config in _FASTEXP_MODES:
        _with_fastexp(
            config,
            lambda: _pairing_batch_property(
                tate_backend, terms, tamper % tate_backend.order
            ),
        )


@given(
    terms=st.lists(
        st.tuples(
            st.integers(1, 2**24), st.integers(1, 2**24), st.integers(1, 2**24)
        ),
        min_size=1,
        max_size=4,
    ),
    tamper=st.integers(0, 2**24),
)
@settings(max_examples=15)
def test_toy_pairing_batch_matches_exact(toy_backend, terms, tamper):
    for config in _FASTEXP_MODES:
        _with_fastexp(
            config,
            lambda: _pairing_batch_property(
                toy_backend, terms, tamper % toy_backend.order
            ),
        )
