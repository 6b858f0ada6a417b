"""Decision parity for the sigma-equation RLC deposit path.

`batch_verify_spends` must return exactly the verdict list of
per-token `verify_spend`, at every batch size the batcher grid produces, on both pairing backends, with the fast-exp
tables on and off — including which planted forgery the bisection
fingers.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.crypto import fastexp
from repro.crypto.cl_sig import cl_blind_issue, cl_keygen
from repro.ecash.batch import batch_verify_spends
from repro.ecash.dec import begin_withdrawal, finish_withdrawal
from repro.ecash.spend import create_spend, verify_spend
from repro.ecash.tree import NodeId

BATCH_SIZES = (1, 2, 7, 32)

_FASTEXP_MODES = ("fastexp-on", "fastexp-off")


@pytest.fixture(params=_FASTEXP_MODES)
def fastexp_mode(request):
    if request.param == "fastexp-on":
        previous = fastexp.configure(
            enabled=True, promote_after=0, min_modulus_bits=1
        )
    else:
        previous = fastexp.configure(enabled=False)
    fastexp.reset()
    yield request.param
    fastexp.configure(**previous)
    fastexp.reset()


def _make_stack(params, rng, count=6):
    bank_kp = cl_keygen(params.backend, rng)
    secret, request = begin_withdrawal(params, rng)
    signature = cl_blind_issue(params.backend, bank_kp, request, rng)
    coin = finish_withdrawal(params, bank_kp.public, secret, signature)
    tokens = [
        create_spend(params, bank_kp.public, coin.secret, coin.signature,
                     NodeId(3, i), rng)
        for i in range(count)
    ]
    return bank_kp, tokens


@pytest.fixture(scope="module")
def tate_stack(dec_params, session_rng):
    return _make_stack(dec_params, session_rng)


@pytest.fixture(scope="module")
def toy_stack(dec_params_toy, session_rng):
    return _make_stack(dec_params_toy, session_rng)


def _stack_for(backend_name, request):
    if backend_name == "tate":
        return request.getfixturevalue("dec_params"), \
            request.getfixturevalue("tate_stack")
    return request.getfixturevalue("dec_params_toy"), \
        request.getfixturevalue("toy_stack")


def _cycle(tokens, size):
    # duplicates are fine: verdicts are positional, and double-spend
    # detection happens in the bank layer, not in verification
    return [tokens[i % len(tokens)] for i in range(size)]


def _mutate(params, token, kind, delta=1):
    backend = params.backend
    if kind == "sig_b":
        return dataclasses.replace(token, sig_b=backend.exp(token.sig_b, 2 + delta))
    if kind == "response":
        return dataclasses.replace(
            token,
            equality=dataclasses.replace(token.equality, z=token.equality.z + delta),
        )
    if kind == "commitment":
        group = params.tower.group(token.node.level)
        return dataclasses.replace(
            token,
            commitment_s=group.mul(token.commitment_s, group.exp(group.g, delta)),
        )
    raise AssertionError(kind)


@pytest.mark.parametrize("backend_name", ["tate", "toy"])
@pytest.mark.parametrize("size", BATCH_SIZES)
def test_honest_parity(backend_name, size, fastexp_mode, request, rng):
    params, (bank_kp, tokens) = _stack_for(backend_name, request)
    batch = _cycle(tokens, size)
    verdicts = batch_verify_spends(params, bank_kp.public, batch, rng)
    assert verdicts == [True] * size
    assert verdicts == [verify_spend(params, bank_kp.public, t) for t in batch]


@pytest.mark.parametrize("backend_name", ["tate", "toy"])
@pytest.mark.parametrize("kind", ["sig_b", "response", "commitment"])
@pytest.mark.parametrize("size", BATCH_SIZES)
def test_planted_forgery_fingered(backend_name, kind, size, fastexp_mode,
                                  request, rng):
    params, (bank_kp, tokens) = _stack_for(backend_name, request)
    batch = _cycle(tokens, size)
    bad = size // 2
    batch[bad] = _mutate(params, batch[bad], kind)
    verdicts = batch_verify_spends(params, bank_kp.public, batch, rng)
    expected = [verify_spend(params, bank_kp.public, t) for t in batch]
    assert expected[bad] is False
    assert verdicts == expected
    assert verdicts[bad] is False
    assert all(v for i, v in enumerate(verdicts) if i != bad)


@pytest.mark.parametrize("backend_name", ["tate", "toy"])
def test_multiple_forgeries_all_fingered(backend_name, fastexp_mode,
                                         request, rng):
    params, (bank_kp, tokens) = _stack_for(backend_name, request)
    batch = _cycle(tokens, 8)
    kinds = {1: "sig_b", 3: "response", 6: "commitment"}
    for i, kind in kinds.items():
        batch[i] = _mutate(params, batch[i], kind, delta=1 + i)
    verdicts = batch_verify_spends(params, bank_kp.public, batch, rng)
    assert verdicts == [i not in kinds for i in range(len(batch))]
    assert verdicts == [verify_spend(params, bank_kp.public, t) for t in batch]


@pytest.mark.parametrize("backend_name", ["tate", "toy"])
def test_cancellation_pair_caught(backend_name, fastexp_mode, request, rng):
    """Complementary sig_b tamperings must not cancel across tokens."""
    params, (bank_kp, tokens) = _stack_for(backend_name, request)
    backend = params.backend
    inv = pow(2, -1, backend.order)
    bad1 = dataclasses.replace(tokens[0], sig_b=backend.exp(tokens[0].sig_b, 2))
    bad2 = dataclasses.replace(tokens[1], sig_b=backend.exp(tokens[1].sig_b, inv))
    verdicts = batch_verify_spends(params, bank_kp.public, [bad1, bad2], rng)
    assert verdicts == [False, False]


def _forge_cofactor_token(params, bank_pk, coin, node, rng, monkeypatch):
    """A token whose ONLY defect is R_B offset by an order-2 cofactor
    element (negation).

    The prover runs honestly except that the equality proof's G_T
    commitment is negated *before* the transcript absorbs it: the
    Fiat–Shamir challenge, the group-A equation and every edge proof
    are consistent with the negated encoding, so nothing but the
    deferred G_T equation (and the subgroup gate) can reject it.
    Without the μ_r membership check this forgery survives the batched
    pairing product whenever its random coefficient is even.
    """
    import repro.ecash.spend as spend_mod

    orig = spend_mod._gt_encode
    calls = {"n": 0}

    def crooked(backend, element):
        enc = orig(backend, element)
        calls["n"] += 1
        if calls["n"] == 1:  # prove_equality encodes R_B first
            p = (backend.params.p if len(enc) == 2 else backend.target.p)
            return tuple((-v) % p for v in enc)
        return enc

    monkeypatch.setattr(spend_mod, "_gt_encode", crooked)
    try:
        token = create_spend(params, bank_pk, coin.secret, coin.signature,
                             node, rng)
    finally:
        monkeypatch.setattr(spend_mod, "_gt_encode", orig)
    assert calls["n"] >= 2
    return token


@pytest.mark.parametrize("backend_name", ["tate", "toy"])
def test_cofactor_offset_commitment_rejected(backend_name, fastexp_mode,
                                             request, rng, monkeypatch):
    """An R_B outside the prime-order G_T subgroup must be rejected
    eagerly — and identically — by every path.

    F_{p²}^* (and Z_p^*) have cofactor order: an order-2 offset on the
    equality commitment cancels out of the RLC pairing product with
    probability 1/2 over the coefficient's parity, so without the
    membership gate the batched verdict diverges from sequential
    verification on about half the seeds.
    """
    from repro.crypto.cl_sig import cl_blind_issue, cl_keygen
    from repro.ecash.dec import begin_withdrawal, finish_withdrawal
    from repro.ecash.spend import verify_spend_collect, verify_spend_deferred

    params, (bank_kp, tokens) = _stack_for(backend_name, request)
    bank_pk = bank_kp.public
    secret, request_msg = begin_withdrawal(params, rng)
    signature = cl_blind_issue(params.backend, bank_kp, request_msg, rng)
    coin = finish_withdrawal(params, bank_pk, secret, signature)
    forged = _forge_cofactor_token(params, bank_pk, coin, NodeId(3, 1), rng,
                                   monkeypatch)

    # the subgroup gate rejects at collection, before any batching
    assert verify_spend(params, bank_pk, forged) is False
    assert verify_spend_deferred(params, bank_pk, forged) is None
    assert verify_spend_collect(params, bank_pk, forged) is None

    batch = _cycle(tokens, 5)
    batch[2] = forged
    expected = [True, True, False, True, True]
    for seed in range(8):  # pre-gate, each seed escaped with prob ~1/2
        assert batch_verify_spends(params, bank_pk, batch,
                                   random.Random(seed)) == expected


@pytest.mark.parametrize("backend_name", ["tate", "toy"])
def test_seed_determinism(backend_name, fastexp_mode, request):
    params, (bank_kp, tokens) = _stack_for(backend_name, request)
    batch = _cycle(tokens, 7)
    batch[2] = _mutate(params, batch[2], "response")
    first = batch_verify_spends(params, bank_kp.public, batch, random.Random(11))
    second = batch_verify_spends(params, bank_kp.public, batch, random.Random(11))
    assert first == second
