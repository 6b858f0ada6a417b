"""Tables on vs off must not change a single bit of any decision.

The acceptance criterion for the fast-exp work: every ZKP verifier and
CL verification produces *bit-identical* accept/reject decisions (and
provers bit-identical proof objects) whether the fixed-base tables are
enabled — here forced on with ``promote_after=0``, so every base takes
the table path from its first use — or globally disabled.  Each scenario runs twice from identical RNG seeds under the
two configurations and compares full object equality.
"""

from __future__ import annotations

import random

from repro.crypto import fastexp
from repro.crypto.cl_sig import cl_blind_issue, cl_keygen, cl_sign, cl_verify
from repro.crypto.hashing import Transcript
from repro.crypto.zkp.committed_double_log import (
    prove_edge,
    prove_revealed_edge,
    verify_edge,
    verify_revealed_edge,
)
from repro.crypto.zkp.or_proof import prove_or, verify_or
from repro.crypto.zkp.representation import prove_representation, verify_representation
from repro.crypto.zkp.schnorr import prove_dlog, verify_dlog
from repro.ecash.batch import batch_verify_spends
from repro.ecash.dec import begin_withdrawal, finish_withdrawal
from repro.ecash.spend import create_spend
from repro.ecash.tree import NodeId


def _run_both(scenario):
    """Run *scenario* with tables forced on, then off; return both results."""
    forced_on = fastexp.configure(enabled=True, promote_after=0)
    fastexp.reset()
    try:
        with_tables = scenario()
    finally:
        fastexp.configure(**forced_on)
    disabled = fastexp.configure(enabled=False)
    fastexp.reset()
    try:
        without_tables = scenario()
    finally:
        fastexp.configure(**disabled)
        fastexp.reset()
    return with_tables, without_tables


def test_schnorr_dlog_identical(schnorr_group):
    grp = schnorr_group

    def scenario():
        rng = random.Random(101)
        x = grp.random_exponent(rng)
        y = grp.power(x)
        proof = prove_dlog(grp, grp.g, y, x, rng, Transcript(b"t"))
        ok = verify_dlog(grp, grp.g, y, proof, Transcript(b"t"))
        bad = verify_dlog(grp, grp.g, grp.mul(y, grp.g), proof, Transcript(b"t"))
        return proof, ok, bad

    on, off = _run_both(scenario)
    assert on == off
    assert on[1] is True and on[2] is False


def test_representation_identical(schnorr_group):
    grp = schnorr_group
    bases = [grp.g, grp.derive_generator(b"h1"), grp.derive_generator(b"h2")]

    def scenario():
        rng = random.Random(102)
        witnesses = [grp.random_exponent(rng) for _ in bases]
        statement = 1
        for b, w in zip(bases, witnesses):
            statement = grp.mul(statement, grp.exp(b, w))
        proof = prove_representation(grp, bases, statement, witnesses, rng, Transcript(b"t"))
        ok = verify_representation(grp, bases, statement, proof, Transcript(b"t"))
        bad = verify_representation(
            grp, bases, grp.mul(statement, grp.g), proof, Transcript(b"t")
        )
        return proof, ok, bad

    on, off = _run_both(scenario)
    assert on == off
    assert on[1] is True and on[2] is False


def test_or_proof_identical(schnorr_group):
    grp = schnorr_group
    h = grp.derive_generator(b"or-base")

    def scenario():
        rng = random.Random(103)
        w = grp.random_exponent(rng)
        statements = [grp.exp(h, w), grp.random_element(rng), grp.random_element(rng)]
        proof = prove_or(grp, h, statements, known_index=0, witness=w,
                         rng=rng, transcript=Transcript(b"t"))
        ok = verify_or(grp, h, statements, proof, Transcript(b"t"))
        bad = verify_or(grp, h, list(reversed(statements)), proof, Transcript(b"t"))
        return proof, ok, bad

    on, off = _run_both(scenario)
    assert on == off
    assert on[1] is True and on[2] is False


def test_committed_double_log_identical(tower3):
    grp_p = tower3.group(0)
    grp_c = tower3.group(1)
    gens_p = tower3.extra_generators[0]
    gens_c = tower3.extra_generators[1]
    g, h, gamma = gens_p[2], gens_p[3], gens_p[0]
    g2, h2 = gens_c[2], gens_c[3]

    def scenario():
        rng = random.Random(105)
        parent = rng.randrange(1, grp_p.q)
        r1 = rng.randrange(grp_p.q)
        r2 = rng.randrange(grp_c.q)
        child = grp_p.exp(gamma, parent)
        c_par = grp_p.mul(grp_p.exp(g, parent), grp_p.exp(h, r1))
        c_ch = grp_c.mul(grp_c.exp(g2, child), grp_c.exp(h2, r2))
        proof = prove_edge(grp_p, g, h, c_par, gamma, grp_c, g2, h2, c_ch,
                           parent, r1, r2, rng, Transcript(b"t"), rounds=8)
        ok = verify_edge(grp_p, g, h, c_par, gamma, grp_c, g2, h2, c_ch,
                         proof, Transcript(b"t"))
        rev = prove_revealed_edge(grp_p, g, h, c_par, gamma, child,
                                  parent, r1, rng, Transcript(b"r"))
        ok_rev = verify_revealed_edge(grp_p, g, h, c_par, gamma, child,
                                      rev, Transcript(b"r"))
        bad = verify_revealed_edge(grp_p, g, h, c_par, gamma,
                                   grp_p.mul(child, gamma), rev, Transcript(b"r"))
        return proof, ok, rev, ok_rev, bad

    on, off = _run_both(scenario)
    assert on == off
    assert on[1] is True and on[3] is True and on[4] is False


def test_cl_verify_identical(tate_backend):
    backend = tate_backend

    def scenario():
        rng = random.Random(106)
        keypair = cl_keygen(backend, rng)
        sig = cl_sign(backend, keypair, 42, rng)
        ok = cl_verify(backend, keypair.public, 42, sig)
        bad = cl_verify(backend, keypair.public, 43, sig)
        return (
            backend.element_encode(sig.a),
            backend.element_encode(sig.b),
            backend.element_encode(sig.c),
            ok,
            bad,
        )

    on, off = _run_both(scenario)
    assert on == off
    assert on[3] is True and on[4] is False


def test_spend_and_batch_verify_identical(dec_params):
    """End to end: withdraw, spend, batch-verify — identical either way."""
    params = dec_params

    def scenario():
        rng = random.Random(107)
        bank_kp = cl_keygen(params.backend, rng)
        secret, request = begin_withdrawal(params, rng)
        signature = cl_blind_issue(params.backend, bank_kp, request, rng)
        coin = finish_withdrawal(params, bank_kp.public, secret, signature)
        tokens = [
            create_spend(params, bank_kp.public, coin.secret, coin.signature,
                         NodeId(2, i), rng)
            for i in range(2)
        ]
        verdicts = batch_verify_spends(params, bank_kp.public, tokens, rng)
        return [t.node_key for t in tokens], verdicts

    on, off = _run_both(scenario)
    assert on == off
    assert all(on[1])
