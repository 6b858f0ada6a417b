"""Tests for committed-double-log edge proofs (the spend-path proofs)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.crypto.hashing import Transcript
from repro.crypto.zkp.committed_double_log import (
    prove_edge,
    prove_revealed_edge,
    verify_edge,
    verify_revealed_edge,
)
from repro.ecash.tree import GEN_COMMIT_G, GEN_COMMIT_H, GEN_LEFT
from repro.net.codec import encoded_size


def t(domain=b"edge"):
    return Transcript(domain)


@pytest.fixture()
def edge_setting(tower3, rng):
    """A parent committed in storey 1, its child committed in storey 2."""
    pg = tower3.group(1)
    cg = tower3.group(2)
    g1, h1 = tower3.extra_generators[1][GEN_COMMIT_G], tower3.extra_generators[1][GEN_COMMIT_H]
    g2, h2 = tower3.extra_generators[2][GEN_COMMIT_G], tower3.extra_generators[2][GEN_COMMIT_H]
    gamma = tower3.extra_generators[1][GEN_LEFT]
    parent = rng.randrange(1, pg.q)
    child = pg.exp(gamma, parent)
    r1, r2 = pg.random_exponent(rng), cg.random_exponent(rng)
    c_parent = pg.mul(pg.exp(g1, parent), pg.exp(h1, r1))
    c_child = cg.mul(cg.exp(g2, child), cg.exp(h2, r2))
    return dict(
        pg=pg, cg=cg, g1=g1, h1=h1, g2=g2, h2=h2, gamma=gamma,
        parent=parent, child=child, r1=r1, r2=r2,
        c_parent=c_parent, c_child=c_child,
    )


def _prove(s, rng, rounds=12, transcript=None):
    return prove_edge(
        s["pg"], s["g1"], s["h1"], s["c_parent"], s["gamma"],
        s["cg"], s["g2"], s["h2"], s["c_child"],
        s["parent"], s["r1"], s["r2"], rng, transcript or t(), rounds=rounds,
    )


def _verify(s, proof, transcript=None, **overrides):
    merged = {**s, **overrides}
    return verify_edge(
        merged["pg"], merged["g1"], merged["h1"], merged["c_parent"], merged["gamma"],
        merged["cg"], merged["g2"], merged["h2"], merged["c_child"],
        proof, transcript or t(),
    )


class TestHiddenEdge:
    def test_accepts_valid(self, edge_setting, rng):
        proof = _prove(edge_setting, rng)
        assert _verify(edge_setting, proof)

    def test_rejects_wrong_child_commitment(self, edge_setting, rng):
        s = edge_setting
        proof = _prove(s, rng)
        assert not _verify(s, proof, c_child=s["cg"].mul(s["c_child"], s["g2"]))

    def test_rejects_wrong_parent_commitment(self, edge_setting, rng):
        s = edge_setting
        proof = _prove(s, rng)
        assert not _verify(s, proof, c_parent=s["pg"].mul(s["c_parent"], s["g1"]))

    def test_rejects_wrong_gamma(self, edge_setting, rng):
        s = edge_setting
        proof = _prove(s, rng)
        other_gamma = s["pg"].exp(s["gamma"], 2)
        assert not _verify(s, proof, gamma=other_gamma)

    def test_rejects_tampered_round(self, edge_setting, rng):
        s = edge_setting
        proof = _prove(s, rng)
        responses = list(proof.responses)
        w, v, sig = responses[0]
        responses[0] = ((w + 1) % s["pg"].q, v, sig)
        bad = dataclasses.replace(proof, responses=tuple(responses))
        assert not _verify(s, bad)

    def test_rejects_transcript_mismatch(self, edge_setting, rng):
        proof = _prove(edge_setting, rng, transcript=t(b"x"))
        assert not _verify(edge_setting, proof, transcript=t(b"y"))

    def test_rejects_round_count_zero(self, edge_setting, rng):
        with pytest.raises(ValueError):
            _prove(edge_setting, rng, rounds=0)

    def test_prover_validates_openings(self, edge_setting, rng):
        s = dict(edge_setting)
        s["parent"] = (s["parent"] + 1) % s["pg"].q
        with pytest.raises(ValueError):
            _prove(s, rng)

    def test_rejects_tower_mismatch(self, edge_setting, rng, schnorr_group):
        s = edge_setting
        with pytest.raises(ValueError):
            prove_edge(
                s["pg"], s["g1"], s["h1"], s["c_parent"], s["gamma"],
                schnorr_group, schnorr_group.g, schnorr_group.g, 1,
                s["parent"], s["r1"], s["r2"], rng, t(),
            )

    def test_proof_size_scales_with_rounds(self, edge_setting, rng):
        sizes = [encoded_size(_prove(edge_setting, rng, rounds=r)) for r in (6, 12, 18)]
        # every six rounds add the same bytes (up to a short integer)
        assert sizes[2] - sizes[1] == pytest.approx(sizes[1] - sizes[0], rel=0.1)

    def test_commitments_hide_parent(self, edge_setting, rng):
        """Two proofs about the same parent share no commitment values."""
        p1 = _prove(edge_setting, rng)
        p2 = _prove(edge_setting, rng)
        assert set(p1.commitments_u).isdisjoint(p2.commitments_u)


class TestRevealedEdge:
    @pytest.fixture()
    def revealed(self, tower3, rng):
        pg = tower3.group(1)
        g1 = tower3.extra_generators[1][GEN_COMMIT_G]
        h1 = tower3.extra_generators[1][GEN_COMMIT_H]
        gamma = tower3.extra_generators[1][GEN_LEFT]
        parent = rng.randrange(1, pg.q)
        child = pg.exp(gamma, parent)
        r = pg.random_exponent(rng)
        c_parent = pg.mul(pg.exp(g1, parent), pg.exp(h1, r))
        return pg, g1, h1, gamma, parent, child, r, c_parent

    def test_accepts_valid(self, revealed, rng):
        pg, g1, h1, gamma, parent, child, r, c_parent = revealed
        proof = prove_revealed_edge(pg, g1, h1, c_parent, gamma, child, parent, r, rng, t())
        assert verify_revealed_edge(pg, g1, h1, c_parent, gamma, child, proof, t())

    def test_rejects_wrong_child(self, revealed, rng):
        pg, g1, h1, gamma, parent, child, r, c_parent = revealed
        proof = prove_revealed_edge(pg, g1, h1, c_parent, gamma, child, parent, r, rng, t())
        assert not verify_revealed_edge(
            pg, g1, h1, c_parent, gamma, pg.mul(child, gamma), proof, t()
        )

    def test_rejects_wrong_commitment(self, revealed, rng):
        pg, g1, h1, gamma, parent, child, r, c_parent = revealed
        proof = prove_revealed_edge(pg, g1, h1, c_parent, gamma, child, parent, r, rng, t())
        assert not verify_revealed_edge(
            pg, g1, h1, pg.mul(c_parent, g1), gamma, child, proof, t()
        )

    def test_rejects_tampered_responses(self, revealed, rng):
        pg, g1, h1, gamma, parent, child, r, c_parent = revealed
        proof = prove_revealed_edge(pg, g1, h1, c_parent, gamma, child, parent, r, rng, t())
        bad = dataclasses.replace(proof, z1=(proof.z1 + 1) % pg.q)
        assert not verify_revealed_edge(pg, g1, h1, c_parent, gamma, child, bad, t())

    def test_prover_validates(self, revealed, rng):
        pg, g1, h1, gamma, parent, child, r, c_parent = revealed
        with pytest.raises(ValueError):
            prove_revealed_edge(pg, g1, h1, c_parent, gamma, child, parent + 1, r, rng, t())
        with pytest.raises(ValueError):
            prove_revealed_edge(
                pg, g1, h1, c_parent, gamma, pg.mul(child, gamma), parent, r, rng, t()
            )
