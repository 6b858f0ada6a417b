"""Double-discrete-log proofs over *committed* values.

These are the path-correctness proofs of the divisible e-cash spend.
The coin-secret derivation chain is

    s  →  κ_0 = γ_0^s (mod p_0)  →  κ_1 = γ_1^{κ_0} (mod p_1)  →  ...

where γ_t lives in DEC tower storey *t* and the tower moduli satisfy
``p_t = q_{t+1}`` (guaranteed by the Cunningham-chain construction), so
each κ is simultaneously an element of its storey and an exponent of
the next.  A spend of the node at depth *d* must show, without
revealing the intermediate keys, that the publicly revealed node key is
the end of a chain starting at the CL-certified secret.

Two proof shapes:

* :func:`prove_edge` / :func:`verify_edge` — *hidden-child* edge:
  parent committed in storey *t* as ``C_par = g^par * h^r1``, child
  ``γ^par mod p_t`` committed in storey *t+1* as
  ``C_ch = g' ^ child * h' ^ r2``.  Cut-and-choose (Stadler-style),
  soundness ``2^-rounds``.
* :func:`prove_revealed_edge` / :func:`verify_revealed_edge` — final
  edge where the child (the spent node key) is public.  This collapses
  to a single-round equality-of-exponent sigma protocol.

Cut-and-choose round (hidden child), with ``w, v ∈ Z_q``, ``σ ∈ Z_q'``::

    u = g^w  h^v            (in storey t)
    τ = g'^(γ^w)  h'^σ      (in storey t+1)
    bit 0 → reveal (w, v, σ)            verifier recomputes u, τ
    bit 1 → reveal δ = w - par,  η = v - r1,  ε = σ - r2·γ^δ
            verifier checks  u == C_par · g^δ · h^η
                        and  τ == C_ch^(γ^δ) · h'^ε
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.crypto import fastexp
from repro.crypto.batchverify import LinearCheck, linear_check
from repro.crypto.groups import SchnorrGroup
from repro.crypto.hashing import Transcript

__all__ = [
    "CommittedEdgeProof",
    "RevealedEdgeProof",
    "prove_edge",
    "verify_edge",
    "collect_edge",
    "prove_revealed_edge",
    "verify_revealed_edge",
    "collect_revealed_edge",
    "DEFAULT_ROUNDS",
]

DEFAULT_ROUNDS = 24


@dataclass(frozen=True)
class CommittedEdgeProof:
    """Cut-and-choose proof for a hidden-child derivation edge.

    Per round *j*: ``commitments_u[j]`` and ``commitments_t[j]`` are the
    round commitments; ``responses[j]`` is a 3-tuple — ``(w, v, σ)`` on
    a 0-bit, ``(δ, η, ε)`` on a 1-bit.
    """

    commitments_u: tuple[int, ...]
    commitments_t: tuple[int, ...]
    responses: tuple[tuple[int, int, int], ...]

    @property
    def rounds(self) -> int:
        return len(self.commitments_u)

    def encoded_size(self, element_bytes: int, scalar_bytes: int) -> int:
        """Wire size estimate used by the Table II accounting."""
        return self.rounds * (2 * element_bytes + 3 * scalar_bytes)


@dataclass(frozen=True)
class RevealedEdgeProof:
    """Single-round proof that a public child equals γ^(committed parent)."""

    commitment_k: int  # γ^a in the derivation storey
    commitment_c: int  # g^a h^b in the parent commitment storey
    z1: int
    z2: int

    def encoded_size(self, element_bytes: int, scalar_bytes: int) -> int:
        """Wire size estimate used by the Table II accounting."""
        return 2 * element_bytes + 2 * scalar_bytes


def _check_tower_link(parent_grp: SchnorrGroup, child_grp: SchnorrGroup) -> None:
    if child_grp.q != parent_grp.p:
        raise ValueError(
            "storey mismatch: child commitment group order must equal the "
            "parent storey modulus (Cunningham-chain tower link)"
        )


def prove_edge(
    parent_grp: SchnorrGroup,
    g: int,
    h: int,
    c_parent: int,
    gamma: int,
    child_grp: SchnorrGroup,
    g2: int,
    h2: int,
    c_child: int,
    parent: int,
    r_parent: int,
    r_child: int,
    rng: random.Random,
    transcript: Transcript,
    *,
    rounds: int = DEFAULT_ROUNDS,
) -> CommittedEdgeProof:
    """Prove ``c_child`` commits ``γ^parent`` where ``c_parent`` commits *parent*."""
    _check_tower_link(parent_grp, child_grp)
    if rounds < 1:
        raise ValueError("need at least one round")
    child = parent_grp.exp(gamma, parent)
    if parent_grp.mul(parent_grp.exp(g, parent), parent_grp.exp(h, r_parent)) != c_parent % parent_grp.p:
        raise ValueError("parent commitment does not open")
    if child_grp.mul(child_grp.exp(g2, child), child_grp.exp(h2, r_child)) != c_child % child_grp.p:
        raise ValueError("child commitment does not open")

    # g, h, γ, g2, h2 are tower-fixed and hit `rounds` times per proof —
    # the comb cache amortizes across rounds and across spends
    nonces = []
    us = []
    ts = []
    for _ in range(rounds):
        w = rng.randrange(parent_grp.q)
        v = rng.randrange(parent_grp.q)
        sigma = rng.randrange(child_grp.q)
        nonces.append((w, v, sigma))
        us.append(parent_grp.mul(parent_grp.exp_fixed(g, w), parent_grp.exp_fixed(h, v)))
        ts.append(
            child_grp.mul(
                child_grp.exp_fixed(g2, parent_grp.exp_fixed(gamma, w)),
                child_grp.exp_fixed(h2, sigma),
            )
        )

    transcript.absorb_ints(g, h, c_parent, gamma, g2, h2, c_child, *us, *ts)
    bits = transcript.challenge(1 << rounds)

    responses = []
    for j, (w, v, sigma) in enumerate(nonces):
        if (bits >> j) & 1:
            delta = (w - parent) % parent_grp.q
            eta = (v - r_parent) % parent_grp.q
            eps = (sigma - r_child * parent_grp.exp(gamma, delta)) % child_grp.q
            responses.append((delta, eta, eps))
        else:
            responses.append((w, v, sigma))
    return CommittedEdgeProof(
        commitments_u=tuple(us), commitments_t=tuple(ts), responses=tuple(responses)
    )


def verify_edge(
    parent_grp: SchnorrGroup,
    g: int,
    h: int,
    c_parent: int,
    gamma: int,
    child_grp: SchnorrGroup,
    g2: int,
    h2: int,
    c_child: int,
    proof: CommittedEdgeProof,
    transcript: Transcript,
) -> bool:
    """Verify a hidden-child edge proof."""
    _check_tower_link(parent_grp, child_grp)
    n = proof.rounds
    if n < 1 or len(proof.commitments_t) != n or len(proof.responses) != n:
        return False
    if not parent_grp.contains_all(proof.commitments_u):
        return False
    if not child_grp.contains_all(proof.commitments_t):
        return False
    # both statement commitments are bases of the batched round
    # equations — membership required for RLC soundness (honest ones are)
    if not parent_grp.contains(c_parent % parent_grp.p):
        return False
    if not child_grp.contains(c_child % child_grp.p):
        return False

    transcript.absorb_ints(
        g, h, c_parent, gamma, g2, h2, c_child, *proof.commitments_u, *proof.commitments_t
    )
    bits = transcript.challenge(1 << n)

    # per-round equations over the tower-fixed bases g, h, γ, g2, h2,
    # their tables looked up once for the proof; C_ch^(γ^δ) has a
    # per-proof base, a public one, so it runs on powm
    pp, pq, cp, cq = parent_grp.p, parent_grp.q, child_grp.p, child_grp.q
    g_exp, h_exp, gamma_exp = (fastexp.fixed_base(b, pp, order=pq) for b in (g, h, gamma))
    g2_exp, h2_exp = (fastexp.fixed_base(b, cp, order=cq) for b in (g2, h2))
    powm = fastexp.powm
    for j in range(n):
        u, t = proof.commitments_u[j], proof.commitments_t[j]
        a, b, c = proof.responses[j]
        if (bits >> j) & 1:
            delta, eta, eps = a, b, c
            # γ^δ < p_t = q_{t+1}: already reduced for the child storey
            gamma_delta = gamma_exp(delta)
            if c_parent * (g_exp(delta) * h_exp(eta) % pp) % pp != u:
                return False
            if powm(c_child, gamma_delta, cp) * h2_exp(eps) % cp != t:
                return False
        else:
            w, v, sigma = a, b, c
            if g_exp(w) * h_exp(v) % pp != u:
                return False
            if g2_exp(gamma_exp(w)) * h2_exp(sigma) % cp != t:
                return False
    return True


def collect_edge(
    parent_grp: SchnorrGroup,
    g: int,
    h: int,
    c_parent: int,
    gamma: int,
    child_grp: SchnorrGroup,
    g2: int,
    h2: int,
    c_child: int,
    proof: CommittedEdgeProof,
    transcript: Transcript,
) -> list[LinearCheck] | None:
    """:func:`verify_edge` with the per-round equations deferred.

    Eager: the tower-link and structural checks, every membership
    check, the transcript traffic and the challenge bits — plus the
    *inner* exponent ``γ^δ`` (resp. ``γ^w``) of each round, which is an
    exponent of the next storey and cannot be deferred.  Each round
    then contributes two :class:`LinearCheck`\\ s, one per storey (they
    live in different groups, so the batch verifier keeps them in
    separate multi-exps automatically).  This also collapses the ~5
    sequential exponentiations per round into batched terms over the
    tower-fixed bases ``g, h, γ, g2, h2`` — the single biggest
    amortization of the deposit path.
    """
    _check_tower_link(parent_grp, child_grp)
    n = proof.rounds
    if n < 1 or len(proof.commitments_t) != n or len(proof.responses) != n:
        return None
    if not parent_grp.contains_all(proof.commitments_u):
        return None
    if not child_grp.contains_all(proof.commitments_t):
        return None
    if not parent_grp.contains(c_parent % parent_grp.p):
        return None
    if not child_grp.contains(c_child % child_grp.p):
        return None

    transcript.absorb_ints(
        g, h, c_parent, gamma, g2, h2, c_child, *proof.commitments_u, *proof.commitments_t
    )
    bits = transcript.challenge(1 << n)

    checks: list[LinearCheck] = []
    pp, pq = parent_grp.p, parent_grp.q
    cp, cq = child_grp.p, child_grp.q
    for j in range(n):
        u, t = proof.commitments_u[j], proof.commitments_t[j]
        a, b, c = proof.responses[j]
        if (bits >> j) & 1:
            delta, eta, eps = a, b, c
            gamma_delta = parent_grp.exp_fixed(gamma, delta)
            # C_par · g^δ · h^η == u
            checks.append(linear_check(
                pp, pq, [(c_parent, 1), (g, delta), (h, eta), (u, -1)]
            ))
            # C_ch^(γ^δ) · h2^ε == τ
            checks.append(linear_check(
                cp, cq, [(c_child, gamma_delta), (h2, eps), (t, -1)]
            ))
        else:
            w, v, sigma = a, b, c
            gamma_w = parent_grp.exp_fixed(gamma, w)
            # g^w · h^v == u
            checks.append(linear_check(pp, pq, [(g, w), (h, v), (u, -1)]))
            # g2^(γ^w) · h2^σ == τ
            checks.append(linear_check(
                cp, cq, [(g2, gamma_w), (h2, sigma), (t, -1)]
            ))
    return checks


def prove_revealed_edge(
    parent_grp: SchnorrGroup,
    g: int,
    h: int,
    c_parent: int,
    gamma: int,
    child_public: int,
    parent: int,
    r_parent: int,
    rng: random.Random,
    transcript: Transcript,
) -> RevealedEdgeProof:
    """Prove the public *child* equals ``γ^parent`` for the committed parent.

    Standard two-statement Schnorr AND-proof sharing the witness.
    """
    if parent_grp.exp(gamma, parent) != child_public % parent_grp.p:
        raise ValueError("child does not match the derivation")
    if parent_grp.mul(parent_grp.exp(g, parent), parent_grp.exp(h, r_parent)) != c_parent % parent_grp.p:
        raise ValueError("parent commitment does not open")

    a = rng.randrange(parent_grp.q)
    b = rng.randrange(parent_grp.q)
    commitment_k = parent_grp.exp(gamma, a)
    commitment_c = parent_grp.mul(parent_grp.exp(g, a), parent_grp.exp(h, b))
    transcript.absorb_ints(g, h, c_parent, gamma, child_public, commitment_k, commitment_c)
    e = transcript.challenge(parent_grp.q)
    z1 = (a + e * parent) % parent_grp.q
    z2 = (b + e * r_parent) % parent_grp.q
    return RevealedEdgeProof(commitment_k=commitment_k, commitment_c=commitment_c, z1=z1, z2=z2)


def verify_revealed_edge(
    parent_grp: SchnorrGroup,
    g: int,
    h: int,
    c_parent: int,
    gamma: int,
    child_public: int,
    proof: RevealedEdgeProof,
    transcript: Transcript,
) -> bool:
    """Verify a revealed-child edge proof."""
    if not (parent_grp.contains(proof.commitment_k) and parent_grp.contains(proof.commitment_c)):
        return False
    # statement-side bases of the batched equations — membership
    # required for RLC soundness (honest ones are)
    if not parent_grp.contains(c_parent % parent_grp.p):
        return False
    if not parent_grp.contains(child_public % parent_grp.p):
        return False
    transcript.absorb_ints(
        g, h, c_parent, gamma, child_public, proof.commitment_k, proof.commitment_c
    )
    e = transcript.challenge(parent_grp.q)
    # γ^z1 == commitment_k * child^e   (γ, g, h tower-fixed → comb cache;
    # child and C are per-proof public bases → powm; e < q)
    if parent_grp.exp_fixed(gamma, proof.z1) != parent_grp.mul(
        proof.commitment_k, fastexp.powm(child_public, e, parent_grp.p)
    ):
        return False
    # g^z1 h^z2 == commitment_c * C^e
    lhs = parent_grp.mul(parent_grp.exp_fixed(g, proof.z1), parent_grp.exp_fixed(h, proof.z2))
    rhs = parent_grp.mul(proof.commitment_c, fastexp.powm(c_parent, e, parent_grp.p))
    return lhs == rhs


def collect_revealed_edge(
    parent_grp: SchnorrGroup,
    g: int,
    h: int,
    c_parent: int,
    gamma: int,
    child_public: int,
    proof: RevealedEdgeProof,
    transcript: Transcript,
) -> list[LinearCheck] | None:
    """:func:`verify_revealed_edge` with both equations deferred."""
    if not (parent_grp.contains(proof.commitment_k) and parent_grp.contains(proof.commitment_c)):
        return None
    if not parent_grp.contains(c_parent % parent_grp.p):
        return None
    if not parent_grp.contains(child_public % parent_grp.p):
        return None
    transcript.absorb_ints(
        g, h, c_parent, gamma, child_public, proof.commitment_k, proof.commitment_c
    )
    e = transcript.challenge(parent_grp.q)
    p, q = parent_grp.p, parent_grp.q
    return [
        # γ^z1 · commitment_k^{-1} · child^{-e} == 1
        linear_check(p, q, [(gamma, proof.z1), (proof.commitment_k, -1), (child_public, -e)]),
        # g^z1 · h^z2 · commitment_c^{-1} · C^{-e} == 1
        linear_check(p, q, [
            (g, proof.z1), (h, proof.z2), (proof.commitment_c, -1), (c_parent, -e),
        ]),
    ]
