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
from itertools import chain

from repro._util import int_seq, naturals
from repro.crypto import fastexp
from repro.crypto.groups import SchnorrGroup
from repro.crypto.hashing import Transcript

__all__ = [
    "CommittedEdgeProof",
    "RevealedEdgeProof",
    "prove_edge",
    "verify_edge",
    "prove_revealed_edge",
    "verify_revealed_edge",
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


@dataclass(frozen=True)
class RevealedEdgeProof:
    """Single-round proof that a public child equals γ^(committed parent)."""

    commitment_k: int  # γ^a in the derivation storey
    commitment_c: int  # g^a h^b in the parent commitment storey
    z1: int
    z2: int


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
    """Verify a hidden-child edge proof.

    With the kernel loaded and the five storey tables resident, the
    rounds run in one ``edge_rounds`` call; otherwise the loop below
    runs them, and it is the kernel's oracle.
    """
    _check_tower_link(parent_grp, child_grp)
    responses = proof.responses
    # every value is attacker-supplied: refused unless it is the ints
    # the rounds take, before anything is absorbed or exponentiated
    if not (naturals(c_parent, c_child) and int_seq(proof.commitments_u)
            and int_seq(proof.commitments_t) and type(responses) in (tuple, list)
            and {*map(type, responses)} <= {tuple} and {*map(len, responses)} <= {3}
            and int_seq([*chain.from_iterable(responses)])):
        return False
    n = proof.rounds
    if n < 1 or len(proof.commitments_t) != n or len(responses) != n:
        return False
    if not parent_grp.contains_all(proof.commitments_u):
        return False
    if not child_grp.contains_all(proof.commitments_t):
        return False
    # the statement commitments are attacker-supplied too: refused
    # outside their storey's subgroup before any round exponentiates
    # them (honest ones pass)
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
    tables = (*(fastexp.fixed_base(b, pp, order=pq) for b in (g, h, gamma)),
              *(fastexp.fixed_base(b, cp, order=cq) for b in (g2, h2)))
    kernel = fastexp.KERNEL
    if kernel is not None and all(isinstance(t, fastexp.FixedBaseTable) for t in tables):
        j, equation = kernel.edge_rounds(
            [t.kernel_rows() for t in tables], c_parent, c_child, bits,
            proof.commitments_u, proof.commitments_t, responses, pp, pq, cp, cq)
        _credit_rounds(bits, j, equation)
        return not equation
    g_exp, h_exp, gamma_exp, g2_exp, h2_exp = tables
    powm = fastexp.powm
    for j in range(n):
        u, t = proof.commitments_u[j], proof.commitments_t[j]
        a, b, c = responses[j]
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


#: (table exponentiations, powm calls) of the loop above in one round,
#: by (challenge bit, equation it stops at; 0 = passes)
_ROUND_COST = {(1, 0): (4, 1), (1, 1): (3, 0), (1, 2): (4, 1),
               (0, 0): (5, 0), (0, 1): (2, 0), (0, 2): (5, 0)}


def _credit_rounds(bits: int, j: int, equation: int) -> None:
    """Count in :data:`~repro.crypto.fastexp.KERNEL_CALLS` what the loop
    of :func:`verify_edge` calls on the kernel when it passes rounds
    ``0 .. j-1`` and stops in round *j* at *equation* (0: no stop)."""
    ones = (bits & ((1 << j) - 1)).bit_count()
    exps = ones * _ROUND_COST[1, 0][0] + (j - ones) * _ROUND_COST[0, 0][0]
    powms = ones
    if equation:
        stop = _ROUND_COST[(bits >> j) & 1, equation]
        exps += stop[0]
        powms += stop[1]
    fastexp.KERNEL_CALLS["exp_c"] += exps
    fastexp.KERNEL_CALLS["powm_c"] += powms


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
    # attacker-supplied: the values absorbed must be ints >= 0, the
    # responses ints, before anything is absorbed or exponentiated
    if not (naturals(c_parent, child_public, proof.commitment_k, proof.commitment_c)
            and type(proof.z1) is int and type(proof.z2) is int):
        return False
    if not (parent_grp.contains(proof.commitment_k) and parent_grp.contains(proof.commitment_c)):
        return False
    # the statement side is attacker-supplied too: refused outside the
    # subgroup before either value is exponentiated (honest ones pass)
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
