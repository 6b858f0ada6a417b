"""Schnorr proofs of knowledge of a discrete logarithm (paper ref [34]).

Two flavours share the same sigma-protocol skeleton, made
non-interactive by Fiat–Shamir:

* :func:`prove_dlog` / :func:`verify_dlog` — over a
  :class:`~repro.crypto.groups.SchnorrGroup` (elements are ints);
* :func:`prove_dlog_generic` / :func:`verify_dlog_generic` — over any
  bilinear backend (used by the CL blind-issuance flow, where elements
  may be curve points).

Statement: "I know *x* with ``Y = base^x``."  Transcript binding is the
caller's job: pass a :class:`~repro.crypto.hashing.Transcript` that has
already absorbed the context (group, statement, session identifiers) so
proofs cannot be replayed across contexts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.crypto.groups import SchnorrGroup
from repro.crypto.hashing import Transcript

__all__ = [
    "SchnorrProof",
    "prove_dlog",
    "verify_dlog",
    "prove_dlog_generic",
    "verify_dlog_generic",
]


@dataclass(frozen=True)
class SchnorrProof:
    """Non-interactive Schnorr proof ``(commitment, response)``.

    The challenge is recomputed from the transcript at verify time.
    ``commitment`` is a group element (int or backend element);
    ``response`` is a scalar.
    """

    commitment: object
    response: int


# ---------------------------------------------------------------------------
# SchnorrGroup (int element) flavour
# ---------------------------------------------------------------------------

def prove_dlog(
    group: SchnorrGroup,
    base: int,
    statement: int,
    witness: int,
    rng: random.Random,
    transcript: Transcript,
) -> SchnorrProof:
    """Prove knowledge of ``witness`` with ``statement = base^witness``."""
    if group.exp(base, witness) != statement:
        raise ValueError("witness does not satisfy the statement")
    k = group.random_exponent(rng)
    commitment = group.exp(base, k)
    transcript.absorb_ints(base, statement, commitment)
    e = transcript.challenge(group.q)
    response = (k + e * witness) % group.q
    return SchnorrProof(commitment=commitment, response=response)


def verify_dlog(
    group: SchnorrGroup,
    base: int,
    statement: int,
    proof: SchnorrProof,
    transcript: Transcript,
) -> bool:
    """Verify a :func:`prove_dlog` proof against the same transcript."""
    commitment = proof.commitment
    if not isinstance(commitment, int) or not group.contains(commitment):
        return False
    if not group.contains(statement % group.p):
        return False
    transcript.absorb_ints(base, statement, commitment)
    e = transcript.challenge(group.q)
    # the base recurs across every proof over this group — comb cache;
    # the statement is proof-specific, so plain exp
    lhs = group.exp_fixed(base, proof.response)
    rhs = group.mul(commitment, group.exp(statement, e))
    return lhs == rhs


# ---------------------------------------------------------------------------
# generic bilinear-backend flavour
# ---------------------------------------------------------------------------

def _absorb_element(transcript: Transcript, backend, element) -> None:
    for v in backend.element_encode(element):
        transcript.absorb_int(int(v))


def prove_dlog_generic(
    backend,
    base,
    statement,
    witness: int,
    rng: random.Random,
    transcript: Transcript,
) -> SchnorrProof:
    """Schnorr PoK over an arbitrary prime-order backend group."""
    k = backend.random_scalar(rng)
    commitment = backend.exp(base, k)
    _absorb_element(transcript, backend, commitment)
    e = transcript.challenge(backend.order)
    response = (k + e * witness) % backend.order
    return SchnorrProof(commitment=commitment, response=response)


def verify_dlog_generic(
    backend,
    base,
    statement,
    proof: SchnorrProof,
    transcript: Transcript,
) -> bool:
    """Verify a generic-backend Schnorr proof."""
    _absorb_element(transcript, backend, proof.commitment)
    e = transcript.challenge(backend.order)
    exp_fixed = getattr(backend, "exp_fixed", backend.exp)
    lhs = exp_fixed(base, proof.response)
    rhs = backend.mul(proof.commitment, backend.exp(statement, e))
    return backend.element_encode(lhs) == backend.element_encode(rhs)
