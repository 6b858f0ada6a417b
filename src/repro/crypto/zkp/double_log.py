"""Stadler proof of knowledge of a double discrete logarithm (ref [36]).

Statement: "I know *x* with ``y = g^(h^x)``" where

* the *outer* group ``<g>`` has prime order ``q_out``,
* the *inner* group ``<h>`` lives inside ``Z*_{q_out}`` (its elements
  are valid exponents for *g*) and has prime order ``q_in``.

This is exactly the relation between adjacent storeys of the Divisible
E-cash group tower — the coin secret at level *i* is the double log of
the node key at level *i+1* — and is why the tower orders must form a
Cunningham chain.

The protocol is cut-and-choose with soundness error ``2^-rounds``:
per round the prover commits ``t_j = g^(h^{w_j})``; on challenge bit 0
it opens ``w_j``, on bit 1 it opens ``w_j - x`` and the verifier checks
against *y* instead of *g*.  Fiat–Shamir derives all bits from one
transcript challenge.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.crypto.groups import SchnorrGroup
from repro.crypto.hashing import Transcript

__all__ = ["DoubleLogProof", "prove_double_log", "verify_double_log"]

DEFAULT_ROUNDS = 32


@dataclass(frozen=True)
class DoubleLogProof:
    """Cut-and-choose double-discrete-log proof."""

    commitments: tuple[int, ...]
    responses: tuple[int, ...]

    @property
    def rounds(self) -> int:
        return len(self.commitments)

    def encoded_size(self, element_bytes: int, scalar_bytes: int) -> int:
        """Wire size estimate used by the Table II accounting."""
        return self.rounds * (element_bytes + scalar_bytes)


def _inner_exp(outer: SchnorrGroup, h: int, e: int) -> int:
    """``h^e`` computed in ``Z*_{q_out}`` (the inner group's home)."""
    return pow(h, e, outer.q)


def prove_double_log(
    outer: SchnorrGroup,
    h: int,
    q_in: int,
    statement: int,
    witness: int,
    rng: random.Random,
    transcript: Transcript,
    *,
    rounds: int = DEFAULT_ROUNDS,
) -> DoubleLogProof:
    """Prove knowledge of *witness* with ``statement = g^(h^witness)``.

    ``q_in`` is the (prime) order of *h* in ``Z*_{q_out}``.
    """
    if rounds < 1:
        raise ValueError("need at least one round")
    if outer.power(_inner_exp(outer, h, witness)) != statement:
        raise ValueError("witness does not satisfy the statement")

    nonces = [rng.randrange(q_in) for _ in range(rounds)]
    commitments = tuple(outer.power(_inner_exp(outer, h, w)) for w in nonces)
    transcript.absorb_ints(outer.g, h, statement, *commitments)
    bits = transcript.challenge(1 << rounds)
    responses = []
    for j, w in enumerate(nonces):
        if (bits >> j) & 1:
            responses.append((w - witness) % q_in)
        else:
            responses.append(w)
    return DoubleLogProof(commitments=commitments, responses=tuple(responses))


def verify_double_log(
    outer: SchnorrGroup,
    h: int,
    q_in: int,
    statement: int,
    proof: DoubleLogProof,
    transcript: Transcript,
) -> bool:
    """Verify a :func:`prove_double_log` proof."""
    if len(proof.responses) != len(proof.commitments):
        return False
    if not proof.commitments:
        return False
    if not outer.contains_all(proof.commitments):
        return False
    if not outer.contains(statement % outer.p):
        return False
    transcript.absorb_ints(outer.g, h, statement, *proof.commitments)
    bits = transcript.challenge(1 << proof.rounds)
    for j, (t, r) in enumerate(zip(proof.commitments, proof.responses)):
        if not 0 <= r < q_in:
            return False
        inner = _inner_exp(outer, h, r)
        if (bits >> j) & 1:
            # t must equal y^(h^r) = g^(h^x * h^(w-x))
            if outer.exp(statement, inner) != t:
                return False
        else:
            if outer.power(inner) != t:
                return False
    return True
