"""Equality of a witness across two groups of the same prime order.

The divisible e-cash spend must show that the scalar certified by the
bank's CL signature (a pairing-group exponent) equals the coin secret
committed inside the DEC group tower's storey 0.  ``setup`` builds the
pairing group on storey 0's prime ``q``, so this is a plain AND of two
Schnorr-style statements under one challenge, with responses mod ``q``:

* ``D = g^s * h^t``      in a Schnorr group (Pedersen commitment), and
* ``V = B^s``            in an arbitrary "exponentiation oracle" group
  of the same order ``q`` (for us: the pairing target group G_T).

Special soundness: two accepting answers ``(e₁, z₁, z_t1)`` and
``(e₂, z₂, z_t2)`` to one commitment open both statements with
``s = (z₁ − z₂)/(e₁ − e₂) mod q``, so the two secrets agree mod ``q``,
and a coin secret is below ``q``.  Zero knowledge is perfect.

The second group is abstracted as a pair of callables so this module
stays independent of the pairing backend.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro._util import naturals
from repro.crypto import fastexp
from repro.crypto.groups import SchnorrGroup
from repro.crypto.hashing import Transcript

__all__ = [
    "EqualityProof",
    "prove_equality",
    "verify_equality",
    "verify_equality_deferred",
]


@dataclass(frozen=True)
class EqualityProof:
    """Same-order equality proof.

    ``commitment_a`` lives in the Schnorr group; ``commitment_b`` is the
    second group's element encoded by the caller-supplied encoder.
    ``z`` is the response for the shared witness and ``z_t`` for the
    Pedersen randomizer, both mod ``q``.
    """

    commitment_a: int
    commitment_b: tuple
    z: int
    z_t: int

    def encoded_size(self, element_bytes: int, scalar_bytes: int) -> int:
        """Wire size estimate used by the Table II accounting."""
        return 2 * element_bytes + 2 * scalar_bytes


def prove_equality(
    group_a: SchnorrGroup,
    g: int,
    h: int,
    commitment: int,
    exp_b: Callable[[int], object],
    encode_b: Callable[[object], tuple],
    statement_b: object,
    witness: int,
    randomizer: int,
    rng: random.Random,
    transcript: Transcript,
) -> EqualityProof:
    """Prove the same ``witness < q`` opens both statements.

    ``commitment = g^witness * h^randomizer`` in *group_a* and
    ``statement_b = exp_b(witness)`` in the second group (``exp_b`` is
    exponentiation of that group's fixed base), whose order is
    ``group_a.q`` too.
    """
    q = group_a.q
    if not 0 <= witness < q:
        raise ValueError("witness is not an exponent mod q")
    if group_a.mul(group_a.exp(g, witness), group_a.exp(h, randomizer)) != commitment % group_a.p:
        raise ValueError("commitment does not open to the witness")

    k = rng.randrange(q)
    k_t = group_a.random_exponent(rng)
    commitment_a = group_a.mul(group_a.exp(g, k), group_a.exp(h, k_t))
    commitment_b = encode_b(exp_b(k))

    transcript.absorb_ints(g, h, commitment, commitment_a)
    transcript.absorb_ints(*(int(v) for v in encode_b(statement_b)))
    transcript.absorb_ints(*(int(v) for v in commitment_b))
    e = transcript.challenge(q)

    return EqualityProof(
        commitment_a=commitment_a,
        commitment_b=tuple(int(v) for v in commitment_b),
        z=(k + e * witness) % q,
        z_t=(k_t + e * randomizer) % q,
    )


def verify_equality_deferred(
    group_a: SchnorrGroup,
    g: int,
    h: int,
    commitment: int,
    encode_b: Callable[[object], tuple],
    statement_b: object,
    proof: EqualityProof,
    transcript: Transcript,
) -> int | None:
    """Everything except the group-B equation; returns the challenge.

    Performs the type and response range checks (``0 ≤ z, z_t < q``),
    the group-A Schnorr equation and the Fiat–Shamir challenge
    derivation (absorbing exactly what :func:`verify_equality` absorbs).
    The group-B equation ``B^z == R_B * V^e`` is *not* checked: this
    module has no group-B operations, so the caller checks it
    (:func:`verify_equality`, or :func:`repro.ecash.spend.verify_spend`
    on G_T, which also decodes and membership-checks
    ``proof.commitment_b`` first).  Returns ``None`` when any of the
    performed checks fails.
    """
    q = group_a.q
    # attacker-supplied: every value is an int (those absorbed >= 0)
    # before any is absorbed, and each response is a residue mod q
    if not (naturals(commitment, proof.commitment_a) and type(proof.z) is int
            and type(proof.z_t) is int and type(proof.commitment_b) is tuple
            and naturals(*proof.commitment_b)):
        return None
    if not (0 <= proof.z < q and 0 <= proof.z_t < q):
        return None
    # R_A and D are attacker-supplied: refused outside the subgroup
    # before either is multiplied or exponentiated (honest ones pass)
    if not group_a.contains(proof.commitment_a):
        return None
    if not group_a.contains(commitment % group_a.p):
        return None

    transcript.absorb_ints(g, h, commitment, proof.commitment_a)
    transcript.absorb_ints(*(int(v) for v in encode_b(statement_b)))
    transcript.absorb_ints(*proof.commitment_b)
    e = transcript.challenge(q)

    # group A: g^z h^{z_t} == R_A * D^e  (g, h are market-fixed bases;
    # D is a per-proof public base → powm)
    lhs_a = group_a.mul(group_a.exp_fixed(g, proof.z), group_a.exp_fixed(h, proof.z_t))
    rhs_a = group_a.mul(proof.commitment_a, fastexp.powm(commitment, e, group_a.p))
    if lhs_a != rhs_a:
        return None
    return e


def verify_equality(
    group_a: SchnorrGroup,
    g: int,
    h: int,
    commitment: int,
    exp_b: Callable[[int], object],
    mul_b: Callable[[object, object], object],
    exp_el_b: Callable[[object, int], object],
    encode_b: Callable[[object], tuple],
    decode_b: Callable[[tuple], object],
    statement_b: object,
    proof: EqualityProof,
    transcript: Transcript,
) -> bool:
    """Verify an :class:`EqualityProof`.

    The second group is driven through callables: fixed-base exponent
    (``exp_b``), element multiply (``mul_b``), element exponent
    (``exp_el_b``) and the encoder/decoder pair.
    """
    e = verify_equality_deferred(
        group_a, g, h, commitment, encode_b, statement_b, proof, transcript,
    )
    if e is None:
        return False

    # group B: B^z == R_B * V^e
    lhs_b = exp_b(proof.z)
    rhs_b = mul_b(decode_b(proof.commitment_b), exp_el_b(statement_b, e))
    return tuple(int(v) for v in encode_b(lhs_b)) == tuple(int(v) for v in encode_b(rhs_b))
