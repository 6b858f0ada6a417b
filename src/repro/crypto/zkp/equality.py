"""Equality of a witness across groups of different order.

The divisible e-cash spend must show that the scalar certified by the
bank's CL signature (a pairing-group exponent, order ``r_T``) equals the
coin secret committed inside the DEC group tower (order ``q_A``).  The
two orders are different primes, so naive shared-challenge Schnorr
responses cannot be reduced modulo a common order.

We use the classic *integer-response* technique (Camenisch–Michels
style): the nonce and the response live over the integers, never
reduced, and statistical blinding hides the witness.  Given bound
``witness < 2^b`` the proof convinces the verifier that the **same
integer** opens both statements:

* ``D = g^s * h^t``      in a Schnorr group (Pedersen commitment), and
* ``V = B^s``            in an arbitrary "exponentiation oracle" group
  (for us: the pairing target group G_T).

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

#: statistical blinding slack in bits
_STAT_BITS = 64
#: Fiat–Shamir challenge length in bits
_CHALLENGE_BITS = 128


@dataclass(frozen=True)
class EqualityProof:
    """Cross-group equality proof.

    ``commitment_a`` lives in the Schnorr group; ``commitment_b`` is the
    second group's element encoded by the caller-supplied encoder.
    ``z`` is the *integer* response for the shared witness; ``z_t`` the
    (mod q) response for the Pedersen randomizer.
    """

    commitment_a: int
    commitment_b: tuple
    z: int
    z_t: int
    witness_bits: int

    def encoded_size(self, element_bytes: int, scalar_bytes: int) -> int:
        """Wire size estimate used by the Table II accounting."""
        z_bytes = (self.witness_bits + _CHALLENGE_BITS + _STAT_BITS) // 8 + 2
        return 2 * element_bytes + z_bytes + scalar_bytes


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
    witness_bits: int,
    rng: random.Random,
    transcript: Transcript,
) -> EqualityProof:
    """Prove the same ``witness < 2^witness_bits`` opens both statements.

    ``commitment = g^witness * h^randomizer`` in *group_a* and
    ``statement_b = exp_b(witness)`` in the second group (``exp_b`` is
    exponentiation of that group's fixed base).
    """
    if not 0 <= witness < (1 << witness_bits):
        raise ValueError("witness exceeds the declared bit bound")
    if group_a.mul(group_a.exp(g, witness), group_a.exp(h, randomizer)) != commitment % group_a.p:
        raise ValueError("commitment does not open to the witness")

    nonce_bound = 1 << (witness_bits + _CHALLENGE_BITS + _STAT_BITS)
    k = rng.randrange(nonce_bound)
    k_t = group_a.random_exponent(rng)
    commitment_a = group_a.mul(group_a.exp(g, k), group_a.exp(h, k_t))
    commitment_b = encode_b(exp_b(k))

    transcript.absorb_ints(g, h, commitment, commitment_a)
    transcript.absorb_ints(*(int(v) for v in encode_b(statement_b)))
    transcript.absorb_ints(*(int(v) for v in commitment_b))
    e = transcript.challenge(1 << _CHALLENGE_BITS)

    z = k + e * witness  # over the integers — never reduced
    z_t = (k_t + e * randomizer) % group_a.q
    return EqualityProof(
        commitment_a=commitment_a,
        commitment_b=tuple(int(v) for v in commitment_b),
        z=z,
        z_t=z_t,
        witness_bits=witness_bits,
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
    *,
    witness_bits: int,
) -> int | None:
    """Everything except the group-B equation; returns the challenge.

    *witness_bits* is the verifier's public bound on the witness; a
    proof declaring any other bound is refused.  Performs the type and
    response range checks, the group-A Schnorr equation and the
    Fiat–Shamir challenge derivation (absorbing exactly what
    :func:`verify_equality` absorbs).  The group-B equation
    ``B^z == R_B * V^e`` is *not* checked: this module has no group-B
    operations, so the caller checks it (:func:`verify_equality`, or
    :func:`repro.ecash.spend.verify_spend` on G_T, which also decodes
    and membership-checks ``proof.commitment_b`` first).  Returns
    ``None`` when any of the performed checks fails.
    """
    # attacker-supplied: the bound is the verifier's, and every value is
    # an int (those absorbed >= 0) before any is absorbed or shifted
    if type(proof.witness_bits) is not int or proof.witness_bits != witness_bits:
        return None
    if not (naturals(commitment, proof.commitment_a) and type(proof.z) is int
            and type(proof.z_t) is int and type(proof.commitment_b) is tuple
            and naturals(*proof.commitment_b)):
        return None
    bound = 1 << (witness_bits + 2 * _CHALLENGE_BITS + _STAT_BITS)
    if not 0 <= proof.z < bound:
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
    e = transcript.challenge(1 << _CHALLENGE_BITS)

    # group A: g^z h^{z_t} == R_A * D^e  (g, h are market-fixed bases;
    # reducing the integer response mod q is sound inside the subgroup;
    # D is a per-proof public base → powm)
    lhs_a = group_a.mul(group_a.exp_fixed(g, proof.z), group_a.exp_fixed(h, proof.z_t))
    rhs_a = group_a.mul(proof.commitment_a,
                        fastexp.powm(commitment, e % group_a.q, group_a.p))
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
    *,
    witness_bits: int,
) -> bool:
    """Verify an :class:`EqualityProof` for a witness below
    ``2^witness_bits``.

    The second group is driven through callables: fixed-base exponent
    (``exp_b``), element multiply (``mul_b``), element exponent
    (``exp_el_b``) and the encoder/decoder pair.
    """
    e = verify_equality_deferred(
        group_a, g, h, commitment, encode_b, statement_b, proof, transcript,
        witness_bits=witness_bits,
    )
    if e is None:
        return False

    # group B: B^z == R_B * V^e
    lhs_b = exp_b(proof.z)
    rhs_b = mul_b(decode_b(proof.commitment_b), exp_el_b(statement_b, e))
    return tuple(int(v) for v in encode_b(lhs_b)) == tuple(int(v) for v in encode_b(rhs_b))
