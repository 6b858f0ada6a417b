"""Camenisch–Lysyanskaya signatures from bilinear maps (paper ref [27]).

Implements CL *Scheme A* over any backend satisfying the bilinear-group
interface of :mod:`repro.crypto.pairing`:

* ``KeyGen``: sk = (x, y);  pk = (X = g^x, Y = g^y).
* ``Sign(m)``: pick random a ∈ G; output (a, b = a^y, c = a^{x + x·y·m}).
* ``Verify``: check  e(a, Y) = e(g, b)  and  e(X, a) · e(X, b)^m = e(g, c).

On top of the plain scheme we provide the *blind issuance* protocol from
the same paper: the requester submits a Pedersen-style commitment
``M = g^m`` (with a Schnorr proof of knowledge of *m*); the signer picks
``α`` and returns ``(a = g^α, b = a^y, c = a^x · M^{α·x·y})`` — a valid
signature on *m* that the signer never saw.  Since ``a^y = Y^α`` and
``a^x = X^α``, the signer draws all three from fixed-base tables on
``g`` and its own public key, leaving one variable-base exponentiation
(``M^{α·x·y}``).  PPMSdec withdraws divisible
e-cash this way: the coin secret stays with the JO, the bank's CL
signature certifies it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.crypto.hashing import Transcript
from repro.crypto.zkp.schnorr import SchnorrProof, prove_dlog_generic, verify_dlog_generic

__all__ = [
    "CLKeyPair",
    "CLPublicKey",
    "CLSignature",
    "cl_keygen",
    "cl_sign",
    "cl_verify",
    "BlindIssuanceRequest",
    "cl_blind_request",
    "cl_blind_issue",
    "cl_blind_unwrap",
]


@dataclass(frozen=True)
class CLPublicKey:
    """CL public key ``(X, Y)`` over a shared bilinear backend."""

    X: Any
    Y: Any


@dataclass(frozen=True)
class CLKeyPair:
    """CL key pair; ``public`` carries the published half."""

    x: int
    y: int
    public: CLPublicKey


@dataclass(frozen=True)
class CLSignature:
    """A CL Scheme-A signature ``(a, b, c)`` on a scalar message."""

    a: Any
    b: Any
    c: Any


def _exp_fixed(backend, base, scalar: int):
    """Exponentiate a long-lived base, via the backend's table cache if any."""
    return getattr(backend, "exp_fixed", backend.exp)(base, scalar)


def cl_keygen(backend, rng: random.Random) -> CLKeyPair:
    """Generate a CL key pair on *backend*."""
    x = backend.random_scalar(rng)
    y = backend.random_scalar(rng)
    public = CLPublicKey(X=_exp_fixed(backend, backend.g, x), Y=_exp_fixed(backend, backend.g, y))
    return CLKeyPair(x=x, y=y, public=public)


def cl_sign(backend, keypair: CLKeyPair, message: int, rng: random.Random) -> CLSignature:
    """Sign scalar *message* (reduced mod group order)."""
    m = message % backend.order
    alpha = backend.random_scalar(rng)
    a = _exp_fixed(backend, backend.g, alpha)
    b = backend.exp(a, keypair.y)
    c = backend.exp(a, (keypair.x + keypair.x * keypair.y * m) % backend.order)
    return CLSignature(a=a, b=b, c=c)


def cl_verify(backend, pk: CLPublicKey, message: int, sig: CLSignature) -> bool:
    """Verify via the two pairing equations of Scheme A.

    A signature point the backend cannot pair is refused first: every
    pairing against a point with no order-*r* part is 1, so ``(T, T, T)``
    for such a point would satisfy both equations for any message.
    """
    if not all(backend.pairable(pt) for pt in (sig.a, sig.b, sig.c)):
        return False
    m = message % backend.order
    # e(a, Y) == e(g, b)
    if not backend.gt_eq(backend.pair(sig.a, pk.Y), backend.pair(backend.g, sig.b)):
        return False
    # e(X, a) * e(X, b)^m == e(g, c)
    lhs = backend.gt_mul(
        backend.pair(pk.X, sig.a),
        backend.gt_exp(backend.pair(pk.X, sig.b), m),
    )
    return backend.gt_eq(lhs, backend.pair(backend.g, sig.c))


# ---------------------------------------------------------------------------
# blind issuance on a committed message
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlindIssuanceRequest:
    """Commitment ``M = g^m`` plus a PoK of the committed exponent."""

    commitment: Any
    proof: SchnorrProof


def cl_blind_request(backend, message: int, rng: random.Random) -> tuple[BlindIssuanceRequest, int]:
    """Requester side, move 1: commit to *message* and prove knowledge.

    Returns the request to send and the reduced message the requester
    must remember for unwrap-time verification.
    """
    m = message % backend.order
    commitment = _exp_fixed(backend, backend.g, m)
    transcript = Transcript(b"cl-blind-issuance")
    transcript.absorb_ints(*_encode(backend, backend.g))
    transcript.absorb_ints(*_encode(backend, commitment))
    proof = prove_dlog_generic(backend, backend.g, commitment, m, rng, transcript)
    return BlindIssuanceRequest(commitment=commitment, proof=proof), m


def cl_blind_issue(
    backend, keypair: CLKeyPair, request: BlindIssuanceRequest, rng: random.Random
) -> CLSignature:
    """Signer side: issue a signature on the *committed* message.

    Refuses (``ValueError``) a proof that is not a
    :class:`~repro.crypto.zkp.schnorr.SchnorrProof` with an int
    response, and a commitment or proof commitment that is not a
    non-identity element of the backend's group — with ``M = R =
    O`` and response 0 the proof holds and ``(a, a^y, a^x)`` would be a
    signature on 0 — then verifies the PoK (a malformed commitment would
    let a cheating requester extract a signature on a message it cannot
    open), then computes ``(a, b, c)`` without ever learning *m*.
    """
    proof = request.proof
    if type(proof) is not SchnorrProof or type(proof.response) is not int:
        raise ValueError("blind issuance request proof is malformed")
    if not all(backend.member(el) for el in (request.commitment, proof.commitment)):
        raise ValueError("blind issuance request holds a point outside the group")
    transcript = Transcript(b"cl-blind-issuance")
    transcript.absorb_ints(*_encode(backend, backend.g))
    transcript.absorb_ints(*_encode(backend, request.commitment))
    if not verify_dlog_generic(backend, backend.g, request.commitment, proof, transcript):
        raise ValueError("blind issuance request proof failed")
    alpha = backend.random_scalar(rng)
    pk = keypair.public
    a = _exp_fixed(backend, backend.g, alpha)
    b = _exp_fixed(backend, pk.Y, alpha)  # a^y = Y^α
    # c = a^x * M^(α x y)  =  X^α * M^(α x y)  =  a^(x + x y m)
    c = backend.mul(
        _exp_fixed(backend, pk.X, alpha),
        backend.exp(request.commitment, (alpha * keypair.x * keypair.y) % backend.order),
    )
    return CLSignature(a=a, b=b, c=c)


def cl_blind_unwrap(backend, pk: CLPublicKey, message: int, sig: CLSignature) -> CLSignature:
    """Requester side, move 2: validate the blindly issued signature.

    Raises :class:`ValueError` when the signer misbehaved; otherwise the
    signature is exactly a Scheme-A signature on *message*.
    """
    if not cl_verify(backend, pk, message, sig):
        raise ValueError("blindly issued CL signature failed verification")
    return sig


def _encode(backend, element) -> tuple[int, ...]:
    """Flatten a backend group element into ints for transcript absorption."""
    enc = backend.element_encode(element)
    return tuple(int(v) for v in enc)
