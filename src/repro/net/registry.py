"""Codec registrations for every dataclass that crosses the wire.

Importing this module (done by ``repro.net``'s ``__init__``) makes all
protocol payload types encodable.  Registration lives here — not in the
defining modules — so the crypto/e-cash layers stay free of any
dependency on the network layer.
"""

from __future__ import annotations

from repro.crypto.cl_sig import BlindIssuanceRequest, CLSignature
from repro.crypto.pairing.curve import Point
from repro.crypto.pairing.field import Fp2
from repro.crypto.partial_blind import PartialBlindSignature
from repro.crypto.zkp.committed_double_log import CommittedEdgeProof, RevealedEdgeProof
from repro.crypto.zkp.double_log import DoubleLogProof
from repro.crypto.zkp.equality import EqualityProof
from repro.crypto.zkp.schnorr import SchnorrProof
from repro.ecash.spend import SpendToken
from repro.ecash.tree import NodeId
from repro.net.codec import register

_WIRE_TYPES = (
    Fp2,
    Point,
    CLSignature,
    BlindIssuanceRequest,
    PartialBlindSignature,
    SchnorrProof,
    DoubleLogProof,
    EqualityProof,
    CommittedEdgeProof,
    RevealedEdgeProof,
    NodeId,
    SpendToken,
)


def register_wire_types() -> None:
    """Idempotently register every wire-crossing dataclass."""
    for cls in _WIRE_TYPES:
        register(cls)


register_wire_types()
