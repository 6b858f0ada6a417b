"""Bilinear pairing backends.

Two interchangeable backends implement the bilinear-group interface the
CL-signature layer consumes:

* :class:`~repro.crypto.pairing.tate.TatePairing` — a real reduced Tate
  pairing on the supersingular curve ``y² = x³ + x`` (Miller's
  algorithm over :class:`~repro.crypto.pairing.field.Fp2`).
* :class:`~repro.crypto.pairing.toy.ToyPairing` — the trivial
  multiplicative→additive map the paper itself suggests; fast and
  structurally correct but with no hardness.

:func:`repro.ecash.dec.setup` builds either on the prime order of the
coin tower's storey 0.
"""

from __future__ import annotations

from repro.crypto.pairing.curve import CurveParams, Point, generate_curve
from repro.crypto.pairing.field import Fp2
from repro.crypto.pairing.tate import TatePairing, miller_loop, tate_pairing
from repro.crypto.pairing.toy import ToyPairing

__all__ = [
    "CurveParams",
    "Point",
    "Fp2",
    "TatePairing",
    "ToyPairing",
    "miller_loop",
    "tate_pairing",
    "generate_curve",
]

