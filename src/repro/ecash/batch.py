"""Per-token verification of a list of spend tokens.

The MA verifies every deposited coin on its own
(:func:`~repro.ecash.spend.verify_spend`); this name exists only
because ``benchmarks/e2e/layers.py`` imports it to time the verify
layer, and it runs exactly what the server runs.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.crypto.cl_sig import CLPublicKey
from repro.ecash.spend import DECParams, SpendToken, verify_spend

__all__ = ["batch_verify_spends"]


def batch_verify_spends(
    params: DECParams,
    bank_pk: CLPublicKey,
    tokens: Sequence[SpendToken],
    rng: random.Random,
    *,
    context: bytes = b"",
) -> list[bool]:
    """One :func:`~repro.ecash.spend.verify_spend` verdict per token, in
    order; *rng* is unused (the signature ``layers.py`` calls)."""
    return [verify_spend(params, bank_pk, token, context=context) for token in tokens]
