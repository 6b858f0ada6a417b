"""Batch verification of spend tokens (performance extension).

The MA verifies every deposited coin; with unitary cash breaks a single
payment produces up to ``2^L`` deposits, so deposit-side verification is
the bank's hot loop.  Two standard techniques cut its cost:

* **Sigma-equation RLC** — every Fiat–Shamir equation of a token is
  *linear*: a product of known bases to known exponents equals the
  identity.  The collectors in :mod:`repro.crypto.zkp` defer them as
  :class:`~repro.crypto.batchverify.LinearCheck` objects and
  :class:`~repro.crypto.batchverify.BatchVerifier` folds the whole
  batch into one Straus multi-exp per group, with 128-bit hashed
  coefficients and bisection down to exact singleton evaluation on
  failure.  The bases (``g``, ``h``, per-storey generators, per-token
  commitments repeated across rounds) merge heavily, which is where
  the bulk of the speedup lives.
* **Shared pairing product** — the two target-group equations each
  token owes (CL well-formedness ``e(a~, Y) = e(g, b~)`` and the
  equality proof's ``e(X, b~)^z == R_B * V^e``) use the fixed points
  ``g``, ``X`` and ``Y`` and are linear in G_T, so under random
  coefficients all of them collapse into one pairing product: Miller
  loops grouped per fixed point, one final exponentiation.  The
  *statement* ``V`` per token remains: the Fiat–Shamir transcript
  absorbs its encoding, so every verifier must materialize it (one
  final exponentiation for its two Miller replays).

:func:`batch_verify_spends` composes these: eager structural checks
per token, one RLC pass over all sigma equations, then both pairing
equations of every surviving token settled in a single shared pairing
product.  Failures bisect with fresh coefficients until singletons,
which are evaluated exactly — so the verdict list is always
*identical* to verifying each token alone
(:func:`~repro.ecash.spend.verify_spend`, the sequential oracle), just
faster in the common all-honest case.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.crypto.batchverify import BatchVerifier, CoefficientSource
from repro.crypto.cl_sig import CLPublicKey
from repro.ecash.spend import (
    CollectedSpend,
    DECParams,
    SpendToken,
    signature_well_formed,
    verify_spend_collect,
)

__all__ = ["batch_verify_spends"]

_SIGMA_DOMAIN = b"repro.ecash.batch.sigma"
_PAIRING_DOMAIN = b"repro.ecash.batch.pairing"


def _batched_cl_verdicts(
    params: DECParams,
    bank_pk: CLPublicKey,
    collected: Sequence[CollectedSpend | None],
    live: Sequence[int],
    source: CoefficientSource,
) -> dict[int, bool]:
    """Verdicts for both pairing equations of every *live* token.

    Each token owes two target-group equations:

    * CL well-formedness   ``e(a~, Y) == e(g, b~)``          (equation 0)
    * deferred equality    ``e(X, b~)^z == R_B · V^e``       (equation 1)

    With per-equation coefficients ``c`` they combine into one pairing
    product that must equal 1; the backend's batch shares Miller loops
    per fixed point (``Y``, ``g``, ``X`` — all table-promoted) and pays
    one final exponentiation for the whole sub-batch.  A failed product
    bisects with fresh path-salted coefficients; singletons evaluate
    the two equations exactly, so per-token decisions match
    :func:`~repro.ecash.spend.verify_spend` bit for bit.

    All adversarial G_T inputs here (``d.commitment_b``) were
    membership-checked against the order-*r* subgroup when collected;
    ``d.statement_gt`` is verifier-computed from pairings and lands in
    the subgroup by construction.  That invariant is what makes the
    small-exponent combination sound in F_{p²}^* (cofactor order).
    """
    backend = params.backend
    order = backend.order
    verdicts: dict[int, bool] = {}
    if not live:
        return verdicts
    stack: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), tuple(live))]
    while stack:
        path, indices = stack.pop()
        if len(indices) == 1:
            item = collected[indices[0]]
            verdicts[indices[0]] = signature_well_formed(
                backend, bank_pk, item.token
            ) and item.deferred.check(params, bank_pk)
            continue
        batch = backend.pairing_batch()
        for i in indices:
            item = collected[i]
            token = item.token
            d = item.deferred
            # e(Y, a~)^c · e(g, b~)^-c == 1   (pairing symmetry puts the
            # table-promoted fixed point first)
            c1 = source.coefficient(order, i, 0, path)
            batch.add_pair(bank_pk.Y, token.sig_a, c1)
            batch.add_pair(backend.g, token.sig_b, -c1)
            # e(X, b~)^{z·c} · R_B^{-c} · V^{-e·c} == 1
            c2 = source.coefficient(order, i, 1, path)
            batch.add_pair(bank_pk.X, d.sig_b, d.response * c2)
            batch.add_gt(d.commitment_b, -c2)
            batch.add_gt(d.statement_gt, -(d.challenge * c2))
        if batch.check():
            for i in indices:
                verdicts[i] = True
        else:
            mid = len(indices) // 2
            stack.append((path + (0,), indices[:mid]))
            stack.append((path + (1,), indices[mid:]))
    return verdicts


def batch_verify_spends(
    params: DECParams,
    bank_pk: CLPublicKey,
    tokens: Sequence[SpendToken],
    rng: random.Random,
    *,
    context: bytes = b"",
) -> list[bool]:
    """Verify many spend tokens; semantically equal to per-token
    :func:`~repro.ecash.spend.verify_spend`, faster when all are honest.

    Returns one verdict per token, in order.  Collects every sigma
    equation of every token
    (:func:`~repro.ecash.spend.verify_spend_collect`) and discharges
    them through one random-linear-combination pass per group — with
    bisection down to exact singleton evaluation on failure — then
    settles both pairing equations per token in a single shared pairing
    product the same way.  *rng* seeds the combining coefficients
    (hashed, auditable; see :mod:`repro.crypto.batchverify`).
    """
    if not tokens:
        return []
    seed = rng.getrandbits(256)
    collected = [
        verify_spend_collect(params, bank_pk, token, context=context)
        for token in tokens
    ]
    sigma = BatchVerifier(seed=seed, domain=_SIGMA_DOMAIN)
    for i, item in enumerate(collected):
        if item is not None:
            sigma.add(i, item.checks)
    sigma_verdicts = sigma.verify()
    live = [
        i for i, item in enumerate(collected)
        if item is not None and sigma_verdicts[i]
    ]
    cl_verdicts = _batched_cl_verdicts(
        params, bank_pk, collected, live, CoefficientSource(seed, _PAIRING_DOMAIN)
    )
    return [cl_verdicts.get(i, False) for i in range(len(tokens))]
