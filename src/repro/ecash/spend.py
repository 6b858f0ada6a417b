"""Creating and verifying divisible e-cash spend tokens.

A *spend token* transfers the denomination of one tree node.  It must
convince any verifier (the receiving SP first, the bank at deposit
time) of three things while revealing nothing linkable to the
withdrawal:

1. **Certified coin** — the spender holds a bank CL signature on some
   coin secret *s*.  The token carries the signature *randomized* by a
   fresh exponent (CL signatures are perfectly re-randomizable), plus a
   cross-group equality proof that the *same* s certified by the bank
   opens the Pedersen commitment ``C_s`` in tower storey 0.
2. **Correct derivation** — the revealed node key is the end of the
   tower derivation chain starting at that committed *s*, shown by one
   committed-double-log proof per path edge plus a revealed-child proof
   for the final edge.  Intermediate keys stay hidden inside fresh
   Pedersen commitments, so two spends of different nodes of the same
   coin share no linkable value.
3. **Serial disclosure** — the node key itself is public, so the bank
   can expand the leaf serials below it and catch any conflicting spend
   (:func:`repro.ecash.tree.leaf_serials`).

The proof count is ``node.level + O(1)`` ZKPs, matching the paper's
Table I cost of ``(8 + i)`` ZKPs for a depth-*i* node.
"""

from __future__ import annotations

import pickle
import random
from dataclasses import dataclass

from repro.crypto import fastexp
from repro.crypto.batchverify import LinearCheck
from repro.crypto.cl_sig import CLPublicKey, CLSignature
from repro.crypto.groups import GroupTower
from repro.crypto.hashing import Transcript
from repro.crypto.zkp.committed_double_log import (
    CommittedEdgeProof,
    RevealedEdgeProof,
    collect_edge,
    collect_revealed_edge,
    prove_edge,
    prove_revealed_edge,
    verify_edge,
    verify_revealed_edge,
)
from repro.crypto.zkp.equality import (
    EqualityProof,
    collect_equality,
    prove_equality,
    verify_equality_deferred,
)
from repro.ecash.tree import (
    GEN_COMMIT_G,
    GEN_COMMIT_H,
    GEN_LEFT,
    GEN_RIGHT,
    NodeId,
    derive_key_chain,
)

__all__ = [
    "DECParams",
    "SpendToken",
    "DeferredGTCheck",
    "CollectedSpend",
    "create_spend",
    "verify_spend",
    "verify_spend_deferred",
    "verify_spend_collect",
    "warm_verification_tables",
    "export_verification_tables",
    "adopt_verification_tables",
]


@dataclass(frozen=True)
class DECParams:
    """Public parameters of the divisible e-cash instance.

    Attributes
    ----------
    tower:
        The Cunningham-chain group tower (storeys ``0 .. tree_level``).
    backend:
        The bilinear-pairing backend carrying the bank's CL signatures.
    tree_level:
        ``L``; coins have value ``2^L``.
    edge_rounds:
        Cut-and-choose rounds per hidden path edge (soundness
        ``2^-edge_rounds`` per edge).
    """

    tower: GroupTower
    backend: object
    tree_level: int
    edge_rounds: int = 24

    def __post_init__(self) -> None:
        if self.tree_level > self.tower.depth:
            raise ValueError("tower too shallow for the requested tree level")
        if self.tower.group(0).q >= self.backend.order:
            raise ValueError(
                "pairing order must exceed the storey-0 order so the coin "
                "secret is a valid scalar in both groups"
            )

    def secret_bound(self) -> int:
        """Exclusive upper bound for coin secrets."""
        return self.tower.group(0).q

    def commit_bases(self, storey: int) -> tuple[int, int]:
        gens = self.tower.extra_generators[storey]
        return gens[GEN_COMMIT_G], gens[GEN_COMMIT_H]

    def edge_generator(self, storey: int, bit: int) -> int:
        gens = self.tower.extra_generators[storey]
        return gens[GEN_LEFT if bit == 0 else GEN_RIGHT]


@dataclass(frozen=True)
class SpendToken:
    """A transferable, verifiable, unlinkable node spend."""

    node: NodeId
    node_key: int
    sig_a: object
    sig_b: object
    sig_c: object
    commitment_s: int
    key_commitments: tuple[int, ...]
    equality: EqualityProof
    edges: tuple[CommittedEdgeProof, ...]
    final_edge: RevealedEdgeProof

    def denomination(self, tree_level: int) -> int:
        return self.node.value(tree_level)

    def encoded_size(self, params: DECParams) -> int:
        """Wire-size estimate in bytes (Table II accounting).

        Group elements are costed at their storey's modulus size;
        pairing elements at the curve's field size.
        """
        tower = params.tower
        elem = lambda storey: (tower.group(storey).p.bit_length() + 7) // 8
        scal = lambda storey: (tower.group(storey).q.bit_length() + 7) // 8
        pair_bytes = 2 * ((getattr(params.backend, "order").bit_length() + 7) // 8 + 2)
        size = 8  # node id
        size += elem(min(self.node.level, tower.depth))  # node key
        size += 3 * pair_bytes  # randomized CL signature
        size += elem(0)  # C_s
        size += sum(elem(t + 1) for t in range(len(self.key_commitments)))
        size += self.equality.encoded_size(elem(0), scal(0))
        for t, edge in enumerate(self.edges):
            size += edge.encoded_size(elem(t), scal(t))
        size += self.final_edge.encoded_size(elem(self.node.level), scal(self.node.level))
        return size


def create_spend(
    params: DECParams,
    bank_pk: CLPublicKey,
    secret: int,
    signature: CLSignature,
    node: NodeId,
    rng: random.Random,
    *,
    context: bytes = b"",
) -> SpendToken:
    """Build a spend token for *node* from a certified coin secret.

    *context* is absorbed into the Fiat–Shamir transcript; protocols use
    it to bind a token to a session/payee so tokens cannot be replayed
    in a different context.
    """
    backend = params.backend
    if node.level > params.tree_level:
        raise ValueError("node deeper than the coin tree")
    if not 0 < secret < params.secret_bound():
        raise ValueError("coin secret out of range")

    keys = derive_key_chain(params.tower, secret, node)
    node_key_value = keys[-1]
    depth = node.level

    # 1. randomize the CL signature (perfect unlinkability to withdrawal)
    rho = backend.random_scalar(rng)
    sig_a = backend.exp(signature.a, rho)
    sig_b = backend.exp(signature.b, rho)
    sig_c = backend.exp(signature.c, rho)

    # 2. Pedersen commitments: C_s in storey 0, C_t for hidden keys κ_t
    #    (commit bases are tower-fixed → comb-cached exponentiations)
    grp0 = params.tower.group(0)
    g0, h0 = params.commit_bases(0)
    r_s = grp0.random_exponent(rng)
    commitment_s = grp0.mul(grp0.exp_fixed(g0, secret), grp0.exp_fixed(h0, r_s))

    key_commitments: list[int] = []
    key_randomizers: list[int] = []
    for t in range(depth):  # κ_t committed in storey t+1
        grp = params.tower.group(t + 1)
        g, h = params.commit_bases(t + 1)
        r = grp.random_exponent(rng)
        key_randomizers.append(r)
        key_commitments.append(grp.mul(grp.exp_fixed(g, keys[t]), grp.exp_fixed(h, r)))

    transcript = _base_transcript(params, bank_pk, node, node_key_value, sig_a, sig_b, sig_c,
                                  commitment_s, key_commitments, context)

    # 3. equality proof: the CL-certified scalar equals the committed s.
    #    V = e(g, c~) * e(X, a~)^-1  must equal  e(X, b~)^s
    base_gt = backend.pair(bank_pk.X, sig_b)
    statement_gt = backend.gt_mul(
        backend.pair(backend.g, sig_c),
        backend.gt_exp(backend.pair(bank_pk.X, sig_a), backend.order - 1),
    )
    equality = prove_equality(
        grp0, g0, h0, commitment_s,
        exp_b=lambda k: backend.gt_exp(base_gt, k),
        encode_b=lambda el: _gt_encode(backend, el),
        statement_b=statement_gt,
        witness=secret,
        randomizer=r_s,
        witness_bits=params.secret_bound().bit_length(),
        rng=rng,
        transcript=transcript,
    )

    # 4. path proofs
    bits = node.path_bits()
    edges: list[CommittedEdgeProof] = []
    if depth >= 1:
        # base edge: s (C_s, storey 0) -> κ_0 (C_0, storey 1)
        g1, h1 = params.commit_bases(1)
        edges.append(
            prove_edge(
                grp0, g0, h0, commitment_s,
                params.edge_generator(0, 0),
                params.tower.group(1), g1, h1, key_commitments[0],
                secret, r_s, key_randomizers[0],
                rng, transcript, rounds=params.edge_rounds,
            )
        )
        # hidden edges κ_{t-1} -> κ_t for t = 1 .. depth-1
        for t in range(1, depth):
            pg = params.tower.group(t)
            pgg, pgh = params.commit_bases(t)
            cg = params.tower.group(t + 1)
            cgg, cgh = params.commit_bases(t + 1)
            edges.append(
                prove_edge(
                    pg, pgg, pgh, key_commitments[t - 1],
                    params.edge_generator(t, bits[t - 1]),
                    cg, cgg, cgh, key_commitments[t],
                    keys[t - 1], key_randomizers[t - 1], key_randomizers[t],
                    rng, transcript, rounds=params.edge_rounds,
                )
            )
        # final revealed edge: κ_{d-1} (C_{d-1}, storey d) -> public κ_d
        pg = params.tower.group(depth)
        pgg, pgh = params.commit_bases(depth)
        final_edge = prove_revealed_edge(
            pg, pgg, pgh, key_commitments[depth - 1],
            params.edge_generator(depth, bits[depth - 1]),
            node_key_value, keys[depth - 1], key_randomizers[depth - 1],
            rng, transcript,
        )
    else:
        # spending the root: single revealed edge from C_s
        final_edge = prove_revealed_edge(
            grp0, g0, h0, commitment_s,
            params.edge_generator(0, 0),
            node_key_value, secret, r_s,
            rng, transcript,
        )

    return SpendToken(
        node=node,
        node_key=node_key_value,
        sig_a=sig_a,
        sig_b=sig_b,
        sig_c=sig_c,
        commitment_s=commitment_s,
        key_commitments=tuple(key_commitments),
        equality=equality,
        edges=tuple(edges),
        final_edge=final_edge,
    )


@dataclass(frozen=True)
class DeferredGTCheck:
    """The one target-group equation of a token left unchecked.

    :func:`verify_spend_deferred` validates everything about a token
    *except* the equality proof's group-B equation
    ``e(X, b~)^z == R_B * V^e`` — the only per-token check whose cost is
    a pairing but whose structure is linear, so *n* of them join one
    shared pairing product
    (:func:`repro.ecash.batch.batch_verify_spends`).  ``check``
    closes the deferral individually, making ``verify_spend_deferred``
    + ``check`` exactly equivalent to :func:`verify_spend`.
    """

    sig_b: object  # the pairing point of the base B = e(X, b~)
    statement_gt: object  # V, already computed for the transcript
    commitment_b: object  # R_B, decoded; subgroup membership checked at build
    challenge: int  # e, recomputed from the transcript
    response: int  # z, the integer response

    def check(self, params: DECParams, bank_pk: CLPublicKey) -> bool:
        """The deferred equation, checked alone: ``B^z == R_B * V^e``."""
        backend = params.backend
        lhs = backend.gt_exp(backend.pair(bank_pk.X, self.sig_b), self.response)
        rhs = backend.gt_mul(
            self.commitment_b, backend.gt_exp(self.statement_gt, self.challenge)
        )
        return backend.gt_eq(lhs, rhs)


def verify_spend(
    params: DECParams,
    bank_pk: CLPublicKey,
    token: SpendToken,
    *,
    context: bytes = b"",
) -> bool:
    """Verify every component of a spend token."""
    deferred = verify_spend_deferred(params, bank_pk, token, context=context)
    return deferred is not None and deferred.check(params, bank_pk)


def verify_spend_deferred(
    params: DECParams,
    bank_pk: CLPublicKey,
    token: SpendToken,
    *,
    context: bytes = b"",
) -> DeferredGTCheck | None:
    """Verify a token except its one batchable target-group equation.

    Returns ``None`` when any performed check fails, otherwise the
    :class:`DeferredGTCheck` the caller must still discharge (directly
    via :meth:`DeferredGTCheck.check`, or batched across tokens).  The
    two statement pairings it computes are unavoidable: the Fiat–Shamir
    transcript absorbs the encoded statement ``V``, so the verifier
    must materialize it per token to recompute the challenge.
    """
    backend = params.backend
    node = token.node
    if node.level > params.tree_level:
        return None
    if len(token.key_commitments) != node.level:
        return None

    # CL signature well-formedness on the randomized triple:
    # e(a~, Y) == e(g, b~); a~ must not be the identity
    if backend.element_encode(token.sig_a) == backend.element_encode(backend.identity()):
        return None
    if not backend.gt_eq(
        backend.pair(token.sig_a, bank_pk.Y), backend.pair(backend.g, token.sig_b)
    ):
        return None

    transcript = _base_transcript(params, bank_pk, node, token.node_key, token.sig_a,
                                  token.sig_b, token.sig_c, token.commitment_s,
                                  list(token.key_commitments), context)

    grp0 = params.tower.group(0)
    g0, h0 = params.commit_bases(0)
    statement_gt = backend.gt_mul(
        backend.pair(backend.g, token.sig_c),
        backend.gt_exp(backend.pair(bank_pk.X, token.sig_a), backend.order - 1),
    )
    challenge = verify_equality_deferred(
        grp0, g0, h0, token.commitment_s,
        encode_b=lambda el: _gt_encode(backend, el),
        statement_b=statement_gt,
        proof=token.equality,
        transcript=transcript,
    )
    if challenge is None:
        return None
    # R_B is adversarial and will join a batched G_T product; subgroup
    # membership is required for RLC soundness (see _decode_gt_commitment)
    commitment_b = _decode_gt_commitment(backend, token.equality.commitment_b)
    if commitment_b is None:
        return None

    bits = node.path_bits()
    depth = node.level
    if depth >= 1:
        if len(token.edges) != depth:
            return None
        g1, h1 = params.commit_bases(1)
        if not verify_edge(
            grp0, g0, h0, token.commitment_s,
            params.edge_generator(0, 0),
            params.tower.group(1), g1, h1, token.key_commitments[0],
            token.edges[0], transcript,
        ):
            return None
        for t in range(1, depth):
            pg = params.tower.group(t)
            pgg, pgh = params.commit_bases(t)
            cg = params.tower.group(t + 1)
            cgg, cgh = params.commit_bases(t + 1)
            if not verify_edge(
                pg, pgg, pgh, token.key_commitments[t - 1],
                params.edge_generator(t, bits[t - 1]),
                cg, cgg, cgh, token.key_commitments[t],
                token.edges[t], transcript,
            ):
                return None
        pg = params.tower.group(depth)
        pgg, pgh = params.commit_bases(depth)
        if not verify_revealed_edge(
            pg, pgg, pgh, token.key_commitments[depth - 1],
            params.edge_generator(depth, bits[depth - 1]),
            token.node_key, token.final_edge, transcript,
        ):
            return None
    else:
        if token.edges:
            return None
        if not verify_revealed_edge(
            grp0, g0, h0, token.commitment_s,
            params.edge_generator(0, 0),
            token.node_key, token.final_edge, transcript,
        ):
            return None
    return DeferredGTCheck(
        sig_b=token.sig_b,
        statement_gt=statement_gt,
        commitment_b=commitment_b,
        challenge=challenge,
        response=token.equality.z,
    )


@dataclass(frozen=True)
class CollectedSpend:
    """A token's verification, reduced to data instead of decisions.

    Produced by :func:`verify_spend_collect`: every eager (structural,
    membership, challenge) check already passed; what remains is the
    list of deferred sigma equations (``checks``) plus the two pairing
    equations — the CL well-formedness check, **not** performed here,
    and the equality proof's target-group equation (``deferred``).  A
    batch verifier combines many tokens' remainders into a handful of
    multi-exponentiations and one shared pairing product
    (:func:`repro.ecash.batch.batch_verify_spends`).
    """

    token: SpendToken
    checks: tuple[LinearCheck, ...]
    deferred: DeferredGTCheck


def verify_spend_collect(
    params: DECParams,
    bank_pk: CLPublicKey,
    token: SpendToken,
    *,
    context: bytes = b"",
) -> CollectedSpend | None:
    """Collect a token's verification equations instead of evaluating them.

    Mirrors :func:`verify_spend_deferred` — same transcript traffic,
    same eager structural/membership checks, so the Fiat–Shamir
    challenges (and therefore the equations) are identical — but every
    sigma-protocol equation is returned as a
    :class:`~repro.crypto.batchverify.LinearCheck` rather than checked.
    The CL pairing equation ``e(a~, Y) == e(g, b~)`` is **never**
    evaluated here (only the non-identity screen on ``a~`` runs); the
    caller owes it, batched or alone, alongside ``deferred``.

    Returns ``None`` when any eager check fails — such a token is
    rejected exactly as the sequential verifier rejects it.
    """
    backend = params.backend
    node = token.node
    if node.level > params.tree_level:
        return None
    if len(token.key_commitments) != node.level:
        return None
    if backend.element_encode(token.sig_a) == backend.element_encode(backend.identity()):
        return None

    transcript = _base_transcript(params, bank_pk, node, token.node_key, token.sig_a,
                                  token.sig_b, token.sig_c, token.commitment_s,
                                  list(token.key_commitments), context)

    grp0 = params.tower.group(0)
    g0, h0 = params.commit_bases(0)
    statement_gt = backend.gt_mul(
        backend.pair(backend.g, token.sig_c),
        backend.gt_exp(backend.pair(bank_pk.X, token.sig_a), backend.order - 1),
    )
    collected_eq = collect_equality(
        grp0, g0, h0, token.commitment_s,
        encode_b=lambda el: _gt_encode(backend, el),
        statement_b=statement_gt,
        proof=token.equality,
        transcript=transcript,
    )
    if collected_eq is None:
        return None
    challenge, equality_check = collected_eq
    # same subgroup gate as verify_spend_deferred: R_B enters the
    # batched pairing product, so membership is a soundness precondition
    commitment_b = _decode_gt_commitment(backend, token.equality.commitment_b)
    if commitment_b is None:
        return None
    checks: list[LinearCheck] = [equality_check]

    bits = node.path_bits()
    depth = node.level
    if depth >= 1:
        if len(token.edges) != depth:
            return None
        g1, h1 = params.commit_bases(1)
        edge_checks = collect_edge(
            grp0, g0, h0, token.commitment_s,
            params.edge_generator(0, 0),
            params.tower.group(1), g1, h1, token.key_commitments[0],
            token.edges[0], transcript,
        )
        if edge_checks is None:
            return None
        checks.extend(edge_checks)
        for t in range(1, depth):
            pg = params.tower.group(t)
            pgg, pgh = params.commit_bases(t)
            cg = params.tower.group(t + 1)
            cgg, cgh = params.commit_bases(t + 1)
            edge_checks = collect_edge(
                pg, pgg, pgh, token.key_commitments[t - 1],
                params.edge_generator(t, bits[t - 1]),
                cg, cgg, cgh, token.key_commitments[t],
                token.edges[t], transcript,
            )
            if edge_checks is None:
                return None
            checks.extend(edge_checks)
        pg = params.tower.group(depth)
        pgg, pgh = params.commit_bases(depth)
        final_checks = collect_revealed_edge(
            pg, pgg, pgh, token.key_commitments[depth - 1],
            params.edge_generator(depth, bits[depth - 1]),
            token.node_key, token.final_edge, transcript,
        )
        if final_checks is None:
            return None
        checks.extend(final_checks)
    else:
        if token.edges:
            return None
        final_checks = collect_revealed_edge(
            grp0, g0, h0, token.commitment_s,
            params.edge_generator(0, 0),
            token.node_key, token.final_edge, transcript,
        )
        if final_checks is None:
            return None
        checks.extend(final_checks)

    return CollectedSpend(
        token=token,
        checks=tuple(checks),
        deferred=DeferredGTCheck(
            sig_b=token.sig_b,
            statement_gt=statement_gt,
            commitment_b=commitment_b,
            challenge=challenge,
            response=token.equality.z,
        ),
    )


def warm_verification_tables(params: DECParams, bank_pk: CLPublicKey | None = None) -> None:
    """Pre-build every fixed-base table the spend/verify hot path hits.

    Covers the pairing slots of :func:`verify_spend_deferred` and
    :func:`~repro.crypto.cl_sig.cl_verify` (``g``, and with *bank_pk*
    also ``X`` and ``Y`` — together one side of every pairing the
    deposit path computes), plus the tower commit/edge generators the
    sigma-protocol verifiers exponentiate.  Idempotent and cheap
    relative to one deposit; a long-lived verifier (the bank service)
    calls this once at startup so steady-state flushes never pay
    table-build cost.  No-op while fast-exp is globally disabled.
    """
    backend = params.backend
    warm_pair = getattr(backend, "warm_pair", None)
    if warm_pair is not None:
        fixed_points = [backend.g]
        if bank_pk is not None:
            fixed_points += [bank_pk.X, bank_pk.Y]
        warm_pair(*fixed_points)
    warm_exp = getattr(backend, "warm_exp_fixed", None)
    if warm_exp is not None:
        warm_exp(backend.g)
    tower = params.tower
    for storey in range(params.tree_level + 1):
        grp = tower.group(storey)
        g, h = params.commit_bases(storey)
        gens = tower.extra_generators[storey]
        grp.warm_fixed(grp.g, g, h, gens[GEN_LEFT], gens[GEN_RIGHT])


def export_verification_tables(
    params: DECParams, bank_pk: CLPublicKey | None = None
) -> bytes:
    """Serialize every verification precomputation into one blob.

    Warms the tables first (:func:`warm_verification_tables`), then
    packs the global integer comb cache plus the pairing backend's
    Miller/fixed-base tables (when the backend supports export) into a
    picklable payload.  A pooled worker — or a recovering service —
    adopts the blob with :func:`adopt_verification_tables` instead of
    re-deriving every table from scratch, which is the dominant cost of
    a cold worker spawn.  Transport (shared memory, mmap files, digest
    checking) is :mod:`repro.crypto.tablestore`'s job; this layer only
    defines the payload.
    """
    warm_verification_tables(params, bank_pk)
    backend = params.backend
    state: dict = {"version": 1, "int": fastexp.export_int_tables(), "backend": None}
    export = getattr(backend, "export_tables", None)
    if export is not None:
        state["backend"] = export()
    return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)


def adopt_verification_tables(params: DECParams, payload: bytes) -> int:
    """Install a blob from :func:`export_verification_tables`; returns the
    number of tables adopted (0 while fast-exp is globally disabled).

    Raises ``ValueError`` on an unrecognized payload version — callers
    (pooled workers) catch and fall back to a local
    :func:`warm_verification_tables` build, so a corrupt or stale blob
    degrades to the cold path rather than failing verification.
    """
    state = pickle.loads(payload)
    if not isinstance(state, dict) or state.get("version") != 1:
        raise ValueError("unrecognized verification-table payload")
    count = fastexp.install_int_tables(state.get("int") or [])
    backend_state = state.get("backend")
    install = getattr(params.backend, "install_tables", None)
    if backend_state is not None and install is not None:
        count += install(backend_state)
    return count


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _gt_encode(backend, element) -> tuple:
    """Encode a target-group element as an int tuple for transcripts."""
    if hasattr(element, "a") and hasattr(element, "b"):  # Fp2
        return (element.a, element.b)
    return (int(element),)


def _gt_decode(backend, encoded: tuple):
    """Invert :func:`_gt_encode` for the given backend."""
    one = backend.gt_one()
    if hasattr(one, "a"):
        from repro.crypto.pairing.field import Fp2

        return Fp2(encoded[0], encoded[1], one.p)
    return encoded[0]


def _gt_contains(backend, element) -> bool:
    """Membership of *element* in the prime-order G_T subgroup."""
    native = getattr(backend, "gt_contains", None)
    if native is not None:
        return bool(native(element))
    # generic fallback: backends may reduce gt_exp exponents mod the
    # group order (making element^order vacuous), so probe with
    # order-1 and multiply the element back in — 0 fails (0·0 ≠ 1).
    probe = backend.gt_mul(backend.gt_exp(element, backend.order - 1), element)
    return backend.gt_eq(probe, backend.gt_one())


def _decode_gt_commitment(backend, encoded):
    """Decode a proof's target-group commitment ``R_B``; ``None`` when it
    is malformed or lies outside the prime-order subgroup.

    ``R_B`` is the one *adversarial* G_T value the batched deposit paths
    feed into a random-linear-combination product
    (:mod:`repro.ecash.batch`); RLC soundness needs every base inside
    the order-*r* subgroup — F_{p²}^* (and Z_p^*) carry cofactor
    components whose small-order elements would escape the combined
    check with probability up to 1/2 per small prime factor.  The
    sequential equation rejects such values unconditionally (``B^z``
    stays in the subgroup, the right side would not), so gating here
    changes no verdict while restoring the batched paths' documented
    soundness bound.
    """
    if not isinstance(encoded, tuple):
        return None
    if len(encoded) != len(_gt_encode(backend, backend.gt_one())):
        return None
    if not all(isinstance(v, int) for v in encoded):
        return None
    element = _gt_decode(backend, encoded)
    if not _gt_contains(backend, element):
        return None
    return element


def _base_transcript(
    params: DECParams,
    bank_pk: CLPublicKey,
    node: NodeId,
    node_key_value: int,
    sig_a, sig_b, sig_c,
    commitment_s: int,
    key_commitments: list[int],
    context: bytes,
) -> Transcript:
    backend = params.backend
    t = Transcript(b"dec-spend")
    t.absorb(context)
    t.absorb_ints(params.tree_level, node.level, node.index, node_key_value)
    for el in (bank_pk.X, bank_pk.Y, sig_a, sig_b, sig_c):
        for v in backend.element_encode(el):
            t.absorb_int(int(v))
    t.absorb_ints(commitment_s, *key_commitments)
    return t
