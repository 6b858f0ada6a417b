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

import random
from dataclasses import dataclass

from repro.crypto.cl_sig import CLPublicKey, CLSignature
from repro.crypto.groups import GroupTower
from repro.crypto.hashing import Transcript
from repro.crypto.zkp.committed_double_log import (
    CommittedEdgeProof,
    RevealedEdgeProof,
    prove_edge,
    prove_revealed_edge,
    verify_edge,
    verify_revealed_edge,
)
from repro.crypto.zkp.equality import (
    EqualityProof,
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
    "create_spend",
    "verify_spend",
    "warm_verification_tables",
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
        if self.backend.order != self.tower.group(0).q:
            raise ValueError(
                "the pairing order must be storey 0's prime: the coin secret "
                "is one exponent in both groups"
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
    #    (commit bases are tower-fixed → table-cached exponentiations)
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
    statement_gt = backend.pair_ratio(backend.g, sig_c, bank_pk.X, sig_a)
    equality = prove_equality(
        grp0, g0, h0, commitment_s,
        exp_b=lambda k: backend.gt_exp(base_gt, k),
        encode_b=lambda el: _gt_encode(backend, el),
        statement_b=statement_gt,
        witness=secret,
        randomizer=r_s,
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


def verify_spend(
    params: DECParams,
    bank_pk: CLPublicKey,
    token: SpendToken,
    *,
    context: bytes = b"",
) -> bool:
    """Verify every component of a spend token.

    The statement ``V`` is computed per token even though only the
    equality proof's last equation uses it as a base: the Fiat–Shamir
    transcript absorbs its encoding, so the challenge needs it first.
    """
    backend = params.backend
    node = token.node
    # the token is attacker-supplied: its ints must be ints >= 0 before
    # the transcript absorbs them, and its parts the proof classes
    if not (type(node) is NodeId and type(token.key_commitments) is tuple
            and all(type(v) is int and v >= 0
                    for v in (token.node_key, token.commitment_s, *token.key_commitments))
            and type(token.equality) is EqualityProof and type(token.edges) is tuple
            and all(type(edge) is CommittedEdgeProof for edge in token.edges)
            and type(token.final_edge) is RevealedEdgeProof):
        return False
    if node.level > params.tree_level:
        return False
    if len(token.key_commitments) != node.level:
        return False

    # CL signature well-formedness on the randomized triple,
    # e(a~, Y) == e(g, b~), as one quotient with a single final
    # exponentiation; a~ must not be the identity
    if not _signature_screen(backend, token):
        return False
    if not backend.gt_eq(
        backend.pair_ratio(bank_pk.Y, token.sig_a, backend.g, token.sig_b),
        backend.gt_one(),
    ):
        return False

    transcript = _base_transcript(params, bank_pk, node, token.node_key, token.sig_a,
                                  token.sig_b, token.sig_c, token.commitment_s,
                                  list(token.key_commitments), context)

    grp0 = params.tower.group(0)
    g0, h0 = params.commit_bases(0)
    statement_gt = backend.pair_ratio(backend.g, token.sig_c, bank_pk.X, token.sig_a)
    challenge = verify_equality_deferred(
        grp0, g0, h0, token.commitment_s,
        encode_b=lambda el: _gt_encode(backend, el),
        statement_b=statement_gt,
        proof=token.equality,
        transcript=transcript,
    )
    if challenge is None:
        return False
    # R_B is attacker-supplied: refused outside the order-r subgroup
    # before it is multiplied into the G_T equation below
    commitment_b = _decode_gt_commitment(backend, token.equality.commitment_b)
    if commitment_b is None:
        return False

    bits = node.path_bits()
    depth = node.level
    if depth >= 1:
        if len(token.edges) != depth:
            return False
        g1, h1 = params.commit_bases(1)
        if not verify_edge(
            grp0, g0, h0, token.commitment_s,
            params.edge_generator(0, 0),
            params.tower.group(1), g1, h1, token.key_commitments[0],
            token.edges[0], transcript,
        ):
            return False
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
                return False
        pg = params.tower.group(depth)
        pgg, pgh = params.commit_bases(depth)
        if not verify_revealed_edge(
            pg, pgg, pgh, token.key_commitments[depth - 1],
            params.edge_generator(depth, bits[depth - 1]),
            token.node_key, token.final_edge, transcript,
        ):
            return False
    else:
        if token.edges:
            return False
        if not verify_revealed_edge(
            grp0, g0, h0, token.commitment_s,
            params.edge_generator(0, 0),
            token.node_key, token.final_edge, transcript,
        ):
            return False

    # the equality proof's group-B equation: e(X, b~)^z == R_B * V^e
    lhs = backend.gt_exp(backend.pair(bank_pk.X, token.sig_b), token.equality.z)
    rhs = backend.gt_mul(commitment_b, backend.gt_exp(statement_gt, challenge))
    return backend.gt_eq(lhs, rhs)


def warm_verification_tables(params: DECParams, bank_pk: CLPublicKey | None = None) -> None:
    """Pre-build every fixed-base table the spend/verify hot path hits.

    Covers the pairing slots of :func:`verify_spend` and
    :func:`~repro.crypto.cl_sig.cl_verify` (``g``, and with *bank_pk*
    also ``X`` and ``Y`` — together one side of every pairing the
    deposit path computes), the window tables of the same points (an
    issuer exponentiates ``g``, ``X`` and ``Y``), plus the tower
    commit/edge generators the sigma-protocol verifiers exponentiate.
    Idempotent and cheap
    relative to one deposit; a long-lived verifier (the bank service)
    calls this once at startup so steady-state flushes never pay
    table-build cost.
    """
    backend = params.backend
    fixed_points = [backend.g]
    if bank_pk is not None:
        fixed_points += [bank_pk.X, bank_pk.Y]
    warm_pair = getattr(backend, "warm_pair", None)
    if warm_pair is not None:
        warm_pair(*fixed_points)
    warm_exp = getattr(backend, "warm_exp_fixed", None)
    if warm_exp is not None:
        warm_exp(*fixed_points)
    tower = params.tower
    for storey in range(params.tree_level + 1):
        grp = tower.group(storey)
        g, h = params.commit_bases(storey)
        gens = tower.extra_generators[storey]
        grp.warm_fixed(g, h, gens[GEN_LEFT], gens[GEN_RIGHT])


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _signature_screen(backend, token: SpendToken) -> bool:
    """``a~`` is not the identity, and every signature point is one the
    backend can pair (a hostile Tate point with imaginary parts is
    refused here rather than paired by its real parts)."""
    if backend.element_encode(token.sig_a) == backend.element_encode(backend.identity()):
        return False
    return all(backend.pairable(pt) for pt in (token.sig_a, token.sig_b, token.sig_c))


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


def _decode_gt_commitment(backend, encoded):
    """Decode a proof's target-group commitment ``R_B``; ``None`` when it
    is malformed or lies outside the prime-order subgroup.

    ``R_B`` is attacker-supplied, so it is refused before any G_T
    multiplication or exponentiation touches it.  The equation would
    reject a value outside the order-*r* subgroup anyway (``B^z`` stays
    in the subgroup, the right side would not); the gate keeps such a
    value out of the arithmetic, and changes no verdict.
    """
    if not isinstance(encoded, tuple):
        return None
    if len(encoded) != len(_gt_encode(backend, backend.gt_one())):
        return None
    if not all(isinstance(v, int) for v in encoded):
        return None
    element = _gt_decode(backend, encoded)
    if not backend.gt_contains(element):
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
