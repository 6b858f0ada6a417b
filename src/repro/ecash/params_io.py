"""Publishing and loading DEC public parameters.

The MA runs ``Setup(DEC)`` once and "publish[es] its public key as well
as the public parameters of the DEC to all market residents" (paper
Section IV-A1).  Publication needs a wire format: this module
serializes a :class:`~repro.ecash.spend.DECParams` (group tower,
pairing backend, sizes) plus the bank's CL public key into one signed-
length blob through the canonical codec, and reconstructs a functional
parameter set on the resident side.

Both pairing backends round-trip on storey 0's prime ``q0``, which the
blob does not repeat: the Tate backend by its field prime and generator
(``r = q0``, and the generator point pins the exact subgroup), the toy
backend by its kind alone (its target is storey 0's own group).
"""

from __future__ import annotations

from repro.crypto.cl_sig import CLPublicKey
from repro.crypto.cunningham import CunninghamChain
from repro.crypto.groups import GroupTower, SchnorrGroup
from repro.crypto.ntheory import is_probable_prime
from repro.crypto.pairing import CurveParams, Point, TatePairing, ToyPairing
from repro.ecash.spend import DECParams

from repro.net.codec import seal, unseal

__all__ = ["ParamsError", "export_params", "import_params"]

_MAGIC = b"repro-dec-params-v2"


class ParamsError(Exception):
    """Parameter blob rejected (corruption, version, inconsistency)."""


def _export_backend(backend) -> dict:
    if isinstance(backend, TatePairing):
        g = backend.params.generator
        return {"kind": "tate", "p": backend.params.p, "gx": g.x.a, "gy": g.y.a}
    if isinstance(backend, ToyPairing):
        return {"kind": "toy"}
    raise ParamsError(f"unknown backend type {type(backend)!r}")


def _import_backend(data: dict, storey0: SchnorrGroup):
    """Rebuild the pairing backend on storey 0's (verified) prime."""
    r = storey0.q
    if data["kind"] == "tate":
        p = data["p"]
        if (p + 1) % r:
            raise ParamsError("the curve order p + 1 is not a multiple of storey 0's prime")
        if not is_probable_prime(p):
            raise ParamsError("the curve's field order p is not prime")
        try:
            generator = Point.from_base(data["gx"], data["gy"], p)
            params = CurveParams(p=p, r=r, cofactor=(p + 1) // r, generator=generator)
        except ValueError as exc:
            raise ParamsError(f"invalid curve: {exc}") from exc
        if not generator.multiply(r).is_infinity:
            raise ParamsError("published generator does not have the claimed order")
        return TatePairing(params)
    if data["kind"] == "toy":
        return ToyPairing(storey0)
    raise ParamsError(f"unknown backend kind {data['kind']!r}")


def export_params(params: DECParams, bank_pk: CLPublicKey | None = None) -> bytes:
    """Serialize public parameters (optionally with the bank key)."""
    backend = params.backend
    state = {
        "tree_level": params.tree_level,
        "edge_rounds": params.edge_rounds,
        "chain_start": params.tower.chain.start,
        "chain_length": params.tower.chain.length,
        "levels": [
            {"p": grp.p, "q": grp.q, "g": grp.g} for grp in params.tower.levels
        ],
        "generators": [list(gens) for gens in params.tower.extra_generators],
        "backend": _export_backend(backend),
        "bank_pk": (
            None
            if bank_pk is None
            else [list(map(int, backend.element_encode(bank_pk.X))),
                  list(map(int, backend.element_encode(bank_pk.Y)))]
        ),
    }
    return seal(_MAGIC, state)


def import_params(blob: bytes) -> tuple[DECParams, CLPublicKey | None]:
    """Reconstruct parameters (and the bank key, when published).

    Every structural invariant is revalidated — a malicious MA cannot
    ship a tower whose storeys do not chain, a generator of the wrong
    order, or a pairing group whose order is not storey 0's prime.
    """
    state = unseal(_MAGIC, blob, "parameter blob", ParamsError)

    try:
        levels = tuple(
            SchnorrGroup(p=lvl["p"], q=lvl["q"], g=lvl["g"]) for lvl in state["levels"]
        )
    except ValueError as exc:
        raise ParamsError(f"invalid tower storey: {exc}") from exc
    tower = GroupTower(
        chain=CunninghamChain(state["chain_start"], state["chain_length"]),
        levels=levels,
        extra_generators=tuple(tuple(g) for g in state["generators"]),
    )
    if not tower.verify():
        raise ParamsError("tower storeys do not form a Cunningham chain")
    for storey, gens in enumerate(tower.extra_generators):
        grp = tower.group(storey)
        if not all(grp.contains(g) and g != 1 for g in gens):
            raise ParamsError(f"storey {storey} generator outside the subgroup")

    backend = _import_backend(state["backend"], tower.group(0))
    try:
        params = DECParams(
            tower=tower,
            backend=backend,
            tree_level=state["tree_level"],
            edge_rounds=state["edge_rounds"],
        )
    except ValueError as exc:
        raise ParamsError(f"inconsistent parameters: {exc}") from exc

    bank_pk = None
    if state["bank_pk"] is not None:
        x_enc, y_enc = state["bank_pk"]
        bank_pk = CLPublicKey(
            X=_decode_element(backend, x_enc), Y=_decode_element(backend, y_enc)
        )
    return params, bank_pk


def _decode_element(backend, encoded: list[int]):
    if isinstance(backend, ToyPairing):
        return encoded[0]
    # Tate: (x.a, x.b, y.a, y.b, is_infinity)
    from repro.crypto.pairing.field import Fp2

    xa, xb, ya, yb, inf = encoded
    p = backend.params.p
    if inf:
        return Point.infinity(p)
    point = Point(Fp2(xa, xb, p), Fp2(ya, yb, p), p)
    if not point.on_curve():
        raise ParamsError("published bank key is not on the curve")
    return point
