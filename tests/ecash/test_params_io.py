"""Tests for DEC public-parameter export/import."""

from __future__ import annotations

import random

import pytest

from repro.crypto.cl_sig import cl_keygen
from repro.crypto.hashing import sha256
from repro.crypto.ntheory import is_probable_prime
from repro.ecash.params_io import ParamsError, export_params, import_params
from repro.net.codec import decode, encode
from tests.conftest import random_curve

_MAGIC = b"repro-dec-params-v2"


class TestRoundTrip:
    def test_tate_params_roundtrip(self, dec_params, rng):
        blob = export_params(dec_params)
        loaded, bank_pk = import_params(blob)
        assert bank_pk is None
        assert loaded.tree_level == dec_params.tree_level
        assert loaded.edge_rounds == dec_params.edge_rounds
        assert [g.p for g in loaded.tower.levels] == [g.p for g in dec_params.tower.levels]
        assert loaded.tower.extra_generators == dec_params.tower.extra_generators
        assert loaded.backend.order == dec_params.backend.order

    def test_toy_params_roundtrip(self, dec_params_toy):
        blob = export_params(dec_params_toy)
        loaded, _ = import_params(blob)
        assert loaded.backend.name == "toy"
        assert loaded.backend.order == dec_params_toy.backend.order

    def test_bank_key_roundtrip(self, dec_params, rng):
        kp = cl_keygen(dec_params.backend, rng)
        blob = export_params(dec_params, kp.public)
        loaded, bank_pk = import_params(blob)
        enc = dec_params.backend.element_encode
        assert enc(bank_pk.X) == enc(kp.public.X)
        assert enc(bank_pk.Y) == enc(kp.public.Y)

    def test_loaded_params_are_functional(self, dec_params, rng):
        """A resident must be able to run the whole scheme off the blob."""
        from repro.ecash.dec import begin_withdrawal, finish_withdrawal
        from repro.ecash.spend import create_spend, verify_spend
        from repro.ecash.tree import NodeId
        from repro.crypto.cl_sig import cl_blind_issue

        kp = cl_keygen(dec_params.backend, rng)
        blob = export_params(dec_params, kp.public)
        loaded, bank_pk = import_params(blob)

        secret, request = begin_withdrawal(loaded, rng)
        signature = cl_blind_issue(loaded.backend, kp, request, rng)
        coin = finish_withdrawal(loaded, bank_pk, secret, signature)
        token = create_spend(loaded, bank_pk, coin.secret, coin.signature,
                             NodeId(1, 1), rng)
        assert verify_spend(loaded, bank_pk, token)
        # cross-check: the original params verify the same token
        assert verify_spend(dec_params, kp.public, token)


class TestValidation:
    def test_bad_magic(self, dec_params):
        with pytest.raises(ParamsError, match="magic"):
            import_params(b"nope" + export_params(dec_params))

    def test_corruption_detected(self, dec_params):
        blob = bytearray(export_params(dec_params))
        blob[-1] ^= 0x01
        with pytest.raises(ParamsError, match="digest"):
            import_params(bytes(blob))

    def test_malicious_tower_rejected(self, dec_params):
        """A tampered-but-redigested blob with a broken tower must fail."""
        levels = _state(dec_params)["levels"]
        levels[0]["q"] = levels[0]["q"] - 2  # break chain link
        with pytest.raises(ParamsError):
            import_params(_reseal(dec_params, levels=levels))

    def test_wrong_order_generator_rejected(self, dec_params):
        generators = _state(dec_params)["generators"]
        generators[0][0] = 1  # identity is never a generator
        with pytest.raises(ParamsError, match="generator"):
            import_params(_reseal(dec_params, generators=generators))

    def test_small_pairing_rejected(self, dec_params):
        """A pairing group of another order than storey 0's prime is
        refused: here a curve built on a smaller prime."""
        curve = random_curve(24, random.Random(9))
        g = curve.generator
        forged = _reseal(dec_params, backend={"kind": "tate", "p": curve.p,
                                              "gx": g.x.a, "gy": g.y.a})
        with pytest.raises(ParamsError):
            import_params(forged)

    def test_curve_order_off_storey_zero_rejected(self, dec_params):
        """The order is storey 0's prime, not a published field: a field
        prime whose ``p + 1`` it does not divide is refused."""
        q0 = dec_params.tower.group(0).q
        p = dec_params.backend.params.p + 4
        while not is_probable_prime(p):
            p += 4
        assert (p + 1) % q0
        backend = {**_state(dec_params)["backend"], "p": p}
        with pytest.raises(ParamsError, match="multiple of storey 0"):
            import_params(_reseal(dec_params, backend=backend))

    def test_order_is_derived_from_the_tower(self, dec_params):
        state = _state(dec_params)
        assert set(state["backend"]) == {"kind", "p", "gx", "gy"}
        loaded, _ = import_params(export_params(dec_params))
        assert loaded.backend.params.r == loaded.tower.group(0).q
        assert loaded.backend.params.cofactor == dec_params.backend.params.cofactor


def _state(params) -> dict:
    return decode(export_params(params)[len(_MAGIC) + 32 :])


def _reseal(params, **changes) -> bytes:
    """The exported state with *changes*, digested again (a malicious MA)."""
    body = encode({**_state(params), **changes})
    return _MAGIC + sha256(_MAGIC, body) + body
