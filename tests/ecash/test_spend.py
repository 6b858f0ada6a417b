"""Tests for spend-token creation/verification — the heart of PPMSdec."""

from __future__ import annotations

import dataclasses

import pytest

from repro.crypto.cl_sig import cl_keygen, cl_sign
from repro.ecash.dec import begin_withdrawal, finish_withdrawal
from repro.ecash.spend import DECParams, create_spend, verify_spend
from repro.ecash.tree import NodeId, node_key
from repro.net.codec import encoded_size


@pytest.fixture()
def certified_coin(dec_params, rng):
    """A bank keypair plus a properly withdrawn coin (blind issuance)."""
    from repro.crypto.cl_sig import cl_blind_issue

    bank_kp = cl_keygen(dec_params.backend, rng)
    secret, request = begin_withdrawal(dec_params, rng)
    signature = cl_blind_issue(dec_params.backend, bank_kp, request, rng)
    coin = finish_withdrawal(dec_params, bank_kp.public, secret, signature)
    return bank_kp, coin


ALL_LEVELS_NODES = [NodeId(0, 0), NodeId(1, 1), NodeId(2, 2), NodeId(3, 5)]


class TestHonestSpends:
    @pytest.mark.parametrize("node", ALL_LEVELS_NODES, ids=lambda n: f"L{n.level}i{n.index}")
    def test_spend_every_depth(self, dec_params, certified_coin, rng, node):
        bank_kp, coin = certified_coin
        token = create_spend(dec_params, bank_kp.public, coin.secret, coin.signature, node, rng)
        assert verify_spend(dec_params, bank_kp.public, token)
        assert token.node == node
        assert len(token.edges) == node.level
        assert len(token.key_commitments) == node.level

    def test_node_key_matches_derivation(self, dec_params, certified_coin, rng):
        bank_kp, coin = certified_coin
        node = NodeId(2, 1)
        token = create_spend(dec_params, bank_kp.public, coin.secret, coin.signature, node, rng)
        assert token.node_key == node_key(dec_params.tower, coin.secret, node)

    def test_denomination(self, dec_params, certified_coin, rng):
        bank_kp, coin = certified_coin
        token = create_spend(
            dec_params, bank_kp.public, coin.secret, coin.signature, NodeId(1, 0), rng
        )
        assert token.denomination(dec_params.tree_level) == 4

    def test_context_binding(self, dec_params, certified_coin, rng):
        bank_kp, coin = certified_coin
        node = NodeId(1, 0)
        token = create_spend(
            dec_params, bank_kp.public, coin.secret, coin.signature, node, rng, context=b"sess-1"
        )
        assert verify_spend(dec_params, bank_kp.public, token, context=b"sess-1")
        assert not verify_spend(dec_params, bank_kp.public, token, context=b"sess-2")

    def test_encoded_size_grows_with_depth(self, dec_params, certified_coin, rng):
        bank_kp, coin = certified_coin
        sizes = []
        for node in (NodeId(0, 0), NodeId(1, 0), NodeId(2, 0), NodeId(3, 0)):
            token = create_spend(
                dec_params, bank_kp.public, coin.secret, coin.signature, node, rng
            )
            sizes.append(encoded_size(token))
        assert sizes == sorted(sizes) and sizes[0] < sizes[-1]


class TestUnlinkability:
    def test_two_spends_share_no_values(self, dec_params, certified_coin, rng):
        """Spends of sibling nodes of the SAME coin must look unrelated."""
        bank_kp, coin = certified_coin
        t1 = create_spend(dec_params, bank_kp.public, coin.secret, coin.signature, NodeId(3, 0), rng)
        t2 = create_spend(dec_params, bank_kp.public, coin.secret, coin.signature, NodeId(3, 1), rng)
        enc = dec_params.backend.element_encode
        assert enc(t1.sig_a) != enc(t2.sig_a)
        assert t1.commitment_s != t2.commitment_s
        assert set(t1.key_commitments).isdisjoint(t2.key_commitments)
        assert t1.node_key != t2.node_key

    def test_randomized_signature_differs_from_original(self, dec_params, certified_coin, rng):
        bank_kp, coin = certified_coin
        token = create_spend(
            dec_params, bank_kp.public, coin.secret, coin.signature, NodeId(0, 0), rng
        )
        enc = dec_params.backend.element_encode
        assert enc(token.sig_a) != enc(coin.signature.a)


class TestForgeryRejection:
    @pytest.fixture()
    def token(self, dec_params, certified_coin, rng):
        bank_kp, coin = certified_coin
        return bank_kp, create_spend(
            dec_params, bank_kp.public, coin.secret, coin.signature, NodeId(2, 1), rng
        )

    def test_tampered_node_key(self, dec_params, token):
        bank_kp, tok = token
        grp = dec_params.tower.group(tok.node.level)
        bad = dataclasses.replace(tok, node_key=grp.exp(tok.node_key, 2))
        assert not verify_spend(dec_params, bank_kp.public, bad)

    def test_retargeted_node(self, dec_params, token):
        """Replaying a token against a different node id must fail."""
        bank_kp, tok = token
        bad = dataclasses.replace(tok, node=NodeId(2, 2))
        assert not verify_spend(dec_params, bank_kp.public, bad)

    def test_tampered_commitment(self, dec_params, token):
        bank_kp, tok = token
        grp = dec_params.tower.group(0)
        bad = dataclasses.replace(tok, commitment_s=grp.mul(tok.commitment_s, grp.g))
        assert not verify_spend(dec_params, bank_kp.public, bad)

    def test_tampered_cl_signature(self, dec_params, token):
        bank_kp, tok = token
        backend = dec_params.backend
        bad = dataclasses.replace(tok, sig_b=backend.exp(tok.sig_b, 2))
        assert not verify_spend(dec_params, bank_kp.public, bad)

    def test_identity_signature_rejected(self, dec_params, token):
        bank_kp, tok = token
        backend = dec_params.backend
        bad = dataclasses.replace(
            tok,
            sig_a=backend.identity(),
            sig_b=backend.identity(),
            sig_c=backend.identity(),
        )
        assert not verify_spend(dec_params, bank_kp.public, bad)

    def test_wrong_bank_key(self, dec_params, token, rng):
        bank_kp, tok = token
        other = cl_keygen(dec_params.backend, rng)
        assert not verify_spend(dec_params, other.public, tok)

    def test_uncertified_coin_rejected(self, dec_params, rng):
        """A coin signed by a NON-bank key must not verify under the bank."""
        backend = dec_params.backend
        bank_kp = cl_keygen(backend, rng)
        rogue_kp = cl_keygen(backend, rng)
        secret = rng.randrange(1, dec_params.secret_bound())
        rogue_sig = cl_sign(backend, rogue_kp, secret, rng)
        token = create_spend(dec_params, rogue_kp.public, secret, rogue_sig, NodeId(0, 0), rng)
        assert verify_spend(dec_params, rogue_kp.public, token)  # fine under rogue
        assert not verify_spend(dec_params, bank_kp.public, token)  # forged vs bank

    def test_edge_count_mismatch(self, dec_params, token):
        bank_kp, tok = token
        bad = dataclasses.replace(tok, edges=tok.edges[:-1])
        assert not verify_spend(dec_params, bank_kp.public, bad)

    def test_commitment_count_mismatch(self, dec_params, token):
        bank_kp, tok = token
        bad = dataclasses.replace(tok, key_commitments=tok.key_commitments[:-1])
        assert not verify_spend(dec_params, bank_kp.public, bad)

    def test_node_too_deep_rejected(self, dec_params, token):
        bank_kp, tok = token
        deep = NodeId(dec_params.tree_level + 1, 0)
        bad = dataclasses.replace(tok, node=deep)
        assert not verify_spend(dec_params, bank_kp.public, bad)


class TestCreateValidation:
    def test_rejects_secret_out_of_range(self, dec_params, certified_coin, rng):
        bank_kp, coin = certified_coin
        with pytest.raises(ValueError):
            create_spend(
                dec_params, bank_kp.public, dec_params.secret_bound() + 1,
                coin.signature, NodeId(0, 0), rng,
            )

    def test_rejects_node_too_deep(self, dec_params, certified_coin, rng):
        bank_kp, coin = certified_coin
        with pytest.raises(ValueError):
            create_spend(
                dec_params, bank_kp.public, coin.secret, coin.signature,
                NodeId(dec_params.tree_level + 1, 0), rng,
            )


class TestDECParamsValidation:
    def test_rejects_shallow_tower(self, dec_params):
        with pytest.raises(ValueError):
            DECParams(
                tower=dec_params.tower,
                backend=dec_params.backend,
                tree_level=dec_params.tower.depth + 1,
            )

    def test_rejects_small_pairing_order(self, dec_params, toy_backend):
        if toy_backend.order > dec_params.tower.group(0).q:
            pytest.skip("toy order happens to be large enough")
        with pytest.raises(ValueError):
            DECParams(tower=dec_params.tower, backend=toy_backend, tree_level=1)
