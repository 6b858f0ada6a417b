"""Tests for the RSA partially blind signature (the PPMSpbs coin)."""

from __future__ import annotations

import random

import pytest

from repro.net.codec import encoded_size
from repro.crypto.partial_blind import (
    PartialBlindRequester,
    PartialBlindSignature,
    PartialBlindSigner,
    derive_exponent,
    verify_partial_blind,
)


@pytest.fixture()
def signer(rsa_key):
    return PartialBlindSigner(rsa_key)


class TestDeriveExponent:
    def test_deterministic(self):
        assert derive_exponent(b"info", 0) == derive_exponent(b"info", 0)

    def test_info_separation(self):
        assert derive_exponent(b"info-a", 0) != derive_exponent(b"info-b", 0)

    def test_counter_separation(self):
        assert derive_exponent(b"info", 0) != derive_exponent(b"info", 1)

    def test_exponent_is_odd_prime_sized(self):
        e = derive_exponent(b"serial-123", 0)
        assert e % 2 == 1
        assert e.bit_length() == 128

    def test_exponent_is_prime(self):
        from repro.crypto.ntheory import is_probable_prime

        for i in range(5):
            assert is_probable_prime(derive_exponent(b"x" + bytes([i]), 0))


class TestProtocol:
    def test_full_flow(self, signer, rng):
        requester = PartialBlindRequester(signer.public_key, rng)
        blinded = requester.blind(b"sp-public-key", b"serial-1")
        blind_sig, counter = signer.sign_blinded(blinded, b"serial-1")
        sig = requester.unblind(blind_sig, counter)
        assert verify_partial_blind(signer.public_key, b"sp-public-key", sig)
        assert sig.common_info == b"serial-1"

    def test_wrong_message_rejected(self, signer, rng):
        requester = PartialBlindRequester(signer.public_key, rng)
        blinded = requester.blind(b"msg", b"serial")
        sig = requester.unblind(*signer.sign_blinded(blinded, b"serial"))
        assert not verify_partial_blind(signer.public_key, b"other", sig)

    def test_wrong_common_info_rejected(self, signer, rng):
        requester = PartialBlindRequester(signer.public_key, rng)
        blinded = requester.blind(b"msg", b"serial")
        sig = requester.unblind(*signer.sign_blinded(blinded, b"serial"))
        forged = PartialBlindSignature(
            value=sig.value, counter=sig.counter, common_info=b"other-serial"
        )
        assert not verify_partial_blind(signer.public_key, b"msg", forged)

    def test_signer_info_mismatch_caught_at_unblind(self, signer, rng):
        """If the signer signs under different common info, the requester
        detects it when verifying after unblinding."""
        requester = PartialBlindRequester(signer.public_key, rng)
        blinded = requester.blind(b"msg", b"serial-A")
        blind_sig, counter = signer.sign_blinded(blinded, b"serial-B")
        with pytest.raises(ValueError):
            requester.unblind(blind_sig, counter)

    def test_unblind_without_blind(self, signer, rng):
        requester = PartialBlindRequester(signer.public_key, rng)
        with pytest.raises(RuntimeError):
            requester.unblind(1, 0)

    def test_blindness(self, signer, rng):
        """Two blindings of the same (message, info) pair must differ."""
        r1 = PartialBlindRequester(signer.public_key, rng)
        r2 = PartialBlindRequester(signer.public_key, rng)
        assert r1.blind(b"m", b"s") != r2.blind(b"m", b"s")

    def test_signer_range_validation(self, signer):
        with pytest.raises(ValueError):
            signer.sign_blinded(0, b"s")

    def test_out_of_range_signature_rejected(self, signer):
        bad = PartialBlindSignature(value=0, counter=0, common_info=b"s")
        assert not verify_partial_blind(signer.public_key, b"m", bad)

    @pytest.mark.parametrize("counter", [-1, 2**32])
    def test_out_of_range_counter_is_refused_not_raised(self, signer, counter):
        """``derive_exponent`` hashes the counter as 4 bytes; outside
        them it used to raise OverflowError, which is no ValueError."""
        bad = PartialBlindSignature(value=5, counter=counter, common_info=b"x")
        assert verify_partial_blind(signer.public_key, b"m", bad) is False

    def test_encoded_size(self, signer):
        """The codec's bytes grow with the serial, byte for byte."""
        bare = PartialBlindSignature(value=123, counter=0, common_info=b"")
        sig = PartialBlindSignature(value=123, counter=0, common_info=b"serial-1")
        assert encoded_size(sig) == encoded_size(bare) + 8

    def test_distinct_serials_give_distinct_coins(self, signer):
        """Serials are the double-deposit defence: signatures must bind them."""
        rng = random.Random(3)
        sigs = []
        for serial in (b"s1", b"s2", b"s3"):
            requester = PartialBlindRequester(signer.public_key, rng)
            blinded = requester.blind(b"same-key", serial)
            sigs.append(requester.unblind(*signer.sign_blinded(blinded, serial)))
        assert len({s.value for s in sigs}) == 3

    def test_unforgeability_smoke(self, signer, rng):
        hits = 0
        for _ in range(30):
            forged = PartialBlindSignature(
                value=rng.randrange(1, signer.public_key.n), counter=0, common_info=b"s"
            )
            hits += verify_partial_blind(signer.public_key, b"m", forged)
        assert hits == 0

    def test_blind_with_counter_retry_path(self, signer, rng):
        """The explicit-counter blinding must interoperate with a signer
        that (hypothetically) had to skip counter 0."""
        requester = PartialBlindRequester(signer.public_key, rng)
        blinded = requester.blind_with_counter(b"msg", b"serial", 1)
        # force-sign under counter 1's exponent
        from repro.crypto.ntheory import modinv

        e1 = derive_exponent(b"serial", 1)
        phi = (signer._sk.p - 1) * (signer._sk.q - 1)
        d1 = modinv(e1, phi)
        blind_sig = pow(blinded, d1, signer._sk.n)
        sig = requester.unblind(blind_sig, 1)
        assert verify_partial_blind(signer.public_key, b"msg", sig)
