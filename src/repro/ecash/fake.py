"""Fake e-cash ``E(0)`` — denomination-attack padding (paper Sec. IV-A4).

To stop the MA inferring a payment's value from the length of the
encrypted payload, the JO pads the payment with fake coins until the
coin count (and hence the ciphertext length) is the same for every
possible value: "JO generates E(0) by generating a random number whose
bit-length equals the bit-length of E(1)".

A fake coin is a random blob the same length as the encoding of a real
spend token for the corresponding slot.  The receiving SP identifies
fakes because they fail to decode/verify; the MA, seeing only the
RSA-encrypted payment, cannot tell fakes from real coins at all.
"""

from __future__ import annotations

import random

__all__ = ["make_fake_blob", "pad_payment"]


def make_fake_blob(length: int, rng: random.Random) -> bytes:
    """A uniformly random blob of exactly *length* bytes."""
    if length < 1:
        raise ValueError("fake coin must have positive length")
    return bytes(rng.getrandbits(8) for _ in range(length))


def pad_payment(
    real_blobs: list[bytes],
    slots: int,
    rng: random.Random,
    *,
    reference_length: int | None = None,
) -> list[bytes]:
    """Pad *real_blobs* with fakes up to *slots* entries and shuffle.

    Every fake matches *reference_length* (default: the length of the
    longest real blob, or 64 when there are none) so the padded list's
    total encoded length depends only on *slots*, never on the real
    coin count — which is the whole defence.
    """
    if slots < len(real_blobs):
        raise ValueError("cannot pad below the number of real coins")
    if reference_length is None:
        reference_length = max((len(b) for b in real_blobs), default=64)
    padded = list(real_blobs)
    padded += [make_fake_blob(reference_length, rng) for _ in range(slots - len(real_blobs))]
    rng.shuffle(padded)
    return padded
