"""RSA from scratch: keygen, padded encryption, signatures, hybrid envelope.

The market protocols use RSA in three ways (paper Sections IV–V):

* ``RSA_ENC`` / ``RSA_DEC`` — confidential delivery of payments and
  identities.  Protocol payloads (e.g. the PPMSdec payment containing up
  to ``2^L`` coins) far exceed one modulus block, so :func:`encrypt` is
  a *hybrid* envelope: a random seed is RSA-encapsulated and expands via
  a SHA-256 counter-mode keystream to mask the payload.  This mirrors
  what any deployment would do and keeps the Table II byte accounting
  honest.
* ``RSA_SIG`` / ``RSA_SIGVERI`` — full-domain-hash style signatures.
* raw modular ops — building blocks for the blind / partially blind
  signatures in :mod:`repro.crypto.blind` and
  :mod:`repro.crypto.partial_blind`.

Key sizes are configurable; tests use small moduli for speed, benches
use the documented defaults.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro._util import bytes_to_int, int_to_bytes
from repro.crypto.hashing import hash_to_range, sha256
from repro.crypto.ntheory import modinv, random_prime

__all__ = [
    "HYBRID_MIN_BITS",
    "RSAPublicKey",
    "RSAPrivateKey",
    "generate_keypair",
    "encrypt",
    "decrypt",
    "sign",
    "verify",
    "keystream",
    "xor_mask",
]

_F4 = 65537

#: the smallest modulus :func:`encrypt` takes: its seed block needs the room
HYBRID_MIN_BITS = 320


@dataclass(frozen=True)
class RSAPublicKey:
    """An RSA public key ``(n, e)``."""

    n: int
    e: int

    @property
    def modulus_bytes(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def raw_encrypt(self, m: int) -> int:
        """Textbook RSA: ``m^e mod n`` (no padding — primitive only)."""
        if not 0 <= m < self.n:
            raise ValueError("message representative out of range")
        return pow(m, self.e, self.n)

    def raw_verify(self, s: int) -> int:
        """Textbook verification primitive: ``s^e mod n``."""
        if not 0 <= s < self.n:
            raise ValueError("signature representative out of range")
        return pow(s, self.e, self.n)

    def fingerprint(self) -> bytes:
        """Stable 16-byte identifier of the key (used as a pseudonym)."""
        return sha256(b"rsa-pk", int_to_bytes(self.n), int_to_bytes(self.e))[:16]


@dataclass(frozen=True)
class RSAPrivateKey:
    """An RSA private key; carries its public half and the CRT parts."""

    n: int
    e: int
    d: int
    p: int
    q: int

    @property
    def public(self) -> RSAPublicKey:
        return RSAPublicKey(self.n, self.e)

    def raw_decrypt(self, c: int) -> int:
        """Textbook RSA decryption with CRT speedup."""
        if not 0 <= c < self.n:
            raise ValueError("ciphertext representative out of range")
        mp = pow(c % self.p, self.d % (self.p - 1), self.p)
        mq = pow(c % self.q, self.d % (self.q - 1), self.q)
        h = (modinv(self.q, self.p) * (mp - mq)) % self.p
        return mq + h * self.q

    def raw_sign(self, m: int) -> int:
        """Textbook signing primitive (same math as decryption)."""
        return self.raw_decrypt(m)


def generate_keypair(bits: int, rng: random.Random, *, e: int = _F4) -> RSAPrivateKey:
    """Generate an RSA keypair with a *bits*-bit modulus.

    Primes are rejected until ``gcd(e, (p-1)(q-1)) == 1`` and the
    modulus has exactly the requested bit length.
    """
    if bits < 16:
        raise ValueError("modulus too small to be meaningful")
    half = bits // 2
    while True:
        p = random_prime(half, rng)
        q = random_prime(bits - half, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        try:
            d = modinv(e, phi)
        except ValueError:
            continue
        return RSAPrivateKey(n=n, e=e, d=d, p=p, q=q)


# ---------------------------------------------------------------------------
# hybrid encryption
# ---------------------------------------------------------------------------

def keystream(seed: bytes, length: int) -> bytes:
    """SHA-256 counter-mode keystream of *length* bytes from *seed*."""
    out = bytearray()
    counter = 0
    while len(out) < length:
        out += sha256(b"rsa-hybrid-stream", seed, counter.to_bytes(8, "big"))
        counter += 1
    return bytes(out[:length])


def xor_mask(data: bytes, seed: bytes) -> bytes:
    """XOR *data* with the keystream derived from *seed*."""
    stream = keystream(seed, len(data))
    return bytes(a ^ b for a, b in zip(data, stream))


def encrypt(pk: RSAPublicKey, plaintext: bytes, rng: random.Random) -> bytes:
    """Hybrid RSA encryption of arbitrary-length *plaintext*.

    Wire format: ``[k-byte RSA block || masked payload || 32-byte tag]``
    where *k* is the modulus size.  The tag is a hash MAC binding the
    seed and payload, giving integrity against in-transit corruption
    (the MA forwards these blobs verbatim).
    """
    if pk.n.bit_length() < HYBRID_MIN_BITS:
        raise ValueError(f"modulus too small for hybrid encryption "
                         f"(need >= {HYBRID_MIN_BITS} bits)")
    k = pk.modulus_bytes
    # random seed encoded as an integer strictly below n
    seed = bytes(rng.getrandbits(8) for _ in range(k - 8))
    m = bytes_to_int(seed) % pk.n
    block = int_to_bytes(pk.raw_encrypt(m), k)
    seed_bytes = int_to_bytes(m)
    masked = xor_mask(plaintext, seed_bytes)
    tag = sha256(b"rsa-hybrid-tag", seed_bytes, plaintext)
    return block + masked + tag


def decrypt(sk: RSAPrivateKey, ciphertext: bytes) -> bytes:
    """Invert :func:`encrypt`; raises :class:`ValueError` on a bad tag."""
    k = sk.public.modulus_bytes
    if len(ciphertext) < k + 32:
        raise ValueError("ciphertext too short")
    block, masked, tag = ciphertext[:k], ciphertext[k:-32], ciphertext[-32:]
    m = sk.raw_decrypt(bytes_to_int(block))
    seed_bytes = int_to_bytes(m)
    plaintext = xor_mask(masked, seed_bytes)
    if sha256(b"rsa-hybrid-tag", seed_bytes, plaintext) != tag:
        raise ValueError("hybrid decryption failed: integrity tag mismatch")
    return plaintext


# ---------------------------------------------------------------------------
# signatures (full-domain-hash style)
# ---------------------------------------------------------------------------

def _fdh(message: bytes, n: int) -> int:
    """Full-domain hash of *message* into ``Z_n`` (never 0 or 1)."""
    return 2 + hash_to_range(n - 2, b"rsa-fdh", message)


def sign(sk: RSAPrivateKey, message: bytes) -> int:
    """FDH-RSA signature on *message*."""
    return sk.raw_sign(_fdh(message, sk.n))


def verify(pk: RSAPublicKey, message: bytes, signature: int) -> bool:
    """Verify an FDH-RSA signature."""
    if not 0 <= signature < pk.n:
        return False
    return pk.raw_verify(signature) == _fdh(message, pk.n)
