"""RSA-based partially blind signature (paper ref [40], Chien–Jan–Tseng).

A *partially* blind signature lets the signer embed public, mutually
agreed information (here: the job serial number) into a signature while
remaining blind to the rest of the message (here: the SP's real public
key).  PPMSpbs uses one such signature as its entire "digital coin":

* blindness of the message part ⇒ the JO never learns which SP it paid,
* the embedded serial ⇒ the MA can check freshness at deposit time and
  reject double deposits,
* unforgeability ⇒ an SP cannot mint coins the JO never issued.

Construction (Abe–Fujisaki style, as in the RSA variant of ref [40]):
the common info *a* deterministically derives a per-info public
exponent ``e_a``; the signer — knowing ``φ(n)`` — computes the ``e_a``-th
root of the blinded representative.  The requester blinds with
``r^{e_a}`` and unblinds by dividing ``r``.  Verification needs only the
public key, the message, the common info, and a small counter that
records which derivation of ``e_a`` was invertible mod ``φ(n)``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.crypto.hashing import hash_to_int, hash_to_range
from repro.crypto.ntheory import SMALL_PRIMES, miller_rabin, modinv
from repro.crypto.rsa import RSAPrivateKey, RSAPublicKey

#: fixed Miller–Rabin bases so both parties derive the same exponent
_DERIVE_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)

__all__ = [
    "PartialBlindSignature",
    "PartialBlindSigner",
    "PartialBlindRequester",
    "derive_exponent",
    "verify_partial_blind",
]

_EXPONENT_BITS = 128
#: a candidate sharing a factor with this is composite: one gcd skips
#: the Miller–Rabin round that would reject it
_SMALL_PRODUCT = math.prod(SMALL_PRIMES)


def derive_exponent(common_info: bytes, counter: int) -> int:
    """Deterministic *prime* public exponent for the given *common_info*.

    A prime exponent shares a factor with ``φ(n)`` only if it divides
    φ(n) — negligible at 128 bits — so the two-move protocol virtually
    never needs the retry path.  The counter remains for the negligible
    failure case: the signer bumps it until the exponent is invertible
    and publishes the value used.

    The primality walk uses *fixed* Miller–Rabin bases so that signer
    and requester, running independently, derive the identical exponent.
    Candidates with a factor below 2000 are skipped by one gcd first.
    """
    raw = hash_to_int(b"pbs-exponent", common_info, counter.to_bytes(4, "big"))
    candidate = (raw % (1 << _EXPONENT_BITS)) | (1 << (_EXPONENT_BITS - 1)) | 1
    while math.gcd(candidate, _SMALL_PRODUCT) != 1 or not miller_rabin(candidate, _DERIVE_BASES):
        candidate += 2
    return candidate


@dataclass(frozen=True)
class PartialBlindSignature:
    """A signature binding (message, common_info) under the signer's key."""

    value: int
    counter: int
    common_info: bytes

    def encoded_size(self, pk: RSAPublicKey) -> int:
        """Wire size in bytes (signature block + counter + info)."""
        return pk.modulus_bytes + 4 + len(self.common_info)


def _representative(message: bytes, common_info: bytes, n: int) -> int:
    """FDH of the (message, info) pair into ``Z_n``."""
    return 2 + hash_to_range(n - 2, b"pbs-fdh", message, common_info)


class PartialBlindSigner:
    """The signing party (the job owner in PPMSpbs)."""

    def __init__(self, sk: RSAPrivateKey) -> None:
        self._sk = sk
        self._phi = (sk.p - 1) * (sk.q - 1)

    @property
    def public_key(self) -> RSAPublicKey:
        return self._sk.public

    def signing_exponent(self, common_info: bytes) -> tuple[int, int]:
        """Smallest counter whose derived exponent is invertible mod φ.

        Returns ``(counter, d_a)`` with ``d_a = e_a^{-1} mod φ(n)``.
        """
        counter = 0
        while True:
            e_a = derive_exponent(common_info, counter)
            if math.gcd(e_a, self._phi) == 1:
                return counter, modinv(e_a, self._phi)
            counter += 1

    def sign_blinded(self, blinded: int, common_info: bytes) -> tuple[int, int]:
        """Produce the blinded signature ``blinded^{d_a} mod n``.

        The signer sees only the blinded representative and the agreed
        *common_info*; nothing about the underlying message leaks.
        Returns ``(blinded_signature, counter)``.
        """
        if not 0 < blinded < self._sk.n:
            raise ValueError("blinded value out of range")
        counter, d_a = self.signing_exponent(common_info)
        return pow(blinded, d_a, self._sk.n), counter


class PartialBlindRequester:
    """The requesting party (the sensing participant in PPMSpbs)."""

    def __init__(self, pk: RSAPublicKey, rng: random.Random) -> None:
        self._pk = pk
        self._rng = rng
        self._state: tuple[int, bytes, bytes] | None = None  # (r, message, info)

    def blind(self, message: bytes, common_info: bytes) -> int:
        """Blind the (message, info) representative with ``r^{e_a}``.

        Note the requester does not yet know the signer's counter; it
        blinds under counter 0's exponent and re-blinds on the rare
        retry (see :meth:`unblind`).  In practice counter 0 virtually
        always works, so the protocol stays two-move.
        """
        return self.blind_with_counter(message, common_info, 0)

    def blind_with_counter(self, message: bytes, common_info: bytes, counter: int) -> int:
        """Blind under the exponent derived with an explicit *counter*.

        Used on the (negligibly rare) retry path when the signer reports
        that counter 0's exponent was not invertible mod ``φ(n)``.
        """
        n = self._pk.n
        e_a = derive_exponent(common_info, counter)
        while True:
            r = self._rng.randrange(2, n - 1)
            if math.gcd(r, n) == 1:
                break
        self._state = (r, message, common_info)
        return (_representative(message, common_info, n) * pow(r, e_a, n)) % n

    def unblind(self, blinded_signature: int, counter: int) -> PartialBlindSignature:
        """Remove the blinding factor and package the final signature.

        Raises :class:`ValueError` if the result does not verify —
        callers treat that as a cheating signer (or must restart with
        the signer's *counter*, see :meth:`blind`).
        """
        if self._state is None:
            raise RuntimeError("blind() must be called before unblind()")
        r, message, common_info = self._state
        n = self._pk.n
        sig = PartialBlindSignature(
            value=(blinded_signature * modinv(r, n)) % n,
            counter=counter,
            common_info=common_info,
        )
        if not verify_partial_blind(self._pk, message, sig):
            raise ValueError("partially blind signature failed to verify after unblinding")
        self._state = None  # a forged answer leaves the real one welcome
        return sig


def verify_partial_blind(pk: RSAPublicKey, message: bytes, sig: PartialBlindSignature) -> bool:
    """Check ``sig^[e_a] == H(message || info) mod n``.

    A counter outside the 4-byte field :func:`derive_exponent` hashes is
    refused here, not raised: the signer never publishes one.
    """
    if not 0 < sig.value < pk.n or not 0 <= sig.counter < 1 << 32:
        return False
    e_a = derive_exponent(sig.common_info, sig.counter)
    return pow(sig.value, e_a, pk.n) == _representative(message, sig.common_info, pk.n)
