"""Cunningham chains of the first kind.

The Divisible E-cash group tower used by PPMSdec (Section III-C / VI-A
of the paper) needs a chain of primes ``o_1, o_2, ..., o_k`` with

    o_{i+1} = 2 * o_i + 1,

i.e. a *Cunningham chain of the first kind*.  Each prime in the chain is
the order of one cyclic group in the tower, so a tree of level ``L``
requires a chain of length ``L + 1``.

Long first-kind chains are genuinely rare — the paper observes that the
setup time "is especially high when the level reaches 7 ... for
computing the prime chain", and that length-17 was the record at the
time.  This module reproduces that cost profile: :func:`find_chain`
performs the same randomized search (sample a candidate start, extend as
far as the chain predicate holds) whose expected time grows sharply with
the requested length.

For experiment repeatability there is also a small table of precomputed
chains (:data:`KNOWN_CHAINS`) so protocol-level tests don't have to pay
the search cost on every run — mirroring the paper's decision to
"separate PPMSdec's setup stage from online executing".
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro._util import rand_int_bits
from repro.crypto.ntheory import is_probable_prime

__all__ = [
    "CunninghamChain",
    "is_first_kind_chain",
    "find_chain",
    "find_chain_with_stats",
    "known_chain",
    "KNOWN_CHAINS",
]


@dataclass(frozen=True)
class CunninghamChain:
    """A first-kind Cunningham chain ``p, 2p+1, 4p+3, ...``.

    Attributes
    ----------
    start:
        The smallest prime of the chain.
    length:
        Number of primes in the chain.
    """

    start: int
    length: int

    def primes(self) -> list[int]:
        """Materialize the chain as a list of primes, smallest first."""
        out = [self.start]
        for _ in range(self.length - 1):
            out.append(2 * out[-1] + 1)
        return out

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("chain length must be >= 1")
        if self.start < 2:
            raise ValueError("chain must start at a prime >= 2")

    def verify(self) -> bool:
        """Check every element of the chain is prime."""
        return all(is_probable_prime(p) for p in self.primes())


def is_first_kind_chain(start: int, length: int) -> bool:
    """Whether ``start, 2*start+1, ...`` is a first-kind chain of *length*."""
    p = start
    for _ in range(length):
        if not is_probable_prime(p):
            return False
        p = 2 * p + 1
    return True


def find_chain(length: int, bits: int, rng: random.Random) -> CunninghamChain:
    """Randomized search for a first-kind chain of the given *length*.

    Candidate starts of *bits* bits are sampled uniformly; each is
    extended while the chain predicate holds.  The expected number of
    samples grows roughly like ``(ln 2^bits)^length / c`` which is what
    makes Fig. 2's setup curve explode at high tree levels.
    """
    chain, _ = find_chain_with_stats(length, bits, rng)
    return chain


def find_chain_with_stats(
    length: int, bits: int, rng: random.Random
) -> tuple[CunninghamChain, int]:
    """Like :func:`find_chain` but also returns the number of candidates tried.

    The candidate count is the quantity the Fig. 2 benchmark records as a
    machine-independent proxy for search effort.

    *bits* is a **minimum**: an exact-bit-length window can be entirely
    devoid of long-chain starts (e.g. no length-5 chain starts with a
    12-bit prime at all), so once a window has been sampled roughly
    eight times over, the search widens by one bit and continues.  This
    keeps the search total and reproduces the real phenomenon that
    longer chains force larger primes — the very cost Fig. 2 plots.
    """
    if length < 1:
        raise ValueError("chain length must be >= 1")
    if bits < 3:
        raise ValueError("need at least 3 bits")
    attempts = 0
    window_bits = bits
    window_budget = 8 << bits  # ~8x oversampling before conceding the window
    while True:
        attempts += 1
        if window_budget <= 0:
            window_bits += 1
            window_budget = 8 << window_bits
        window_budget -= 1
        # Chains of length >= 2 (other than the 2,5,11,... family) must
        # start at p ≡ 5 (mod 6): force the residue to skip hopeless
        # candidates, exactly as practical chain hunters do.
        candidate = rand_int_bits(rng, window_bits) | 1
        if length >= 2 and candidate % 6 != 5:
            candidate += (5 - candidate % 6) % 6
            if candidate % 2 == 0:
                candidate += 3
        if candidate.bit_length() != window_bits:
            continue
        if is_first_kind_chain(candidate, length):
            return CunninghamChain(candidate, length), attempts


#: Precomputed first-kind chains used to skip the online search,
#: mirroring the paper's offline setup stage.  Keys are chain lengths;
#: each value starts a verified chain (2, 5, 11, 23, 47 is the classic
#: length-5 chain; 89 starts the famous length-6 chain).
KNOWN_CHAINS: dict[int, int] = {
    1: 13,
    2: 5,          # 5, 11
    3: 41,         # 41, 83, 167
    4: 509,        # 509, 1019, 2039, 4079
    5: 2,          # 2, 5, 11, 23, 47
    6: 89,         # 89, 179, 359, 719, 1439, 2879
    7: 1122659,    # classic length-7 chain
    8: 19099919,
    9: 85864769,
    10: 26089808579,
    11: 665043081119,
    12: 554688278429,
    13: 4090932431513069,
    14: 95405042230542329,
}


def known_chain(length: int) -> CunninghamChain:
    """Return a verified precomputed chain of the requested *length*.

    Short chains are carved out of the *tail* of the longest tabulated
    chain: if ``c_0, ..., c_{k-1}`` is a first-kind chain, then
    ``c_j, ..., c_{k-1}`` is one of length ``k - j``.  Tail elements are
    much larger than the smallest dedicated chain of the same length
    (``c_j = 2^j c_0 + 2^j - 1``), which keeps the coin-secret space of
    the e-cash tower cryptographically meaningful even for shallow
    trees.  Raises :class:`KeyError` when no tabulated chain is long
    enough; callers should then fall back to :func:`find_chain`.
    """
    if length < 1:
        raise KeyError(length)
    best = max((k for k in KNOWN_CHAINS if k >= length), default=None)
    if best is None:
        raise KeyError(length)
    skip = best - length
    start = (KNOWN_CHAINS[best] << skip) + (1 << skip) - 1
    chain = CunninghamChain(start, length)
    if not chain.verify():  # defensive: table corruption would be fatal
        raise AssertionError(f"tabulated chain of length {length} failed verification")
    return chain
