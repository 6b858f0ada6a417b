"""Fig. 2 — DEC setup executing time vs tree level L.

Paper: "setup executing time is especially high when the level reaches
7, the reason is obvious too, for computing the prime chain."  The
dominant cost is the online first-kind Cunningham-chain search, whose
expected sample count grows ~(ln N / 2)^length.

Two measurement series:

* ``test_setup_with_chain_search`` — the paper's curve: full
  ``Setup(DEC)`` including the randomized chain search.  At our chain
  bit-size the explosion starts around length 5–7, exactly like the
  paper's level-7 wall (their chain elements were larger).
* ``test_setup_precomputed_chain`` — the paper's deployment answer
  ("we separate PPMSdec's setup stage from online executing"): setup
  from the tabulated chain, flat and fast at every level — the inset
  of Fig. 2.

Search *effort* (candidates tried) is also recorded as a machine-
independent proxy via ``test_chain_search_attempts``.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto.cunningham import find_chain_with_stats
from repro.ecash.dec import setup

# chain element size for the online search; small enough that the
# expensive lengths stay minutes-not-hours, large enough to show growth
SEARCH_BITS = 12
SEARCH_LEVELS = [0, 1, 2, 3, 4, 5]
PRECOMPUTED_LEVELS = [0, 2, 4, 6, 8, 10, 12]


@pytest.mark.parametrize("level", SEARCH_LEVELS)
def test_setup_with_chain_search(benchmark, level):
    """Fig. 2 main curve: Setup(DEC) including the chain search."""
    rng = random.Random(1000 + level)
    benchmark.pedantic(
        lambda: setup(level, rng, use_known_chain=False, chain_bits=SEARCH_BITS,
                      real_pairing=False),
        rounds=3 if level <= 3 else 1,
        iterations=1,
    )


@pytest.mark.parametrize("level", PRECOMPUTED_LEVELS)
def test_setup_precomputed_chain(benchmark, level):
    """Fig. 2 inset / offline mode: setup from the tabulated chain."""
    rng = random.Random(2000 + level)
    benchmark.pedantic(
        lambda: setup(level, rng, use_known_chain=True, real_pairing=False),
        rounds=3,
        iterations=1,
    )


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 6])
def test_chain_search_attempts(benchmark, length):
    """Machine-independent effort proxy: candidates per successful search."""
    rng = random.Random(3000 + length)

    def run():
        _, attempts = find_chain_with_stats(length, SEARCH_BITS, rng)
        return attempts

    attempts = benchmark.pedantic(run, rounds=3 if length <= 4 else 1, iterations=1)
    benchmark.extra_info["attempts_last_run"] = attempts
