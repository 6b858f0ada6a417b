"""Shared fixtures.

Expensive artefacts (group towers, pairing curves, RSA keys, DEC
parameter sets) are session-scoped and deterministic; anything mutable
(banks, wallets, sessions) is built per test from them.  All bit sizes
are test-sized — the benches use the documented defaults.

Every RNG fixture honours ``REPRO_TEST_SEED`` (int literal, hex ok).
Unset, the historical defaults apply (``0xC0FFEE`` per-test,
``0xDEC0DE`` for the session artefacts) so baseline runs are
bit-for-bit what they always were; set, both streams derive from the
override and every failure report prints the effective seed plus the
exact command that replays it.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import HealthCheck, settings as hypothesis_settings

import repro.net  # noqa: F401  — registers codec wire types

# Arbitrary-precision arithmetic is timing-noisy; wall-clock deadlines
# would make property tests flaky on slow or contended machines.
hypothesis_settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
hypothesis_settings.load_profile("repro")
from repro.crypto import rsa
from repro.crypto.groups import SchnorrGroup, build_tower
from repro.crypto.pairing import TatePairing, ToyPairing, generate_curve
from repro.ecash.dec import DECBank
from repro.ecash.spend import DECParams
from repro.testing.properties import env_seed

#: Effective base seed; ``REPRO_TEST_SEED`` overrides, default 0xC0FFEE.
BASE_SEED = env_seed()
_OVERRIDDEN = bool(os.environ.get("REPRO_TEST_SEED", "").strip())
#: Session artefacts keep their historical seed unless overridden.
SESSION_SEED: object = f"session:{BASE_SEED:#x}" if _OVERRIDDEN else 0xDEC0DE


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Stamp every failure with the seed and a one-line replay command."""
    outcome = yield
    report = outcome.get_result()
    if report.failed and call.when == "call":
        report.sections.append((
            "repro seed",
            f"effective REPRO_TEST_SEED={BASE_SEED:#x}"
            f" (session seed {SESSION_SEED!r})\n"
            f"replay: REPRO_TEST_SEED={BASE_SEED:#x} "
            f"python -m pytest '{item.nodeid}'",
        ))


@pytest.fixture()
def rng() -> random.Random:
    """Fresh deterministic RNG per test."""
    return random.Random(BASE_SEED)


@pytest.fixture(scope="session")
def session_rng() -> random.Random:
    return random.Random(SESSION_SEED)


@pytest.fixture(scope="session")
def schnorr_group(session_rng) -> SchnorrGroup:
    return SchnorrGroup.generate(64, session_rng)


@pytest.fixture(scope="session")
def tower3(session_rng):
    """Depth-3 Cunningham tower (precomputed chain)."""
    return build_tower(3, session_rng)


@pytest.fixture(scope="session")
def tate_backend(session_rng) -> TatePairing:
    return TatePairing(generate_curve(32, session_rng))


@pytest.fixture(scope="session")
def toy_backend(session_rng) -> ToyPairing:
    return ToyPairing.generate(48, session_rng)


@pytest.fixture(scope="session")
def rsa_key(session_rng) -> rsa.RSAPrivateKey:
    return rsa.generate_keypair(512, session_rng)


@pytest.fixture(scope="session")
def rsa_key_other(session_rng) -> rsa.RSAPrivateKey:
    return rsa.generate_keypair(512, session_rng)


@pytest.fixture(scope="session")
def dec_params(session_rng) -> DECParams:
    """Level-3 DEC instance with a real (small) Tate pairing."""
    from repro.ecash.dec import setup

    return setup(3, session_rng, security_bits=40, edge_rounds=8)


@pytest.fixture()
def dec_bank(dec_params, rng) -> DECBank:
    return DECBank.create(dec_params, rng)


@pytest.fixture(scope="session")
def dec_params_toy(session_rng) -> DECParams:
    """Level-4 DEC instance on the toy backend (fast protocol tests)."""
    from repro.ecash.dec import setup

    return setup(4, session_rng, security_bits=80, real_pairing=False, edge_rounds=6)


@pytest.fixture(scope="session")
def campaign_substrate(session_rng):
    """Shared toy ``(params, keypair)`` for the campaign-engine tests.

    Derived from the session seed so every campaign test (and the
    byte-for-byte replay regression) runs over one deterministic
    substrate instead of regrowing group towers per test.
    """
    from repro.testing.scenario import toy_market_params

    return toy_market_params(random.Random(f"campaign:{SESSION_SEED!r}"))


@pytest.fixture()
def reopen(tmp_path):
    """The journal store under test, opened afresh on every call.

    The default leg is a directory: each call is a new
    ``DirectoryStorage`` over the same files, as a restarted process
    would see them.  :class:`InMemory` swaps in one ``MemoryStorage``.
    """
    from repro.service.storage import DirectoryStorage

    return lambda: DirectoryStorage(tmp_path / "wal")


class InMemory:
    """Mixin: run a store-level test class over one ``MemoryStorage``.

    ``class TestXInMemory(InMemory, TestX)`` re-collects every test of
    ``TestX`` with ``reopen`` handing back the same in-memory store —
    the directory leg keeps its test ids, the memory leg gets new ones.
    """

    @pytest.fixture()
    def reopen(self):
        from repro.service.storage import MemoryStorage

        storage = MemoryStorage()
        return lambda: storage
