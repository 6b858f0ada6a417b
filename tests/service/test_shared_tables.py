"""Shared precomputation tables: export → publish → attach → parity.

The pool parent serializes its warm pairing tables
(`export_verification_tables`), publishes them through
`crypto.tablestore`, and workers adopt instead of rebuilding.  These
tests pin the adoption paths: the fast-exp stats must record
*attaches* (not builds) for the pairing tables — the integer window
tables are never shipped and are built locally — corrupt payloads
must be rejected loudly, and the batcher/service recovery shortcuts
must accept a table blob and still verify identically.
"""

from __future__ import annotations

import pickle

import pytest

from repro.crypto import fastexp, tablestore
from repro.crypto.cl_sig import cl_blind_issue, cl_keygen
from repro.ecash.dec import begin_withdrawal, finish_withdrawal
from repro.ecash.spend import (
    adopt_verification_tables,
    create_spend,
    export_verification_tables,
    verify_spend,
)
from repro.ecash.tree import NodeId
from repro.net.codec import encode
from repro.service import Journal, MarketService, VerificationBatcher
from repro.service.workers import PooledBackend


@pytest.fixture()
def forced_fastexp():
    """Tables on and promotion-gated off: every base is tabled on first
    use."""
    previous = fastexp.configure(enabled=True, promote_after=0)
    fastexp.reset()
    yield
    fastexp.configure(**previous)
    fastexp.reset()


def _attached_total() -> int:
    return sum(row.get("attached", 0) for row in fastexp.stats().values())


def _pairing_builds() -> int:
    """Builds outside the integer cache, whose tables adoption builds."""
    return sum(row.get("builds", 0) for name, row in fastexp.stats().items()
               if name != "fastexp.int")


class TestExportAdopt:
    def test_roundtrip_counts_attaches(self, dec_params, forced_fastexp, rng):
        bank_kp = cl_keygen(dec_params.backend, rng)
        blob = export_verification_tables(dec_params, bank_kp.public)
        assert isinstance(blob, bytes) and blob

        fastexp.reset()
        assert _attached_total() == 0
        installed = adopt_verification_tables(dec_params, blob)
        assert installed > 0
        assert _attached_total() >= installed
        # adoption must not have *built* any pairing table, and has
        # built the integer ones
        assert _pairing_builds() == 0
        assert fastexp.stats()["fastexp.int"]["tables"] > 0

    def test_adopted_tables_verify_identically(self, dec_params, forced_fastexp,
                                               rng):
        bank_kp = cl_keygen(dec_params.backend, rng)
        secret, request = begin_withdrawal(dec_params, rng)
        signature = cl_blind_issue(dec_params.backend, bank_kp, request, rng)
        coin = finish_withdrawal(dec_params, bank_kp.public, secret, signature)
        token = create_spend(dec_params, bank_kp.public, coin.secret,
                             coin.signature, NodeId(2, 1), rng)
        blob = export_verification_tables(dec_params, bank_kp.public)

        fastexp.reset()
        adopt_verification_tables(dec_params, blob)
        assert verify_spend(dec_params, bank_kp.public, token)

    def test_garbage_rejected(self, dec_params, forced_fastexp):
        with pytest.raises(Exception):
            adopt_verification_tables(dec_params, b"not a pickle")
        # a version-1 (pickled) blob is never unpickled: it fails to decode
        with pytest.raises(ValueError):
            adopt_verification_tables(
                dec_params, pickle.dumps({"version": 1, "int": []})
            )
        with pytest.raises(ValueError):
            adopt_verification_tables(dec_params, encode({"version": 99, "int": []}))
        with pytest.raises(ValueError):
            adopt_verification_tables(dec_params, encode([1, 2, 3]))
        # a Miller step whose slope is not a field element
        state = {"point": dec_params.backend.g.encode(),
                 "steps": [(True, dec_params.backend.params.p, 0)]}
        with pytest.raises(ValueError):
            adopt_verification_tables(dec_params, encode(
                {"version": 3, "backend": {"pair": [state]}}))

    def test_disabled_adopt_is_a_noop(self, dec_params, rng):
        bank_kp = cl_keygen(dec_params.backend, rng)
        previous = fastexp.configure(enabled=True, promote_after=0)
        fastexp.reset()
        try:
            blob = export_verification_tables(dec_params, bank_kp.public)
            fastexp.configure(enabled=False)
            fastexp.reset()
            assert adopt_verification_tables(dec_params, blob) == 0
        finally:
            fastexp.configure(**previous)
            fastexp.reset()


class TestPublishedRef:
    def test_pooled_backend_publishes_tables(self, dec_params_toy,
                                             forced_fastexp, rng):
        keypair = cl_keygen(dec_params_toy.backend, rng)
        try:
            backend = PooledBackend(dec_params_toy, keypair.public, processes=2)
        except Exception:
            pytest.skip("process pool unavailable in this environment")
        try:
            assert backend.table_ref is not None
            blob = tablestore.load(backend.table_ref)
            fastexp.reset()
            # the toy backend ships no tables; its integer ones are
            # built on adoption
            assert adopt_verification_tables(dec_params_toy, blob) == 0
            assert fastexp.stats()["fastexp.int"]["tables"] > 0
        finally:
            backend.close()
        # the published segment dies with the backend
        with pytest.raises(Exception):
            tablestore.load(backend.table_ref)

    def test_share_tables_off_skips_publication(self, dec_params_toy,
                                                forced_fastexp, rng):
        keypair = cl_keygen(dec_params_toy.backend, rng)
        try:
            backend = PooledBackend(dec_params_toy, keypair.public, processes=2,
                                    share_tables=False)
        except Exception:
            pytest.skip("process pool unavailable in this environment")
        try:
            assert backend.table_ref is None
        finally:
            backend.close()

    def test_no_publication_when_fastexp_disabled(self, dec_params_toy, rng):
        keypair = cl_keygen(dec_params_toy.backend, rng)
        previous = fastexp.configure(enabled=False)
        fastexp.reset()
        try:
            backend = PooledBackend(dec_params_toy, keypair.public, processes=2)
        except Exception:
            pytest.skip("process pool unavailable in this environment")
        else:
            try:
                assert backend.table_ref is None
            finally:
                backend.close()
        finally:
            fastexp.configure(**previous)
            fastexp.reset()


class TestRecoveryShortcut:
    def test_batcher_accepts_table_blob(self, dec_params, forced_fastexp, rng):
        keypair = cl_keygen(dec_params.backend, rng)
        blob = export_verification_tables(dec_params, keypair.public)
        fastexp.reset()
        batcher = VerificationBatcher(dec_params, keypair, tables=blob)
        assert _attached_total() > 0
        assert _pairing_builds() == 0
        assert batcher is not None

    def test_recover_accepts_table_blob(self, dec_params, forced_fastexp, rng):
        keypair = cl_keygen(dec_params.backend, rng)
        blob = export_verification_tables(dec_params, keypair.public)

        fastexp.reset()
        recovered = MarketService.recover(
            dec_params, keypair, Journal(), n_shards=2, tables=blob
        )
        assert _attached_total() > 0
        assert _pairing_builds() == 0
        assert isinstance(recovered, MarketService)
