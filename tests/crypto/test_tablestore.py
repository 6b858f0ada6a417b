"""Tests for the shared-memory table transport."""

from __future__ import annotations

import os
import stat
import tempfile

import pytest

from repro.crypto import tablestore
from repro.crypto.tablestore import TableStore, TableStoreError, load, pack, unpack


@pytest.fixture(autouse=True)
def _no_crash_hook():
    yield
    tablestore.set_crash_hook(None)


class TestFraming:
    def test_roundtrip(self):
        blob = os.urandom(257)
        assert unpack(pack(blob)) == blob

    def test_empty_blob(self):
        assert unpack(pack(b"")) == b""

    def test_short_payload_rejected(self):
        with pytest.raises(TableStoreError, match="shorter"):
            unpack(b"RPTB")

    def test_bad_magic_rejected(self):
        framed = bytearray(pack(b"hello"))
        framed[0] ^= 0xFF
        with pytest.raises(TableStoreError, match="magic"):
            unpack(bytes(framed))

    def test_version_skew_rejected(self):
        framed = bytearray(pack(b"hello"))
        framed[5] ^= 0x01
        with pytest.raises(TableStoreError, match="version"):
            unpack(bytes(framed))

    def test_truncation_rejected(self):
        framed = pack(b"x" * 64)
        with pytest.raises(TableStoreError, match="truncated"):
            unpack(framed[:-8])

    def test_corruption_rejected(self):
        framed = bytearray(pack(b"x" * 64))
        framed[-1] ^= 0x01
        with pytest.raises(TableStoreError, match="digest"):
            unpack(bytes(framed))

    def test_oversized_buffer_tolerated(self):
        # shared-memory segments round up to page size; trailing slack
        # beyond the declared length must not affect validation
        framed = pack(b"payload") + b"\x00" * 4096
        assert unpack(framed) == b"payload"


class TestPublishLoad:
    @pytest.mark.parametrize("prefer_shm", [True, False])
    def test_roundtrip(self, prefer_shm):
        blob = os.urandom(1024)
        store = TableStore()
        try:
            ref = store.publish(blob, prefer_shared_memory=prefer_shm)
            assert ref is store.ref
            if not prefer_shm:
                assert ref[0] == "file"
            assert load(ref) == blob
            # a second attach works too — load never unlinks
            assert load(ref) == blob
        finally:
            store.close()

    def test_double_publish_rejected(self):
        store = TableStore()
        try:
            store.publish(b"x")
            with pytest.raises(RuntimeError):
                store.publish(b"y")
        finally:
            store.close()

    def test_close_unlinks_file(self):
        store = TableStore()
        ref = store.publish(b"data", prefer_shared_memory=False)
        path = ref[1]
        assert os.path.exists(path)
        store.close()
        assert not os.path.exists(path)
        assert store.ref is None

    def test_close_idempotent(self):
        store = TableStore()
        store.publish(b"data")
        store.close()
        store.close()

    def test_load_after_close_fails(self):
        store = TableStore()
        ref = store.publish(b"data", prefer_shared_memory=False)
        store.close()
        with pytest.raises((TableStoreError, OSError)):
            load(ref)

    def test_unknown_ref_kind(self):
        with pytest.raises(TableStoreError, match="unknown"):
            load(("carrier-pigeon", "name", 3))


class TestFileFallbackHardening:
    """The file fallback crosses a shared temp dir and the blob becomes
    the verifier's tables after validation — the digest proves
    integrity, not origin, so creation and read-back must pin the file
    to this uid."""

    def test_created_private_and_exclusive(self):
        store = TableStore()
        try:
            ref = store.publish(b"blob", prefer_shared_memory=False)
            mode = stat.S_IMODE(os.stat(ref[1]).st_mode)
            assert mode == 0o600
            assert load(ref) == b"blob"
        finally:
            store.close()

    def test_preexisting_path_never_adopted(self, monkeypatch):
        monkeypatch.setattr(tablestore.secrets, "token_hex", lambda n: "pinned")
        squatted = os.path.join(tempfile.gettempdir(), "repro-tables-pinned.bin")
        with open(squatted, "wb") as handle:
            handle.write(b"attacker bytes")
        try:
            with pytest.raises(OSError):
                TableStore().publish(b"blob", prefer_shared_memory=False)
            # the squatter's file is not ours: publish must not unlink it
            with open(squatted, "rb") as handle:
                assert handle.read() == b"attacker bytes"
        finally:
            os.unlink(squatted)

    @pytest.mark.skipif(not hasattr(os, "getuid"), reason="POSIX only")
    def test_foreign_owner_rejected(self, monkeypatch):
        store = TableStore()
        try:
            ref = store.publish(b"blob", prefer_shared_memory=False)
            real_uid = os.getuid()
            monkeypatch.setattr(os, "getuid", lambda: real_uid + 1)
            with pytest.raises(TableStoreError, match="owned"):
                load(ref)
        finally:
            store.close()

    @pytest.mark.skipif(not hasattr(os, "O_NOFOLLOW"), reason="needs O_NOFOLLOW")
    def test_symlink_rejected(self, tmp_path):
        framed = pack(b"x")
        target = tmp_path / "target.bin"
        target.write_bytes(framed)
        link = tmp_path / "link.bin"
        link.symlink_to(target)
        with pytest.raises(OSError):
            load(("file", str(link), len(framed)))

    def test_non_regular_file_rejected(self, tmp_path):
        with pytest.raises((TableStoreError, OSError)):
            load(("file", str(tmp_path), 8))


class TestCrashWindow:
    class _Boom(RuntimeError):
        pass

    @pytest.mark.parametrize("prefer_shm", [True, False])
    def test_crash_mid_publish_cleans_up(self, prefer_shm):
        def hook():
            raise self._Boom("publisher died")

        tablestore.set_crash_hook(hook)
        store = TableStore()
        with pytest.raises(self._Boom):
            store.publish(b"tables", prefer_shared_memory=prefer_shm)
        assert store.ref is None
        # nothing leaked under the temp dir
        import glob
        import tempfile

        leftovers = glob.glob(
            os.path.join(tempfile.gettempdir(), "repro-tables-*.bin")
        )
        assert leftovers == []

    def test_clearing_hook_restores_publish(self):
        tablestore.set_crash_hook(lambda: (_ for _ in ()).throw(self._Boom()))
        store = TableStore()
        with pytest.raises(self._Boom):
            store.publish(b"tables")
        tablestore.set_crash_hook(None)
        try:
            ref = store.publish(b"tables")
            assert load(ref) == b"tables"
        finally:
            store.close()
