"""Shared-memory transport for precomputed verification tables.

A pooled verifier spawns workers with the ``spawn`` start method, so
nothing is inherited: by default every worker re-derives every
fixed-base comb and Miller-loop table from scratch — the dominant cost
of a cold spawn.  This module moves the tables instead of the work:
the parent serializes its warm tables once
(:func:`repro.ecash.spend.export_verification_tables`), publishes the
blob through a :class:`TableStore`, and ships only the small picklable
*reference* to each worker, which attaches and installs.

Transport is ``multiprocessing.shared_memory`` when available, with a
plain-file fallback (the blob is written under the system temp dir and
read back by path) for platforms or configurations where POSIX shared
memory is unusable.  Either way the payload crosses the boundary under
a versioned header carrying a SHA-256 digest — a torn write, a stale
segment from a previous incarnation, or a size mismatch fails
:func:`unpack` loudly, and the worker falls back to a local build
rather than installing corrupt tables.  The digest proves integrity,
not origin, and the payload becomes the verifier's tables (it is
decoded by the project codec, never unpickled) — so the file fallback
is created ``0600`` with ``O_EXCL`` and re-verified on read (regular
file, owned by this uid) before any byte is trusted.

Crash discipline: the window between *creating* a segment and
*publishing* its reference is exactly where an operator-visible crash
leaks resources, so :func:`set_crash_hook` exposes that window to the
fault harness.  ``publish`` guarantees the segment is closed and
unlinked when anything — including the hook — raises inside it.

This module is deliberately service-agnostic: stdlib only, no imports
from elsewhere in the package (pinned by ``tools/lint_imports.py``).
"""

from __future__ import annotations

import hashlib
import os
import secrets
import stat
import tempfile
from typing import Callable

try:  # pragma: no cover - present on every supported platform
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None  # type: ignore[assignment]
    resource_tracker = None  # type: ignore[assignment]

__all__ = [
    "TableStoreError",
    "TableStore",
    "pack",
    "unpack",
    "load",
    "set_crash_hook",
]

_MAGIC = b"RPTB"
_VERSION = 1
_DIGEST = hashlib.sha256
_HEADER_LEN = len(_MAGIC) + 2 + 8 + _DIGEST(b"").digest_size

#: Picklable reference to a published blob: ``("shm", name, total_size)``
#: or ``("file", path, total_size)``.
TableRef = tuple

_CRASH_HOOK: Callable[[], None] | None = None

#: Segment names created by *this* process.  ``load`` must only scrub
#: the resource tracker when attaching to a foreign segment — in the
#: owner process the registrations collapse into one tracker entry, and
#: unregistering it would make the eventual unlink double-unregister.
_OWNED: set[str] = set()


class TableStoreError(ValueError):
    """A published blob failed validation (magic/version/digest/size)."""


def set_crash_hook(hook: Callable[[], None] | None) -> None:
    """Install a hook fired between segment creation and publication.

    Test-only: the fault harness raises
    :class:`~repro.testing.faults.CrashPoint` from the hook to simulate
    the publisher dying mid-publish.  ``None`` clears it.
    """
    global _CRASH_HOOK
    _CRASH_HOOK = hook


def pack(blob: bytes) -> bytes:
    """Frame *blob* with the versioned, digest-carrying header."""
    digest = _DIGEST(blob).digest()
    return (
        _MAGIC
        + _VERSION.to_bytes(2, "big")
        + len(blob).to_bytes(8, "big")
        + digest
        + blob
    )


def unpack(data: bytes) -> bytes:
    """Validate a framed payload and return the inner blob.

    Raises :class:`TableStoreError` on any mismatch — truncated reads,
    foreign segments, version skew, or payload corruption.
    """
    if len(data) < _HEADER_LEN:
        raise TableStoreError("table payload shorter than its header")
    if data[: len(_MAGIC)] != _MAGIC:
        raise TableStoreError("bad table payload magic")
    offset = len(_MAGIC)
    version = int.from_bytes(data[offset : offset + 2], "big")
    if version != _VERSION:
        raise TableStoreError(f"unsupported table payload version {version}")
    offset += 2
    length = int.from_bytes(data[offset : offset + 8], "big")
    offset += 8
    digest = data[offset : offset + _DIGEST(b"").digest_size]
    offset += _DIGEST(b"").digest_size
    blob = bytes(data[offset : offset + length])
    if len(blob) != length:
        raise TableStoreError("table payload truncated")
    if _DIGEST(blob).digest() != digest:
        raise TableStoreError("table payload digest mismatch")
    return blob


class TableStore:
    """Owner-side handle for one published table blob.

    The owner (the pool parent) calls :meth:`publish` once, hands the
    returned reference to every worker, and calls :meth:`close` when
    the pool shuts down.  Workers use the module-level :func:`load` —
    it is picklable by qualified name and leaves ownership with the
    parent.
    """

    def __init__(self) -> None:
        self._segment = None
        self._path: str | None = None
        self.ref: TableRef | None = None

    def publish(self, blob: bytes, *, prefer_shared_memory: bool = True) -> TableRef:
        """Publish *blob*; returns the picklable reference workers load.

        Tries POSIX shared memory first, falling back to a temp file.
        Any failure after segment creation — including a crash-hook
        firing — releases the segment before the exception propagates,
        so a dying publisher never strands an unnamed segment.
        """
        if self.ref is not None:
            raise RuntimeError("TableStore already published")
        framed = pack(blob)
        if prefer_shared_memory and shared_memory is not None:
            try:
                segment = shared_memory.SharedMemory(create=True, size=len(framed))
            except OSError:
                segment = None
            if segment is not None:
                try:
                    segment.buf[: len(framed)] = framed
                    if _CRASH_HOOK is not None:
                        _CRASH_HOOK()
                except BaseException:
                    segment.close()
                    segment.unlink()
                    raise
                self._segment = segment
                _OWNED.add(segment.name)
                self.ref = ("shm", segment.name, len(framed))
                return self.ref
        path = os.path.join(
            tempfile.gettempdir(), f"repro-tables-{secrets.token_hex(8)}.bin"
        )
        # O_EXCL: never adopt a pre-existing path (the temp dir is
        # shared, and the reading side installs the blob's tables); 0600:
        # only this uid may replace the contents afterwards.
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(framed)
            if _CRASH_HOOK is not None:
                _CRASH_HOOK()
        except BaseException:
            try:
                os.unlink(path)
            except OSError:
                pass
            raise
        self._path = path
        self.ref = ("file", path, len(framed))
        return self.ref

    def close(self, *, unlink: bool = True) -> None:
        """Release the published segment (idempotent)."""
        segment, self._segment = self._segment, None
        if segment is not None:
            _OWNED.discard(segment.name)
            segment.close()
            if unlink:
                try:
                    segment.unlink()
                except FileNotFoundError:
                    pass
        path, self._path = self._path, None
        if path is not None and unlink:
            try:
                os.unlink(path)
            except OSError:
                pass
        self.ref = None


def load(ref: TableRef) -> bytes:
    """Attach to a published reference and return the validated blob.

    Read-only from the attaching side: shared-memory segments are
    closed (never unlinked) after copying, and the attachment is
    scrubbed from this process's resource tracker so a worker exiting
    does not tear the parent's segment down underneath its siblings
    (Python < 3.13 tracks attachments as if they were owned).
    """
    kind, name, size = ref
    if kind == "shm":
        if shared_memory is None:
            raise TableStoreError("shared memory unavailable")
        segment = shared_memory.SharedMemory(name=name)
        try:
            if resource_tracker is not None and name not in _OWNED:
                try:
                    resource_tracker.unregister(segment._name, "shared_memory")
                except Exception:
                    pass
            data = bytes(segment.buf[:size])
        finally:
            segment.close()
        return unpack(data)
    if kind == "file":
        # the digest in the frame proves integrity, not origin: the blob
        # is installed as verification tables after validation, so a
        # file an attacker could plant or rewrite under the shared temp
        # dir would decide verdicts.  publish() creates it 0600/O_EXCL;
        # refuse anything that is not a regular file owned by this uid
        # (symlink swaps are cut off by O_NOFOLLOW where the platform
        # has it).
        fd = os.open(name, os.O_RDONLY | getattr(os, "O_NOFOLLOW", 0))
        try:
            info = os.fstat(fd)
            if not stat.S_ISREG(info.st_mode):
                raise TableStoreError("table file is not a regular file")
            getuid = getattr(os, "getuid", None)
            if getuid is not None and info.st_uid != getuid():
                raise TableStoreError("table file owned by another user")
            chunks = []
            remaining = size
            while remaining > 0:
                chunk = os.read(fd, remaining)
                if not chunk:
                    break
                chunks.append(chunk)
                remaining -= len(chunk)
            data = b"".join(chunks)
        finally:
            os.close(fd)
        return unpack(data)
    raise TableStoreError(f"unknown table reference kind {kind!r}")
