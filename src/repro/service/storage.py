"""The storage seam under the write-ahead journal.

:class:`~repro.service.journal.Journal` frames, segments, checkpoints
and compacts; *where the bytes live* is the one thing it does not
know.  A :class:`Storage` is a flat namespace of named byte strings
with eight operations — everything the journal does to a disk, and
therefore the only places a crash can interrupt it.  There is no
``sync``: nothing here promises more than process-crash durability
(ROADMAP 1(c) adds it together with its first caller).

:class:`MemoryStorage` is what ``Journal()`` and every cluster node
run (the bytes outlive the journal object, which is how the fault
harness models a process crash); :class:`DirectoryStorage` is
``Journal.open(directory)``, the production store (file layout in
``docs/storage.md``).  :class:`StorageWrapper` sits between a journal
and either: :class:`repro.testing.faults.StorageCrasher` (dies before
operation *k*) and :class:`repro.cluster.replicate.JournalShipper`
(copies each operation to a peer) are the two.
"""

from __future__ import annotations

import os
import threading
from typing import Protocol

__all__ = ["Storage", "MemoryStorage", "DirectoryStorage", "StorageWrapper",
           "MUTATING"]

#: The operations that change what a storage holds — the only places a
#: crash can interrupt a journal, and all a replica needs to copy one —
#: with the exact types of their arguments.
MUTATING = {"append": (str, bytes), "write": (str, bytes),
            "replace": (str, str), "truncate": (str, int), "unlink": (str,)}


class Storage(Protocol):
    """What a journal needs of its backing store.

    ``read``, ``size``, ``truncate`` and ``replace`` of a missing name
    raise :class:`FileNotFoundError`.
    """

    def names(self) -> list[str]: ...  # every name stored, in any order
    def read(self, name: str) -> bytes: ...  # the whole content
    def size(self, name: str) -> int: ...  # its length in bytes
    def append(self, name: str, data: bytes) -> None: ...  # at the end; creates
    def write(self, name: str, data: bytes) -> None: ...  # exactly *data* now
    def replace(self, src: str, dst: str) -> None: ...  # atomic rename over dst
    def truncate(self, name: str, size: int) -> None: ...  # as ``os.truncate``
    def unlink(self, name: str) -> None: ...  # best effort, missing is fine
    def close(self) -> None: ...  # lifecycle, not I/O: release OS handles


class MemoryStorage:
    """Named byte strings in a dict: no filesystem, no handles."""

    def __init__(self) -> None:
        self._files: dict[str, bytearray] = {}

    def _get(self, name: str) -> bytearray:
        try:
            return self._files[name]
        except KeyError:
            raise FileNotFoundError(name) from None

    def names(self) -> list[str]:
        return list(self._files)

    def read(self, name: str) -> bytes:
        return bytes(self._get(name))

    def size(self, name: str) -> int:
        return len(self._get(name))

    def append(self, name: str, data: bytes) -> None:
        self._files.setdefault(name, bytearray()).extend(data)

    def write(self, name: str, data: bytes) -> None:
        self._files[name] = bytearray(data)

    def replace(self, src: str, dst: str) -> None:
        self._get(src)
        self._files[dst] = self._files.pop(src)

    def truncate(self, name: str, size: int) -> None:
        data = self._get(name)
        data[size:] = bytes(max(0, size - len(data)))  # past the end: zero-fill

    def unlink(self, name: str) -> None:
        self._files.pop(name, None)

    def close(self) -> None:
        pass


class DirectoryStorage:
    """One file per name under *directory* (created when missing).

    Appends keep the handle of the file last appended to open and do
    one ``write`` + ``flush`` per call — the journal appends to one
    segment at a time, so a record costs no ``open``.  Every other
    mutating operation gives the handle up first, so the calls compose
    exactly as they do on :class:`MemoryStorage`.
    """

    def __init__(self, directory: str | os.PathLike[str]) -> None:
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self._fh = None
        self._fh_name = ""

    def _path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
            self._fh_name = ""

    def names(self) -> list[str]:
        return os.listdir(self.directory)

    def read(self, name: str) -> bytes:
        with open(self._path(name), "rb") as fh:
            return fh.read()

    def size(self, name: str) -> int:
        return os.path.getsize(self._path(name))

    def append(self, name: str, data: bytes) -> None:
        if name != self._fh_name:
            self.close()
            self._fh = open(self._path(name), "ab")
            self._fh_name = name
        self._fh.write(data)
        self._fh.flush()

    def write(self, name: str, data: bytes) -> None:
        self.close()
        with open(self._path(name), "wb") as fh:
            fh.write(data)

    def replace(self, src: str, dst: str) -> None:
        self.close()
        os.replace(self._path(src), self._path(dst))

    def truncate(self, name: str, size: int) -> None:
        self.close()
        os.truncate(self._path(name), size)

    def unlink(self, name: str) -> None:
        self.close()
        try:
            os.unlink(self._path(name))
        except OSError:
            pass  # gone already, or it stays: an extra file for the next pass


class StorageWrapper:
    """A :class:`Storage` that forwards every call to *inner*.

    Reads and ``close`` go straight through; each :data:`MUTATING` call
    becomes ``mutate(op, args)``, which holds one lock and which a
    subclass overrides to act before or after passing the call on with
    ``super().mutate``.  :meth:`snapshot` holds the same lock, so its
    copy is what *inner* held between two operations: a crash point,
    which every reopen already survives.
    """

    def __init__(self, inner: Storage) -> None:
        self.inner = inner
        self._lock = threading.Lock()

    def __getattr__(self, op: str):
        call = getattr(self.inner, op)
        if op not in MUTATING:
            return call
        return lambda *args: self.mutate(op, args)

    def mutate(self, op: str, args: tuple) -> None:
        with self._lock:
            getattr(self.inner, op)(*args)

    def snapshot(self) -> dict[str, bytes]:
        """Every name's bytes, taken between two operations."""
        with self._lock:
            return {name: self.inner.read(name) for name in self.inner.names()}
