"""Write-ahead journal for the market-administrator service.

The bank's books live in memory; a crash mid-batch would otherwise
lose every deposit applied since the last snapshot and — worse — lose
the *deposited-serial store*, reopening every double-spend.  The
journal closes that hole with the classic discipline:

* **append before apply** — every state mutation (account opening,
  withdrawal debit, deposit commit) is recorded in the journal *before*
  the books change.  The record carries everything needed to redo the
  mutation (and to synthesize the client's reply), so after a crash the
  journal plus the last checkpoint reconstruct exactly the committed
  state: a mutation is either journaled (and will be re-applied) or it
  never happened.  Nothing is ever half-applied.
* **idempotent replay keyed on request ids** — records carry the
  originating request id (``rid``); replay skips a rid it has already
  applied, so duplicated records (client retries, overlapping recovery
  passes) can never double-apply a deposit.
* **bounded growth** — the log is an epoch/segment store, not one
  endless list: every record belongs to the fixed-capacity segment
  ``lsn // segment_records``, checkpoints durably fold a prefix of the
  log into snapshot state, and :meth:`Journal.compact` drops whole
  segments that a durable checkpoint fully covers (under an explicit
  retention policy).  LSNs never restart; compaction only advances the
  oldest *retained* position (:attr:`Journal.first_lsn`).

Two storage modes:

* :class:`Journal` keeps records in a list, which under the fault
  harness plays the role of the disk that survives the simulated crash
  (the service and bank objects are discarded; the journal object is
  handed to recovery).
* :class:`SegmentedFileJournal` is the production store: one file per
  segment, incremental copy-on-write checkpoints (content-addressed
  blob files + a small manifest), retention-policy compaction that
  actually deletes files, and named crash-injection steps so the fault
  harness can kill the process *inside* checkpointing and compaction.
  The byte-exact on-disk format is specified in ``docs/storage.md``.

Record kinds (see :mod:`repro.service.server` for who writes what)::

    accept  {sender, kind, payload}        service accepted a request
    apply   op-specific redo payload       bank is about to mutate
    reply   {status, body}                 terminal answer for a rid

A :class:`Checkpoint` pairs per-shard snapshot blobs with the journal
position they reflect; recovery restores the blobs and replays only
records after that position.  Since checkpoints gate compaction, a
checkpoint also carries the request-lifecycle state (reply cache,
in-flight accepts, eviction tombstones, sequence watermark) that
recovery used to rebuild by scanning the — now partially deleted —
log from lsn 0.  The reply cache and the tombstone set are FIFO, so
they travel as :class:`Runs`: immutable sealed runs of
:data:`RUN_ENTRIES` entries (stored once each, by content digest) plus
a short unsealed tail — a checkpoint costs what changed since the last
one, not what the cache holds.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterator

import repro.obs as obs
from repro.crypto.hashing import sha256
from repro.net.codec import decode, encode

__all__ = [
    "JournalError",
    "JournalRecord",
    "Journal",
    "SegmentedFileJournal",
    "JournalMaintenance",
    "Checkpoint",
    "Run",
    "Runs",
    "RunLog",
    "DEFAULT_SEGMENT_RECORDS",
    "RUN_ENTRIES",
]

_CKPT_MAGIC = b"repro-service-checkpoint-v3"
_SEGMENT_MAGIC = b"repro-journal-seg-v1\n"
_MANIFEST_MAGIC = b"repro-ckpt-manifest-v2"
_FRAME_DIGEST_BYTES = 8
_BLOB_NAME_HEX = 16

#: Records per segment: segment ``k`` holds LSNs ``[k*N, (k+1)*N)``.
DEFAULT_SEGMENT_RECORDS = 1024

#: Entries per sealed run of the reply cache / tombstone set.
RUN_ENTRIES = 256

#: Record kinds the service/bank layers write.
RECORD_KINDS = ("accept", "apply", "reply")


class JournalError(Exception):
    """Journal rejected an operation or a persisted journal is corrupt."""


@dataclass(frozen=True)
class JournalRecord:
    """One journaled event.

    ``lsn`` is the log sequence number (dense, starting at 0); ``rid``
    is the request id the record belongs to (empty for out-of-band
    mutations such as load-generation minting); ``op`` names the
    operation (request kind or bank mutation); ``payload`` is a
    codec-encodable value carrying everything replay needs.
    """

    lsn: int
    kind: str
    rid: str
    op: str
    payload: Any

    def to_state(self) -> dict:
        return {
            "lsn": self.lsn,
            "kind": self.kind,
            "rid": self.rid,
            "op": self.op,
            "payload": self.payload,
        }

    @classmethod
    def from_state(cls, state: dict) -> "JournalRecord":
        return cls(
            lsn=state["lsn"],
            kind=state["kind"],
            rid=state["rid"],
            op=state["op"],
            payload=state["payload"],
        )


class Journal:
    """In-memory, fsync-free write-ahead journal (the test/fault mode).

    Payloads are normalized through the canonical codec on append —
    appending is exactly as strict as sending the value over the wire,
    and the journal can never share mutable state with the live books
    (a record read back at recovery is a fresh decoded copy).

    The log is segmented: record ``lsn`` belongs to segment
    ``lsn // segment_records``, and :meth:`compact` drops whole sealed
    segments that a durable checkpoint covers.  ``len(journal)`` is the
    *retained* record count; :attr:`first_lsn`/:attr:`last_lsn` are the
    retained LSN range (LSNs are global and never reused).
    """

    def __init__(self, *, segment_records: int = DEFAULT_SEGMENT_RECORDS,
                 telemetry: "obs.Telemetry | None" = None) -> None:
        if segment_records < 1:
            raise JournalError("segment_records must be positive")
        self.segment_records = segment_records
        self._base_lsn = 0  # lsn of _records[0] (next lsn when empty)
        self._records: list[JournalRecord] = []
        self._observers: list = []
        self.compactions = 0
        self.segments_dropped = 0
        self._bind_obs(telemetry)

    def add_observer(self, fn) -> None:
        """Call *fn(record)* synchronously for every appended record.

        The segment-export hook: a replication shipper registered here
        sees each record on the appending thread *before* the append
        returns — and therefore before any reply that depends on the
        record is sent — which is what lets a peer's copy of the
        journal be a superset of every acknowledged request.  Records
        loaded from disk (a :class:`SegmentedFileJournal` reopening its
        directory) do not fire; only new appends do.
        """
        self._observers.append(fn)

    def _bind_obs(self, telemetry: "obs.Telemetry | None") -> None:
        """Attach a telemetry stack (the service shares its own down)."""
        self.obs = telemetry if telemetry is not None else obs.get_default()
        registry = self.obs.registry
        self._m_appends = {
            kind: registry.counter(
                "repro_journal_appends_total",
                "journal records appended, by record kind", kind=kind,
            )
            for kind in RECORD_KINDS
        }
        self._m_bytes = registry.counter(
            "repro_journal_append_bytes_total",
            "encoded payload bytes appended to the journal",
        )
        self._m_lsn = registry.gauge(
            "repro_journal_lsn", "log sequence number of the newest record"
        )
        self._m_first_lsn = registry.gauge(
            "repro_journal_first_lsn",
            "oldest retained log sequence number (advances on compaction)",
        )
        self._m_segments = registry.gauge(
            "repro_journal_segments_retained",
            "journal segments currently retained",
        )
        self._m_compactions = registry.counter(
            "repro_journal_compactions_total",
            "compaction passes that dropped at least one segment",
        )
        self._m_dropped = registry.counter(
            "repro_journal_segments_dropped_total",
            "journal segments dropped by compaction",
        )

    def __len__(self) -> int:
        """Retained record count (shrinks when :meth:`compact` drops segments)."""
        return len(self._records)

    @property
    def first_lsn(self) -> int:
        """LSN of the oldest retained record (the next LSN when empty)."""
        return self._base_lsn

    @property
    def last_lsn(self) -> int:
        """LSN of the newest record, or ``first_lsn - 1`` when empty."""
        return self._base_lsn + len(self._records) - 1

    def segment_of(self, lsn: int) -> int:
        """The segment id holding *lsn* (``lsn // segment_records``)."""
        return lsn // self.segment_records

    @property
    def segments_retained(self) -> int:
        if not self._records:
            return 0
        return self.segment_of(self.last_lsn) - self.segment_of(self.first_lsn) + 1

    def append(self, kind: str, rid: str, op: str, payload: Any) -> JournalRecord:
        """Durably record one event; returns the record (with its LSN)."""
        if kind not in RECORD_KINDS:
            raise JournalError(f"unknown journal record kind {kind!r}")
        try:
            encoded = encode(payload)
            normalized = decode(encoded)
        except (TypeError, ValueError) as exc:
            raise JournalError(f"unjournalable payload for {op!r}: {exc}") from exc
        record = JournalRecord(
            lsn=self._base_lsn + len(self._records), kind=kind, rid=rid, op=op,
            payload=normalized,
        )
        # the span inherits the active request's trace id (the apply or
        # submit span is on the tracer stack), so journal time shows up
        # inside the request's timeline, not as a detached blip
        with self.obs.tracer.span("journal_append", kind=kind, op=op,
                                  lsn=record.lsn, bytes=len(encoded)):
            self._records.append(record)
            self._persist(record)
            for observer in self._observers:
                observer(record)
        self._m_appends[kind].inc()
        self._m_bytes.inc(len(encoded))
        self._m_lsn.set(record.lsn)
        return record

    def _persist(self, record: JournalRecord) -> None:
        """Hook for durable subclasses; in-memory mode does nothing."""

    def records(self, *, after: int = -1) -> Iterator[JournalRecord]:
        """Retained records with ``lsn > after``, in LSN order.

        A cursor inside the compacted prefix (``after < first_lsn - 1``)
        silently starts at the oldest retained record; callers that need
        the *full* history must pair the tail with the checkpoint that
        compaction was cut against (see :meth:`compact`).
        """
        start = after + 1 - self._base_lsn
        if start < 0:
            start = 0
        return iter(self._records[start:])

    def compact(self, durable_lsn: int, *, retain_segments: int = 1) -> list[int]:
        """Drop sealed segments fully covered by a durable checkpoint.

        *durable_lsn* is the LSN of a checkpoint that is already safely
        persisted (or shipped): every record with ``lsn <= durable_lsn``
        is folded into that checkpoint's state.  A segment is dropped
        only when **all** of its records are covered; *retain_segments*
        keeps that many of the newest coverable segments anyway (debug
        tail / shipping slack).  Returns the dropped segment ids.

        Compaction never touches the active (unsealed) segment and
        never renumbers anything: ``first_lsn`` advances, ``last_lsn``
        and future LSNs are unchanged.
        """
        if retain_segments < 0:
            raise JournalError("retain_segments must be >= 0")
        if durable_lsn > self.last_lsn:
            durable_lsn = self.last_lsn
        # segments 0 .. covered-1 are entirely <= durable_lsn
        covered = (durable_lsn + 1) // self.segment_records
        target_first = covered - retain_segments
        current_first = self._base_lsn // self.segment_records
        if target_first <= current_first:
            self._m_first_lsn.set(self.first_lsn)
            self._m_segments.set(self.segments_retained)
            return []
        dropped = list(range(current_first, target_first))
        new_base = target_first * self.segment_records
        with self.obs.tracer.span("journal_compact", first=current_first,
                                  dropped=len(dropped)):
            self._records = self._records[new_base - self._base_lsn:]
            self._base_lsn = new_base
            self._drop_segments(dropped)
        self.compactions += 1
        self.segments_dropped += len(dropped)
        self._m_compactions.inc()
        self._m_dropped.inc(len(dropped))
        self._m_first_lsn.set(self.first_lsn)
        self._m_segments.set(self.segments_retained)
        return dropped

    def _drop_segments(self, segment_ids: list[int]) -> None:
        """Hook for durable subclasses: delete the dropped segments' files."""


def _blob_name(data: bytes) -> str:
    """Content digest a blob file is named by (``blob-<this>.bin``)."""
    return sha256(data).hex()[:_BLOB_NAME_HEX]


def _frame(state: dict) -> bytes:
    """One wire frame: u32 body length, 8-byte digest prefix, codec body."""
    body = encode(state)
    return (
        len(body).to_bytes(4, "big")
        + sha256(body)[:_FRAME_DIGEST_BYTES]
        + body
    )


def _scan_frames(
    data: bytes, start: int, name: str, *, expected_lsn: int
) -> tuple[list[JournalRecord], int, bool]:
    """Decode record frames from *data*; returns (records, clean end, torn).

    Torn bytes at the very end of the buffer are tolerated (crash
    mid-append); a bad digest or undecodable body *before* the tail is
    corruption and raises.  LSNs must be dense from *expected_lsn*.
    """
    records: list[JournalRecord] = []
    pos = start
    end = len(data)
    torn = False
    while pos < end:
        if pos + 4 + _FRAME_DIGEST_BYTES > end:
            torn = True
            break
        size = int.from_bytes(data[pos : pos + 4], "big")
        digest = data[pos + 4 : pos + 4 + _FRAME_DIGEST_BYTES]
        body_start = pos + 4 + _FRAME_DIGEST_BYTES
        body = data[body_start : body_start + size]
        if len(body) < size:
            torn = True
            break
        if sha256(body)[:_FRAME_DIGEST_BYTES] != digest:
            if body_start + size == end:
                # torn write inside the final frame's body
                torn = True
                break
            raise JournalError(
                f"{name}: corrupt frame at byte {pos} (digest mismatch)"
            )
        try:
            record = JournalRecord.from_state(decode(body))
        except (ValueError, KeyError, TypeError) as exc:
            raise JournalError(
                f"{name}: undecodable frame at byte {pos}: {exc}"
            ) from exc
        if record.lsn != expected_lsn:
            raise JournalError(
                f"{name}: LSN gap at byte {pos} "
                f"(got {record.lsn}, expected {expected_lsn})"
            )
        records.append(record)
        expected_lsn += 1
        pos = body_start + size
    return records, pos, torn


class SegmentedFileJournal(Journal):
    """The production journal: numbered segment files under one directory.

    Directory layout (byte-exact spec in ``docs/storage.md``)::

        seg-00000000.wal        segment 0: LSNs [0, N)
        seg-00000001.wal        segment 1: LSNs [N, 2N)
        ckpt-0000000000000511.mf  checkpoint manifest cut at LSN 511
        blob-6f1d2c3b4a596871.bin content-addressed shard snapshot blob

    Each segment file is the one-line segment magic, a framed header
    (``{segment, base_lsn, segment_records}``), then record frames:
    ``u32 length + 8-byte digest + codec body``.  Only the newest
    segment may end in a torn frame (truncated on load — a crash
    mid-append costs at most the record being written); any earlier
    damage is corruption, which no crash can produce.

    Checkpoints are incremental and copy-on-write: each shard blob is
    written to a file named by its content digest **only if absent**
    (an unchanged shard costs zero bytes), and the manifest referencing
    the blobs is published last via atomic rename — a crash anywhere in
    the sequence leaves the previous checkpoint fully intact.
    :meth:`compact` deletes segment files fully covered by the newest
    durable manifest (honoring the retention policy), then superseded
    manifests, then unreferenced blobs — strictly in that order, so an
    interrupted compaction can only leave *extra* files, never a
    recovery gap.

    *crash_hook*, when set, is called with a step label at every
    named point inside checkpointing and compaction; the fault harness
    raises :class:`~repro.testing.faults.CrashPoint` from it to prove
    recovery equivalence for crashes inside the maintenance path.
    """

    def __init__(self, directory: str | os.PathLike[str], *,
                 segment_records: int = DEFAULT_SEGMENT_RECORDS,
                 telemetry: "obs.Telemetry | None" = None,
                 crash_hook: Callable[[str], None] | None = None) -> None:
        super().__init__(segment_records=segment_records, telemetry=telemetry)
        self.directory = os.fspath(directory)
        self.crash_hook = crash_hook
        self.torn_tail = False
        self.checkpoint_fallbacks = 0  # corrupt manifests skipped on load
        self.checkpoint_bytes = 0  # blob + manifest bytes actually written
        self._fh = None
        self._fh_segment = -1
        os.makedirs(self.directory, exist_ok=True)
        self._load()

    # -- plumbing ----------------------------------------------------------
    def _step(self, label: str) -> None:
        if self.crash_hook is not None:
            self.crash_hook(label)

    def _segment_path(self, segment_id: int) -> str:
        return os.path.join(self.directory, f"seg-{segment_id:08d}.wal")

    def _manifest_path(self, lsn: int) -> str:
        return os.path.join(self.directory, f"ckpt-{lsn:016d}.mf")

    def _blob_path(self, digest_hex: str) -> str:
        return os.path.join(self.directory, f"blob-{digest_hex}.bin")

    def _segment_ids_on_disk(self) -> list[int]:
        ids = []
        for name in os.listdir(self.directory):
            if name.startswith("seg-") and name.endswith(".wal"):
                ids.append(int(name[4:-4]))
        return sorted(ids)

    def _manifest_lsns_on_disk(self) -> list[int]:
        lsns = []
        for name in os.listdir(self.directory):
            if name.startswith("ckpt-") and name.endswith(".mf"):
                lsns.append(int(name[5:-3]))
        return sorted(lsns)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
            self._fh_segment = -1

    def disk_usage(self) -> int:
        """Total bytes currently on disk under the journal directory."""
        total = 0
        for name in os.listdir(self.directory):
            try:
                total += os.path.getsize(os.path.join(self.directory, name))
            except OSError:
                pass
        return total

    # -- load --------------------------------------------------------------
    def _load(self) -> None:
        segment_ids = self._segment_ids_on_disk()
        if not segment_ids:
            return
        for prev, cur in zip(segment_ids, segment_ids[1:]):
            if cur != prev + 1:
                raise JournalError(
                    f"{self.directory}: segment gap between seg {prev} and "
                    f"{cur} (compaction only ever drops a prefix)"
                )
        self._base_lsn = segment_ids[0] * self.segment_records
        expected_lsn = self._base_lsn
        last = segment_ids[-1]
        for segment_id in segment_ids:
            path = self._segment_path(segment_id)
            with open(path, "rb") as fh:
                data = fh.read()
            if not data.startswith(_SEGMENT_MAGIC):
                raise JournalError(f"{path}: not a journal segment (bad magic)")
            headers, header_end, header_torn = _scan_header(data, path)
            if headers["segment"] != segment_id:
                raise JournalError(
                    f"{path}: header names segment {headers['segment']}, "
                    f"file name says {segment_id}"
                )
            if headers["segment_records"] != self.segment_records:
                raise JournalError(
                    f"{path}: segment capacity {headers['segment_records']} "
                    f"!= store capacity {self.segment_records}"
                )
            if header_torn:
                raise JournalError(f"{path}: torn segment header")
            records, tail_offset, torn = _scan_frames(
                data, header_end, path, expected_lsn=expected_lsn
            )
            if segment_id != last:
                if torn or len(records) != self.segment_records:
                    raise JournalError(
                        f"{path}: sealed segment holds {len(records)} of "
                        f"{self.segment_records} records"
                        + (" (torn frame)" if torn else "")
                    )
            elif torn:
                self.torn_tail = True
                with open(path, "rb+") as fh:
                    fh.truncate(tail_offset)
            self._records.extend(records)
            expected_lsn += len(records)
        self._m_lsn.set(self.last_lsn)
        self._m_first_lsn.set(self.first_lsn)
        self._m_segments.set(self.segments_retained)

    # -- append ------------------------------------------------------------
    def _persist(self, record: JournalRecord) -> None:
        segment_id = self.segment_of(record.lsn)
        if self._fh is None or segment_id != self._fh_segment:
            self._roll_to(segment_id)
        self._fh.write(_frame(record.to_state()))
        self._fh.flush()

    def _roll_to(self, segment_id: int) -> None:
        if self._fh is not None:
            self._fh.close()
        path = self._segment_path(segment_id)
        if os.path.exists(path):
            # the partially-filled tail segment found on load
            self._fh = open(path, "ab")
        else:
            self._fh = open(path, "wb")
            self._fh.write(_SEGMENT_MAGIC)
            self._fh.write(_frame({
                "segment": segment_id,
                "base_lsn": segment_id * self.segment_records,
                "segment_records": self.segment_records,
            }))
            self._fh.flush()
        self._fh_segment = segment_id

    # -- checkpoints (incremental, copy-on-write) --------------------------
    def _put_blob(self, data: bytes, step: str, digest: str | None = None) -> str:
        """Store *data* under its content digest unless already there."""
        digest = digest or _blob_name(data)
        path = self._blob_path(digest)
        if not os.path.exists(path):
            self._step(step)
            tmp = path + ".tmp"
            with open(tmp, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
            self.checkpoint_bytes += len(data)
        return digest

    def write_checkpoint(self, checkpoint: "Checkpoint") -> str:
        """Durably persist *checkpoint*; returns the manifest path.

        Blob files are content-addressed and written only when absent,
        so an unchanged shard — and every sealed reply/tombstone run
        already stored by an earlier checkpoint — is free.  What is not
        sealed yet (the two tails and ``pending``) goes into one tail
        blob, written only when non-empty, so the manifest itself names
        digests and nothing else.  The manifest is written to a ``.tmp``
        sibling and published by ``os.replace`` *after* every blob it
        references exists — the newest manifest on disk therefore always
        validates, and a crash at any step leaves the previous
        checkpoint untouched.
        """
        state: dict = {"lsn": checkpoint.lsn, "next_seq": checkpoint.next_seq}
        state["shards"] = [
            self._put_blob(blob, f"checkpoint:blob:{index}")
            for index, blob in enumerate(checkpoint.blobs)
        ]
        tail = {"pending": list(checkpoint.pending)}
        for name in ("replies", "evicted"):
            runs: Runs = getattr(checkpoint, name)
            state[name] = {"skip": runs.skip, "runs": [
                self._put_blob(run.data, f"checkpoint:run:{run.digest}",
                               run.digest)
                for run in runs.sealed
            ]}
            tail[name] = list(runs.tail)
        state["tail"] = (self._put_blob(encode(tail), "checkpoint:tail")
                         if any(tail.values()) else "")
        self._step("checkpoint:manifest")
        body = encode(state)
        manifest = _MANIFEST_MAGIC + sha256(_MANIFEST_MAGIC, body) + body
        path = self._manifest_path(checkpoint.lsn)
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(manifest)
        self._step("checkpoint:publish")
        os.replace(tmp, path)
        self.checkpoint_bytes += len(manifest)
        return path

    def _read_manifest(self, lsn: int) -> dict | None:
        """Decode one manifest, or ``None`` when it fails validation."""
        try:
            with open(self._manifest_path(lsn), "rb") as fh:
                blob = fh.read()
        except OSError:
            return None
        if not blob.startswith(_MANIFEST_MAGIC):
            return None
        digest = blob[len(_MANIFEST_MAGIC) : len(_MANIFEST_MAGIC) + 32]
        body = blob[len(_MANIFEST_MAGIC) + 32 :]
        if sha256(_MANIFEST_MAGIC, body) != digest:
            return None
        try:
            state = decode(body)
        except ValueError:
            return None
        return state

    @staticmethod
    def _referenced(state: dict) -> list[str]:
        """Every blob digest a manifest body names: shards, runs, tail."""
        digests = (state["shards"] + state["replies"]["runs"]
                   + state["evicted"]["runs"])
        return digests + ([state["tail"]] if state["tail"] else [])

    def _read_checkpoint(self, lsn: int) -> "Checkpoint | None":
        """Manifest *lsn* and every blob it names, or ``None`` on any miss."""
        state = self._read_manifest(lsn)
        if state is None:
            return None
        blobs: dict[str, bytes] = {}
        for digest in self._referenced(state):
            try:
                with open(self._blob_path(digest), "rb") as fh:
                    blobs[digest] = fh.read()
            except OSError:
                return None
            if _blob_name(blobs[digest]) != digest:
                return None
        tail = decode(blobs[state["tail"]]) if state["tail"] else {}
        lifecycle = {
            name: Runs(tuple(Run(blobs[d]) for d in state[name]["runs"]),
                       state[name]["skip"], tuple(tail.get(name, ())))
            for name in ("replies", "evicted")
        }
        return Checkpoint(
            lsn=state["lsn"],
            blobs=tuple(blobs[d] for d in state["shards"]),
            pending=tuple(tail.get("pending", ())),
            next_seq=state["next_seq"],
            **lifecycle,
        )

    def load_checkpoint(self) -> "Checkpoint | None":
        """The newest durable checkpoint that fully validates.

        A manifest is only usable when its own digest checks out *and*
        every blob it names — shard, sealed run or tail — exists with
        matching content digest; otherwise the next-older manifest is
        tried (counted in :attr:`checkpoint_fallbacks`).  ``None`` when
        no checkpoint survives — recovery then replays the whole
        retained log.
        """
        for lsn in reversed(self._manifest_lsns_on_disk()):
            checkpoint = self._read_checkpoint(lsn)
            if checkpoint is not None:
                return checkpoint
            self.checkpoint_fallbacks += 1
        return None

    # -- compaction --------------------------------------------------------
    def compact(self, durable_lsn: int | None = None, *,
                retain_segments: int = 1,
                retain_checkpoints: int = 1) -> list[int]:
        """Delete files covered by a durable checkpoint; returns dropped ids.

        With ``durable_lsn=None`` the newest valid manifest's LSN is
        used (no valid manifest means nothing is dropped).  Deletion
        order is segments → superseded manifests → unreferenced blobs
        (and stray ``.tmp`` files), each behind a named crash step; any
        interruption leaves only *extra* files, which the next pass
        removes.  *retain_checkpoints* keeps that many of the newest
        valid manifests (at least 1 — compaction without a durable
        checkpoint would strand the log).  A pass reads manifests
        newest-first, each at most once, stopping at the last one it
        keeps; it never opens a blob.
        """
        if retain_checkpoints < 1:
            raise JournalError("retain_checkpoints must be >= 1")
        lsns = self._manifest_lsns_on_disk()
        keep: dict[int, dict] = {}
        for lsn in reversed(lsns):
            if len(keep) == retain_checkpoints:
                break
            state = self._read_manifest(lsn)
            if state is not None:
                keep[lsn] = state
        if durable_lsn is None:
            if not keep:
                return []
            durable_lsn = max(keep)
        dropped = super().compact(durable_lsn, retain_segments=retain_segments)
        self._gc_checkpoints(lsns, keep)
        return dropped

    def _drop_segments(self, segment_ids: list[int]) -> None:
        for segment_id in segment_ids:
            self._step(f"compact:segment:{segment_id}")
            self._unlink(self._segment_path(segment_id))

    @staticmethod
    def _unlink(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass  # already gone (a previous interrupted pass)

    def _gc_checkpoints(self, lsns: list[int], keep: dict[int, dict]) -> None:
        referenced: set[str] = set()
        for state in keep.values():
            referenced.update(self._referenced(state))
        for lsn in lsns:
            if lsn not in keep:
                self._step(f"compact:manifest:{lsn}")
                self._unlink(self._manifest_path(lsn))
        for name in sorted(os.listdir(self.directory)):
            path = os.path.join(self.directory, name)
            if name.endswith(".tmp"):
                self._step(f"compact:tmp:{name}")
                self._unlink(path)
            elif name.startswith("blob-") and name.endswith(".bin"):
                if name[5:-4] not in referenced:
                    self._step(f"compact:blob:{name}")
                    self._unlink(path)


def _scan_header(data: bytes, path: str) -> tuple[dict, int, bool]:
    """Decode the framed segment header; returns (header, end offset, torn)."""
    pos = len(_SEGMENT_MAGIC)
    end = len(data)
    if pos + 4 + _FRAME_DIGEST_BYTES > end:
        return {}, pos, True
    size = int.from_bytes(data[pos : pos + 4], "big")
    digest = data[pos + 4 : pos + 4 + _FRAME_DIGEST_BYTES]
    body_start = pos + 4 + _FRAME_DIGEST_BYTES
    body = data[body_start : body_start + size]
    if len(body) < size or sha256(body)[:_FRAME_DIGEST_BYTES] != digest:
        return {}, pos, True
    try:
        header = decode(body)
    except ValueError as exc:
        raise JournalError(f"{path}: undecodable segment header: {exc}") from exc
    return header, body_start + size, False


class JournalMaintenance:
    """Checkpoint + compaction cadence for a :class:`SegmentedFileJournal`.

    Call :meth:`run` from a point where the service is quiescent — the
    frontend's ``after_batch`` hook (use :meth:`attach`) or between
    scenario steps.  Every *checkpoint_every* appended records it pulls
    a fresh :class:`Checkpoint` from *checkpoint_source* (the service's
    :meth:`~repro.service.server.MarketService.checkpoint`), persists
    it, and compacts the journal against it under the retention policy.
    The request-lifecycle half of the cut costs what changed: sealed
    reply/tombstone runs are stored once, the manifest names digests
    only, and compaction reads one small manifest.  The shard half does
    not yet: :meth:`~repro.service.shard.ShardedBank.snapshot` skips
    clean shards but re-encodes every account of a dirty one, so a cut
    after traffic that touched every shard still scales with the books
    (ROADMAP 1(a), sub-shard dirty tracking).  The dispatcher is stalled
    for the whole of :meth:`run`; ``repro_journal_maintenance_seconds``
    is that stall.
    """

    def __init__(self, journal: SegmentedFileJournal,
                 checkpoint_source: Callable[[], "Checkpoint"], *,
                 checkpoint_every: int = 256,
                 retain_segments: int = 1,
                 retain_checkpoints: int = 1) -> None:
        self.journal = journal
        self.checkpoint_source = checkpoint_source
        self.checkpoint_every = checkpoint_every
        self.retain_segments = retain_segments
        self.retain_checkpoints = retain_checkpoints
        self.last_checkpoint_lsn = -1
        self.checkpoints_cut = 0
        self.segments_deleted = 0
        registry = journal.obs.registry
        self._m_checkpoints = registry.counter(
            "repro_journal_checkpoints_total",
            "durable checkpoints cut by journal maintenance",
        )
        self._m_checkpoint_bytes = registry.counter(
            "repro_journal_checkpoint_bytes_total",
            "blob and manifest bytes actually written by checkpoints",
        )
        self._m_seconds = registry.histogram(
            "repro_journal_maintenance_seconds",
            "wall time of one checkpoint + compaction pass (dispatcher stalled)",
        )
        self._m_disk = registry.gauge(
            "repro_journal_disk_bytes",
            "bytes on disk under the journal directory",
        )
        existing = journal.load_checkpoint()
        if existing is not None:
            self.last_checkpoint_lsn = existing.lsn

    def attach(self, frontend) -> None:
        """Chain :meth:`run` onto *frontend*'s after-batch hook."""
        frontend.add_after_batch(lambda: self.run())

    def run(self, *, force: bool = False) -> bool:
        """Cut + persist a checkpoint and compact, when one is due."""
        appended = self.journal.last_lsn - self.last_checkpoint_lsn
        if not force and appended < self.checkpoint_every:
            return False
        if self.journal.last_lsn < 0:
            return False
        started = time.perf_counter()
        written = self.journal.checkpoint_bytes
        checkpoint = self.checkpoint_source()
        self.journal.write_checkpoint(checkpoint)
        self.last_checkpoint_lsn = checkpoint.lsn
        self.checkpoints_cut += 1
        self._m_checkpoints.inc()
        self._m_checkpoint_bytes.inc(self.journal.checkpoint_bytes - written)
        dropped = self.journal.compact(
            checkpoint.lsn,
            retain_segments=self.retain_segments,
            retain_checkpoints=self.retain_checkpoints,
        )
        self.segments_deleted += len(dropped)
        self._m_disk.set(self.journal.disk_usage())
        self._m_seconds.observe(time.perf_counter() - started)
        return True


@dataclass(frozen=True)
class Run:
    """A sealed run: the codec encoding of a list of FIFO entries."""

    data: bytes

    @cached_property
    def digest(self) -> str:
        """Blob name of the run; hashed once, on the first checkpoint."""
        return _blob_name(self.data)


@dataclass(frozen=True)
class Runs:
    """A FIFO as a checkpoint carries it, oldest entry first.

    ``sealed`` are the runs still (partly) live, ``skip`` counts the
    entries of ``sealed[0]`` already evicted from the front, ``tail``
    holds the entries appended since the last seal.  Iterating yields
    the live entries in order.
    """

    sealed: tuple[Run, ...] = ()
    skip: int = 0
    tail: tuple = ()

    def __iter__(self) -> Iterator:
        skip = self.skip
        for run in self.sealed:
            yield from decode(run.data)[skip:]
            skip = 0
        yield from self.tail

    def to_state(self) -> dict:
        return {"runs": [run.data for run in self.sealed], "skip": self.skip,
                "tail": list(self.tail)}

    @classmethod
    def from_state(cls, state: dict) -> "Runs":
        return cls(tuple(Run(data) for data in state["runs"]), state["skip"],
                   tuple(state["tail"]))


class RunLog:
    """Sealing bookkeeping beside a FIFO the owner keeps for lookup.

    :meth:`push` on every append at the back, :meth:`pop` on every
    eviction from the front; each full run of :data:`RUN_ENTRIES`
    entries is encoded once and never touched again, so :meth:`cut` is
    O(runs + tail) however many entries are live.
    """

    def __init__(self) -> None:
        self.sealed: deque[Run] = deque()
        self.skip = 0
        self.tail: deque = deque()

    def push(self, entry: Any) -> None:
        self.tail.append(entry)
        if len(self.tail) >= RUN_ENTRIES:
            self.sealed.append(Run(encode(list(self.tail))))
            self.tail.clear()

    def pop(self) -> None:
        if not self.sealed:
            self.tail.popleft()
            return
        self.skip += 1
        if self.skip == RUN_ENTRIES:
            self.sealed.popleft()
            self.skip = 0

    def cut(self) -> Runs:
        return Runs(tuple(self.sealed), self.skip, tuple(self.tail))


@dataclass(frozen=True)
class Checkpoint:
    """Shard snapshot blobs plus the journal position they reflect.

    Every journal record with ``lsn <= lsn`` is already folded into the
    blobs; recovery restores the blobs and replays only what comes
    after.  Because compaction may have deleted records before the cut,
    a checkpoint also carries the request-lifecycle state those records
    used to prove:

    * ``replies`` — the reply cache as :class:`Runs` of ``(rid, status,
      body)`` triples in completion order (oldest first, so eviction
      order survives);
    * ``pending`` — accepted-but-unanswered requests (each the journaled
      accept payload plus its ``rid``), re-enqueued on recovery;
    * ``evicted`` — :class:`Runs` of tombstone digests of rids whose
      cached replies were evicted (see :meth:`MarketService.submit
      <repro.service.server.MarketService.submit>`): a retry of one is
      answered with an explicit error, never re-executed;
    * ``next_seq`` — the sequence-number watermark (auto-generated rids
      embed it; it must never rewind).
    """

    lsn: int
    blobs: tuple[bytes, ...]
    replies: Runs = Runs()
    pending: tuple = ()
    evicted: Runs = Runs()
    next_seq: int = 0

    def to_bytes(self) -> bytes:
        """The self-contained form the cluster ships (runs inline)."""
        body = encode({
            "lsn": self.lsn,
            "blobs": list(self.blobs),
            "replies": self.replies.to_state(),
            "pending": list(self.pending),
            "evicted": self.evicted.to_state(),
            "next_seq": self.next_seq,
        })
        return _CKPT_MAGIC + sha256(_CKPT_MAGIC, body) + body

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Checkpoint":
        if not blob.startswith(_CKPT_MAGIC):
            raise JournalError("not a service checkpoint (bad magic)")
        digest = blob[len(_CKPT_MAGIC) : len(_CKPT_MAGIC) + 32]
        body = blob[len(_CKPT_MAGIC) + 32 :]
        if sha256(_CKPT_MAGIC, body) != digest:
            raise JournalError("checkpoint integrity digest mismatch")
        try:
            state = decode(body)
        except ValueError as exc:
            raise JournalError(f"checkpoint body undecodable: {exc}") from exc
        return cls(
            lsn=state["lsn"],
            blobs=tuple(state["blobs"]),
            replies=Runs.from_state(state["replies"]),
            pending=tuple(state["pending"]),
            evicted=Runs.from_state(state["evicted"]),
            next_seq=state["next_seq"],
        )
