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

One class, :class:`Journal`, does all of it — one file per segment,
incremental copy-on-write checkpoints (content-addressed blobs + a
small manifest), retention-policy compaction that actually deletes —
over a :class:`~repro.service.storage.Storage`, the one seam every byte
crosses: where the fault harness injects crashes, and where a cluster
node's shipper copies every operation to its peer.  The byte-exact
format is specified in ``docs/storage.md``.

Record kinds (see :mod:`repro.service.server` for who writes what)::

    accept  {sender, kind, payload}        service accepted a request
    apply   op-specific redo payload       bank is about to mutate; for a
                                           rid, also its OK verdict
    reply   {status, body}                 a rid's verdict other than OK

Each fact is written once: an ``OK`` verdict has no ``reply`` record,
because the ``apply`` record already carries its body.

A :class:`Checkpoint` pairs the bank's two snapshot blobs (the DEC book,
the PPMSpbs book) with the journal position they reflect, plus the request-lifecycle state recovery can no
longer scan out of a compacted log; recovery restores it and replays
only the records after that position.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, Iterator

import repro.obs as obs
from repro.crypto.hashing import sha256
from repro.net.codec import decode, encode, seal, unseal
from repro.service.storage import DirectoryStorage, MemoryStorage, Storage

__all__ = [
    "JournalError",
    "JournalRecord",
    "Journal",
    "JournalMaintenance",
    "Checkpoint",
    "Run",
    "Runs",
    "RunLog",
    "DEFAULT_SEGMENT_RECORDS",
    "RUN_ENTRIES",
]

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


_segment_name = "seg-{:08d}.wal".format
_manifest_name = "ckpt-{:016d}.mf".format
_blob_file = "blob-{}.bin".format  # by content digest, see _blob_name


def _numbered(names: Iterable[str], prefix: str, suffix: str) -> list[int]:
    """The sorted numbers of every ``<prefix><number><suffix>`` in *names*."""
    return sorted(int(name[len(prefix):-len(suffix)]) for name in names
                  if name.startswith(prefix) and name.endswith(suffix))


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


def _read_frame(data: bytes, pos: int, name: str) -> tuple[bytes | None, int]:
    """The body of the frame at *pos* and the offset after it.

    ``(None, pos)`` for a torn frame: the buffer stops inside it, or its
    digest fails and nothing follows (a crash mid-write).  A bad digest
    with bytes after it is corruption, which no crash produces: raises.
    """
    body_start = pos + 4 + _FRAME_DIGEST_BYTES
    end = body_start + int.from_bytes(data[pos : pos + 4], "big")
    if body_start > len(data) or end > len(data):
        return None, pos
    body = data[body_start:end]
    if sha256(body)[:_FRAME_DIGEST_BYTES] != data[pos + 4 : body_start]:
        if end == len(data):
            return None, pos
        raise JournalError(
            f"{name}: corrupt frame at byte {pos} (digest mismatch)"
        )
    return body, end


def _scan_header(data: bytes, name: str) -> tuple[dict | None, int]:
    """A segment's magic and framed header; returns (header, end offset).

    ``(None, 0)`` when the file stops before its header is complete —
    empty, magic cut short, magic only, or a torn header frame: what a
    crash during segment roll leaves.  Anything else that is not magic
    plus a well-formed header raises.
    """
    if not data.startswith(_SEGMENT_MAGIC):
        if _SEGMENT_MAGIC.startswith(data):
            return None, 0
        raise JournalError(f"{name}: not a journal segment (bad magic)")
    body, end = _read_frame(data, len(_SEGMENT_MAGIC), name)
    if body is None:
        return None, 0
    try:
        header = decode(body)
    except ValueError as exc:
        raise JournalError(f"{name}: undecodable segment header: {exc}") from exc
    if (not isinstance(header, dict)
            or set(header) != {"segment", "base_lsn", "segment_records"}):
        raise JournalError(f"{name}: malformed segment header")
    return header, end


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
    while pos < len(data):
        body, end = _read_frame(data, pos, name)
        if body is None:
            return records, pos, True
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
        pos = end
    return records, pos, False


class Journal:
    """Segmented write-ahead journal over a :class:`Storage`.

    ``Journal()`` journals into a fresh
    :class:`~repro.service.storage.MemoryStorage`, :meth:`open` into a
    directory.  Either way the constructor *loads* what the storage
    already holds, so reopening the storage a dead journal wrote to is
    the whole of crash recovery's storage half.

    Payloads are encoded through the canonical codec on append —
    appending is exactly as strict as sending the value over the wire.
    The storage is the only copy of a record: :meth:`records` decodes
    it from there, so a record read back is always a fresh copy that
    shares nothing with the live books.

    Record ``lsn`` lives in segment ``lsn // segment_records``
    (``seg-<id>.wal``: magic, framed header, record frames).  Only the
    newest segment may end in a torn frame (truncated on load — a crash
    mid-append costs at most the record being written) or stop before
    its header is complete (dropped on load — a crash during segment
    roll); both set :attr:`torn_tail`.  Any earlier damage is
    corruption, which no crash can produce, and raises.

    ``len(journal)`` is the *retained* record count and
    :attr:`first_lsn`/:attr:`last_lsn` the retained LSN range (LSNs are
    global and never reused).
    """

    def __init__(self, storage: Storage | None = None, *,
                 segment_records: int = DEFAULT_SEGMENT_RECORDS,
                 telemetry: "obs.Telemetry | None" = None) -> None:
        if segment_records < 1:
            raise JournalError("segment_records must be positive")
        self.storage = storage if storage is not None else MemoryStorage()
        self.segment_records = segment_records
        self._base_lsn = 0  # oldest retained lsn (next lsn when empty)
        self._next_lsn = 0
        self._tail_segment = -1  # the headed segment appends continue in
        self.compactions = 0
        self.segments_dropped = 0
        self.torn_tail = False
        self.checkpoint_fallbacks = 0  # corrupt manifests skipped on load
        self.checkpoint_bytes = 0  # blob + manifest bytes actually written
        self._bind_obs(telemetry)
        self._load()

    @classmethod
    def open(cls, directory, **options) -> "Journal":
        """The production store: a journal over the files in *directory*."""
        journal = cls(DirectoryStorage(directory), **options)
        journal.directory = journal.storage.directory  # serve.py reads it
        return journal

    def close(self) -> None:
        """Release the storage's OS handles (the journal stays loadable)."""
        self.storage.close()

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
            "framed record bytes appended to the journal",
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
        return self._next_lsn - self._base_lsn

    @property
    def first_lsn(self) -> int:
        """LSN of the oldest retained record (the next LSN when empty)."""
        return self._base_lsn

    @property
    def last_lsn(self) -> int:
        """LSN of the newest record, or ``first_lsn - 1`` when empty."""
        return self._next_lsn - 1

    def segment_of(self, lsn: int) -> int:
        """The segment id holding *lsn* (``lsn // segment_records``)."""
        return lsn // self.segment_records

    @property
    def segments_retained(self) -> int:
        if not len(self):
            return 0
        return self.segment_of(self.last_lsn) - self.segment_of(self.first_lsn) + 1

    def disk_usage(self) -> int:
        """Total bytes the storage currently holds."""
        total = 0
        for name in self.storage.names():
            try:
                total += self.storage.size(name)
            except OSError:
                pass
        return total

    # -- load --------------------------------------------------------------
    def _load(self) -> None:
        names = self.storage.names()
        segment_ids = _numbered(names, "seg-", ".wal")
        if not segment_ids:
            # compaction may have dropped every segment: the log then
            # resumes right after the checkpoint that covered them all
            for lsn in reversed(_numbered(names, "ckpt-", ".mf")):
                if self._read_manifest(lsn) is not None:
                    self._base_lsn = lsn + 1
                    break
        for prev, cur in zip(segment_ids, segment_ids[1:]):
            if cur != prev + 1:
                raise JournalError(
                    f"segment gap between seg {prev} and {cur} "
                    "(compaction only ever drops a prefix)"
                )
        newest = max(segment_ids, default=None)
        expected_lsn: int | None = None
        for segment_id in segment_ids:
            name = _segment_name(segment_id)
            data = self.storage.read(name)
            header, header_end = _scan_header(data, name)
            if header is None:
                if segment_id != newest:
                    raise JournalError(f"{name}: torn segment header")
                # crash during segment roll: the next append re-creates it
                self.torn_tail = True
                self.storage.unlink(name)
                if expected_lsn is None:
                    self._base_lsn = segment_id * self.segment_records
                break
            if header["segment"] != segment_id:
                raise JournalError(
                    f"{name}: header names segment {header['segment']}, "
                    f"file name says {segment_id}"
                )
            if header["segment_records"] != self.segment_records:
                raise JournalError(
                    f"{name}: segment capacity {header['segment_records']} "
                    f"!= store capacity {self.segment_records}"
                )
            base = header["base_lsn"]
            if expected_lsn is None:
                # the oldest segment says where the retained log starts:
                # at its first slot, or later in it (a store with no
                # segment resumes right after its newest checkpoint,
                # wherever that cut falls)
                expected_lsn = self._base_lsn = base
            if base != expected_lsn or self.segment_of(base) != segment_id:
                raise JournalError(
                    f"{name}: header starts the segment at lsn {base}, which "
                    f"is not where the log reaches segment {segment_id}"
                )
            records, tail_offset, torn = _scan_frames(
                data, header_end, name, expected_lsn=expected_lsn
            )
            expected_lsn += len(records)
            if segment_id != newest:
                if torn or self.segment_of(expected_lsn) == segment_id:
                    raise JournalError(
                        f"{name}: sealed segment holds {len(records)} of "
                        f"{(segment_id + 1) * self.segment_records - base} "
                        "records" + (" (torn frame)" if torn else "")
                    )
            elif torn:
                self.torn_tail = True
                self.storage.truncate(name, tail_offset)
            self._tail_segment = segment_id
        self._next_lsn = self._base_lsn if expected_lsn is None else expected_lsn
        self._m_lsn.set(self.last_lsn)
        self._m_first_lsn.set(self.first_lsn)
        self._m_segments.set(self.segments_retained)

    # -- append ------------------------------------------------------------
    def append(self, kind: str, rid: str, op: str, payload: Any) -> int:
        """Durably record one event; returns its LSN.

        An :class:`~repro.net.codec.Encoded` inside *payload* is copied
        into the record verbatim: an ``accept`` record splices the
        request payload bytes the front door decoded, instead of
        encoding the decoded value again.
        """
        if kind not in RECORD_KINDS:
            raise JournalError(f"unknown journal record kind {kind!r}")
        lsn = self._next_lsn
        try:
            frame = _frame({"lsn": lsn, "kind": kind, "rid": rid, "op": op,
                            "payload": payload})
        except (TypeError, ValueError) as exc:
            raise JournalError(f"unjournalable payload for {op!r}: {exc}") from exc
        # the span inherits the active request's trace id (the apply or
        # submit span is on the tracer stack), so journal time shows up
        # inside the request's timeline, not as a detached blip
        with self.obs.tracer.span("journal_append", kind=kind, op=op,
                                  lsn=lsn, bytes=len(frame)):
            self._write(lsn, frame)
        self._next_lsn = lsn + 1
        self._m_appends[kind].inc()
        self._m_bytes.inc(len(frame))
        self._m_lsn.set(lsn)
        return lsn

    def _write(self, lsn: int, frame: bytes) -> None:
        """Append *frame* to the segment that owns *lsn*."""
        segment_id = self.segment_of(lsn)
        name = _segment_name(segment_id)
        if segment_id != self._tail_segment:
            # create, then head: two operations, as on a disk — a crash
            # between them is the torn roll _load answers for
            self.storage.write(name, _SEGMENT_MAGIC)
            self.storage.append(name, _frame({
                "segment": segment_id,
                "base_lsn": lsn,
                "segment_records": self.segment_records,
            }))
            self._tail_segment = segment_id
        self.storage.append(name, frame)

    def records(self, *, after: int = -1) -> Iterator[JournalRecord]:
        """Retained records with ``lsn > after``, in LSN order.

        Each is decoded from the storage, segment by segment, and only
        records up to the :attr:`last_lsn` of the call are yielded.  A
        cursor inside the compacted prefix (``after < first_lsn - 1``)
        silently starts at the oldest retained record; callers that need
        the *full* history must pair the tail with the checkpoint that
        compaction was cut against (see :meth:`compact`).
        """
        return self._read(max(after + 1, self._base_lsn), self.last_lsn)

    def _read(self, first: int, last: int) -> Iterator[JournalRecord]:
        if first > last:
            return
        for segment_id in range(self.segment_of(first), self.segment_of(last) + 1):
            name = _segment_name(segment_id)
            data = self.storage.read(name)
            header, header_end = _scan_header(data, name)
            records, _end, _torn = _scan_frames(
                data, header_end, name, expected_lsn=header["base_lsn"])
            yield from (r for r in records if first <= r.lsn <= last)

    # -- checkpoints (incremental, copy-on-write) --------------------------
    def _put_blob(self, data: bytes, present: set[str],
                  digest: str | None = None) -> str:
        """Store *data* under its content digest unless already *present*."""
        digest = digest or _blob_name(data)
        name = _blob_file(digest)
        if name not in present:
            self.storage.write(name + ".tmp", data)
            self.storage.replace(name + ".tmp", name)
            present.add(name)
            self.checkpoint_bytes += len(data)
        return digest

    def write_checkpoint(self, checkpoint: "Checkpoint") -> str:
        """Durably persist *checkpoint*; returns the manifest's name.

        Incremental and copy-on-write: blobs are content-addressed and
        written only when absent, so an unchanged book — and every
        sealed reply/tombstone run an earlier checkpoint stored — is
        free.  What is not sealed yet (the two tails and ``pending``)
        goes into one tail blob, so the manifest names digests and
        nothing else.  Each file is written to a ``.tmp`` sibling and
        moved into place, the manifest *after* every blob it names —
        the newest manifest therefore always validates, and a crash at
        any operation leaves the previous checkpoint untouched.
        """
        present = set(self.storage.names())
        state: dict = {"lsn": checkpoint.lsn, "next_seq": checkpoint.next_seq}
        state["shards"] = [self._put_blob(blob, present)
                           for blob in checkpoint.blobs]
        tail = {"pending": list(checkpoint.pending)}
        for name in ("replies", "evicted"):
            runs: Runs = getattr(checkpoint, name)
            state[name] = {"skip": runs.skip, "runs": [
                self._put_blob(run.data, present, run.digest)
                for run in runs.sealed
            ]}
            tail[name] = list(runs.tail)
        state["tail"] = (self._put_blob(encode(tail), present)
                         if any(tail.values()) else "")
        manifest = seal(_MANIFEST_MAGIC, state)
        name = _manifest_name(checkpoint.lsn)
        self.storage.write(name + ".tmp", manifest)
        self.storage.replace(name + ".tmp", name)
        self.checkpoint_bytes += len(manifest)
        return name

    def _read_manifest(self, lsn: int) -> dict | None:
        """Decode one manifest, or ``None`` when it fails validation."""
        try:
            return unseal(_MANIFEST_MAGIC, self.storage.read(_manifest_name(lsn)),
                          "checkpoint manifest", JournalError)
        except (OSError, JournalError):
            return None

    @staticmethod
    def _referenced(state: dict) -> list[str]:
        """Every blob digest a manifest body names: books (key ``shards``), runs, tail."""
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
                blobs[digest] = self.storage.read(_blob_file(digest))
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
        every blob it names — book, sealed run or tail — exists with
        matching content digest; otherwise the next-older manifest is
        tried (counted in :attr:`checkpoint_fallbacks`).  ``None`` when
        no checkpoint survives — recovery then replays the whole
        retained log.
        """
        for lsn in reversed(_numbered(self.storage.names(), "ckpt-", ".mf")):
            checkpoint = self._read_checkpoint(lsn)
            if checkpoint is not None:
                return checkpoint
            self.checkpoint_fallbacks += 1
        return None

    # -- compaction --------------------------------------------------------
    def compact(self, durable_lsn: int | None = None, *,
                retain_segments: int = 1,
                retain_checkpoints: int = 1) -> list[int]:
        """Drop sealed segments a durable checkpoint covers; returns their ids.

        *durable_lsn* is the LSN of a checkpoint that is already safely
        persisted: every record with ``lsn <= durable_lsn``
        is folded into that checkpoint's state.  With ``None`` the
        newest valid manifest's LSN is used (no valid manifest means
        nothing is dropped).  A segment is dropped only when **all** of
        its records are covered; *retain_segments* keeps that many of
        the newest coverable segments anyway (debug tail / shipping
        slack).  The active (unsealed) segment is never touched and
        nothing is renumbered: only ``first_lsn`` advances.

        Deletion order is segments → superseded manifests →
        unreferenced blobs and stray ``.tmp`` files, so an interruption
        leaves only *extra* files, which the next pass removes.
        *retain_checkpoints* keeps that many of the newest valid
        manifests (at least 1 — compaction without a durable checkpoint
        would strand the log).  A pass reads manifests newest-first,
        each at most once, and never opens a blob.
        """
        if retain_segments < 0:
            raise JournalError("retain_segments must be >= 0")
        if retain_checkpoints < 1:
            raise JournalError("retain_checkpoints must be >= 1")
        names = self.storage.names()
        manifests = _numbered(names, "ckpt-", ".mf")
        keep: dict[int, dict] = {}
        for lsn in reversed(manifests):
            if len(keep) == retain_checkpoints:
                break
            state = self._read_manifest(lsn)
            if state is not None:
                keep[lsn] = state
        if durable_lsn is None:
            if not keep:
                return []
            durable_lsn = max(keep)
        dropped = self._drop_covered(durable_lsn, retain_segments)
        for lsn in manifests:
            if lsn not in keep:
                self.storage.unlink(_manifest_name(lsn))
        referenced = {_blob_file(digest) for state in keep.values()
                      for digest in self._referenced(state)}
        for name in sorted(names):
            if name.endswith(".tmp") or (
                    name.startswith("blob-") and name.endswith(".bin")
                    and name not in referenced):
                self.storage.unlink(name)
        return dropped

    def _drop_covered(self, durable_lsn: int, retain_segments: int) -> list[int]:
        """The segment half of :meth:`compact`."""
        if durable_lsn > self.last_lsn:
            durable_lsn = self.last_lsn
        # segments 0 .. covered-1 are entirely <= durable_lsn
        covered = (durable_lsn + 1) // self.segment_records
        target_first = covered - retain_segments
        current_first = self._base_lsn // self.segment_records
        dropped = list(range(current_first, target_first))
        if dropped:
            new_base = target_first * self.segment_records
            with self.obs.tracer.span("journal_compact", first=current_first,
                                      dropped=len(dropped)):
                self._base_lsn = new_base
                for segment_id in dropped:
                    self.storage.unlink(_segment_name(segment_id))
            self.compactions += 1
            self.segments_dropped += len(dropped)
            self._m_compactions.inc()
            self._m_dropped.inc(len(dropped))
        self._m_first_lsn.set(self.first_lsn)
        self._m_segments.set(self.segments_retained)
        return dropped


#: ``benchmarks/e2e/serve.py`` (not editable from this tree) imports this name
#: and reads ``.directory``; both go with the benchmark PR that switches it.
SegmentedFileJournal = Journal.open


class JournalMaintenance:
    """Checkpoint + compaction cadence for a :class:`Journal`.

    Call :meth:`run` from a point where the service is quiescent — the
    frontend's ``after_batch`` hook (use :meth:`attach`) or between
    scenario steps.  Every *checkpoint_every* appended records it pulls
    a fresh :class:`Checkpoint` from *checkpoint_source* (the service's
    :meth:`~repro.service.server.MarketService.checkpoint`), persists
    it, and compacts the journal against it under the retention policy.
    The request-lifecycle half of the cut costs what changed: sealed
    reply/tombstone runs are stored once, the manifest names digests
    only, and compaction reads one small manifest.  The books half does
    not yet: :meth:`~repro.service.shard.ShardedBank.snapshot` reuses a
    clean book's blob but re-encodes every account once the book has
    changed, so a cut after any deposit still scales with the books
    (write-once runs for the book are open in the ROADMAP).  The dispatcher
    is stalled for the whole of :meth:`run`;
    ``repro_journal_maintenance_seconds`` is that stall.
    """

    def __init__(self, journal: Journal,
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
            "bytes the journal's storage holds",
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
    """The books' snapshot blobs plus the journal position they reflect.

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
