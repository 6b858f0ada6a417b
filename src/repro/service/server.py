"""The market-administrator bank service: accept → admit → batch → apply.

:class:`MarketService` is the serving layer in front of the MA's one
bank.  A bad request poisons only itself (recorded as a failure,
explicit ``ERROR`` reply, the loop keeps running), as under
:class:`repro.core.engine.Router`, but the router's
deliver-one-message-at-a-time inner loop is replaced by a pipelined one:

1. **accept** — :meth:`submit` answers retries from the reply cache and
   runs admission control; shed requests get an immediate ``BUSY``
   reply and never consume crypto budget;
2. **admit** — accepted requests join a per-sender FIFO; cheap
   operations (account opening, balance queries, audits) execute at
   apply time, crypto operations (deposit verification, blind
   issuance) are handed to the :class:`~repro.service.batcher
   .VerificationBatcher`;
3. **batch** — :meth:`step` flushes the batcher when a batch is full
   (or on ``force``), fanning the pure crypto across the process pool;
4. **apply** — results are applied *serially, in submission order per
   sender*: conflict checks against the deposited-serial store, credits,
   debits, replies.  Serial application is what turns "verified in
   parallel" into "admitted exactly once" — the double-spend check
   happens under no concurrency at all.

The request kinds, their payload fields with types and bounds, their
handlers and flags are declared once, in :data:`REQUESTS` (rendered in
``docs/service.md``).  Both schemes are served: the
``pbs-*`` kinds are Algorithm 4's unitary bank, over the PPMSpbs book
the :class:`~repro.service.shard.ShardedBank` holds beside its DEC book.
Reply statuses: ``OK``, ``BUSY`` (shed by
admission), ``ERROR`` (malformed or screened — refused by
:meth:`~MarketService.submit` before anything is journaled — unknown
account, underfunded, invalid token or coin), ``REJECTED`` (double
spend — a PPMSdec one carries the evidence triple).

Replies are *delivered*, exactly once each, to the observers of
:meth:`MarketService.add_reply_observer` (the front door, the
in-process gateway, the fault harness); the service holds no network.
"""

from __future__ import annotations

import random
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Callable

import repro.obs as obs
from repro.core.engine import ProtocolError
from repro.core.pbs_ledger import DoubleDepositError
from repro.crypto import fastexp, rsa
from repro.crypto.cl_sig import BlindIssuanceRequest
from repro.crypto.partial_blind import PartialBlindSignature
from repro.ecash.dec import DoubleSpendError
from repro.ecash.spend import SpendToken
from repro.crypto.hashing import sha256
from repro.net.codec import Encoded
from repro.net.schema import MAX_ID, Field, Message, Table
from repro.service.admission import AdmissionController
from repro.service.batcher import (
    DepositJob,
    DepositOutcome,
    VerificationBatcher,
    WithdrawJob,
    WithdrawOutcome,
)
from repro.service.journal import Checkpoint, Journal, JournalRecord, RunLog
from repro.service.shard import ShardedBank

__all__ = ["MarketService", "RequestFailure", "REQUESTS"]

#: request bounds beside ``MAX_ID`` (constants, not options): every
#: balance, context and arrival time the suites, campaigns, fault
#: scenarios and benchmark send sits far inside them
MAX_BALANCE = (1 << 63) - 1
MAX_CONTEXT = 1024  # bytes of a deposit's spend context (or a coin's serial)
MAX_MODULUS = (1 << 4096) - 1  # an RSA key's n, or a coin's signature value
MAX_NOW = 1e12  # |now|, seconds on the caller's arrival clock

#: default reply-cache bound; ``None`` disables eviction entirely
DEFAULT_REPLY_CACHE = 65536

#: evicted-rid tombstones kept per cached reply (the tombstone set is
#: bounded at ``reply_cache * _TOMBSTONES_PER_REPLY``)
_TOMBSTONES_PER_REPLY = 4

#: bound of :attr:`MarketService.failures` (most recent kept): a client
#: replaying bad tokens must not own the server's memory
_FAILURES_KEPT = 1024


@dataclass(frozen=True)
class RequestFailure:
    """Record of a request answered with ``ERROR`` or ``REJECTED``."""

    sender: str
    seq: int
    kind: str
    error: str


@dataclass
class _Pending:
    seq: int
    sender: str
    kind: str
    payload: Any
    submitted_at: float
    entry: Message  # the kind's row of REQUESTS
    rid: str = ""
    trace: str = ""  # telemetry trace id (digest of rid; "" = untraced)
    outcome: DepositOutcome | WithdrawOutcome | None = field(default=None)

    @property
    def ready(self) -> bool:
        return self.entry.crypto is None or self.outcome is not None


class MarketService:
    """Concurrent MA bank service over one journaled bank."""

    def __init__(
        self,
        bank: ShardedBank,
        *,
        batcher: VerificationBatcher | None = None,
        admission: AdmissionController | None = None,
        rng: random.Random | None = None,
        clock: Callable[[], float] = time.perf_counter,
        journal: Journal | None = None,
        reply_cache: int | None = DEFAULT_REPLY_CACHE,
        telemetry: "obs.Telemetry | None" = None,
    ) -> None:
        self.bank = bank
        # explicit None checks: an idle VerificationBatcher is falsy
        # (it has __len__), so ``batcher or default`` would silently
        # discard a caller-configured batcher
        self.batcher = (
            batcher
            if batcher is not None
            else VerificationBatcher(bank.params, bank.keypair)
        )
        self.admission = admission if admission is not None else AdmissionController()
        self.rng = rng if rng is not None else random.Random(0)
        self._clock = clock
        # one journal serves both layers: the bank writes ``apply``
        # records (an OK verdict's only record), the service writes
        # ``accept`` records and the ``reply`` record of any other verdict
        if journal is not None and bank.journal is None:
            bank.journal = journal
        self.journal = bank.journal
        self._bind_obs(telemetry)
        self._next_seq = 0
        # live senders only, in first-seen order: a sender's key is
        # dropped when its queue empties
        self._queues: dict[str, deque[_Pending]] = {}
        # maintained alongside the queues so :attr:`queue_depth` is an
        # O(1) read that other threads (the async front door's event
        # loop) can sample without iterating a dict being mutated
        self._depth = 0
        self._in_flight: dict[int, _Pending] = {}
        # rid -> cached reply, completion-ordered so eviction is FIFO
        if reply_cache is not None and reply_cache < 1:
            raise ValueError("reply_cache must be positive (or None)")
        self.reply_cache = reply_cache
        self._replies: OrderedDict[str, tuple[str, dict]] = OrderedDict()
        # tombstone digests of evicted rids (bounded FIFO set): a retry
        # of one is answered with an explicit ERROR, never re-executed
        self._evicted: OrderedDict[str, None] = OrderedDict()
        # both are FIFO, so checkpoints carry them as sealed runs: the
        # logs mirror every append and eviction of the two dicts above
        self._reply_log = RunLog()
        self._evicted_log = RunLog()
        #: rid -> accept state ({sender, kind, seq, payload}) for
        #: requests accepted but not yet replied; checkpoints carry
        #: these so in-flight work survives compaction of its records
        self._accepted: dict[str, dict] = {}
        self.failures: deque[RequestFailure] = deque(maxlen=_FAILURES_KEPT)
        self.completions = 0
        self.shed = 0
        self.dedup_hits = 0
        self.reply_evictions = 0
        self.tombstone_hits = 0
        self._reply_observers: list[Callable[[str, dict], None]] = []

    # -- instrumentation ---------------------------------------------------
    def _bind_obs(self, telemetry: "obs.Telemetry | None") -> None:
        """Resolve the telemetry stack and push it down the whole stack.

        An explicit *telemetry* handed to the service wins for every
        component it drives — one tracer means one trace id follows a
        request through bank, batcher, admission and journal; split
        stacks would fracture the timeline.  With ``None`` everything
        already shares the module default, so nothing is overridden.
        """
        explicit = telemetry is not None
        self.obs = telemetry if explicit else obs.get_default()
        if explicit:
            self.bank._bind_obs(telemetry)
            self.batcher._bind_obs(telemetry)
            self.admission._bind_obs(telemetry)
            if self.journal is not None:
                self.journal._bind_obs(telemetry)
        registry = self.obs.registry
        self._m_requests = registry.counter(
            "repro_service_requests_total", "requests submitted to the service"
        )
        self._m_replies = {
            status: registry.counter(
                "repro_service_replies_total",
                "replies sent, by terminal status", status=status,
            )
            for status in ("OK", "BUSY", "ERROR", "REJECTED")
        }
        self._m_dedup = registry.counter(
            "repro_service_dedup_hits_total",
            "duplicate rids answered from the reply cache",
        )
        self._m_evictions = registry.counter(
            "repro_service_reply_evictions_total",
            "cached replies evicted by the reply-cache bound",
        )
        self._m_tombstone_hits = registry.counter(
            "repro_service_tombstone_hits_total",
            "retries of evicted rids answered by tombstone (never re-run)",
        )
        self._m_reply_cache = registry.gauge(
            "repro_service_reply_cache_size", "cached replies currently held"
        )
        self._m_queue_depth = registry.gauge(
            "repro_service_queue_depth", "accepted-but-unapplied requests"
        )
        self._m_latency = registry.histogram(
            "repro_request_latency_seconds",
            "submit-to-reply latency of answered requests",
        )
        self._m_recoveries = registry.counter(
            "repro_recoveries_total", "service incarnations built by recover()"
        )
        self._m_redone = registry.counter(
            "repro_recovery_redone_total",
            "accepted-but-unanswered requests re-enqueued by recovery",
        )

    def dump_telemetry(self, directory=None):
        """Export the service's telemetry (trace + metrics) in one call.

        Refreshes the pull-style values first — the fastexp cache
        counters (the caches keep their own monotonic tallies, so each
        call overwrites gauges ``repro_fastexp_<counter>{cache=...}``
        with the current totals) and the live queue depth — then
        returns :meth:`repro.obs.Telemetry.export`'s dict, or, given a
        *directory*, writes ``trace.json`` / ``metrics.json`` /
        ``metrics.prom`` there and returns their paths.
        """
        registry = self.obs.registry
        for cache, row in fastexp.stats().items():
            for counter, value in row.items():
                registry.gauge(
                    f"repro_fastexp_{counter}",
                    f"fastexp table-cache {counter} (monotonic total)",
                    cache=cache,
                ).set(value)
        self._m_queue_depth.set(self.queue_depth)
        self.batcher._m_occupancy.set(len(self.batcher))
        if directory is not None:
            return self.obs.dump(directory)
        return self.obs.export()

    def add_reply_observer(self, fn: Callable[[str, dict], None]) -> None:
        """Register ``fn(sender, reply)`` to receive every answer.

        *reply* is ``{"req": seq, "status": ..., **body}``, a fresh dict
        per delivery (its values are the cached verdict's: read-only).
        Called synchronously, once per answer — verdict, ``BUSY``,
        cached re-send, tombstone ``ERROR`` — after the verdict is
        journaled (an OK as its ``apply`` record, any other status as a
        ``reply`` record) and cached, so an observer that raises loses
        the delivery, never the verdict.
        """
        self._reply_observers.append(fn)

    def remove_reply_observer(self, fn: Callable[[str, dict], None]) -> None:
        self._reply_observers.remove(fn)

    def _deliver(self, sender: str, reply: dict) -> None:
        for fn in self._reply_observers:
            fn(sender, reply)

    @property
    def queue_depth(self) -> int:
        """Accepted-but-unapplied requests (the backpressure signal).

        A plain int read — safe to sample from any thread, which is how
        the async front door's event loop checks for overload without
        touching the dispatcher's queues.
        """
        return self._depth

    def overloaded(self, extra: int = 0) -> bool:
        """Would a request arriving now be shed for backlog?

        *extra* is backlog the service cannot see yet (frames parsed
        but not submitted — the front door's own queue).  Side-effect
        free and thread-safe; see
        :meth:`AdmissionController.overloaded`.
        """
        return self.admission.overloaded(self._depth + extra)

    def reply_for(self, rid: str) -> tuple[str, dict] | None:
        """The cached ``(status, body)`` verdict of a completed request.

        ``None`` while the request is still in flight (or was never
        seen).  The cache survives crashes — it is rebuilt from the
        journal's verdicts on :meth:`recover` — so this is the
        harness's window into per-request outcomes across incarnations.
        """
        return self._replies.get(rid)

    @staticmethod
    def _tombstone(rid: str) -> str:
        """Eviction tombstone digest of *rid* (never the rid itself).

        ``str``: a store written before rids were checked at the door
        may hold any hashable codec value as a rid.
        """
        return sha256(b"reply-tombstone", str(rid).encode()).hex()[:16]

    def _remember_reply(self, rid: str, status: str, body: dict) -> None:
        """Cache a verdict, evicting oldest entries past the bound.

        Evicted rids leave a tombstone digest behind so an in-flight
        retry is still answered deterministically (explicit ``ERROR``)
        instead of being re-executed; the tombstone set itself is FIFO
        and bounded, which is the documented narrowing: a retry arriving
        after *both* bounds have rotated past its rid is treated as new.
        """
        self._replies[rid] = (status, body)
        self._reply_log.push((rid, status, body))
        if self.reply_cache is None:
            return
        while len(self._replies) > self.reply_cache:
            evicted_rid, _verdict = self._replies.popitem(last=False)
            self._reply_log.pop()
            self._bury(self._tombstone(evicted_rid))
            self.reply_evictions += 1
            self._m_evictions.inc()
        bound = self.reply_cache * _TOMBSTONES_PER_REPLY
        while len(self._evicted) > bound:
            self._evicted.popitem(last=False)
            self._evicted_log.pop()
        self._m_reply_cache.set(len(self._replies))

    def _bury(self, digest: str) -> None:
        """Add a tombstone (a digest already buried keeps its place)."""
        if digest not in self._evicted:
            self._evicted[digest] = None
            self._evicted_log.push(digest)

    # -- accept ------------------------------------------------------------
    def submit(self, sender: str, kind: str, payload: Any, *, now: float = 0.0,
               rid: str | None = None, encoded: bytes | None = None) -> int:
        """Accept one request; returns its sequence number.

        The envelope (*sender*, *rid*, *now*) and *payload* are checked
        against :data:`REQUESTS` before anything else.  A malformed
        request is answered ``ERROR`` from here, as a ``BUSY`` is, and
        recorded in :attr:`failures`; it leaves no ``accept`` or
        ``reply`` record and no reply-cache entry.

        *payload* is taken as given — never copied or normalised; from
        the front door it is the decoded wire copy.  The ``accept``
        record holds its own durable bytes, so a recovered request
        never aliases a caller's object: *encoded*, when the caller has
        it, is ``encode(payload)`` already — the front door passes the
        frame's slice, which the canonical codec guarantees — and the
        journal copies it in verbatim; otherwise the journal encodes
        *payload*.  Admission runs only for crypto kinds — cheap
        queries never starve behind a full bucket.

        *rid* is the client's stable request id, the key of the
        exactly-once layer over at-least-once delivery: a duplicate of
        a completed request gets its cached reply re-sent (no
        re-execution, no double apply), a duplicate of an in-flight
        request is dropped (the original will answer).  Omitted, a
        unique id is derived — plain submissions keep one-shot
        semantics.
        """
        seq = self._next_seq
        self._next_seq += 1
        self._m_requests.inc()
        entry, error = REQUESTS.check(kind, payload, sender=sender, rid=rid,
                                      now=now)
        if error is not None:
            self._refuse(sender, seq, kind, error)
            return seq
        if rid is None:
            rid = f"{sender}:auto:{seq}"
        tracer = self.obs.tracer
        # the trace id is the rid's digest (never the rid itself — it
        # may embed an account id); deriving it per layer is what
        # propagates the trace without extra envelope state
        tid = obs.trace_id(rid) if tracer.enabled else None
        with tracer.span("submit", trace=tid, kind=kind, seq=seq,
                         sender=sender) as span:
            if rid in self._replies:
                self.dedup_hits += 1
                self._m_dedup.inc()
                span.set(dedup=True)
                status, body = self._replies[rid]
                self._deliver(sender, {"req": seq, "status": status, **body})
                return seq
            if self._evicted and self._tombstone(rid) in self._evicted:
                # the request completed long ago and its cached verdict
                # was evicted: answer explicitly rather than re-execute
                # (a re-run withdraw would double-debit)
                self.dedup_hits += 1
                self.tombstone_hits += 1
                self._m_dedup.inc()
                self._m_tombstone_hits.inc()
                span.set(dedup=True, evicted=True)
                self._deliver(sender, {
                    "req": seq, "status": "ERROR",
                    "error": "reply evicted: request already completed; "
                             "original verdict no longer cached"})
                return seq
            if rid in self._accepted:
                self.dedup_hits += 1
                self._m_dedup.inc()
                span.set(dedup=True)
                return seq
            error = entry.screen(self, payload) if entry.screen else None
            if error is not None:
                self._refuse(sender, seq, kind, error)
                return seq
            if entry.crypto is not None:
                depth = self.queue_depth
                self._m_queue_depth.set(depth)
                with tracer.span("admission", depth=depth):
                    decision = self.admission.admit(now, depth)
                if not decision.admitted:
                    self.shed += 1
                    self._reply(sender, seq, kind, "BUSY",
                                {"reason": decision.reason}, submitted_at=None)
                    return seq
            if entry.mutating:
                # write-ahead: the accepted request survives a crash, so an
                # in-flight deposit is re-verified after recovery, not lost
                state = {"sender": sender, "kind": kind, "seq": seq,
                         "payload": payload}
                if self.journal is not None:
                    durable = state if encoded is None else {
                        **state, "payload": Encoded(encoded)}
                    self.journal.append("accept", rid, kind, durable)
                self._accepted[rid] = state
            self._enqueue(_Pending(seq=seq, sender=sender, kind=kind,
                                   payload=payload, submitted_at=self._clock(),
                                   entry=entry, rid=rid, trace=tid or ""))
            return seq

    def _enqueue(self, pending: _Pending) -> None:
        """Queue *pending* behind its sender; crypto kinds join the batcher."""
        queue = self._queues.get(pending.sender)
        if queue is None:
            queue = self._queues[pending.sender] = deque()
        queue.append(pending)
        self._depth += 1
        if pending.entry.crypto is not None:
            try:
                self._enqueue_crypto(pending)
            except ProtocolError as exc:
                # refused before it ever reaches the pool: fail it now
                queue.pop()
                if not queue:
                    del self._queues[pending.sender]
                self._depth -= 1
                self._fail(pending, "ERROR", str(exc))

    def _enqueue_crypto(self, pending: _Pending) -> None:
        aid = pending.payload["aid"]
        if not self.bank.has_account(aid):
            raise ProtocolError(f"unknown account {aid!r}")
        self.batcher.submit(pending.entry.crypto(self, pending))
        self._in_flight[pending.seq] = pending

    # -- batch + apply -----------------------------------------------------
    def step(self, *, force: bool = False) -> int:
        """One turn of the loop: flush ready batches, apply, reply.

        Returns the number of requests completed this step.  With
        ``force`` the batcher flushes even when under-full (used to
        drain at the end of a run or on a batching deadline).
        """
        flushed = force or self.batcher.batch_ready
        while flushed and len(self.batcher):
            for outcome in self.batcher.flush():
                pending = self._in_flight.pop(outcome.seq)
                pending.outcome = outcome
            flushed = force or self.batcher.batch_ready
        return self._apply_ready()

    def drain(self) -> int:
        """Flush and apply until nothing is pending; returns completions."""
        total = 0
        while self.queue_depth or len(self.batcher):
            done = self.step(force=True)
            if done == 0 and len(self.batcher) == 0:
                break
            total += done
        return total

    def _apply_ready(self) -> int:
        """Apply every queue head whose result is ready (FIFO per sender)."""
        completed = 0
        for sender in list(self._queues):
            queue = self._queues[sender]
            while queue and queue[0].ready:
                pending = queue.popleft()
                self._depth -= 1
                self._apply_one(pending)
                completed += 1
            if not queue:
                del self._queues[sender]
        return completed

    def _apply_one(self, pending: _Pending) -> None:
        # the span re-attaches to the request's trace (apply happens
        # long after the submit span closed), so the bank mutation and
        # reply nest under the same id as admission and verification
        with self.obs.tracer.span("apply", trace=pending.trace or None,
                                  kind=pending.kind, seq=pending.seq):
            try:
                status, body = pending.entry.handler(self, pending)
            except ProtocolError as exc:
                self._fail(pending, "ERROR", str(exc))
                return
            except DoubleDepositError:
                self._fail(pending, "REJECTED", "double deposit")
                return
            except DoubleSpendError as exc:
                evidence = exc.evidence
                body = {"error": str(exc)}
                if evidence is not None:
                    body["evidence"] = {
                        "serial": evidence.serial,
                        "prior": list(evidence.prior),
                        "offending_node": list(evidence.offending_node),
                    }
                self._fail(pending, "REJECTED", str(exc), body=body)
                return
            self._answer(pending, status, body)

    # -- replies -----------------------------------------------------------
    def _fail(self, pending: _Pending, status: str, error: str,
              *, body: dict | None = None) -> None:
        self.failures.append(
            RequestFailure(sender=pending.sender, seq=pending.seq,
                           kind=pending.kind, error=error)
        )
        self._answer(pending, status,
                     body if body is not None else {"error": error})

    def _refuse(self, sender: Any, seq: int, kind: Any, error: str, *,
                rid: str = "") -> None:
        """``ERROR`` for a request that never entered the pipeline."""
        self.failures.append(RequestFailure(sender=sender, seq=seq, kind=kind,
                                            error=error))
        self._reply(sender, seq, kind, "ERROR", {"error": error},
                    submitted_at=None, rid=rid)

    def _answer(self, pending: _Pending, status: str, body: dict) -> None:
        self._reply(pending.sender, pending.seq, pending.kind, status, body,
                    submitted_at=pending.submitted_at,
                    rid=pending.rid if pending.entry.mutating else "")

    def _reply(self, sender: str, seq: int, kind: str, status: str, body: dict,
               *, submitted_at: float | None, rid: str = "") -> None:
        """Deliver one answer; with *rid*, journal and cache it first."""
        latency = None if submitted_at is None else self._clock() - submitted_at
        with self.obs.tracer.span("reply", status=status, kind=kind, seq=seq):
            if rid:
                # journal before delivering: a crash during delivery leaves
                # the verdict recoverable, so the client's retry gets the
                # same answer instead of a re-execution.  An OK verdict is
                # already journaled: it is the handler's ``apply`` record
                if self.journal is not None and status != "OK":
                    self.journal.append("reply", rid, kind,
                                        {"status": status, "body": body})
                self._remember_reply(rid, status, body)
                self._accepted.pop(rid, None)
            self._deliver(sender, {"req": seq, "status": status, **body})
        counter = self._m_replies.get(status)
        if counter is not None:
            counter.inc()
        if latency is not None:
            self._m_latency.observe(latency)
        self.completions += 1

    # -- crash recovery ----------------------------------------------------
    def checkpoint(self) -> Checkpoint:
        """Snapshot the books *and* the request-lifecycle state.

        The bank contributes its two book blobs (each reused byte for
        byte while its book is clean); the service adds the reply cache
        and the eviction tombstones (as sealed runs plus a short tail,
        so the cut does not grow with either), the in-flight accepts
        and the sequence watermark.  A checkpoint carrying these is
        self-sufficient: recovery no longer needs any journal record at
        or before ``lsn``, which is exactly what licenses
        :meth:`Journal.compact <repro.service.journal.Journal.compact>`
        to delete those records.
        """
        base = self.bank.checkpoint()
        return Checkpoint(
            lsn=base.lsn,
            blobs=base.blobs,
            replies=self._reply_log.cut(),
            pending=tuple(
                {"rid": rid, **state} for rid, state in self._accepted.items()
            ),
            evicted=self._evicted_log.cut(),
            next_seq=self._next_seq,
        )

    @classmethod
    def recover(
        cls,
        params,
        keypair,
        journal: Journal,
        *,
        checkpoint: Checkpoint | None = None,
        rng: random.Random | None = None,
        batcher: VerificationBatcher | None = None,
        admission: AdmissionController | None = None,
        clock: Callable[[], float] = time.perf_counter,
        reply_cache: int | None = DEFAULT_REPLY_CACHE,
        telemetry: "obs.Telemetry | None" = None,
    ) -> "MarketService":
        """Restart the service from a checkpoint plus the journal.

        The bank replays ``apply`` records after the checkpoint
        (:meth:`ShardedBank.recover`) — committed state is rebuilt with
        zero lost and zero double-applied mutations.  The request
        lifecycle is then rebuilt from the checkpoint plus the retained
        records (the journal may have been compacted; everything at or
        before ``checkpoint.lsn`` is represented by the checkpoint's
        ``replies``/``pending``/``evicted``/``next_seq`` fields):

        1. the verdicts repopulate the reply cache in the order they
           were reached, so client retries of completed requests get
           their original answers: an ``apply`` record is an ``OK``
           (its body rebuilt from the redo payload, the field
           :data:`REQUESTS` names), a ``reply`` record any other
           status;
        2. accepted requests with neither apply nor reply — in flight
           mid-batch when the service died, found as retained
           ``accept`` records or checkpoint ``pending`` entries — are
           re-enqueued for verification: accepted deposits are never
           lost, merely re-verified.  A rid whose reply was *evicted*
           is never re-enqueued (its tombstone answers retries).
        """
        tel = telemetry if telemetry is not None else obs.get_default()
        with tel.tracer.span("recover", lsn=journal.last_lsn) as span:
            bank = ShardedBank.recover(
                params, keypair, rng if rng is not None else random.Random(0),
                journal, checkpoint=checkpoint,
                telemetry=telemetry,
            )
            service = cls(bank, batcher=batcher, admission=admission,
                          rng=rng, clock=clock, reply_cache=reply_cache,
                          telemetry=telemetry)
            accepts: dict[str, dict] = {}
            verdicts: list[JournalRecord] = []
            max_seq = (checkpoint.next_seq - 1) if checkpoint is not None else -1
            for record in journal.records():
                if record.kind == "accept":
                    accepts.setdefault(record.rid, record.payload)
                    max_seq = max(max_seq, record.payload.get("seq", -1))
                elif record.rid:
                    verdicts.append(record)
            # auto-generated rids embed the sequence number; never reuse one
            service._next_seq = max_seq + 1
            # seed from the checkpoint first (its entries are the oldest,
            # keeping eviction order right), then layer the retained tail
            # in the order the verdicts were reached
            if checkpoint is not None:
                for digest in checkpoint.evicted:
                    service._bury(digest)
                for rid, status, body in checkpoint.replies:
                    service._remember_reply(rid, status, body)
            for record in verdicts:
                rid = record.rid
                if rid in service._replies \
                        or service._tombstone(rid) in service._evicted:
                    continue
                if record.kind == "reply":
                    service._remember_reply(rid, record.payload["status"],
                                            record.payload["body"])
                else:  # an OK verdict is its apply record
                    field = REQUESTS.messages[record.op].rebuilds
                    service._remember_reply(
                        rid, "OK", {field: record.payload[field]})
            in_flight: dict[str, dict] = {}
            if checkpoint is not None:
                for state in checkpoint.pending:
                    in_flight[state["rid"]] = state
                    max_seq = max(max_seq, state.get("seq", -1))
                service._next_seq = max(service._next_seq, max_seq + 1)
            for rid, state in accepts.items():
                in_flight.setdefault(rid, {"rid": rid, **state})
            service.redone = 0
            for rid, state in in_flight.items():
                if rid in service._replies \
                        or service._tombstone(rid) in service._evicted:
                    continue
                service.redone += service._resubmit(state)
            span.set(redone=service.redone)
        service._m_recoveries.inc()
        service._m_redone.inc(service.redone)
        return service

    def _resubmit(self, state: dict) -> bool:
        """Re-enqueue an accepted-but-unanswered request after recovery.

        *state* is an accept record's payload plus its ``rid`` — the
        same shape a checkpoint's ``pending`` entries carry.  It passes
        the check :meth:`submit` runs; an accept journaled before that
        check existed may fail it, and is closed with a journaled
        ``ERROR`` instead (``False``: nothing was re-enqueued).
        """
        rid = state["rid"]
        sender, kind, payload = state["sender"], state["kind"], state["payload"]
        seq = self._next_seq
        self._next_seq += 1
        entry, error = REQUESTS.check(kind, payload, sender=sender, rid=rid)
        if error is not None:
            self._refuse(sender, seq, kind, error, rid=rid)
            return False
        self._accepted[rid] = {"sender": sender, "kind": kind,
                               "seq": seq, "payload": payload}
        self._enqueue(_Pending(seq=seq, sender=sender, kind=kind,
                               payload=payload, submitted_at=self._clock(),
                               entry=entry, rid=rid,
                               trace=obs.trace_id(rid)
                               if self.obs.tracer.enabled else ""))
        return True

    # -- request handlers: the rows of REQUESTS -----------------------------
    def _open_account(self, pending: _Pending) -> tuple[str, dict]:
        aid, balance = pending.payload["aid"], pending.payload["balance"]
        if self.bank.has_account(aid):
            raise ProtocolError(f"account {aid!r} already exists")
        self.bank.open_account(aid, balance, rid=pending.rid)
        return "OK", {"balance": balance}

    def _balance(self, pending: _Pending) -> tuple[str, dict]:
        aid = pending.payload["aid"]
        if not self.bank.has_account(aid):
            raise ProtocolError(f"unknown account {aid!r}")
        return "OK", {"balance": self.bank.balance(aid)}

    def _audit(self, pending: _Pending) -> tuple[str, dict]:
        report = self.bank.audit()
        return "OK", {"clean": report.clean, "findings": list(report.findings)}

    def _withdraw_job(self, pending: _Pending) -> WithdrawJob:
        aid, value = pending.payload["aid"], 1 << self.bank.params.tree_level
        if self.bank.balance(aid) < value:
            raise ProtocolError(
                f"account {aid!r} cannot cover a coin of value {value}")
        return WithdrawJob(seq=pending.seq, aid=aid,
                           request=pending.payload["request"],
                           trace=pending.trace)

    def _withdraw(self, pending: _Pending) -> tuple[str, dict]:
        signature = pending.outcome.signature
        if signature is None:
            raise ProtocolError("blind issuance request proof failed")
        # balance re-checked at apply time: an earlier withdrawal in
        # the same batch may have drained the account since accept
        self.bank.apply_withdrawal(pending.payload["aid"], rid=pending.rid,
                                   extra={"signature": signature})
        return "OK", {"signature": signature}

    def _deposit_job(self, pending: _Pending) -> DepositJob:
        payload = pending.payload
        return DepositJob(seq=pending.seq, aid=payload["aid"],
                          token=payload["token"],
                          context=payload.get("context", b""),
                          trace=pending.trace)

    def _deposit(self, pending: _Pending) -> tuple[str, dict]:
        outcome = pending.outcome
        if not outcome.valid:
            raise ProtocolError("invalid spend token")
        amount = self.bank.apply_deposit(
            pending.payload["aid"], pending.payload["token"], outcome.serials,
            rid=pending.rid,
        )
        return "OK", {"amount": amount}

    def _pbs_open_account(self, pending: _Pending) -> tuple[str, dict]:
        key, balance = pending.payload["key"], pending.payload["balance"]
        try:
            self.bank.pbs_open_account(key, balance, rid=pending.rid)
        except ValueError as exc:  # an account already holds this key
            raise ProtocolError(str(exc)) from exc
        return "OK", {"balance": balance}

    def _pbs_balance(self, pending: _Pending) -> tuple[str, dict]:
        aid = _pbs_account(pending.payload["key"])
        if aid not in self.bank.pbs.accounts:
            raise ProtocolError("unknown PPMSpbs account")
        return "OK", {"balance": self.bank.pbs.balance(aid)}

    def _pbs_known(self, payload: dict) -> str | None:
        for role in ("jo_key", "sp_key"):
            if _pbs_account(payload[role]) not in self.bank.pbs.accounts:
                return f"unknown PPMSpbs account for {role}"
        return None

    def _pbs_deposit(self, pending: _Pending) -> tuple[str, dict]:
        payload = pending.payload
        try:
            serial = self.bank.pbs_deposit(payload["sig"], payload["sp_key"],
                                           payload["jo_key"], rid=pending.rid)
        except DoubleDepositError:
            raise
        except ValueError as exc:  # a bad coin, or books that cannot move it
            raise ProtocolError(str(exc)) from exc
        return "OK", {"serial": serial}


def _pbs_account(key) -> bytes:
    """The PPMSpbs account id of RSA key ``(n, e)``: its fingerprint."""
    return rsa.RSAPublicKey(*key).fingerprint()


_AID = Field(str, high=MAX_ID)
#: an RSA public key ``(n, e)``; the exponent bound only caps its size
_RSA_KEY = Field(tuple, list, low=2, high=2,
                 parts={0: Field(int, low=3, high=MAX_MODULUS),
                        1: Field(int, low=1, high=(1 << 32) - 1)})

#: Every request the service accepts: kind → payload schema, handler,
#: flags and the reply field recovery rebuilds.  :meth:`MarketService
#: .submit` checks the envelope and payload against it before anything
#: is journaled; ``docs/service.md`` renders it.
REQUESTS = Table(
    "service request",
    envelope={"sender": Field(str, high=MAX_ID),
              "rid": Field(str, optional=True, low=1, high=MAX_ID),
              "now": Field(int, float, low=-MAX_NOW, high=MAX_NOW)},
    messages={
        "open-account": Message(
            {"aid": _AID, "balance": Field(int, low=0, high=MAX_BALANCE)},
            MarketService._open_account, mutating=True, rebuilds="balance",
            answers="`OK {balance}`"),
        "balance": Message({"aid": _AID}, MarketService._balance,
                           answers="`OK {balance}`"),
        "withdraw": Message(
            {"aid": _AID, "request": Field(BlindIssuanceRequest)},
            MarketService._withdraw, mutating=True,
            crypto=MarketService._withdraw_job, rebuilds="signature",
            answers="`OK {signature}`"),
        "deposit": Message(
            {"aid": _AID, "token": Field(SpendToken),
             "context": Field(bytes, optional=True, high=MAX_CONTEXT)},
            MarketService._deposit, mutating=True,
            crypto=MarketService._deposit_job, rebuilds="amount",
            answers="`OK {amount}`"),
        "audit": Message({}, MarketService._audit,
                         answers="`OK {clean, findings}`"),
        "pbs-open-account": Message(
            {"key": _RSA_KEY, "balance": Field(int, low=0, high=MAX_BALANCE)},
            MarketService._pbs_open_account, mutating=True, rebuilds="balance",
            answers="`OK {balance}`"),
        "pbs-balance": Message({"key": _RSA_KEY}, MarketService._pbs_balance,
                               answers="`OK {balance}`"),
        "pbs-deposit": Message(
            {"sig": Field(PartialBlindSignature, parts={
                "value": Field(int, low=1, high=MAX_MODULUS),
                "counter": Field(int, low=0, high=(1 << 32) - 1),
                "common_info": Field(bytes, high=MAX_CONTEXT)}),
             "sp_key": _RSA_KEY, "jo_key": _RSA_KEY},
            MarketService._pbs_deposit, mutating=True, rebuilds="serial",
            screen=MarketService._pbs_known,
            answers="`OK {serial}`; a spent serial `REJECTED`"),
    },
)
