"""The server process: the default MA stack, from public constructors only.

``python -m benchmarks.e2e.serve --seed S --frontend threaded|async
--workers N --journal DIR --trace 0|1`` builds

* ``setup(3, rng)`` — 80-bit parameters, real Tate pairing,
* fastexp on (the library default) with warmed verification tables,
* ``VerificationBatcher`` defaults (RLC batching, ``max_batch=32``),
  inline or an N-worker pool,
* ``ShardedBank(n_shards=4)``,
* ``SegmentedFileJournal`` on disk with ``JournalMaintenance`` attached,
* the default ``AdmissionController``,

and serves it until told to stop.  The parent drives it over stdin /
stdout with one JSON object per line: ``mark`` opens the timed window,
``report`` closes it and returns what the server saw, ``exit`` (or EOF
on stdin — the parent died) shuts down.  Nothing here reaches into a
private attribute of the stack and nothing under ``src/`` is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import threading

import repro.net  # noqa: F401 — codec registrations
from repro.crypto import fastexp
from repro.service import (
    AdmissionController,
    MarketService,
    ShardedBank,
    VerificationBatcher,
)
from repro.service.aio import AsyncServiceFrontend
from repro.service.frontend import ServiceFrontend
from repro.service.journal import JournalMaintenance, SegmentedFileJournal

from benchmarks.e2e.layers import ServerProbe
from benchmarks.e2e.workloads import derive_market

__all__ = ["build_stack", "WalMeter", "main"]

_TICK = os.sysconf("SC_CLK_TCK")


class WalMeter:
    """Bytes ever written to journal segments, including compacted ones.

    Segment files are only ever appended to and then deleted whole, so
    the total is the size of every sealed segment (read once, when it
    seals, from the after-batch hook that runs *before* maintenance can
    delete it) plus the current size of the active one.  File names are
    the layout ``docs/storage.md`` specifies.
    """

    def __init__(self, journal: SegmentedFileJournal) -> None:
        self.journal = journal
        self._sealed_bytes = 0
        self._next = 0  # first segment id not yet counted as sealed

    def _size(self, segment_id: int) -> int:
        path = os.path.join(self.journal.directory, f"seg-{segment_id:08d}.wal")
        try:
            return os.path.getsize(path)
        except OSError:
            return 0

    def after_batch(self) -> None:
        active = self.journal.segment_of(max(self.journal.last_lsn, 0))
        while self._next < active:
            self._sealed_bytes += self._size(self._next)
            self._next += 1

    def total(self) -> int:
        self.after_batch()
        return self._sealed_bytes + self._size(self._next)


def build_stack(seed: int, *, frontend: str, workers: int, journal_dir: str):
    """Assemble the default stack; returns it as a dict of its parts."""
    params, keypair = derive_market(seed)
    journal = SegmentedFileJournal(journal_dir)
    bank = ShardedBank(params, keypair, random.Random(seed), n_shards=4,
                       journal=journal)
    batcher = VerificationBatcher(params, keypair, processes=workers)
    service = MarketService(bank, batcher=batcher,
                            admission=AdmissionController(),
                            rng=random.Random(seed + 1), journal=journal)
    door_cls = AsyncServiceFrontend if frontend == "async" else ServiceFrontend
    door = door_cls(service)
    wal = WalMeter(journal)
    door.add_after_batch(wal.after_batch)
    maintenance = JournalMaintenance(journal, service.checkpoint)
    maintenance.attach(door)
    return {"params": params, "keypair": keypair, "journal": journal,
            "bank": bank, "batcher": batcher, "service": service,
            "frontend": door, "maintenance": maintenance, "wal": wal}


def _counters(stack: dict) -> dict:
    """Public counters of the stack, read (never added) by the benchmark."""
    service, batcher = stack["service"], stack["batcher"]
    door, journal = stack["frontend"], stack["journal"]
    backend = batcher.backend
    tables = fastexp.stats()
    return {
        "wal_bytes": stack["wal"].total(),
        "journal_records": journal.last_lsn + 1,
        "journal_segments": journal.segment_of(max(journal.last_lsn, 0)) + 1,
        "journal_compactions": journal.compactions,
        "journal_disk_bytes": journal.disk_usage(),
        "checkpoints": stack["maintenance"].checkpoints_cut,
        "completions": service.completions,
        "dedup_hits": service.dedup_hits,
        "shed": service.admission.shed_total,
        "flushes": batcher.flushes,
        "jobs": batcher.jobs_processed,
        "conn_errors": door.conn_errors,
        "pauses": getattr(door, "pauses", 0),
        "preparse_busy": getattr(door, "preparse_busy", 0),
        "pool_workers": batcher.processes,
        "pool_degraded": int(getattr(backend, "degraded", False)),
        "table_hits": sum(row["hits"] for row in tables.values()),
        "table_misses": sum(row["misses"] for row in tables.values()),
        "table_builds": sum(row["builds"] for row in tables.values()),
    }


#: reported as they stand at the end of the window; every other counter
#: is reported as its change across the window
_LEVELS = frozenset({"journal_segments", "journal_disk_bytes", "pool_workers",
                     "pool_degraded"})


def _thread_cpu() -> dict[str, float]:
    """CPU seconds of every live thread, by thread name (from ``/proc``).

    The kernel's per-task accounting is read by thread id, so a thread
    that is starting or has just exited is skipped, never dereferenced.
    """
    out: dict[str, float] = {}
    for thread in threading.enumerate():
        try:
            with open(f"/proc/self/task/{thread.native_id}/stat", "rb") as fh:
                fields = fh.read().rsplit(b")", 1)[1].split()
        except (OSError, IndexError):
            continue
        out[thread.name] = (int(fields[11]) + int(fields[12])) / _TICK
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.serve")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--frontend", choices=("threaded", "async"),
                        required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--journal", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="write the traced run's spans here (JSONL)")
    args = parser.parse_args(argv)

    stack = build_stack(args.seed, frontend=args.frontend,
                        workers=args.workers, journal_dir=args.journal)
    probe = ServerProbe(stack) if args.trace else None
    door = stack["frontend"].start()

    def say(message: dict) -> None:
        sys.stdout.write(json.dumps(message) + "\n")
        sys.stdout.flush()

    say({"event": "ready", "address": list(door.address), "pid": os.getpid(),
         "fastexp": fastexp.enabled(), "workers": stack["batcher"].processes})
    marked: dict = {}
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "mark":
                marked = {"counters": _counters(stack), "threads": _thread_cpu()}
                if probe is not None:
                    probe.start()
                say({"event": "marked"})
            elif command == "report":
                threads = _thread_cpu()
                if probe is not None:
                    probe.stop()
                counters = _counters(stack)
                base = marked.get("counters", {})
                message = {
                    "event": "report",
                    "counters": {k: v if k in _LEVELS else v - base.get(k, 0)
                                 for k, v in counters.items()},
                    "thread_cpu_s": {
                        name: cpu - marked.get("threads", {}).get(name, 0.0)
                        for name, cpu in threads.items()},
                }
                if probe is not None:
                    message["layers"] = probe.report(stack)
                    if args.spans:
                        message["spans_written"] = probe.tracer.dump(args.spans)
                say(message)
            elif command == "exit":
                break
    finally:
        door.close()
        stack["batcher"].close()
        stack["journal"].close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
