"""Opt-in storage soak: journal disk stays bounded under retention.

Run with ``REPRO_SOAK=1`` (CI runs it on the nightly cron).  Thousands
of journaled mutations flow through a directory-backed :class:`Journal`
with a deliberately small segment size while
:class:`JournalMaintenance` cuts incremental checkpoints and compacts
on cadence.  The claims under load:

* **disk is bounded by the retention policy**, not by traffic volume:
  peak bytes on disk never exceed the retention window's worth of
  segments (plus checkpoints), however long the run;
* **old segments are actually deleted** — the oldest segment file on
  disk advances far past segment 0;
* the final store still **recovers exactly** (checkpoint + tail equals
  the live books).

The run prints its measured numbers (peak/final disk, segments
written vs. retained, checkpoint count) — the CHANGELOG's soak figures
come from here.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.service import (
    Journal,
    JournalMaintenance,
    MarketService,
    ShardedBank,
)

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_SOAK") != "1",
    reason="soak test: set REPRO_SOAK=1 to run (CI nightly cron does)",
)

N_REQUESTS = 4_000
SEGMENT_RECORDS = 64
CHECKPOINT_EVERY = 128
RETAIN_SEGMENTS = 1
MAINTENANCE_EVERY = 50  # requests between maintenance opportunities


def test_journal_disk_is_bounded_by_retention(tmp_path, dec_params_toy):
    store = tmp_path / "wal"
    journal = Journal.open(store, segment_records=SEGMENT_RECORDS)
    bank = ShardedBank.create(dec_params_toy, random.Random(0xD15C), journal=journal)
    service = MarketService(bank, journal=journal, rng=random.Random(1))
    maintenance = JournalMaintenance(
        journal, service.checkpoint,
        checkpoint_every=CHECKPOINT_EVERY,
        retain_segments=RETAIN_SEGMENTS,
    )
    peak_disk = 0
    peak_segments = 0
    for i in range(N_REQUESTS):
        service.submit("soak", "open-account",
                       {"aid": f"soak{i}", "balance": i % 97},
                       rid=f"soak:{i}")
        service.drain()
        if i % MAINTENANCE_EVERY == 0:
            maintenance.run()
            peak_disk = max(peak_disk, journal.disk_usage())
            peak_segments = max(peak_segments, journal.segments_retained)
    maintenance.run(force=True)
    final_disk = journal.disk_usage()
    peak_disk = max(peak_disk, final_disk)
    peak_segments = max(peak_segments, journal.segments_retained)
    segments_written = journal.segment_of(journal.last_lsn) + 1
    oldest_on_disk = min(
        int(n[4:-4]) for n in os.listdir(store)
        if n.startswith("seg-") and n.endswith(".wal")
    )

    # every record is ~3 journal entries; far more segments were written
    # than are ever on disk at once
    assert segments_written > 100
    # bound: a full checkpoint window of unsealed coverage, the retained
    # tail, and the active segment
    segment_bound = -(-CHECKPOINT_EVERY // SEGMENT_RECORDS) \
        + RETAIN_SEGMENTS + 1
    assert peak_segments <= segment_bound + 1  # +1 for cadence slack
    assert journal.segments_retained <= segment_bound
    # old segments really are deleted, not merely forgotten
    assert oldest_on_disk >= segments_written - segment_bound - 1
    assert oldest_on_disk > 100
    # disk is bounded: the whole uncompacted log would dwarf this
    assert peak_disk < 64 * SEGMENT_RECORDS * (segment_bound + 2) * 8

    # the bounded store still recovers exactly
    checkpoint = journal.load_checkpoint()
    assert checkpoint is not None
    recovered = MarketService.recover(
        bank.params, bank.keypair, journal, checkpoint=checkpoint,
    )
    assert recovered.bank.book.accounts == bank.book.accounts

    print(
        "\nstorage soak:"
        f" requests={N_REQUESTS}"
        f" records={journal.last_lsn + 1}"
        f" segments_written={segments_written}"
        f" segments_retained={journal.segments_retained}"
        f" oldest_segment_on_disk={oldest_on_disk}"
        f" checkpoints={maintenance.checkpoints_cut}"
        f" compactions={journal.compactions}"
        f" peak_disk_bytes={peak_disk}"
        f" final_disk_bytes={final_disk}"
    )
