"""Bounded reply-cache eviction: idempotence survives the bound.

The exactly-once layer caches terminal verdicts by rid so an
at-least-once network can retry safely.  An unbounded cache is a slow
memory leak, so :class:`MarketService` bounds it FIFO — and the
regression these tests pin down is the window that opens at the bound:
a retry of an *evicted* rid must be answered deterministically
(explicit ``ERROR``) or rejected, but **never re-executed**.  A
re-executed ``open-account`` would collide, a re-executed withdraw
would double-debit — the journal's apply-record count per rid is the
arbiter.  Tombstones ride checkpoints, so the guarantee holds across
recovery (and across compaction of the evicted reply's records).
"""

from __future__ import annotations

import random

import pytest

import repro.service.journal as journal_mod
from repro.service import Journal, MarketService, ShardedBank


def _service(dec_params_toy, *, reply_cache, journal=None):
    journal = journal if journal is not None else Journal()
    bank = ShardedBank.create(dec_params_toy, random.Random(3),
                              journal=journal)
    return _watched(MarketService(bank, journal=journal,
                                  reply_cache=reply_cache,
                                  rng=random.Random(4)))


def _watched(service):
    """Keep every delivered reply where :func:`_last_reply` finds it."""
    service.delivered = []
    service.add_reply_observer(
        lambda sender, reply: service.delivered.append((sender, reply)))
    return service


def _last_reply(service, sender):
    return [reply for to, reply in service.delivered if to == sender][-1]


def _apply_count(journal, rid):
    return sum(1 for r in journal.records()
               if r.kind == "apply" and r.rid == rid)


def _flood(service, n, *, start=0):
    """Complete *n* mutating requests under distinct rids."""
    for i in range(start, start + n):
        service.submit("ops", "open-account",
                       {"aid": f"flood{i}", "balance": i}, rid=f"flood:{i}")
        service.drain()


class TestBound:
    def test_cache_never_exceeds_the_bound(self, dec_params_toy):
        service = _service(dec_params_toy, reply_cache=4)
        _flood(service, 10)
        assert len(service._replies) == 4
        assert service.reply_evictions == 6
        # tombstone set is itself bounded
        assert len(service._evicted) <= 4 * 4

    def test_unbounded_mode_keeps_everything(self, dec_params_toy):
        service = _service(dec_params_toy, reply_cache=None)
        _flood(service, 10)
        assert len(service._replies) == 10
        assert service.reply_evictions == 0

    def test_bound_must_be_positive(self, dec_params_toy):
        with pytest.raises(ValueError):
            _service(dec_params_toy, reply_cache=0)

    def test_retry_within_the_cache_replays_the_verdict(self, dec_params_toy):
        service = _service(dec_params_toy, reply_cache=4)
        service.submit("alice", "open-account", {"aid": "a", "balance": 9},
                       rid="keep")
        service.drain()
        service.submit("alice", "open-account", {"aid": "a", "balance": 9},
                       rid="keep")
        reply = _last_reply(service, "alice")
        assert reply["status"] == "OK" and reply["balance"] == 9
        assert service.dedup_hits == 1 and service.tombstone_hits == 0
        assert _apply_count(service.journal, "keep") == 1


class TestEvictedRetry:
    def test_evicted_rid_is_answered_explicitly_never_reexecuted(
            self, dec_params_toy):
        journal = Journal()
        service = _service(dec_params_toy, reply_cache=2, journal=journal)
        service.submit("alice", "open-account", {"aid": "a", "balance": 9},
                       rid="victim")
        service.drain()
        _flood(service, 5)  # rotates "victim" out of the bounded cache
        assert "victim" not in service._replies
        service.submit("alice", "open-account", {"aid": "a", "balance": 9},
                       rid="victim")
        service.drain()
        reply = _last_reply(service, "alice")
        assert reply["status"] == "ERROR"
        assert "reply evicted" in reply["error"]
        assert service.tombstone_hits == 1
        # the arbiter: exactly one apply record, the account untouched —
        # a re-execution would have been REJECTED ("already exists"),
        # which is a different, non-deterministic answer
        assert _apply_count(journal, "victim") == 1
        assert service.bank.balance("a") == 9

    def test_evicted_retry_of_an_in_flight_style_duplicate(self,
                                                           dec_params_toy):
        """The ISSUE's exact scenario: evict, then the stale retry lands."""
        journal = Journal()
        service = _service(dec_params_toy, reply_cache=1, journal=journal)
        service.submit("bob", "open-account", {"aid": "b", "balance": 5},
                       rid="slow-retry")
        service.drain()
        _flood(service, 3)  # the client's first answer is long evicted
        before = _apply_count(journal, "slow-retry")
        seq = service.submit("bob", "open-account",
                             {"aid": "b", "balance": 5}, rid="slow-retry")
        service.drain()
        reply = _last_reply(service, "bob")
        assert reply["req"] == seq and reply["status"] == "ERROR"
        assert _apply_count(journal, "slow-retry") == before
        assert service.queue_depth == 0  # rejected at submit, never queued

    def test_a_non_string_rid_is_refused_before_it_can_be_evicted(
            self, dec_params_toy):
        """An integer rid used to be journaled and cached; evicting it
        (a tombstone digests ``rid.encode()``) then crashed the service,
        and every recovery of that store crashed the same way."""
        journal = Journal()
        service = _service(dec_params_toy, reply_cache=1, journal=journal)
        seq = service.submit("eve", "open-account", {"aid": "e", "balance": 1},
                             rid=7)
        reply = _last_reply(service, "eve")
        assert reply["req"] == seq and reply["status"] == "ERROR"
        assert journal.last_lsn == -1 and service.reply_for(7) is None
        _flood(service, 2)  # two well-formed opens evict from the cache
        assert service.reply_evictions == 1
        assert not service.bank.has_account("e")

    def test_tombstones_are_not_journaled(self, dec_params_toy):
        journal = Journal()
        service = _service(dec_params_toy, reply_cache=1, journal=journal)
        _flood(service, 3)
        lsn = journal.last_lsn
        service.submit("ops", "open-account", {"aid": "flood0", "balance": 0},
                       rid="flood:0")  # tombstoned rid
        assert journal.last_lsn == lsn  # answered without touching the log


class TestRecovery:
    def test_tombstones_survive_checkpoint_recovery(self, dec_params_toy):
        journal = Journal()
        service = _service(dec_params_toy, reply_cache=2, journal=journal)
        service.submit("alice", "open-account", {"aid": "a", "balance": 9},
                       rid="victim")
        service.drain()
        _flood(service, 5)
        checkpoint = service.checkpoint()
        recovered = _watched(MarketService.recover(
            service.bank.params, service.bank.keypair, journal,
            checkpoint=checkpoint, reply_cache=2,
        ))
        recovered.submit("alice", "open-account", {"aid": "a", "balance": 9},
                         rid="victim")
        recovered.drain()
        reply = _last_reply(recovered, "alice")
        assert reply["status"] == "ERROR" and "reply evicted" in reply["error"]
        assert recovered.tombstone_hits == 1
        assert _apply_count(journal, "victim") == 1
        assert recovered.bank.balance("a") == 9

    def test_tombstones_survive_compaction_of_their_records(self,
                                                            dec_params_toy):
        """Eviction + compaction together: the reply records are *gone*."""
        journal = Journal(segment_records=4)
        service = _service(dec_params_toy, reply_cache=2, journal=journal)
        service.submit("alice", "open-account", {"aid": "a", "balance": 9},
                       rid="victim")
        service.drain()
        _flood(service, 6)
        checkpoint = service.checkpoint()
        journal.compact(checkpoint.lsn, retain_segments=0)
        assert journal.first_lsn > 0  # victim's records really deleted
        recovered = _watched(MarketService.recover(
            service.bank.params, service.bank.keypair, journal,
            checkpoint=checkpoint, reply_cache=2,
        ))
        recovered.submit("alice", "open-account", {"aid": "a", "balance": 9},
                         rid="victim")
        recovered.drain()
        reply = _last_reply(recovered, "alice")
        assert reply["status"] == "ERROR" and "reply evicted" in reply["error"]
        assert recovered.bank.balance("a") == 9

    def test_recovered_reply_cache_preserves_eviction_order(self,
                                                            dec_params_toy):
        journal = Journal()
        service = _service(dec_params_toy, reply_cache=3, journal=journal)
        _flood(service, 3)
        checkpoint = service.checkpoint()
        recovered = MarketService.recover(
            service.bank.params, service.bank.keypair, journal,
            checkpoint=checkpoint, reply_cache=3,
        )
        assert list(recovered._replies) == list(service._replies)
        # the next completion evicts the *oldest* pre-crash entry
        recovered.submit("ops", "open-account", {"aid": "post", "balance": 1},
                         rid="post")
        recovered.drain()
        assert "flood:0" not in recovered._replies
        assert "flood:1" in recovered._replies

    def test_sealed_runs_round_trip_the_shipped_form(self, dec_params_toy,
                                                     monkeypatch):
        """Runs + skip + tail survive a stored checkpoint and rebuild the
        same cache."""
        monkeypatch.setattr(journal_mod, "RUN_ENTRIES", 4)
        journal = Journal()
        service = _service(dec_params_toy, reply_cache=6, journal=journal)
        _flood(service, 17)
        checkpoint = service.checkpoint()
        # 11 evicted: two whole reply runs gone, three entries into the
        # third; tombstones sealed two runs and hold a tail of three
        assert len(checkpoint.replies.sealed) == 2
        assert checkpoint.replies.skip == 3 and len(checkpoint.replies.tail) == 1
        assert len(checkpoint.evicted.sealed) == 2
        assert [rid for rid, _s, _b in checkpoint.replies] \
            == list(service._replies)
        assert list(checkpoint.evicted) == list(service._evicted)
        journal.write_checkpoint(checkpoint)
        shipped = journal.load_checkpoint()
        assert shipped == checkpoint
        recovered = _watched(MarketService.recover(
            service.bank.params, service.bank.keypair, journal,
            checkpoint=shipped, reply_cache=6,
        ))
        assert dict(recovered._replies) == dict(service._replies)
        assert list(recovered._replies) == list(service._replies)
        # the checkpoint's tombstones come first, in order (replaying the
        # uncompacted log's old reply records buries a few rids more, as
        # it always did)
        buried = list(recovered._evicted)
        assert buried[:len(service._evicted)] == list(service._evicted)
        # the rebuilt logs describe the rebuilt cache, entry for entry
        again = recovered.checkpoint()
        assert list(again.replies) == list(checkpoint.replies)
        assert list(again.evicted) == buried
        recovered.submit("ops", "open-account", {"aid": "flood0", "balance": 0},
                         rid="flood:0")
        reply = _last_reply(recovered, "ops")
        assert reply["status"] == "ERROR" and "reply evicted" in reply["error"]
        assert recovered.tombstone_hits == 1
        assert _apply_count(journal, "flood:0") == 1

    def test_tombstone_bound_rotates_sealed_runs_out(self, dec_params_toy,
                                                     monkeypatch):
        monkeypatch.setattr(journal_mod, "RUN_ENTRIES", 2)
        service = _service(dec_params_toy, reply_cache=1)
        _flood(service, 12)  # 11 evictions through a tombstone bound of 4
        checkpoint = service.checkpoint()
        assert list(checkpoint.evicted) == list(service._evicted)
        assert len(service._evicted) == 4
        assert [rid for rid, _s, _b in checkpoint.replies] == ["flood:11"]
