"""Replies are delivered, not eavesdropped — and nothing is kept per request.

:class:`~repro.service.server.MarketService` used to push every request
and reply through a simulated :class:`~repro.net.transport.Transport`
whose log kept every envelope ever sent; the door learned the answers
by watching that log's observers.  These tests hold what replaced it:
the reply-observer contract (every answer kind, exactly once, after the
verdict is durable, never aliasing the cache), per-sender state that is
released, and a footprint that does not depend on how many requests
have been served.
"""

from __future__ import annotations

import random
import time
from collections import deque

import pytest

from repro.net.codec import encode
from repro.service import (
    AdmissionController,
    Journal,
    MarketService,
    ServiceClient,
    ServiceFrontend,
    ShardedBank,
    VerificationBatcher,
)
from repro.testing.faults import CrashPoint

from tests.service.conftest import mint_tokens


def _stack(dec_params_toy, service_backend, **service_kwargs):
    journal = Journal()
    bank = ShardedBank.create(dec_params_toy, random.Random(3),
                              journal=journal)
    batcher = VerificationBatcher(bank.params, bank.keypair, max_batch=8,
                                  seed=1, backend=service_backend)
    service = MarketService(bank, batcher=batcher, rng=random.Random(5),
                            **service_kwargs)
    return service, journal


def _body(reply: dict) -> bytes:
    """A reply's canonical bytes, minus the per-submission ``req``."""
    return encode({k: v for k, v in reply.items() if k != "req"})


class TestDeliveryContract:
    def test_every_answer_kind_is_delivered_exactly_once(
            self, dec_params_toy, service_backend, rng):
        service, _journal = _stack(
            dec_params_toy, service_backend, reply_cache=2,
            admission=AdmissionController(max_queue_depth=1))
        first, second = mint_tokens(service, rng, 2)
        delivered: list[tuple[str, dict]] = []
        service.add_reply_observer(
            lambda sender, reply: delivered.append((sender, reply)))

        def answers(seq: int, sender: str, status: str) -> dict:
            """The single delivery since the last call, checked."""
            assert len(delivered) == 1, delivered
            to, reply = delivered.pop()
            assert to == sender
            assert reply["req"] == seq and reply["status"] == status
            return reply

        # accepted and queued: nothing to deliver yet; its in-flight
        # duplicate is dropped (the original will answer for both)
        seq = service.submit(first.sender, "deposit", first.payload, rid="d0")
        service.submit(first.sender, "deposit", first.payload, rid="d0")
        assert delivered == []
        # admission BUSY: delivered from inside submit()
        shed = service.submit(second.sender, "deposit", second.payload,
                              rid="d1")
        assert answers(shed, second.sender, "BUSY")["reason"] == "queue"
        service.drain()
        amount = answers(seq, first.sender, "OK")["amount"]
        # cached verdict re-sent to a retry: same body, the retry's seq
        retry = service.submit(first.sender, "deposit", first.payload,
                               rid="d0")
        assert answers(retry, first.sender, "OK")["amount"] == amount
        # REJECTED (double spend under a fresh rid) carries the evidence
        seq = service.submit(first.sender, "deposit", first.payload,
                             rid="d0-again")
        service.drain()
        assert "evidence" in answers(seq, first.sender, "REJECTED")
        # ERROR
        seq = service.submit("ops", "open-account",
                             {"aid": first.sender, "balance": 1},
                             rid="dup-open")
        service.drain()
        assert "already exists" in answers(seq, "ops", "ERROR")["error"]
        # two completions since rotated "d0" out of the cache of 2: the
        # stale retry is answered by its tombstone
        seq = service.submit(first.sender, "deposit", first.payload, rid="d0")
        assert "reply evicted" in answers(seq, first.sender, "ERROR")["error"]
        service.drain()
        assert delivered == [] and service.queue_depth == 0

    def test_an_observer_that_dies_loses_the_delivery_not_the_verdict(
            self, dec_params_toy, service_backend):
        """The write-ahead order, stated directly: journal, cache, deliver."""
        service, journal = _stack(dec_params_toy, service_backend)

        def dies(sender, reply):
            raise CrashPoint(0)

        service.add_reply_observer(dies)
        service.submit("alice", "open-account", {"aid": "a", "balance": 9},
                       rid="open")
        with pytest.raises(CrashPoint):
            service.drain()
        # the apply record is the OK verdict: nothing more is written
        assert [r.kind for r in journal.records() if r.rid == "open"] \
            == ["accept", "apply"]
        recovered = MarketService.recover(
            service.bank.params, service.bank.keypair, journal)
        delivered: list[dict] = []
        recovered.add_reply_observer(
            lambda sender, reply: delivered.append(reply))
        recovered.submit("alice", "open-account", {"aid": "a", "balance": 9},
                         rid="open")
        assert recovered.dedup_hits == 1 and recovered.queue_depth == 0
        (reply,) = delivered
        assert reply["status"] == "OK" and reply["balance"] == 9
        assert sum(1 for r in journal.records()
                   if r.kind == "apply" and r.rid == "open") == 1

    def test_a_delivered_reply_does_not_alias_the_cached_verdict(
            self, dec_params_toy, service_backend, rng):
        service, _journal = _stack(dec_params_toy, service_backend)
        (request,) = mint_tokens(service, rng, 1)
        delivered: list[dict] = []
        service.add_reply_observer(
            lambda sender, reply: delivered.append(reply))
        service.submit(request.sender, "deposit", request.payload, rid="dep")
        service.drain()
        original = _body(delivered[0])
        delivered[0]["status"] = "REJECTED"
        delivered[0]["amount"] = 10 ** 9
        del delivered[0]["req"]
        service.submit(request.sender, "deposit", request.payload, rid="dep")
        assert _body(delivered[1]) == original


class TestSenderStateIsReleased:
    def test_an_unhashable_sender_is_refused_before_any_state_exists(
            self, dec_params_toy, service_backend):
        """Queues are keyed by sender; the accept record must not outlive
        a request that can never be queued."""
        service, journal = _stack(dec_params_toy, service_backend)
        delivered: list[dict] = []
        service.add_reply_observer(
            lambda sender, reply: delivered.append(reply))
        seq = service.submit(["mallory"], "open-account",
                             {"aid": "m", "balance": 1}, rid="bad-sender")
        (reply,) = delivered
        assert reply["req"] == seq and reply["status"] == "ERROR"
        assert "sender" in reply["error"]
        assert journal.last_lsn == -1 and not service._accepted
        assert service.reply_for("bad-sender") is None
        with ServiceFrontend(service) as front, \
                ServiceClient(front.address, timeout=30.0) as client:
            reply = client.request("open-account", {"aid": "m", "balance": 1},
                                   sender=["mallory"], rid="bad-sender")
            assert reply["status"] == "ERROR" and "sender" in reply["error"]
            retry = client.request("open-account", {"aid": "m", "balance": 1},
                                   sender="mallory", rid="bad-sender")
            assert retry["status"] == "OK"

    def test_one_shot_senders_leave_nothing_behind(self, dec_params_toy,
                                                   service_backend):
        """5,000 senders seen once each: no per-sender entry survives and
        the apply scan does not slow down with the senders ever seen."""
        service, _journal = _stack(dec_params_toy, service_backend)
        service.submit("ops", "open-account", {"aid": "a", "balance": 1})
        service.drain()
        chunks: list[float] = []  # wall time per 100 requests
        for chunk in range(50):
            began = time.perf_counter()
            for i in range(chunk * 100, chunk * 100 + 100):
                service.submit(f"one-shot-{i}", "balance", {"aid": "a"})
                service.drain()
            chunks.append(time.perf_counter() - began)
        assert len(service._queues) == 0 and service.queue_depth == 0
        assert service.completions == 5001
        # best chunk of each window: scheduling noise only ever adds time
        assert min(chunks[-5:]) <= 2 * min(chunks[:5]), chunks

    def test_fifo_per_sender_and_first_seen_order_among_live_senders(
            self, dec_params_toy, service_backend):
        service, _journal = _stack(dec_params_toy, service_backend)
        order: list[tuple[str, int]] = []
        service.add_reply_observer(
            lambda sender, reply: order.append((sender, reply["req"])))
        service.submit("ops", "open-account", {"aid": "a", "balance": 1})
        service.drain()
        order.clear()
        # "early" is seen, answered and released; when it re-appears it
        # queues behind the senders that are live by then
        service.submit("early", "balance", {"aid": "a"})
        service.drain()
        seqs = [service.submit(sender, "balance", {"aid": "a"})
                for sender in ("late", "early", "late", "early")]
        service.drain()
        assert order[1:] == [("late", seqs[0]), ("late", seqs[2]),
                             ("early", seqs[1]), ("early", seqs[3])]


def _containers(root):
    """``(path, container)`` for every builtin container held as an
    attribute of *root* or of any ``repro`` object reachable from it
    through attributes."""
    seen: set[int] = set()
    stack = [(type(root).__name__, root)]
    while stack:
        path, obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        for name, value in vars(obj).items():
            if isinstance(value, (list, dict, deque, set, frozenset)):
                yield f"{path}.{name}", value
            elif type(value).__module__.startswith("repro.") \
                    and hasattr(value, "__dict__"):
                stack.append((f"{path}.{name}", value))


class TestHistoryIndependentFootprint:
    def test_five_thousand_reads_leave_no_container_behind(
            self, dec_params_toy, service_backend):
        """Whatever the stack holds after 5,000 non-mutating requests over
        one socket is bounded by a small constant — no envelope log, no
        per-request or per-sender residue anywhere under the door."""
        service, journal = _stack(dec_params_toy, service_backend)
        window = 25
        with ServiceFrontend(service) as front, \
                ServiceClient(front.address, timeout=60.0) as client:
            opened = client.request("open-account", {"aid": "a", "balance": 7})
            assert opened["status"] == "OK"
            for _ in range(5000 // window):
                for _ in range(window):
                    client.send("balance", {"aid": "a"})
                for _ in range(window):
                    assert client.recv()["status"] == "OK"
            assert service.completions == 5001
            held = list(_containers(front))
        # the walk reached the places a residue could hide
        reached = {id(container) for _path, container in held}
        for expected in (service._queues, service._replies, service.failures,
                         service._accepted, service.admission._m_shed,
                         service.batcher._pending,
                         front.core._route, front.core._reply_box):
            assert id(expected) in reached
        assert journal.last_lsn == 1  # the one open-account, nothing else
        assert {path: len(container) for path, container in held
                if len(container) > 64} == {}

    def test_failures_keep_only_the_most_recent(self, dec_params_toy,
                                                service_backend):
        """A client replaying bad requests does not own the server's memory."""
        service, _journal = _stack(dec_params_toy, service_backend)
        bound = service.failures.maxlen
        for i in range(bound + 10):
            service.submit("mallory", "balance", {"aid": f"ghost{i}"})
        service.drain()
        assert len(service.failures) == bound
        assert service.failures[0].seq == 10
        assert f"ghost{bound + 9}" in service.failures[-1].error
