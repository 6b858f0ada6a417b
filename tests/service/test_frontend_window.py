"""The front door's window and backpressure: many sockets, one service.

Behavioral guarantees of :class:`~repro.service.frontend
.ServiceFrontend` beyond what the conformance suite proves
byte-for-byte: a flooding client is paused and bounded while a polite
one keeps its share, a paused connection resumes once its window
drains, forced overload answers ``BUSY`` before the payload is ever
parsed, and a mid-frame disconnect at every offset leaves the
dispatcher clean.  Request kinds and lifecycle, at the default window
and at a window of one, are ``test_frontend.py``'s.
"""

from __future__ import annotations

import random
import socket
import threading
import time

import pytest

from repro.net.wire import encode_frame, read_frame, write_frame
from repro.service import (
    AdmissionController,
    MarketService,
    ServiceClient,
    ServiceFrontend,
    ShardedBank,
    VerificationBatcher,
)


def _settle(predicate, timeout: float = 10.0) -> bool:
    """Poll *predicate* until true or *timeout* (event-loop handoffs
    land a beat after the client-visible reply)."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)
    return True


@pytest.fixture()
def frontend(service):
    """The tightest window: every pipelined request past the first
    parks in the connection's backlog and pauses its reads."""
    front = ServiceFrontend(service, window=1).start()
    yield front
    front.close()
    # close() joins with bounded timeouts; a thread may be observably
    # alive for an instant after close returns without being leaked
    assert _settle(lambda: not [
        t for t in threading.enumerate()
        if t.name.startswith("frontend-") and t.is_alive()
    ], timeout=5.0), "frontend close() left threads running"


class TestBackpressure:
    """A stalled dispatcher exposes the window mechanics deterministically."""

    WINDOW = 2

    @pytest.fixture()
    def stalled(self, service):
        """Frontend whose dispatcher is parked in after_batch."""
        front = ServiceFrontend(service, window=self.WINDOW).start()
        gate = threading.Event()
        stalled = threading.Event()

        def stall() -> None:
            stalled.set()
            gate.wait(timeout=60)

        front.add_after_batch(stall)
        yield front, gate, stalled
        gate.set()
        front.close()

    def test_flooder_is_paused_and_bounded_polite_client_admitted(self, stalled):
        front, gate, stalled_ev = stalled
        n_flood = 40
        # park the dispatcher: one served request, then after_batch waits
        starter = ServiceClient(front.address, timeout=30.0)
        assert starter.request("audit", {})["status"] == "OK"
        assert stalled_ev.wait(timeout=10)

        flooder = socket.create_connection(front.address, timeout=30)
        flood = b"".join(
            encode_frame({"cid": i, "kind": "audit", "payload": {}})
            for i in range(n_flood)
        )
        flooder.sendall(flood)

        # the flooder is read-paused with only `window` slots admitted;
        # everything else waits in *its* backlog, not the shared queue
        assert _settle(lambda: front.paused_connections == 1)
        assert front.pauses >= 1
        assert front.core.backlog <= self.WINDOW + 1

        # a polite client still gets its request admitted immediately
        polite = ServiceClient(front.address, timeout=30.0)
        polite_cid = polite.send("audit", {})
        assert _settle(lambda: front.core.backlog >= 1)
        assert front.core.backlog <= self.WINDOW + 2

        # release the dispatcher: everything drains, the flooder resumes
        gate.set()
        polite_reply = polite.recv()
        assert polite_reply["cid"] == polite_cid
        assert polite_reply["status"] == "OK"
        seen = set()
        for _ in range(n_flood):
            reply = read_frame(flooder)
            assert reply["status"] == "OK"
            seen.add(reply["cid"])
        assert seen == set(range(n_flood))
        assert _settle(lambda: front.paused_connections == 0)
        assert front.resumes >= 1
        for sock in (flooder, starter.sock, polite.sock):
            sock.close()

    def test_preparse_busy_under_forced_overload(self, dec_params_toy,
                                                 service_backend):
        """With the dispatcher stalled and a tight queue bound, frames
        are shed BUSY from the header alone — cid-less replies, zero
        decode work, dispatcher untouched."""
        bank = ShardedBank.create(dec_params_toy, random.Random(3), n_shards=2)
        batcher = VerificationBatcher(bank.params, bank.keypair, max_batch=4,
                                      seed=1, backend=service_backend)
        service = MarketService(
            bank, batcher=batcher, rng=random.Random(5),
            admission=AdmissionController(max_queue_depth=2),
        )
        front = ServiceFrontend(service, window=64).start()
        gate = threading.Event()
        stalled_ev = threading.Event()
        front.add_after_batch(
            lambda: (stalled_ev.set(), gate.wait(timeout=60)))
        try:
            starter = ServiceClient(front.address, timeout=30.0)
            assert starter.request("audit", {})["status"] == "OK"
            assert stalled_ev.wait(timeout=10)

            # dispatcher parked: enqueued frames pile into core.backlog
            # until it crosses max_queue_depth, then the shed starts
            with socket.create_connection(front.address, timeout=30) as sock:
                n = 10
                for i in range(n):
                    write_frame(sock, {"cid": i, "kind": "audit",
                                       "payload": {}})
                assert _settle(lambda: front.preparse_busy >= 1)
                gate.set()
                statuses, cidless = [], 0
                for _ in range(n):
                    reply = read_frame(sock)
                    statuses.append(reply["status"])
                    if "cid" not in reply:
                        cidless += 1
                        assert reply["status"] == "BUSY"
                        assert reply["reason"] == "overload"
            assert statuses.count("OK") + cidless == n
            assert cidless == front.preparse_busy >= 1
            # every admitted frame was answered by the dispatcher; shed
            # ones never reached it (+1 is the starter's request)
            assert _settle(
                lambda: front.served == statuses.count("OK") + 1)
            starter.close()
        finally:
            gate.set()
            front.close()


class TestDisconnects:
    def test_mid_frame_disconnect_at_every_offset(self, frontend):
        """A client dying at *any* byte offset inside a frame leaves
        nothing half-applied and the dispatcher serving the next
        client."""
        front = frontend
        before = front.service.completions
        torn = encode_frame({"cid": 0, "kind": "balance",
                             "payload": {"aid": "sp0"}})
        expected_errors = 0
        for offset in range(1, len(torn)):
            with socket.create_connection(front.address) as sock:
                sock.sendall(torn[:offset])
            expected_errors += 1
        # every torn connection is gone, every tear was counted, and
        # the torn half-frames never reached the service
        assert _settle(lambda: front.conn_errors == expected_errors)
        assert _settle(
            lambda: not front._conns), "torn connections not reaped"
        assert front.service.completions == before
        with ServiceClient(front.address) as c:
            reply = c.request("audit", {})
        assert reply["status"] == "OK" and reply["clean"] is True
        assert front.service.completions == before + 1

    def test_corrupt_frame_gets_error_and_close(self, frontend):
        front = frontend
        frame = bytearray(encode_frame({"cid": 9, "kind": "audit",
                                        "payload": {}}))
        frame[-1] ^= 0xFF
        with socket.create_connection(front.address, timeout=10) as sock:
            sock.sendall(bytes(frame))
            reply = read_frame(sock)
            assert reply is None or reply["status"] == "ERROR"
        assert front.service.completions == 0
        assert _settle(lambda: front.conn_errors >= 1)
