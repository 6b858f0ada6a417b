"""The TCP front-end: the market service as an actual network peer.

Everything the in-process server suite guarantees — per-sender FIFO,
exactly-once by rid, BUSY shedding, batched verification — must
survive the wire.  These tests drive a live :class:`ServiceFrontend`
through real loopback sockets via :class:`ServiceClient` and the raw
wire helpers.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.ecash.dec import begin_withdrawal
from repro.service import (
    AdmissionController,
    MarketService,
    ServiceClient,
    ServiceFrontend,
    ShardedBank,
    SocketGateway,
    VerificationBatcher,
    run_trace,
)
from repro.service.loadgen import Request


def _stray_frontend_threads() -> list[threading.Thread]:
    """Front-door loop/dispatcher threads still alive (should be none
    after close — the thread-leak regression guard)."""
    return [t for t in threading.enumerate()
            if t.name.startswith("frontend-") and t.is_alive()]


def _assert_no_stray_threads(timeout: float = 5.0) -> None:
    """Poll before asserting: close() joins each thread with a bounded
    timeout, so a thread can be observably alive for an instant after
    close returns without being leaked."""
    deadline = time.monotonic() + timeout
    while _stray_frontend_threads() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not _stray_frontend_threads(), \
        "frontend.close() left threads running"


@pytest.fixture()
def frontend(service):
    front = ServiceFrontend(service).start()
    yield front
    front.close()
    _assert_no_stray_threads()


@pytest.fixture()
def client(frontend):
    with ServiceClient(frontend.address, sender="alice", timeout=30.0) as c:
        yield c


def _funded_deposits(service, n=4):
    from tests.service.conftest import mint_tokens

    return mint_tokens(service, random.Random(0xF00D), n, node_level=1)


class TestRequestKinds:
    def test_open_account_and_balance(self, client):
        opened = client.request("open-account",
                                {"aid": "alice", "balance": 40})
        assert opened["status"] == "OK"
        balance = client.request("balance", {"aid": "alice"})
        assert balance["status"] == "OK"
        assert balance["balance"] == 40

    def test_deposit_over_socket_credits_account(self, frontend, client):
        deposit = _funded_deposits(frontend.service, 1)[0]
        before = client.request("balance",
                                {"aid": deposit.payload["aid"]})["balance"]
        reply = client.request(deposit.kind, deposit.payload,
                               sender=deposit.sender)
        assert reply["status"] == "OK"
        assert reply["amount"] >= 1
        after = client.request("balance",
                               {"aid": deposit.payload["aid"]})["balance"]
        assert after == before + reply["amount"]

    def test_withdraw_over_socket(self, frontend, client):
        service = frontend.service
        client.request("open-account", {"aid": "alice", "balance": 64})
        _, issuance = begin_withdrawal(service.bank.params, random.Random(9))
        reply = client.request(
            "withdraw", {"aid": "alice", "request": issuance})
        assert reply["status"] == "OK"
        assert "signature" in reply

    def test_audit_over_socket(self, client):
        reply = client.request("audit", {})
        assert reply["status"] == "OK"
        assert reply["clean"] is True

    def test_double_spend_rejected_over_socket(self, frontend, client):
        deposit = _funded_deposits(frontend.service, 1)[0]
        first = client.request(deposit.kind, deposit.payload,
                               sender=deposit.sender)
        replay = client.request(deposit.kind, dict(deposit.payload),
                                sender="mallory")
        assert first["status"] == "OK"
        assert replay["status"] == "REJECTED"

    def test_unknown_kind_is_a_service_error(self, client):
        reply = client.request("frobnicate", {})
        assert reply["status"] == "ERROR"


class TestExactlyOnce:
    def test_rid_dedup_over_socket(self, frontend, client):
        """The same rid twice gets the cached verdict, applied once."""
        deposit = _funded_deposits(frontend.service, 1)[0]
        rid = "socket:dedup:1"
        first = client.request(deposit.kind, deposit.payload,
                               sender=deposit.sender, rid=rid)
        again = client.request(deposit.kind, deposit.payload,
                               sender=deposit.sender, rid=rid)
        assert first["status"] == "OK"
        assert again["status"] == "OK"
        # the cached verdict verbatim (new seq, same body), no re-apply
        strip = lambda reply: {k: v for k, v in reply.items()
                               if k not in ("cid", "req")}
        assert strip(again) == strip(first)
        assert frontend.service.dedup_hits == 1
        balance = client.request("balance", {"aid": deposit.payload["aid"]})
        assert balance["balance"] == first["amount"], "applied exactly once"

    def test_distinct_rids_apply_twice(self, frontend, client):
        client.request("open-account", {"aid": "alice", "balance": 1},
                       rid="open:1")
        reply = client.request("open-account", {"aid": "alice", "balance": 1},
                               rid="open:2")
        assert reply["status"] == "ERROR"  # second open is a real attempt


class TestFrontendRejections:
    def test_malformed_request_gets_error_frame(self, frontend):
        from repro.net.wire import read_frame, write_frame
        import socket

        with socket.create_connection(frontend.address, timeout=10) as sock:
            write_frame(sock, ["not", "a", "dict"])
            reply = read_frame(sock)
            assert reply["status"] == "ERROR"
            assert "kind" in reply["error"]
            # the connection survives a malformed request
            write_frame(sock, {"cid": 7, "kind": "audit", "payload": {}})
            reply = read_frame(sock)
            assert reply["cid"] == 7 and reply["status"] == "OK"

    def test_malformed_payload_gets_error_frame(self, client):
        cid = client.send("deposit", {"aid": "alice"})  # no token
        reply = client.recv()
        assert reply["cid"] == cid
        assert reply["status"] == "ERROR"

    def test_an_ill_typed_field_is_refused_and_the_door_stays_up(
            self, frontend, client):
        """An integer account id used to reach the bank and kill the
        dispatcher thread: every later request on every connection then
        timed out."""
        reply = client.request("balance", {"aid": 5})
        assert reply["status"] == "ERROR" and "'aid'" in reply["error"]
        assert client.request("audit", {})["status"] == "OK"
        with ServiceClient(frontend.address, timeout=30.0) as second:
            assert second.request("audit", {})["status"] == "OK"

    def test_blocking_request_returns_a_cidless_busy(self, dec_params_toy,
                                                     service_backend):
        """The pre-parse ``BUSY`` carries no cid; ``request()`` must hand
        it to its one outstanding caller, not wait out the socket
        timeout for a cid that will never come."""
        bank = ShardedBank.create(dec_params_toy, random.Random(3), n_shards=2)
        batcher = VerificationBatcher(bank.params, bank.keypair, max_batch=4,
                                      seed=1, backend=service_backend,
                                      warm_tables=False)
        service = MarketService(
            bank, batcher=batcher, rng=random.Random(5),
            admission=AdmissionController(max_queue_depth=1),
        )
        front = ServiceFrontend(service).start()
        gate = threading.Event()
        parked = threading.Event()
        front.add_after_batch(lambda: (parked.set(), gate.wait(timeout=60)))
        try:
            with ServiceClient(front.address, timeout=30.0) as starter, \
                    ServiceClient(front.address, timeout=30.0) as filler, \
                    ServiceClient(front.address, timeout=30.0) as caller:
                assert starter.request("audit", {})["status"] == "OK"
                assert parked.wait(timeout=10)
                # dispatcher parked: one queued frame reaches the bound
                filler.send("audit", {})
                deadline = time.monotonic() + 10.0
                while front.core.backlog < 1 and time.monotonic() < deadline:
                    time.sleep(0.005)
                began = time.monotonic()
                reply = caller.request("audit", {})
                assert time.monotonic() - began < 1.0
                assert reply["status"] == "BUSY" and "cid" not in reply
                # the retrying form sees the shed too: it backs off,
                # retries, and returns the last BUSY instead of hanging
                retried = caller.call("audit", {}, retry_busy=True,
                                      attempts=2, backoff=0.01)
                assert retried["status"] == "BUSY"
        finally:
            gate.set()
            front.close()


class TestConcurrentClients:
    def test_interleaved_clients_all_served(self, frontend):
        deposits = _funded_deposits(frontend.service, 6)
        replies: dict[str, list] = {}
        errors: list[Exception] = []

        def drive(name: str, requests: list[Request]) -> None:
            try:
                with ServiceClient(frontend.address, sender=name,
                                   timeout=60.0) as c:
                    out = []
                    for request in requests:
                        out.append(c.request(request.kind, request.payload,
                                             sender=request.sender))
                    replies[name] = out
            except Exception as exc:  # surfaced below
                errors.append(exc)

        half = len(deposits) // 2
        threads = [
            threading.Thread(target=drive, args=(f"client{i}", chunk))
            for i, chunk in enumerate((deposits[:half], deposits[half:]))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        statuses = [reply["status"]
                    for out in replies.values() for reply in out]
        assert statuses == ["OK"] * len(deposits)
        # the dispatcher bumps `served` just *after* the send that
        # unblocks the client, so give the counter a moment to land
        deadline = time.monotonic() + 10.0
        while frontend.served < len(deposits) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert frontend.served == len(deposits)

    def test_socket_loadgen_round_trip(self, frontend):
        """`run_trace` over a `SocketGateway` — the loadgen driving the
        service as a network peer — completes a mixed trace with zero
        losses."""
        service = frontend.service
        requests = _funded_deposits(service, 4)
        requests.append(Request(sender="probe", kind="audit", payload={}))
        gateway = SocketGateway(frontend.address, connections=1,
                                pipeline_depth=4)
        report = run_trace(gateway, requests)
        assert report.completed == len(requests)
        assert report.ok == len(requests)
        assert report.errors == 0 and report.shed == 0
        assert report.latency is not None


class TestLifecycle:
    def test_close_is_idempotent(self, service):
        front = ServiceFrontend(service).start()
        front.close()
        front.close()

    def test_prompt_close_after_start_stops_the_loop(self, service):
        """``close()`` landing the instant ``start()`` returns must still
        stop the event loop: the historical leak ran the loop twice
        (listen, then serve), so a stop that hit the first run was lost,
        ``close()`` sat out its 5 s join and the loop thread lived on."""
        slowest = 0.0
        for _ in range(40):
            front = ServiceFrontend(service).start()
            began = time.monotonic()
            front.close()
            slowest = max(slowest, time.monotonic() - began)
        assert slowest < 1.0
        assert not _stray_frontend_threads()

    def test_abrupt_disconnect_during_shutdown_leaks_no_threads(self, service):
        """No thread outlives close even when clients vanish abruptly
        while others stay connected."""
        front = ServiceFrontend(service).start()
        clients = [ServiceClient(front.address, timeout=10.0)
                   for _ in range(4)]
        for i, c in enumerate(clients):
            assert c.request("audit", {}, rid=f"shutdown:{i}")["status"] == "OK"
        # abrupt: half the clients drop without a goodbye; the rest
        # stay connected
        for c in clients[:2]:
            c.sock.close()
        front.close()
        _assert_no_stray_threads()
        for c in clients[2:]:
            c.close()

    def test_context_manager(self, service):
        with ServiceFrontend(service) as front:
            with ServiceClient(front.address) as c:
                assert c.request("audit", {})["status"] == "OK"

    def test_close_tears_down_live_connections(self, service):
        front = ServiceFrontend(service).start()
        c = ServiceClient(front.address, timeout=10.0)
        assert c.request("audit", {})["status"] == "OK"
        front.close()
        # the server side of the live connection is gone: the next read
        # sees EOF (WireError from recv), never a hang
        from repro.net.wire import WireError

        c.sock.settimeout(10)
        with pytest.raises((WireError, OSError)):
            c.send("audit", {})
            c.recv()
        c.close()

    def test_frontend_metrics_flow(self, service):
        import repro.obs as obs

        telemetry = obs.Telemetry.enabled()
        with ServiceFrontend(service, telemetry=telemetry) as front:
            with ServiceClient(front.address) as c:
                c.request("audit", {})
        counters = {m["name"]: m["value"]
                    for m in telemetry.registry.snapshot()["counters"]
                    if not m["labels"]}
        assert counters["repro_frontend_frames_total"] >= 1
        assert counters["repro_frontend_conn_errors_total"] == 0
