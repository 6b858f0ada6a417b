"""Socket-vs-in-process conformance: the front door adds nothing to a verdict.

:class:`~repro.service.frontend.ServiceFrontend` claims to be a framing
shim: a request stream carried over its sockets must produce
byte-identical replies (minus the wire's ``cid``), identical journal
records, identical service counters and identical invariant-sweep
verdicts to the same stream handed to
:meth:`MarketService.submit <repro.service.server.MarketService.submit>`
/ ``drain`` by method call.

This suite proves it the hard way: twin stacks (same seeds, same
funding, same batcher) are driven in lockstep — one over a real
loopback socket, one in-process — with the *same* fault-perturbed
delivery schedule (drops, duplicates, reorders from
:class:`~repro.testing.faults.FaultPlan` — crash machinery excluded:
the process stays up, the door is the subject), and every observable
artifact of the two runs is compared with canonical encoding.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field

import pytest

import repro.obs as obs
from repro.crypto.cl_sig import cl_keygen
from repro.net.codec import encode
from repro.service import (
    MarketService,
    ServiceClient,
    ServiceFrontend,
    ShardedBank,
    VerificationBatcher,
)
from repro.service.journal import Journal
from repro.testing.faults import FaultPlan
from repro.testing.invariants import check_recovery_invariants
from repro.testing.scenario import build_deposit_kit

FAULT_SEEDS = [3, 11, 29]

# one kit per module: minting spend tokens is the expensive part and
# both stacks of every seed replay the same pristine request sequence
_KIT_CACHE: dict[int, object] = {}


def _kit(dec_params_toy):
    if "kit" not in _KIT_CACHE:
        rng = random.Random(0xC0F0)
        keypair = cl_keygen(dec_params_toy.backend, rng)
        _KIT_CACHE["kit"] = build_deposit_kit(
            rng, params=dec_params_toy, keypair=keypair,
            n_accounts=3, n_deposits=6, double_spends=2,
        )
    return _KIT_CACHE["kit"]


@dataclass
class RunArtifacts:
    """Everything one run left behind, ready to diff."""

    replies: list = field(default_factory=list)
    journal_states: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    door: dict = field(default_factory=dict)
    findings: tuple = ()


class _Socket:
    """Drive a service through a live front door, one request at a time."""

    def __init__(self, service: MarketService) -> None:
        self.telemetry = obs.Telemetry.enabled()
        self.front = ServiceFrontend(service, telemetry=self.telemetry).start()
        self.client = ServiceClient(self.front.address, timeout=60.0)

    def request(self, kind, payload, *, sender, rid=None) -> dict:
        reply = self.client.request(kind, payload, sender=sender, rid=rid)
        del reply["cid"]  # the wire's correlation id: the door's only addition
        return reply

    def close(self) -> dict:
        self.client.close()
        self.front.close()  # joins the dispatcher: counters are final below
        counters = {
            m["name"]: m["value"]
            for m in self.telemetry.registry.snapshot()["counters"]
            if not m["labels"] and m["name"].startswith("repro_frontend_")
        }
        return {"served": self.front.served,
                "conn_errors": self.front.conn_errors, **counters}


class _InProcess:
    """The same calls the dispatcher makes, with no door in between."""

    def __init__(self, service: MarketService) -> None:
        self.service = service
        self._replies: list[dict] = []
        service.add_reply_observer(
            lambda sender, reply: self._replies.append(reply))

    def request(self, kind, payload, *, sender, rid=None) -> dict:
        self.service.submit(sender, kind, payload, now=0.0, rid=rid)
        self.service.drain()
        (reply,) = self._replies
        self._replies.clear()
        return reply

    def close(self) -> dict:
        return {}


def _run_stack(gateway_cls, kit, service_backend, schedule, dropped) -> RunArtifacts:
    """Build one fresh stack, replay *schedule* through *gateway_cls*,
    tear down, and return the observables.

    Seeds mirror :func:`repro.testing.scenario.run_deposit_scenario`
    exactly, so the two stacks differ in nothing but the door.
    """
    journal = Journal()
    bank = ShardedBank(kit.params, kit.keypair, random.Random(1),
                       n_shards=3, journal=journal)
    for aid, balance, coins in kit.funding:
        bank.open_account(aid, balance)
        for _ in range(coins):
            bank.apply_withdrawal(aid)
    batcher = VerificationBatcher(kit.params, kit.keypair, max_batch=4,
                                  seed=7, backend=service_backend)
    service = MarketService(bank, batcher=batcher, rng=random.Random(2))
    artifacts = RunArtifacts()
    gateway = gateway_cls(service)
    try:
        # lockstep: one outstanding request at a time, so the service
        # sees the identical arrival order in both runs
        for delivery in schedule:
            request = kit.requests[delivery.original]
            artifacts.replies.append(gateway.request(
                "deposit",
                {"aid": request.aid, "token": kit.tokens[request.token_index]},
                sender=request.aid, rid=request.rid,
            ))
        # a deterministic tail: the audit and every balance are part
        # of the conformance surface too
        artifacts.replies.append(gateway.request("audit", {}, sender="auditor"))
        for aid, _balance, _coins in kit.funding:
            artifacts.replies.append(
                gateway.request("balance", {"aid": aid}, sender=aid))
    finally:
        artifacts.door = gateway.close()
    artifacts.journal_states = [r.to_state() for r in journal.records()]
    artifacts.counters = {
        "completions": service.completions,
        "dedup_hits": service.dedup_hits,
        "shed": service.shed,
        "queue_depth": service.queue_depth,
        "dropped": len(dropped),
    }
    artifacts.findings = check_recovery_invariants(bank, journal).findings
    return artifacts


def _stray_frontend_threads() -> list[threading.Thread]:
    """Frontend threads still alive, after a short settle: close()
    joins with bounded timeouts, so a thread may be observably alive
    for an instant after close returns without being leaked."""
    import time

    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        stray = [t for t in threading.enumerate()
                 if t.name.startswith("frontend-") and t.is_alive()]
        if not stray:
            return []
        time.sleep(0.01)
    return stray


@pytest.mark.parametrize("seed", FAULT_SEEDS)
class TestConformance:
    """One fault seed, door vs no door, byte-identical everything."""

    # twin runs are expensive (real sockets, real verification); each
    # seed's pair is built once and diffed by all three tests
    _RUNS: dict[int, tuple] = {}

    def _artifacts(self, seed, dec_params_toy, service_backend):
        if seed not in self._RUNS:
            kit = _kit(dec_params_toy)
            schedule, dropped = FaultPlan.from_seed(seed).perturb(
                len(kit.requests))
            wire = _run_stack(_Socket, kit, service_backend,
                              schedule, dropped)
            direct = _run_stack(_InProcess, kit, service_backend,
                                schedule, dropped)
            assert not _stray_frontend_threads()
            self._RUNS[seed] = (schedule, wire, direct)
        return self._RUNS[seed]

    def test_reply_streams_byte_identical(self, seed, dec_params_toy,
                                          service_backend):
        schedule, wire, direct = self._artifacts(
            seed, dec_params_toy, service_backend)
        assert len(wire.replies) == len(direct.replies)
        for i, (a, b) in enumerate(zip(wire.replies, direct.replies)):
            assert encode(a) == encode(b), (
                f"seed {seed}: reply {i} diverges:\n  socket={a}\n  in-process={b}"
            )
        # the schedule itself was exercised: duplicates answered via the
        # rid cache, the rest by real verification
        duplicates = sum(1 for d in schedule if d.duplicate)
        assert wire.counters["dedup_hits"] >= duplicates

    def test_journals_and_invariants_identical(self, seed, dec_params_toy,
                                               service_backend):
        _schedule, wire, direct = self._artifacts(
            seed, dec_params_toy, service_backend)
        assert encode(wire.journal_states) == encode(direct.journal_states), (
            f"seed {seed}: journals diverge "
            f"({len(wire.journal_states)} vs {len(direct.journal_states)} records)"
        )
        assert wire.findings == direct.findings == ()

    def test_counters_identical(self, seed, dec_params_toy, service_backend):
        _schedule, wire, direct = self._artifacts(
            seed, dec_params_toy, service_backend)
        assert wire.counters == direct.counters
        # the door's own books: every frame in was answered, no
        # connection errors, nothing shed pre-parse
        n = len(wire.replies)
        assert wire.door == {
            "served": n,
            "conn_errors": 0,
            "repro_frontend_frames_total": n,
            "repro_frontend_conn_errors_total": 0,
            "repro_frontend_preparse_busy_total": 0,
        }
