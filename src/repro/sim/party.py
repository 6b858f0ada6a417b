"""Party state machines for the campaign engine.

Every market resident — job owner, sensing participant, market
administrator, and their adversarial variants — is a :class:`Party`: a
dispatch-table state machine fed :class:`PartyEvent` objects by the
campaign's :class:`~repro.sim.events.EventQueue`.  The machine layer
is deliberately crypto-free: all protocol effects (account opening,
withdrawal, payment construction, deposits) go through a
:class:`PartyContext`, so the same parties run against the real
:class:`~repro.service.server.MarketService` in a campaign and against
:class:`RecordingContext`'s inert stubs in the hypothesis property
tests that fuzz event interleavings.

State-machine contract (what the property tests pin):

* ``crash`` moves any party to ``crashed``, from any state, always.
* Terminal states (``done``, ``aborted``, ``crashed``, ``silent``)
  absorb every further event.
* ``timeout`` mid-protocol aborts; before the lifecycle starts it is
  ignored.
* A malformed or mis-stated event is recorded as an anomaly, never an
  exception — Byzantine peers get to send garbage.
* Any other transition must be declared in the class's ``TRANSITIONS``
  table; an undeclared one raises :class:`IllegalTransition` (a bug in
  the party, not in the peer).

The PPMSdec parties drive the real actor classes from
:mod:`repro.core.ppms_dec` (so the campaign exercises the actual
Algorithm-1 crypto); the PPMSpbs parties likewise wrap
:mod:`repro.core.ppms_pbs`.  Adversaries compose :mod:`repro.attacks`:
the malicious MA runs the denomination attack over the deposit stream
it observed, ring parties spend the conflicting tokens minted by
:mod:`repro.attacks.rings`, replay SPs re-deposit spent tokens under
fresh request ids, omission SPs take the money and go silent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.attacks.denomination import DenominationAttackResult, run_denomination_attack
from repro.attacks.rings import InsufficientFunds
from repro.core.ppms_dec import JobOwnerDec, SensingParticipantDec
from repro.core.ppms_pbs import JobOwnerPbs, SensingParticipantPbs
from repro.metrics.opcount import OpCounter

__all__ = [
    "PartyEvent",
    "IllegalTransition",
    "Party",
    "PartyContext",
    "RecordingContext",
    "JobOwnerParty",
    "SensingParty",
    "OmissionSP",
    "ReplaySP",
    "RingLeader",
    "RingMember",
    "MAParty",
    "MaliciousMAParty",
    "PbsJobOwnerParty",
    "PbsSensingParty",
    "TERMINAL_STATES",
]

TERMINAL_STATES = frozenset({"done", "aborted", "crashed", "silent"})


@dataclass(frozen=True)
class PartyEvent:
    """One message delivered to a party by the event queue."""

    kind: str
    payload: Any = None


class IllegalTransition(Exception):
    """A party attempted a state change its table does not declare."""


# ---------------------------------------------------------------------------
# context protocol
# ---------------------------------------------------------------------------

class PartyContext:
    """What a party may ask of the world.

    The campaign engine implements this against the real market stack;
    :class:`RecordingContext` implements it with value-conserving stubs
    for property tests.  Parties hold no other handle to the outside.
    """

    #: payment tree level of the PPMSdec substrate (value of a coin is
    #: ``2 ** tree_level``); stubs use a small constant
    tree_level: int = 3

    #: OpCounter-shaped tally (``record(party, op, count=1)``)
    counter: Any = None

    @property
    def coin_value(self) -> int:
        return 1 << self.tree_level

    def rng_for(self, name: str) -> random.Random:
        raise NotImplementedError

    def send(self, to: str, kind: str, payload: Any = None, *,
             delay: float = 0.0) -> None:
        """Schedule delivery of an event to party *to*."""
        raise NotImplementedError

    # -- PPMSdec effects ---------------------------------------------------
    def open_account(self, party: "Party", balance: int) -> None:
        raise NotImplementedError

    def new_dec_jo(self, party: "Party") -> Any:
        """A :class:`JobOwnerDec`-shaped actor for *party*."""
        raise NotImplementedError

    def new_dec_sp(self, party: "Party") -> Any:
        raise NotImplementedError

    def dec_withdraw(self, party: "Party", actor: Any) -> None:
        """One blind withdrawal through the service (synchronous)."""
        raise NotImplementedError

    def dec_build_payment(self, party: "Party", actor: Any,
                          sp_pubkey: Any, payment: int) -> Any:
        raise NotImplementedError

    def dec_open_payment(self, party: "Party", actor: Any,
                         ciphertext: Any, jo_pubkey: Any) -> Any:
        """Decrypt + verify; returns a PaymentBundle-shaped object."""
        raise NotImplementedError

    def dec_deposit_change(self, party: "Party", actor: Any) -> int:
        raise NotImplementedError

    def deposit_async(self, party: "Party", rid: str, token: Any) -> None:
        """Fire-and-forget deposit; verdict lands in the campaign log."""
        raise NotImplementedError

    def ring_withdraw_tokens(self, party: "Party", *, denomination: int,
                             count: int) -> list:
        """Withdraw one coin and mint *count* conflicting spends of it."""
        raise NotImplementedError

    # -- PPMSpbs effects ---------------------------------------------------
    def new_pbs_jo(self, party: "Party") -> Any:
        raise NotImplementedError

    def new_pbs_sp(self, party: "Party") -> Any:
        raise NotImplementedError

    def pbs_open_account(self, party: "Party", pubkey: Any,
                         balance: int) -> None:
        raise NotImplementedError

    def pbs_deposit(self, party: "Party", rid: str, receipt: Any) -> str:
        """Synchronous unitary deposit; returns the verdict status."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# base machine
# ---------------------------------------------------------------------------

class Party:
    """Dispatch-table state machine; subclasses declare the tables."""

    role = "party"
    START = "idle"
    #: state -> states reachable from it (terminal states are always
    #: reachable and need not be listed)
    TRANSITIONS: dict[str, tuple[str, ...]] = {}
    #: event kind -> handler method name
    HANDLERS: dict[str, str] = {}

    def __init__(self, name: str, ctx: PartyContext) -> None:
        self.name = name
        self.ctx = ctx
        self.rng = ctx.rng_for(name)
        self.state = self.START
        self.handled = 0
        self.anomalies: list[str] = []
        self.notes: list[str] = []

    # -- introspection -----------------------------------------------------
    @classmethod
    def legal_states(cls) -> frozenset[str]:
        states = {cls.START} | set(TERMINAL_STATES)
        for src, dsts in cls.TRANSITIONS.items():
            states.add(src)
            states.update(dsts)
        return frozenset(states)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def ledger(self) -> dict:
        """Per-party outcome record for the campaign report."""
        return {
            "role": self.role,
            "state": self.state,
            "handled": self.handled,
            "anomalies": len(self.anomalies),
        }

    # -- event dispatch ----------------------------------------------------
    def handle(self, event: PartyEvent) -> None:
        self.handled += 1
        if event.kind == "crash":
            self.state = "crashed"
            return
        if self.terminal:
            return  # terminal states absorb everything, including timeouts
        if event.kind == "timeout":
            self.on_timeout(event)
            return
        handler = self.HANDLERS.get(event.kind)
        if handler is None:
            self._anomaly(f"unhandled event {event.kind!r} in state {self.state!r}")
            return
        getattr(self, handler)(event)

    def on_timeout(self, event: PartyEvent) -> None:
        """Default timeout policy: mid-protocol silence aborts."""
        if self.state != self.START:
            self._abort(f"timeout in state {self.state!r}")

    # -- transition helpers ------------------------------------------------
    def _move(self, new_state: str) -> None:
        if new_state not in TERMINAL_STATES:
            allowed = self.TRANSITIONS.get(self.state, ())
            if new_state not in allowed:
                raise IllegalTransition(
                    f"{self.role} {self.name!r}: {self.state!r} -> {new_state!r} "
                    f"not declared (allowed: {sorted(allowed)})"
                )
        self.state = new_state

    def _abort(self, why: str) -> None:
        self.notes.append(why)
        self._move("aborted")

    def _anomaly(self, what: str) -> None:
        self.anomalies.append(what)

    def _in_state(self, *states: str) -> bool:
        if self.state in states:
            return True
        self._anomaly(f"event arrived in state {self.state!r}, wanted {states}")
        return False

    def _expect(self, event: PartyEvent, *keys: str) -> dict | None:
        """Payload shape guard; malformed input is an anomaly, not a crash."""
        payload = event.payload
        if not isinstance(payload, dict) or any(k not in payload for k in keys):
            self._anomaly(f"malformed {event.kind!r} payload: {payload!r}")
            return None
        return payload


# ---------------------------------------------------------------------------
# PPMSdec job owner
# ---------------------------------------------------------------------------

class JobOwnerParty(Party):
    """Algorithm-1 job owner: post, recruit, pay, settle change."""

    role = "jo"
    TRANSITIONS = {
        "idle": ("posted",),
        "posted": ("paying",),
        "paying": ("paying", "settling"),
        "settling": (),
    }
    HANDLERS = {
        "start": "on_start",
        "labor": "on_labor",
        "change-due": "on_change_due",
    }

    def __init__(self, name: str, ctx: PartyContext, *, job_id: str,
                 payment: int, sp_names: tuple[str, ...], funds: int,
                 ma_name: str | None = None) -> None:
        super().__init__(name, ctx)
        self.job_id = job_id
        self.payment = payment
        self.sp_names = tuple(sp_names)
        self.funds = funds
        self.ma_name = ma_name
        self.actor: Any = None
        self.job_pubkey: Any = None
        self.withdrawn = 0
        self.paid_value = 0
        self.paid_sps = 0
        self.change_value = 0

    def ledger(self) -> dict:
        return {
            **super().ledger(),
            "job": self.job_id,
            "funded": self.funds,
            "withdrawn_coins": self.withdrawn,
            "paid_value": self.paid_value,
            "paid_sps": self.paid_sps,
            "change_value": self.change_value,
        }

    def on_start(self, event: PartyEvent) -> None:
        if not self._in_state("idle"):
            return
        self.ctx.open_account(self, self.funds)
        self.actor = self.ctx.new_dec_jo(self)
        self.job_pubkey = self.actor.make_job_identity(self.ctx.counter)
        # one coin up front: build_payment requires a withdrawn wallet
        self.ctx.dec_withdraw(self, self.actor)
        self.withdrawn += 1
        if self.ma_name is not None:
            self.ctx.send(self.ma_name, "observe-job",
                          {"job": self.job_id, "payment": self.payment})
        for sp in self.sp_names:
            self.ctx.send(sp, "recruit", {
                "jo": self.name, "job": self.job_id,
                "payment": self.payment, "jo_pubkey": self.job_pubkey,
            })
        self._move("posted")

    def on_labor(self, event: PartyEvent) -> None:
        payload = self._expect(event, "sp", "sp_pubkey")
        if payload is None or not self._in_state("posted", "paying"):
            return
        if self.paid_sps >= len(self.sp_names):
            # a Byzantine peer re-sending labor must not drain the wallet
            self._anomaly(f"labor from {payload['sp']!r} after roster fully paid")
            return
        if self.state == "posted":
            self._move("paying")
        # withdraw on demand until the break plan fits (a fresh coin of
        # value 2^L always covers a payment <= 2^L, so this terminates)
        while True:
            try:
                ciphertext = self.ctx.dec_build_payment(
                    self, self.actor, payload["sp_pubkey"], self.payment
                )
                break
            except InsufficientFunds:
                self.ctx.dec_withdraw(self, self.actor)
                self.withdrawn += 1
        self.ctx.send(payload["sp"], "payment", {
            "jo": self.name, "ciphertext": ciphertext,
            "jo_pubkey": self.job_pubkey,
        })
        self.paid_value += self.payment
        self.paid_sps += 1
        if self.paid_sps == len(self.sp_names):
            self.ctx.send(self.name, "change-due")

    def on_change_due(self, event: PartyEvent) -> None:
        if not self._in_state("paying"):
            return
        self._move("settling")
        self.change_value = self.ctx.dec_deposit_change(self, self.actor)
        self._move("done")


# ---------------------------------------------------------------------------
# PPMSdec sensing participants (honest and faulty)
# ---------------------------------------------------------------------------

class SensingParty(Party):
    """Algorithm-1 SP: register labor, verify payment, deposit coins."""

    role = "sp"
    TRANSITIONS = {
        "idle": ("registered",),
        "registered": ("depositing",),
        "depositing": ("depositing",),
    }
    HANDLERS = {
        "recruit": "on_recruit",
        "payment": "on_payment",
        "deposit-due": "on_deposit_due",
    }

    def __init__(self, name: str, ctx: PartyContext, *,
                 policy: Any = None, fault_plan: Any = None,
                 ma_name: str | None = None) -> None:
        super().__init__(name, ctx)
        self.policy = policy
        self.fault_plan = fault_plan
        self.ma_name = ma_name
        self.actor: Any = None
        self.job_id: str | None = None
        self.expected_payment = 0
        self.received_value = 0
        self.deposited_rids: list[str] = []
        self.dropped_deposits = 0
        self.duplicate_deposits = 0
        self._tokens: list = []
        self._due = 0

    def ledger(self) -> dict:
        return {
            **super().ledger(),
            "job": self.job_id,
            "expected_payment": self.expected_payment,
            "received_value": self.received_value,
            "deposits": len(self.deposited_rids),
            "dropped": self.dropped_deposits,
            "duplicates": self.duplicate_deposits,
        }

    def on_recruit(self, event: PartyEvent) -> None:
        payload = self._expect(event, "jo", "job", "payment", "jo_pubkey")
        if payload is None or not self._in_state("idle"):
            return
        self.job_id = payload["job"]
        self.expected_payment = payload["payment"]
        self.ctx.open_account(self, 0)
        self.actor = self.ctx.new_dec_sp(self)
        sp_pubkey = self.actor.make_labor_identity(self.ctx.counter)
        self.ctx.send(payload["jo"], "labor",
                      {"sp": self.name, "sp_pubkey": sp_pubkey})
        self._move("registered")

    def on_payment(self, event: PartyEvent) -> None:
        payload = self._expect(event, "ciphertext", "jo_pubkey")
        if payload is None or not self._in_state("registered"):
            return
        bundle = self.ctx.dec_open_payment(
            self, self.actor, payload["ciphertext"], payload["jo_pubkey"]
        )
        value = bundle.total_value(self.ctx.tree_level)
        if not bundle.signature_valid:
            self._abort("payment signature invalid")
            return
        if value != self.expected_payment:
            self._abort(
                f"payment value {value} != advertised {self.expected_payment}"
            )
            return
        self.received_value = value
        self._accept_payment(list(bundle.tokens))

    def _accept_payment(self, tokens: list) -> None:
        self._tokens = tokens
        self._schedule_deposits(tokens)
        self._move("depositing")
        if self._due == 0:  # everything dropped: lifecycle still ends
            self._move("done")

    def _schedule_deposits(self, tokens: list) -> None:
        """Coins one-by-one after policy waits; faults may drop/duplicate."""
        if self.fault_plan is not None:
            deliveries, dropped = self.fault_plan.perturb(len(tokens))
            schedule = [(d.original, d.duplicate) for d in deliveries]
            self.dropped_deposits = len(dropped)
        else:
            schedule = [(i, False) for i in range(len(tokens))]
        t = self._wait(initial=True)
        for original, duplicate in schedule:
            if duplicate:
                self.duplicate_deposits += 1
            self._due += 1
            self.ctx.send(self.name, "deposit-due",
                          {"rid": f"{self.name}:dep:{original}",
                           "token_index": original},
                          delay=t)
            t += self._wait(initial=False)

    def _wait(self, *, initial: bool) -> float:
        if self.policy is None:
            return 0.0
        if initial:
            return self.policy.initial_wait(self.rng)
        return self.policy.between_wait(self.rng)

    def on_deposit_due(self, event: PartyEvent) -> None:
        payload = self._expect(event, "rid", "token_index")
        if payload is None or not self._in_state("depositing"):
            return
        index = payload["token_index"]
        if not isinstance(index, int) or not 0 <= index < len(self._tokens):
            self._anomaly(f"deposit-due for unknown token {index!r}")
            return
        self.ctx.deposit_async(self, payload["rid"], self._tokens[index])
        self.deposited_rids.append(payload["rid"])
        self._due -= 1
        if self._due == 0:
            self._move("done")


class OmissionSP(SensingParty):
    """Takes the payment, never deposits: silent mid-protocol.

    The coins' value stays outstanding float — the conservation check
    must account for it rather than flag it.
    """

    role = "sp-omission"

    def _accept_payment(self, tokens: list) -> None:
        self._tokens = tokens
        self.notes.append(f"went silent holding {self.received_value} in coins")
        self._move("silent")


class ReplaySP(SensingParty):
    """Deposits honestly, then replays every token under a fresh rid.

    The replays are frauds (double deposits of already-spent nodes);
    the service must reject each one with double-spend evidence.  The
    campaign asserts the rejection rate.
    """

    role = "sp-replay"
    HANDLERS = {**SensingParty.HANDLERS, "replay-due": "on_replay_due"}

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.replay_rids: list[str] = []

    def ledger(self) -> dict:
        return {**super().ledger(), "replays": len(self.replay_rids)}

    def _schedule_deposits(self, tokens: list) -> None:
        super()._schedule_deposits(tokens)
        # fresh rids strictly after the honest stream: the originals
        # land first, so every replay is a detectable double deposit
        t = self._wait(initial=True) + float(len(tokens) + 1)
        for i in range(len(tokens)):
            self._due += 1
            self.ctx.send(self.name, "replay-due",
                          {"rid": f"{self.name}:replay:{i}", "token_index": i},
                          delay=t)
            t += self._wait(initial=False)

    def on_replay_due(self, event: PartyEvent) -> None:
        payload = self._expect(event, "rid", "token_index")
        if payload is None or not self._in_state("depositing"):
            return
        index = payload["token_index"]
        if not isinstance(index, int) or not 0 <= index < len(self._tokens):
            self._anomaly(f"replay-due for unknown token {index!r}")
            return
        self.ctx.deposit_async(self, payload["rid"], self._tokens[index])
        self.replay_rids.append(payload["rid"])
        self._due -= 1
        if self._due == 0:
            self._move("done")


# ---------------------------------------------------------------------------
# double-spend ring
# ---------------------------------------------------------------------------

class RingLeader(Party):
    """Withdraws one coin, fences conflicting spends to the ring.

    Every fenced token covers the same wallet node; at most one deposit
    can be admitted, and each rejection's evidence names the account
    that won — the identity revelation the paper promises.
    """

    role = "ring-leader"
    TRANSITIONS = {
        "idle": ("fencing",),
        "fencing": (),
    }
    HANDLERS = {"start": "on_start", "deposit-due": "on_deposit_due"}

    def __init__(self, name: str, ctx: PartyContext, *,
                 members: tuple[str, ...], denomination: int = 1) -> None:
        super().__init__(name, ctx)
        self.members = tuple(members)
        self.denomination = denomination
        self.fenced = 0
        self.deposit_rid = f"{name}:fence"

    def ledger(self) -> dict:
        return {**super().ledger(), "ring_size": 1 + len(self.members),
                "denomination": self.denomination, "fenced": self.fenced}

    def on_start(self, event: PartyEvent) -> None:
        if not self._in_state("idle"):
            return
        self.ctx.open_account(self, self.ctx.coin_value)
        tokens = self.ctx.ring_withdraw_tokens(
            self, denomination=self.denomination, count=1 + len(self.members)
        )
        for offset, member in enumerate(self.members):
            self.ctx.send(member, "fence", {"token": tokens[1 + offset]},
                          delay=0.25 * (offset + 1))
            self.fenced += 1
        self._move("fencing")
        # the leader deposits its own conflicting token first
        self.ctx.send(self.name, "deposit-due", {"token": tokens[0]})

    def on_deposit_due(self, event: PartyEvent) -> None:
        payload = self._expect(event, "token")
        if payload is None or not self._in_state("fencing"):
            return
        self.ctx.deposit_async(self, self.deposit_rid, payload["token"])
        self._move("done")


class RingMember(Party):
    """Accomplice account depositing one fenced conflicting token."""

    role = "ring-member"
    TRANSITIONS = {
        "idle": ("armed",),
        "armed": (),
    }
    HANDLERS = {"start": "on_start", "fence": "on_fence"}

    def __init__(self, name: str, ctx: PartyContext) -> None:
        super().__init__(name, ctx)
        self.deposit_rid = f"{name}:fence"

    def on_start(self, event: PartyEvent) -> None:
        if not self._in_state("idle"):
            return
        self.ctx.open_account(self, 0)
        self._move("armed")

    def on_fence(self, event: PartyEvent) -> None:
        payload = self._expect(event, "token")
        if payload is None or not self._in_state("armed"):
            return
        self.ctx.deposit_async(self, self.deposit_rid, payload["token"])
        self._move("done")


# ---------------------------------------------------------------------------
# market administrator (honest and malicious)
# ---------------------------------------------------------------------------

class MAParty(Party):
    """The MA's observer half: bulletin board + deposit stream.

    The honest MA records what it cannot avoid seeing and concludes
    nothing.  The deposit stream is fed by the campaign after the run
    (in admission order), not by the parties — the MA sees what the
    bank saw, no more.
    """

    role = "ma"
    TRANSITIONS = {
        "idle": ("observing",),
        "observing": ("observing", "concluded"),
    }
    HANDLERS = {
        "start": "on_start",
        "observe-job": "on_observe_job",
        "observe-deposit": "on_observe_deposit",
        "conclude": "on_conclude",
    }

    def __init__(self, name: str, ctx: PartyContext) -> None:
        super().__init__(name, ctx)
        self.job_payments: dict[str, int] = {}
        self.deposits_by_account: dict[str, list[int]] = {}
        self.results: dict[str, DenominationAttackResult] = {}

    def ledger(self) -> dict:
        return {
            **super().ledger(),
            "jobs_observed": len(self.job_payments),
            "accounts_observed": len(self.deposits_by_account),
            "attacked": len(self.results),
        }

    def on_start(self, event: PartyEvent) -> None:
        if self._in_state("idle"):
            self._move("observing")

    def on_observe_job(self, event: PartyEvent) -> None:
        payload = self._expect(event, "job", "payment")
        if payload is None or not self._in_state("observing"):
            return
        payment = payload["payment"]
        if not isinstance(payment, int) or payment <= 0:
            self._anomaly(f"non-positive job payment {payment!r}")
            return
        self.job_payments[payload["job"]] = payment

    def on_observe_deposit(self, event: PartyEvent) -> None:
        payload = self._expect(event, "aid", "amount")
        if payload is None or not self._in_state("observing"):
            return
        amount = payload["amount"]
        if not isinstance(amount, int) or amount <= 0:
            self._anomaly(f"non-positive deposit amount {amount!r}")
            return
        self.deposits_by_account.setdefault(payload["aid"], []).append(amount)

    def on_conclude(self, event: PartyEvent) -> None:
        payload = self._expect(event, "truth")
        if payload is None or not self._in_state("observing"):
            return
        if not isinstance(payload["truth"], dict):
            self._anomaly(f"malformed ground truth {payload['truth']!r}")
            return
        self.conclude(payload["truth"])
        self._move("concluded")
        self._move("done")

    def conclude(self, truth: dict[str, str]) -> None:
        """Honest MA: observe, never infer."""


class MaliciousMAParty(MAParty):
    """MA running the denomination attack over its observations.

    *truth* maps SP account ids to their true job; only accounts with a
    ground-truth link (honest dec SPs) are scored — ring/replay
    accounts have no job to be linked to.
    """

    role = "ma-malicious"

    def conclude(self, truth: dict[str, str]) -> None:
        if not self.job_payments:
            return
        for aid in sorted(self.deposits_by_account):
            true_job = truth.get(aid)
            if true_job is None or true_job not in self.job_payments:
                continue
            self.results[aid] = run_denomination_attack(
                self.job_payments, true_job, self.deposits_by_account[aid]
            )


# ---------------------------------------------------------------------------
# PPMSpbs parties
# ---------------------------------------------------------------------------

class PbsJobOwnerParty(Party):
    """Algorithm-4 job owner: unitary coins via partially blind RSA."""

    role = "pbs-jo"
    TRANSITIONS = {
        "idle": ("posted",),
        "posted": ("posted",),
    }
    HANDLERS = {
        "start": "on_start",
        "pbs-labor": "on_pbs_labor",
        "pbs-blinded": "on_pbs_blinded",
    }

    def __init__(self, name: str, ctx: PartyContext, *, job_id: str,
                 sp_names: tuple[str, ...], funds: int,
                 ma_name: str | None = None) -> None:
        super().__init__(name, ctx)
        self.job_id = job_id
        self.sp_names = tuple(sp_names)
        self.funds = funds
        self.ma_name = ma_name
        self.actor: Any = None
        self.job_pubkey: Any = None
        self.signed = 0

    def ledger(self) -> dict:
        return {**super().ledger(), "job": self.job_id, "funded": self.funds,
                "signed_coins": self.signed}

    def on_start(self, event: PartyEvent) -> None:
        if not self._in_state("idle"):
            return
        self.actor = self.ctx.new_pbs_jo(self)
        self.ctx.pbs_open_account(self, self.actor.account_pub, self.funds)
        self.job_pubkey = self.actor.make_job_identity(self.ctx.counter)
        if self.ma_name is not None:
            self.ctx.send(self.ma_name, "observe-job",
                          {"job": self.job_id, "payment": 1})
        for sp in self.sp_names:
            self.ctx.send(sp, "pbs-recruit",
                          {"jo": self.name, "job": self.job_id,
                           "jo_pubkey": self.job_pubkey})
        self._move("posted")

    def on_pbs_labor(self, event: PartyEvent) -> None:
        payload = self._expect(event, "sp", "ciphertext")
        if payload is None or not self._in_state("posted"):
            return
        try:
            answer = self.actor.answer_labor_registration(
                payload["ciphertext"], self.ctx.counter
            )
        except (ValueError, TypeError, KeyError):
            self._anomaly(f"undecryptable labor request from {payload['sp']!r}")
            return
        self.ctx.send(payload["sp"], "pbs-labor-answer",
                      {"jo": self.name, "ciphertext": answer})

    def on_pbs_blinded(self, event: PartyEvent) -> None:
        payload = self._expect(event, "sp", "blinded", "serial")
        if payload is None or not self._in_state("posted"):
            return
        blind_sig, ctr = self.actor.sign_payment(
            payload["blinded"], payload["serial"], self.ctx.counter
        )
        self.signed += 1
        self.ctx.send(payload["sp"], "pbs-payment",
                      {"jo": self.name, "pbs": blind_sig, "ctr": ctr})
        if self.signed == len(self.sp_names):
            self._move("done")


class PbsSensingParty(Party):
    """Algorithm-4 SP: blind the real key, unblind the coin, deposit."""

    role = "pbs-sp"
    TRANSITIONS = {
        "idle": ("requested",),
        "requested": ("verified",),
        "verified": ("depositing",),
        "depositing": (),
    }
    HANDLERS = {
        "pbs-recruit": "on_pbs_recruit",
        "pbs-labor-answer": "on_pbs_labor_answer",
        "pbs-payment": "on_pbs_payment",
        "deposit-due": "on_deposit_due",
    }

    def __init__(self, name: str, ctx: PartyContext, *,
                 policy: Any = None) -> None:
        super().__init__(name, ctx)
        self.policy = policy
        self.actor: Any = None
        self.job_id: str | None = None
        self.jo_name: str | None = None
        self.jo_pubkey: Any = None
        self.receipt: Any = None
        self.deposit_rid = f"{name}:pbs"
        self.deposit_status: str | None = None

    def ledger(self) -> dict:
        return {**super().ledger(), "job": self.job_id,
                "deposit_status": self.deposit_status}

    def on_pbs_recruit(self, event: PartyEvent) -> None:
        payload = self._expect(event, "jo", "job", "jo_pubkey")
        if payload is None or not self._in_state("idle"):
            return
        self.job_id = payload["job"]
        self.jo_name = payload["jo"]
        self.jo_pubkey = payload["jo_pubkey"]
        self.actor = self.ctx.new_pbs_sp(self)
        self.ctx.pbs_open_account(self, self.actor.account_pub, 0)
        ciphertext = self.actor.make_labor_request(self.jo_pubkey, self.ctx.counter)
        self.ctx.send(self.jo_name, "pbs-labor",
                      {"sp": self.name, "ciphertext": ciphertext})
        self._move("requested")

    def on_pbs_labor_answer(self, event: PartyEvent) -> None:
        payload = self._expect(event, "ciphertext")
        if payload is None or not self._in_state("requested"):
            return
        try:
            ok = self.actor.open_labor_answer(
                payload["ciphertext"], self.jo_pubkey, self.ctx.counter
            )
        except (ValueError, TypeError, KeyError):
            ok = False
        if not ok:
            self._abort("JO signature failed on labor answer (Section V step 3)")
            return
        blinded = self.actor.make_blinded_payment_request(self.ctx.counter)
        self.ctx.send(self.jo_name, "pbs-blinded",
                      {"sp": self.name, "blinded": blinded,
                       "serial": self.actor.serial})
        self._move("verified")

    def on_pbs_payment(self, event: PartyEvent) -> None:
        payload = self._expect(event, "pbs", "ctr")
        if payload is None or not self._in_state("verified"):
            return
        try:
            self.receipt = self.actor.finalize_coin(
                payload["pbs"], payload["ctr"], self.ctx.counter
            )
        except (ValueError, TypeError):
            self._abort("coin failed verification at unblinding")
            return
        delay = self.policy.initial_wait(self.rng) if self.policy else 0.0
        self.ctx.send(self.name, "deposit-due", {"rid": self.deposit_rid},
                      delay=delay)
        self._move("depositing")

    def on_deposit_due(self, event: PartyEvent) -> None:
        payload = self._expect(event, "rid")
        if payload is None or not self._in_state("depositing"):
            return
        self.deposit_status = self.ctx.pbs_deposit(
            self, payload["rid"], self.receipt
        )
        self._move("done")


# ---------------------------------------------------------------------------
# recording context + value-conserving stubs (for property tests)
# ---------------------------------------------------------------------------

class _StubBundle:
    """PaymentBundle shape over plain integers (denominations)."""

    def __init__(self, tokens: list[int], signature_valid: bool = True) -> None:
        self.tokens = tokens
        self.fake_count = 0
        self.signature_valid = signature_valid

    def total_value(self, tree_level: int) -> int:
        return sum(self.tokens)


class _StubDecJo:
    """Value-conserving JobOwnerDec stand-in: integers instead of coins."""

    def __init__(self, ctx: "RecordingContext") -> None:
        self._ctx = ctx
        self.pool = 0  # unallocated coin value

    def make_job_identity(self, counter: Any) -> str:
        return "stub-jo-pubkey"

    def build_payment(self, sp_pubkey: Any, payment: int, counter: Any):
        if self.pool < payment:
            raise InsufficientFunds(f"pool {self.pool} < payment {payment}")
        self.pool -= payment
        return ("stub-payment", payment)


class _StubDecSp:
    def make_labor_identity(self, counter: Any) -> str:
        return "stub-sp-pubkey"


class _StubPbsActor:
    account_pub = "stub-account-key"
    serial = b"stub-serial"

    def make_job_identity(self, counter: Any) -> str:
        return "stub-pbs-jo-pubkey"

    def answer_labor_registration(self, ciphertext: Any, counter: Any) -> str:
        return "stub-answer"

    def sign_payment(self, blinded: Any, serial: Any, counter: Any):
        return ("stub-sig", 0)

    def make_labor_request(self, jo_pubkey: Any, counter: Any) -> str:
        return "stub-request"

    def open_labor_answer(self, ciphertext: Any, jo_pubkey: Any,
                          counter: Any) -> bool:
        return True

    def make_blinded_payment_request(self, counter: Any) -> int:
        return 0

    def finalize_coin(self, blinded_sig: Any, counter_value: Any,
                      op_counter: Any) -> str:
        return "stub-receipt"


class RecordingContext(PartyContext):
    """Inert context: records every effect, conserves integer value.

    Used by the hypothesis property tests: parties run their full
    handler logic (including the withdraw-on-demand loop and deposit
    scheduling) against integer-valued stubs, so state legality and
    value conservation are checkable without any cryptography.
    """

    tree_level = 3

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.counter = OpCounter()
        self.sent: list[tuple[str, str, Any, float]] = []
        self.accounts: dict[str, int] = {}
        self.deposits: list[tuple[str, str, Any]] = []
        self.pbs_deposits: list[tuple[str, str, Any]] = []
        self.withdrawals: list[str] = []
        self._rngs: dict[str, random.Random] = {}

    def rng_for(self, name: str) -> random.Random:
        if name not in self._rngs:
            self._rngs[name] = random.Random(f"{self.seed}:{name}")
        return self._rngs[name]

    def send(self, to: str, kind: str, payload: Any = None, *,
             delay: float = 0.0) -> None:
        self.sent.append((to, kind, payload, delay))

    def open_account(self, party: Party, balance: int) -> None:
        self.accounts[party.name] = balance

    def new_dec_jo(self, party: Party) -> _StubDecJo:
        return _StubDecJo(self)

    def new_dec_sp(self, party: Party) -> _StubDecSp:
        return _StubDecSp()

    def dec_withdraw(self, party: Party, actor: _StubDecJo) -> None:
        value = self.coin_value
        if self.accounts.get(party.name, 0) < value:
            raise RuntimeError(f"{party.name} cannot cover a withdrawal")
        self.accounts[party.name] -= value
        actor.pool += value
        self.withdrawals.append(party.name)

    def dec_build_payment(self, party: Party, actor: _StubDecJo,
                          sp_pubkey: Any, payment: int) -> Any:
        return actor.build_payment(sp_pubkey, payment, self.counter)

    def dec_open_payment(self, party: Party, actor: Any,
                         ciphertext: Any, jo_pubkey: Any) -> _StubBundle:
        if (isinstance(ciphertext, tuple) and len(ciphertext) == 2
                and ciphertext[0] == "stub-payment"):
            # unitary integer tokens, so deposits conserve exactly
            return _StubBundle([1] * ciphertext[1])
        return _StubBundle([], signature_valid=False)

    def dec_deposit_change(self, party: Party, actor: _StubDecJo) -> int:
        change = actor.pool
        actor.pool = 0
        self.accounts[party.name] = self.accounts.get(party.name, 0) + change
        return change

    def deposit_async(self, party: Party, rid: str, token: Any) -> None:
        self.deposits.append((party.name, rid, token))
        if isinstance(token, int):
            self.accounts[party.name] = self.accounts.get(party.name, 0) + token

    def ring_withdraw_tokens(self, party: Party, *, denomination: int,
                             count: int) -> list:
        self.accounts[party.name] = self.accounts.get(party.name, 0) - self.coin_value
        self.withdrawals.append(party.name)
        return [("ring-token", i, denomination) for i in range(count)]

    def new_pbs_jo(self, party: Party) -> _StubPbsActor:
        return _StubPbsActor()

    def new_pbs_sp(self, party: Party) -> _StubPbsActor:
        return _StubPbsActor()

    def pbs_open_account(self, party: Party, pubkey: Any, balance: int) -> None:
        self.accounts[party.name] = balance

    def pbs_deposit(self, party: Party, rid: str, receipt: Any) -> str:
        self.pbs_deposits.append((party.name, rid, receipt))
        return "OK"
