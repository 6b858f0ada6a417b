"""The campaign's overrides of the engine machines: the MAs bank on the
market service, job owners recruit once their job is published, deposits
carry sender-chosen request ids and leave after the deposit policy's
waits; and the adversaries.  Each resident reports its ``ledger()`` row.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.attacks.denomination import DenominationAttackResult, run_denomination_attack
from repro.attacks.rings import begin_ring_withdrawal, conflicting_spends, finish_ring_withdrawal
from repro.core.dec_machine import MA, JODecMachine, MADecMachine, SPDecMachine, SPDecState
from repro.core.engine import Outbound, Party, ProtocolError, Table
from repro.core.pbs_machine import CoinReceipt, JOMachine, MAMachine, SPMachine, SPState

__all__ = ["DecDesk", "MaliciousMA", "PbsDesk", "DecJO", "PbsJO",
           "DecSP", "OmissionSP", "ReplaySP", "PbsSP", "Ring"]


class DecDesk(MADecMachine):
    """The PPMSdec MA, with no :class:`~repro.ecash.dec.DECBank`: its
    bank half is requests on the campaign's market link."""

    def __init__(self, market: Any, params: Any, counter: Any) -> None:
        super().__init__(params, None, counter)
        self.market, self.coin_value = market, 1 << params.tree_level
        self.funded: dict[str, int] = {}  # account -> opening balance
        self.issued, self._withdrawals = 0, {}  # value issued; account -> withdrawals
        self.results: dict[str, DenominationAttackResult] = {}  # account -> verdict

    def make_bank(self, rng: Any) -> None:
        return None

    def open_account(self, aid: str, balance: int) -> None:
        self.market.open(aid, "open-account", {"aid": aid, "balance": balance})
        self.funded[aid] = balance

    def withdraw(self, aid: str, request: Any) -> Any:
        n = self._withdrawals[aid] = self._withdrawals.get(aid, 0) + 1
        status, body = self.market.call(
            aid, "withdraw", {"aid": aid, "request": request}, rid=f"{aid}:wd:{n}")
        if status != "OK":
            raise ProtocolError(f"withdrawal refused: {body}")
        self.issued += self.coin_value
        return body["signature"]

    def deposit(self, aid: str, payload: dict) -> None:
        rid = payload.get("rid")
        if rid is None:
            raise ProtocolError("deposit without a request id")
        self.market.deposit(aid, rid, {"aid": aid, "token": payload["coin"]})

    def conclude(self, deposits: list[dict], truth: dict[str, str]) -> None:
        """Look back at the admitted *deposits*: an honest MA infers nothing."""


class MaliciousMA(DecDesk):
    """Links each account's admitted deposits to its own board's jobs by
    denomination; scores only accounts with a true job (honest SPs)."""

    def conclude(self, deposits: list[dict], truth: dict[str, str]) -> None:
        jobs = {job.job_id: job.payment for job in self.board.jobs()}
        seen: dict[str, list[int]] = {}
        for entry in deposits:
            if entry["status"] == "OK":
                seen.setdefault(entry["party"], []).append(entry["body"].get("amount", 0))
        self.results = {aid: run_denomination_attack(jobs, truth[aid], seen[aid])
                        for aid in sorted(seen) if truth.get(aid) in jobs}


class PbsDesk(MAMachine):
    """The PPMSpbs MA; the market service's ``pbs-*`` rows are its bank."""

    def __init__(self, market: Any, counter: Any) -> None:
        super().__init__(counter)
        self.market, self.funded, self.keys = market, {}, {}  # account -> balance / key

    def make_bank(self) -> None:
        return None

    def open_account(self, pub: Any, balance: int) -> None:
        name, key = pub.fingerprint().hex(), (pub.n, pub.e)
        self.market.open(name, "pbs-open-account", {"key": key, "balance": balance})
        self.funded[name], self.keys[name] = balance, key

    def deposit(self, sender: str, signature: Any, payload: dict) -> None:
        rid = payload.get("rid")
        if rid is None:
            raise ProtocolError("deposit without a request id")
        status, body = self.market.call(sender, "pbs-deposit", {
            "sig": signature, "sp_key": payload["sp_key"], "jo_key": payload["jo_key"],
        }, rid=rid)
        if status != "OK":
            raise ProtocolError(f"pbs-deposit refused: {body}")


class DecJO(JODecMachine):
    """Recruits on ``job-published``; deposits its change, under its
    account, once all *workers* delivered their data."""

    def __init__(self, *args: Any, clock, recruit: Callable, workers: int, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.clock, self.recruit, self.workers = clock, recruit, workers
        self.change: list | None = None

    def on_job_published(self, sender: str, payload: dict) -> list[Outbound]:
        out = super().on_job_published(sender, payload)
        self.recruit(self)
        return out

    def on_data_delivery(self, sender: str, payload: dict) -> list[Outbound]:
        out = super().on_data_delivery(sender, payload)
        if len(self.received_reports) == self.workers:
            self.change = self.change_tokens()
            out += [Outbound(MA, "deposit", {"aid": self.aid, "coin": token, "at": self.clock.now,
                                             "rid": f"{self.aid}:chg:{n}"})
                    for n, token in enumerate(self.change, 1)]
        return out

    def ledger(self) -> dict:
        level = self.params.tree_level
        return {"role": "jo", "withdrawn_coins": len(self.coins),
                "data_received": len(self.received_reports),
                "change_value": sum(t.denomination(level) for t in self.change or ()),
                "done": self.change is not None}


class PbsJO(JOMachine):
    """Recruits on ``job-published``."""

    def __init__(self, *args: Any, recruit: Callable, workers: int, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.recruit, self.workers = recruit, workers

    def on_job_published(self, sender: str, payload: dict) -> list[Outbound]:
        out = super().on_job_published(sender, payload)
        self.recruit(self)
        return out

    def ledger(self) -> dict:
        return {"role": "pbs-jo", "data_received": len(self.received_reports),
                "done": len(self.received_reports) == self.workers}


class DecSP(SPDecMachine):
    """Deposits each coin after the policy's waits under ``<aid>:dep:<i>``;
    a fault *plan* drops, duplicates (same rid) or reorders them."""

    label = "sp"

    def __init__(self, *args: Any, clock, policy, plan=None, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.clock, self.policy, self.plan = clock, policy, plan
        self.tokens, self.sent, self.dropped = [], [], 0  # sent: deposit rids, in order

    def deposits(self) -> list[Outbound]:
        self.tokens, self.collected = list(self.collected), []
        order = list(range(len(self.tokens)))
        if self.plan is not None:
            deliveries, dropped = self.plan.perturb(len(self.tokens))
            order, self.dropped = [d.original for d in deliveries], len(dropped)
        return self._stream("dep", order, self.clock.now + self.policy.initial_wait(self.rng))

    def _stream(self, tag: str, order: list[int], at: float) -> list[Outbound]:
        out = []
        for i in order:
            rid = f"{self.aid}:{tag}:{i}"
            out.append(Outbound(MA, "deposit",
                                {"aid": self.aid, "coin": self.tokens[i], "at": at, "rid": rid}))
            self.sent.append(rid)
            at += self.policy.between_wait(self.rng)
        return out

    def ledger(self) -> dict:
        level = self.params.tree_level
        return {"role": self.label, "deposits": len(self.sent), "dropped": self.dropped,
                "received_value": sum(t.denomination(level) for t in self.tokens),
                "done": self.state is SPDecState.PAID}


class OmissionSP(DecSP):
    """Takes and confirms its payment, then never deposits: the coins
    stay outstanding float, which conservation must absorb, not flag."""

    label = "sp-omission"

    def deposits(self) -> list[Outbound]:
        self.tokens, self.collected = list(self.collected), []
        return []


class ReplaySP(DecSP):
    """Deposits honestly, then every coin again under ``<aid>:replay:<i>``
    a second later: each replay is a double deposit the bank must reject."""

    label = "sp-replay"

    def deposits(self) -> list[Outbound]:
        out = super().deposits()
        last = max((o.payload["at"] for o in out), default=self.clock.now)
        return out + self._stream("replay", list(range(len(self.tokens))), last + 1.0)


class PbsSP(SPMachine):
    """Deposits its coin after the policy's wait under ``<name>:pbs``."""

    def __init__(self, *args: Any, clock: Any, policy: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.clock, self.policy = clock, policy

    def deposit_of(self, receipt: CoinReceipt) -> Outbound:
        out = super().deposit_of(receipt)
        return Outbound(out.receiver, out.kind, {
            **out.payload, "rid": f"{self.name}:pbs",
            "at": self.clock.now + self.policy.initial_wait(self.rng)})

    def ledger(self) -> dict:
        return {"role": "pbs-sp", "done": self.state is SPState.PAID}


class Ring(Party):
    """A double-spend ring under one hand: its leader's account withdraws
    one coin honestly, then a conflicting spend of one node of it is
    deposited under every ring account (the leader answers to all)."""

    hears = MA

    def __init__(self, leader: str, members: tuple, params, bank_pk, rng, clock) -> None:
        super().__init__(leader)
        self.accounts = (leader, *members)
        self.params, self.bank_pk, self.rng, self.clock = params, bank_pk, rng, clock
        self.fenced, self._secret = 0, None

    def start(self) -> list[Outbound]:
        self._secret, request = begin_ring_withdrawal(self.params, self.rng)
        return [Outbound(MA, "withdraw-request", {"request": request})]

    def on_withdraw_response(self, sender: str, payload: dict) -> list[Outbound]:
        if self._secret is None:
            raise ProtocolError("ring withdrawal response out of order")
        try:
            coin = finish_ring_withdrawal(self.params, self.bank_pk, self._secret,
                                          payload["signature"])
        except ValueError as exc:
            raise ProtocolError(f"invalid withdrawal signature: {exc}") from exc
        self._secret = None
        tokens = conflicting_spends(self.params, self.bank_pk, coin, denomination=1,
                                    count=len(self.accounts), rng=self.rng)
        self.fenced = len(tokens)
        return [Outbound(MA, "deposit", {"aid": aid, "coin": token, "at": self.clock.now,
                                         "rid": f"{aid}:fence"}, sender=aid)
                for aid, token in zip(self.accounts, tokens)]

    # the ring withdraws as a job owner does, and takes nothing else
    table = Table("ring message",
                  {"withdraw-response": JODecMachine.table.messages["withdraw-response"]})

    def ledger(self) -> dict:
        return {"role": "ring", "accounts": len(self.accounts),
                "fenced": self.fenced, "done": self.fenced > 0}
