"""Seeded, replayable market-economy campaigns against the live service.

A campaign is thousands of :mod:`repro.sim.party` state machines —
job owners, sensing participants, double-spend rings, a (possibly
malicious) market administrator — running full PPMSdec and PPMSpbs
lifecycles over the :class:`~repro.sim.events.EventQueue`, with every
protocol effect executed against the **real**
:class:`~repro.service.server.MarketService` through one of the shared
gateways (:mod:`repro.service.gateway`: in process by default, or over
:class:`~repro.service.frontend.ServiceFrontend` sockets, or routed
into a :class:`~repro.cluster.node.LocalCluster`).

Everything is derived from one seed: party RNGs, arrival times,
network latency, deposit waits, fault schedules, RSA keys, ZK
randomness.  Two runs of the same :class:`CampaignConfig` therefore
produce byte-identical :class:`~repro.sim.report.CampaignReport` JSON
— the report embeds the seed and the replay command, so any failing
campaign is a one-command reproduction.

Adversaries compose :mod:`repro.attacks`:

* a malicious MA runs the denomination attack
  (:func:`~repro.attacks.denomination.run_denomination_attack`) over
  the deposit stream the bank admitted, sweeping the configured
  coin-break algorithm (unitary / PCBA / EPCBA);
* double-spend rings fence conflicting spends of one wallet node
  (:mod:`repro.attacks.rings`) to accomplice accounts — the campaign
  asserts at most one admission per ring and that every rejection's
  evidence names the account that deposited first;
* replay SPs re-deposit spent tokens under fresh request ids;
* omission SPs take payment and go silent (outstanding float the
  conservation ledger must absorb, not flag);
* drop/duplicate/reorder faults from :mod:`repro.testing.faults`
  perturb honest deposit streams.

After the run the engine feeds the admitted deposit stream to the MA,
computes detection metrics and economy-wide value conservation, and
sweeps the substrate with the recovery / cluster invariant checkers.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import asdict, dataclass, field, replace
from typing import Any

from repro.attacks.rings import (
    begin_ring_withdrawal,
    conflicting_spends,
    evidence_prior_account,
    finish_ring_withdrawal,
)
from repro.core.ppms_dec import JobOwnerDec, SensingParticipantDec
from repro.core.ppms_pbs import JobOwnerPbs, SensingParticipantPbs
from repro.metrics.opcount import OpCounter
from repro.service.batcher import VerificationBatcher
from repro.service.frontend import ServiceFrontend
from repro.service.gateway import InProcessGateway, SocketGateway
from repro.service.journal import Journal
from repro.service.server import MarketService
from repro.service.shard import ShardedBank
from repro.sim.events import EventQueue
from repro.sim.market_sim import DepositPolicy
from repro.sim.party import (
    JobOwnerParty,
    MaliciousMAParty,
    MAParty,
    OmissionSP,
    Party,
    PartyContext,
    PartyEvent,
    PbsJobOwnerParty,
    PbsSensingParty,
    ReplaySP,
    RingLeader,
    RingMember,
    SensingParty,
)
from repro.sim.report import CampaignReport
from repro.testing.faults import FaultPlan, FaultyTransport
from repro.testing.invariants import check_recovery_invariants
from repro.testing.scenario import toy_market_params

__all__ = [
    "CampaignConfig",
    "Campaign",
    "run_campaign",
    "honest_campaign",
    "denomination_campaign",
    "double_spend_campaign",
    "mixed_campaign",
    "CAMPAIGNS",
]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CampaignConfig:
    """Everything a campaign run depends on, in one replayable value."""

    name: str = "campaign"
    seed: int = 0
    #: ``inprocess`` | ``socket`` | ``cluster``
    backend: str = "inprocess"
    # -- economy shape -----------------------------------------------------
    n_dec_jobs: int = 4
    n_pbs_jobs: int = 2
    min_sps: int = 1
    max_sps: int = 3
    #: advertised payments are drawn from these (all must be <= 2^L)
    payment_choices: tuple[int, ...] = (1, 2, 3, 5, 7)
    #: coin-break algorithm every JO uses (the denomination attack's
    #: sweep axis): ``unitary`` | ``pcba`` | ``epcba``
    break_algorithm: str = "epcba"
    deposit_wait_mean: float = 0.0
    delivery_latency_mean: float = 0.05
    arrival_gap: float = 1.0
    # -- adversaries -------------------------------------------------------
    double_spend_rings: int = 0
    ring_size: int = 3
    replay_sps: int = 0
    omission_sps: int = 0
    malicious_ma: bool = False
    # -- fault plumbing (applied to honest dec SP deposit streams) ---------
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    max_slip: int = 3
    # -- substrate ---------------------------------------------------------
    # hybrid RSA encryption needs >= 320-bit moduli; 512 is the floor
    # that keeps pseudonym keygen cheap at toy security
    rsa_bits: int = 512
    n_shards: int = 3
    n_nodes: int = 2
    max_batch: int = 4
    max_events: int = 2_000_000

    def __post_init__(self) -> None:
        if self.backend not in ("inprocess", "socket", "cluster"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.ring_size < 2:
            raise ValueError("a double-spend ring needs at least two accounts")
        if self.min_sps < 1 or self.max_sps < self.min_sps:
            raise ValueError("need 1 <= min_sps <= max_sps")

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CampaignConfig":
        data = dict(data)
        if "payment_choices" in data:
            data["payment_choices"] = tuple(data["payment_choices"])
        return cls(**data)

    def scaled(self, factor: int) -> "CampaignConfig":
        """The same economy, *factor* times as many parties."""
        if factor <= 1:
            return self
        return replace(
            self,
            n_dec_jobs=self.n_dec_jobs * factor,
            n_pbs_jobs=self.n_pbs_jobs * factor,
            double_spend_rings=self.double_spend_rings * factor,
            replay_sps=self.replay_sps * factor,
            omission_sps=self.omission_sps * factor,
        )


# ---------------------------------------------------------------------------
# the market link: campaign-side bookkeeping over one shared gateway
# ---------------------------------------------------------------------------

class _MarketLink:
    """Deposit order, verdict tally and sweep over one gateway.

    The gateway (:mod:`repro.service.gateway`, or the cluster router) is
    how requests reach the market; this class keeps what only a campaign
    needs.  ``call`` is synchronous (open-account, withdraw, balance
    queries); ``deposit`` joins the deposit stream whose verdicts are
    resolved after the queue drains.  Duplicate request ids
    (fault-injected re-sends) resolve to one verdict — the exactly-once
    layer is part of what the campaign exercises.
    """

    def __init__(self, gateway, sweep, closers, *,
                 service: MarketService | None = None) -> None:
        self.gateway = gateway
        self._sweep = sweep
        self._closers = closers
        #: the in-process backend's service: its deposits are submitted
        #: without waiting, so batches flush as they fill, not one by one
        self._service = service
        self.verdicts: dict[str, int] = {}
        self._deposit_order: list[tuple[str, str]] = []  # (party, rid)
        self._answered: dict[str, tuple[str, dict]] = {}  # deposit rid -> verdict

    def _request(self, sender: str, kind: str, payload: Any,
                 rid: str) -> tuple[str, dict]:
        body = self.gateway.request(kind, payload, sender=sender, rid=rid)
        return body.pop("status"), body

    def _tally(self, status: str) -> None:
        self.verdicts[status] = self.verdicts.get(status, 0) + 1

    def call(self, sender: str, kind: str, payload: Any, *,
             rid: str) -> tuple[str, dict]:
        status, body = self._request(sender, kind, payload, rid)
        self._tally(status)
        return status, body

    def deposit(self, sender: str, rid: str, payload: Any, *,
                wait: bool = False) -> tuple[str, dict] | None:
        """Join the deposit stream the MA observes; tallied at resolution.

        With *wait* (change deposits) the verdict is returned; otherwise
        it may stay pending until :meth:`resolve_deposits`.
        """
        self._deposit_order.append((sender, rid))
        if self._service is not None and not wait:
            self._service.submit(sender, "deposit", payload, now=0.0, rid=rid)
            self._service.step()
            return None
        self._answered[rid] = self._request(sender, "deposit", payload, rid)
        return self._answered[rid]

    def resolve_deposits(self) -> list[dict[str, Any]]:
        """Deposit verdicts in submission order, deduped by rid."""
        if self._service is not None:
            self._service.drain()
        resolved: list[dict[str, Any]] = []
        seen: set[str] = set()
        for party, rid in self._deposit_order:
            if rid in seen:
                continue
            seen.add(rid)
            reply = self._answered.get(rid)
            if reply is None:  # submitted in-process, answered by the drain
                reply = self._service.reply_for(rid)
            if reply is None:  # pragma: no cover - the drain precedes this
                raise RuntimeError(f"deposit {rid!r} still unresolved after drain")
            status, body = reply
            self._tally(status)
            resolved.append(
                {"party": party, "rid": rid, "status": status, "body": body}
            )
        return resolved

    def balance_of(self, sender: str, kind: str, payload: dict) -> int:
        """A balance read (``balance`` or ``pbs-balance``), not tallied."""
        status, body = self._request(sender, kind, payload, f"{sender}:bal")
        if status != "OK":
            raise RuntimeError(f"{kind} for {sender!r} failed: {body}")
        return body["balance"]

    def sweep(self) -> list[str]:
        return list(self._sweep().findings)

    def close(self) -> None:
        for close in self._closers:
            close()


def _open_market(config: CampaignConfig, params, keypair) -> _MarketLink:
    """One market, three transports: build the backend and link to it."""
    if config.backend == "cluster":
        # lazy: sim's layering pin stops at service/testing; the cluster
        # backend is opt-in and pulls the multi-node stack only on use
        from repro.cluster.node import LocalCluster
        from repro.testing.cluster_invariants import check_cluster_invariants

        cluster = LocalCluster(
            params, keypair, n_nodes=max(2, config.n_nodes), n_shards=config.n_shards
        )
        router = cluster.router()
        return _MarketLink(
            router,
            lambda: check_cluster_invariants(
                params, keypair, cluster.map, cluster.dump_storage(),
                n_shards=config.n_shards, cross_slice_value=True,
            ),
            (router.close, cluster.close),
        )
    journal = Journal()
    service = MarketService(
        ShardedBank(params, keypair, random.Random(11), n_shards=config.n_shards),
        batcher=VerificationBatcher(
            params, keypair, max_batch=config.max_batch, seed=7
        ),
        rng=random.Random(3),
        clock=lambda: 0.0,  # wall-clock-free: latency stats stay constant
        journal=journal,
    )

    def sweep():
        return check_recovery_invariants(service.bank, journal)

    if config.backend == "inprocess":
        return _MarketLink(InProcessGateway(service), sweep, (), service=service)
    frontend = ServiceFrontend(service).start()
    gateway = SocketGateway(frontend.address, connections=1, pipeline_depth=1)
    closers = (gateway.close, frontend.close)  # both safe to call twice

    def sweep_stopped():
        for close in closers:  # the dispatcher thread owns the service
            close()
        return sweep()

    return _MarketLink(gateway, sweep_stopped, closers)


# ---------------------------------------------------------------------------
# MA adapter: the actor layer's MA interface over a gateway
# ---------------------------------------------------------------------------

class _BankFacade:
    def __init__(self, public_key) -> None:
        self.public_key = public_key


class _ServiceMAAdapter:
    """Duck-types ``MarketAdministratorDec`` for the actor classes.

    :class:`~repro.core.ppms_dec.JobOwnerDec` calls
    ``ma.handle_withdrawal`` / ``ma.handle_deposit`` and reads
    ``ma.bank.public_key`` and ``ma.clock``; this adapter forwards
    those to the campaign's market link, so the actor-layer protocol code
    runs unmodified against the real service.
    """

    clock = 0.0

    def __init__(self, campaign: "Campaign") -> None:
        self._campaign = campaign
        self.bank = _BankFacade(campaign.keypair.public)
        self._wd: dict[str, int] = {}
        self._chg: dict[str, int] = {}

    def handle_withdrawal(self, aid: str, request) -> object:
        n = self._wd[aid] = self._wd.get(aid, 0) + 1
        status, body = self._campaign.market.call(
            aid, "withdraw", {"aid": aid, "request": request}, rid=f"{aid}:wd:{n}"
        )
        if status != "OK":
            raise RuntimeError(f"withdrawal for {aid!r} refused: {body}")
        self._campaign.issued += self._campaign.coin_value
        return body["signature"]

    def handle_deposit(self, aid: str, token, at_time: float) -> int:
        n = self._chg[aid] = self._chg.get(aid, 0) + 1
        # change deposits join the deposit stream the MA observes
        status, body = self._campaign.market.deposit(
            aid, f"{aid}:chg:{n}", {"aid": aid, "token": token}, wait=True
        )
        return body.get("amount", 0) if status == "OK" else 0


# ---------------------------------------------------------------------------
# the campaign engine
# ---------------------------------------------------------------------------

class Campaign(PartyContext):
    """One seeded run of a party roster against the live market.

    Implements :class:`~repro.sim.party.PartyContext`: the parties call
    back into the campaign for every protocol effect, and the campaign
    routes those through the market link, meters them, and keeps the
    economy-wide ledgers the report is built from.
    """

    def __init__(self, config: CampaignConfig, params, keypair) -> None:
        self.config = config
        self.params = params
        self.keypair = keypair
        self.tree_level = params.tree_level
        self.counter = OpCounter()
        self.queue = EventQueue()
        self.market = _open_market(config, params, keypair)
        self.ma_adapter = _ServiceMAAdapter(self)
        # actor-side envelope metering + codec (no crash points scripted)
        self.wire = FaultyTransport()
        self.parties: dict[str, Party] = {}
        self.truth: dict[str, str] = {}  # sp account -> true job id
        self.rings: list[tuple[RingLeader, tuple[str, ...]]] = []
        self.funded = 0
        self.issued = 0
        self.pbs_funded = 0
        self.pbs_keys: dict[str, tuple[int, int]] = {}  # party -> account key
        self.trace: list[tuple[float, str, str]] = []
        self._rngs: dict[str, random.Random] = {}
        self._net_rng = random.Random(f"{config.seed}:#net")
        self._current: str | None = None

    # -- PartyContext ------------------------------------------------------
    def rng_for(self, name: str) -> random.Random:
        if name not in self._rngs:
            self._rngs[name] = random.Random(f"{self.config.seed}:{name}")
        return self._rngs[name]

    def send(self, to: str, kind: str, payload: Any = None, *,
             delay: float = 0.0) -> None:
        latency = 0.0
        if to != self._current and self.config.delivery_latency_mean > 0:
            latency = self._net_rng.expovariate(
                1.0 / self.config.delivery_latency_mean
            )
        event = PartyEvent(kind, payload)
        self.queue.schedule_in(delay + latency, lambda: self._deliver(to, event))

    def open_account(self, party: Party, balance: int) -> None:
        status, body = self.market.call(
            party.name, "open-account",
            {"aid": party.name, "balance": balance}, rid=f"{party.name}:open",
        )
        if status != "OK":
            raise RuntimeError(f"open-account for {party.name!r} failed: {body}")
        self.funded += balance

    def new_dec_jo(self, party: Party) -> JobOwnerDec:
        return JobOwnerDec(
            party.name, self.params, party.rng,
            rsa_bits=self.config.rsa_bits,
            break_algorithm=self.config.break_algorithm,
        )

    def new_dec_sp(self, party: Party) -> SensingParticipantDec:
        return SensingParticipantDec(
            party.name, self.params, party.rng, rsa_bits=self.config.rsa_bits
        )

    def dec_withdraw(self, party: Party, actor: JobOwnerDec) -> None:
        actor.withdraw(self.ma_adapter, self.wire, self.counter)

    def dec_build_payment(self, party: Party, actor: JobOwnerDec,
                          sp_pubkey, payment: int):
        return actor.build_payment(sp_pubkey, payment, self.counter)

    def dec_open_payment(self, party: Party, actor: SensingParticipantDec,
                         ciphertext, jo_pubkey):
        return actor.open_payment(
            ciphertext, jo_pubkey, self.keypair.public, self.counter
        )

    def dec_deposit_change(self, party: Party, actor: JobOwnerDec) -> int:
        return actor.deposit_change(self.ma_adapter, self.wire, self.counter)

    def deposit_async(self, party: Party, rid: str, token) -> None:
        self.market.deposit(party.name, rid, {"aid": party.name, "token": token})

    def ring_withdraw_tokens(self, party: Party, *, denomination: int,
                             count: int) -> list:
        secret, request = begin_ring_withdrawal(self.params, party.rng)
        status, body = self.market.call(
            party.name, "withdraw",
            {"aid": party.name, "request": request}, rid=f"{party.name}:wd",
        )
        if status != "OK":
            raise RuntimeError(f"ring withdrawal for {party.name!r} refused: {body}")
        self.issued += self.coin_value
        coin = finish_ring_withdrawal(
            self.params, self.keypair.public, secret, body["signature"]
        )
        return conflicting_spends(
            self.params, self.keypair.public, coin,
            denomination=denomination, count=count, rng=party.rng,
        )

    def new_pbs_jo(self, party: Party) -> JobOwnerPbs:
        return JobOwnerPbs(party.rng, rsa_bits=self.config.rsa_bits)

    def new_pbs_sp(self, party: Party) -> SensingParticipantPbs:
        return SensingParticipantPbs(party.rng, rsa_bits=self.config.rsa_bits)

    def pbs_open_account(self, party: Party, pubkey, balance: int) -> None:
        key = (pubkey.n, pubkey.e)
        status, body = self.market.call(
            party.name, "pbs-open-account", {"key": key, "balance": balance},
            rid=f"{party.name}:open",
        )
        if status != "OK":
            raise RuntimeError(f"pbs-open-account for {party.name!r} failed: {body}")
        self.pbs_keys[party.name] = key
        self.pbs_funded += balance

    def pbs_deposit(self, party: Party, rid: str, receipt) -> str:
        status, _body = self.market.call(party.name, "pbs-deposit", {
            "sig": receipt.signature, "sp_key": self.pbs_keys[party.name],
            "jo_key": receipt.jo_account_key}, rid=rid)
        return status

    # -- delivery ----------------------------------------------------------
    def _deliver(self, to: str, event: PartyEvent) -> None:
        party = self.parties.get(to)
        if party is None:
            return  # late delivery to a party that was never rostered
        self.trace.append((self.queue.now, to, event.kind))
        prev = self._current
        self._current = to
        try:
            party.handle(event)
        finally:
            self._current = prev

    def _trace_digest(self) -> str:
        lines = "\n".join(
            f"{t:.9f} {name} {kind}" for t, name, kind in self.trace
        )
        return hashlib.sha256(lines.encode()).hexdigest()

    # -- roster ------------------------------------------------------------
    def _build_roster(self) -> list[Party]:
        """Create every party; returns the ones that need a ``start``."""
        cfg = self.config
        roster_rng = self.rng_for("#roster")
        policy = (
            DepositPolicy.randomized(cfg.deposit_wait_mean)
            if cfg.deposit_wait_mean > 0 else DepositPolicy.immediate()
        )
        faulty = cfg.drop_rate > 0 or cfg.duplicate_rate > 0 or cfg.reorder_rate > 0
        ma = (MaliciousMAParty if cfg.malicious_ma else MAParty)("ma", self)
        self.parties[ma.name] = ma
        starters: list[Party] = [ma]

        replay_quota = cfg.replay_sps
        omission_quota = cfg.omission_sps
        fault_seq = 0
        for i in range(cfg.n_dec_jobs):
            job_id = f"job-{i}"
            n_sps = roster_rng.randint(cfg.min_sps, cfg.max_sps)
            payment = roster_rng.choice(cfg.payment_choices)
            sp_names = []
            for j in range(n_sps):
                name = f"sp-{i}-{j}"
                if replay_quota > 0:
                    replay_quota -= 1
                    sp = ReplaySP(name, self, policy=policy, ma_name=ma.name)
                elif omission_quota > 0:
                    omission_quota -= 1
                    sp = OmissionSP(name, self, policy=policy, ma_name=ma.name)
                else:
                    plan = None
                    if faulty:
                        fault_seq += 1
                        plan = FaultPlan(
                            seed=cfg.seed * 100_003 + fault_seq,
                            drop=cfg.drop_rate,
                            duplicate=cfg.duplicate_rate,
                            reorder=cfg.reorder_rate,
                            max_slip=cfg.max_slip,
                        )
                    sp = SensingParty(
                        name, self, policy=policy, fault_plan=plan, ma_name=ma.name
                    )
                self.parties[name] = sp
                self.truth[name] = job_id
                sp_names.append(name)
            jo = JobOwnerParty(
                f"jo-{i}", self, job_id=job_id, payment=payment,
                sp_names=tuple(sp_names),
                funds=(n_sps + 1) * self.coin_value, ma_name=ma.name,
            )
            self.parties[jo.name] = jo
            starters.append(jo)

        for r in range(cfg.double_spend_rings):
            members = tuple(
                f"ring{r}-m{j}" for j in range(cfg.ring_size - 1)
            )
            for name in members:
                member = RingMember(name, self)
                self.parties[name] = member
                starters.append(member)
            leader = RingLeader(f"ring{r}-leader", self, members=members)
            self.parties[leader.name] = leader
            starters.append(leader)
            self.rings.append((leader, members))

        for i in range(cfg.n_pbs_jobs):
            n_sps = roster_rng.randint(cfg.min_sps, cfg.max_sps)
            sp_names = []
            for j in range(n_sps):
                name = f"pbs-sp-{i}-{j}"
                self.parties[name] = PbsSensingParty(name, self, policy=policy)
                sp_names.append(name)
            jo = PbsJobOwnerParty(
                f"pbs-jo-{i}", self, job_id=f"pbs-job-{i}",
                sp_names=tuple(sp_names), funds=n_sps + 1, ma_name=ma.name,
            )
            self.parties[jo.name] = jo
            starters.append(jo)
        return starters

    # -- analysis ----------------------------------------------------------
    def _feed_ma(self, deposits: list[dict[str, Any]], ma: MAParty) -> None:
        """The MA sees the admission stream the bank saw, in order."""
        for entry in deposits:
            if entry["status"] != "OK":
                continue
            ma.handle(PartyEvent("observe-deposit", {
                "aid": entry["party"], "amount": entry["body"].get("amount", 0),
            }))
        ma.handle(PartyEvent("conclude", {"truth": dict(self.truth)}))

    def _detections(self, deposits: list[dict[str, Any]], ma: MAParty, *,
                    cross_node_flags: int = 0) -> dict[str, dict[str, Any]]:
        by_rid = {e["rid"]: e for e in deposits}
        detections: dict[str, dict[str, Any]] = {}

        if self.rings:
            total = admitted = rejected = extras = 0
            revealed = True
            for leader, members in self.rings:
                accounts = {leader.name, *members}
                rids = [leader.deposit_rid] + [f"{m}:fence" for m in members]
                ring_admitted = 0
                for rid in rids:
                    entry = by_rid.get(rid)
                    if entry is None:
                        continue  # a fence that never landed (faulted away)
                    total += 1
                    if entry["status"] == "OK":
                        ring_admitted += 1
                    elif entry["status"] == "REJECTED":
                        rejected += 1
                        if evidence_prior_account(entry["body"]) not in accounts:
                            revealed = False
                admitted += ring_admitted
                extras += max(0, ring_admitted - 1)
            # Ring deposits route by the *depositing* account, so on the
            # cluster backend one serial's copies can land on different
            # nodes and each be admitted; the journal-shipping sweep
            # flags every such collision after the fact.  The ring is
            # caught when each serial was admitted at most once
            # synchronously, or when every extra admission was flagged
            # offline by the cross-node sweep.
            explained = extras > 0 and extras == cross_node_flags
            detections["double_spend"] = {
                "rings": len(self.rings),
                "deposits": total,
                "admitted": admitted,
                "rejected": rejected,
                "cross_node_flagged": cross_node_flags,
                "cross_node_explained": explained,
                "caught": extras == 0 or explained,
                "identity_revealed": revealed and rejected > 0,
            }

        replayers = [
            p for p in self.parties.values() if isinstance(p, ReplaySP)
        ]
        if replayers:
            attempts = rejected = 0
            for sp in replayers:
                for rid in sp.replay_rids:
                    entry = by_rid.get(rid)
                    if entry is None:
                        continue
                    attempts += 1
                    if entry["status"] == "REJECTED":
                        rejected += 1
            detections["replay"] = {
                "replayers": len(replayers),
                "attempts": attempts,
                "rejected": rejected,
                "detection_rate": (rejected / attempts) if attempts else 0.0,
            }

        if isinstance(ma, MaliciousMAParty) and ma.results:
            aids = sorted(ma.results)
            results = [ma.results[aid] for aid in aids]
            sizes = [r.anonymity_set_size for r in results]
            unique = sum(1 for r in results if r.uniquely_identified)
            # The attack's completeness guarantee — the true job always
            # sits in the anonymity set — binds only when the MA saw
            # the account's whole deposit vector; fault plans may drop
            # tokens at the source, so score coverage over the
            # fully-observed accounts and report the lossy rest.
            complete = [
                r for aid, r in zip(aids, results)
                if getattr(self.parties.get(aid), "dropped_deposits", 0) == 0
            ]
            detections["denomination"] = {
                "algorithm": self.config.break_algorithm,
                "scored": len(results),
                "scored_complete": len(complete),
                "uniquely_identified": unique,
                "unique_rate": unique / len(results),
                "mean_anonymity": sum(sizes) / len(sizes),
                "min_anonymity": min(sizes),
                "max_anonymity": max(sizes),
                "truth_covered": all(r.true_job_covered for r in complete),
            }
        return detections

    def _conservation(self, deposits: list[dict[str, Any]]) -> dict[str, Any]:
        deposited = sum(
            e["body"].get("amount", 0) for e in deposits if e["status"] == "OK"
        )
        accounts = sorted(
            name for name, p in self.parties.items()
            if not isinstance(p, (MAParty, PbsJobOwnerParty, PbsSensingParty))
        )
        final = sum(self.market.balance_of(aid, "balance", {"aid": aid})
                    for aid in accounts)
        outstanding = self.issued - deposited
        pbs_final = sum(self.market.balance_of(name, "pbs-balance", {"key": key})
                        for name, key in sorted(self.pbs_keys.items()))
        dec_ok = final == self.funded - self.issued + deposited
        pbs_ok = pbs_final == self.pbs_funded
        return {
            "funded": self.funded,
            "issued": self.issued,
            "deposited": deposited,
            "final": final,
            "outstanding": outstanding,
            "pbs_funded": self.pbs_funded,
            "pbs_final": pbs_final,
            "conserved": dec_ok and pbs_ok,
        }

    # -- run ---------------------------------------------------------------
    def run(self) -> CampaignReport:
        cfg = self.config
        try:
            starters = self._build_roster()
            arrivals = self.rng_for("#arrivals")
            ma = self.parties["ma"]
            t = 0.0
            for party in starters:
                event = PartyEvent("start")
                name = party.name
                self.queue.schedule(t, lambda n=name, e=event: self._deliver(n, e))
                if cfg.arrival_gap > 0:
                    t += arrivals.expovariate(1.0 / cfg.arrival_gap)
            self.queue.run(max_events=cfg.max_events)

            deposits = self.market.resolve_deposits()
            self._feed_ma(deposits, ma)

            verdicts = dict(sorted(self.market.verdicts.items()))

            conservation = self._conservation(deposits)
            findings = self.market.sweep()
            # Cross-node double deposits the ring attack fully explains
            # are the *detection* working, not an invariant failure —
            # reclassify them; unexplained ones stay findings.
            _XNODE = "(cross-node double deposit)"
            cross_node = [f for f in findings if f.endswith(_XNODE)]
            detections = self._detections(
                deposits, ma, cross_node_flags=len(cross_node)
            )
            ds = detections.get("double_spend")
            if ds is not None and ds["cross_node_explained"]:
                findings = [f for f in findings if not f.endswith(_XNODE)]
            stuck = sorted(
                name for name, p in self.parties.items() if not p.terminal
            )
            findings.extend(
                f"party {name!r} finished non-terminal "
                f"(state {self.parties[name].state!r})" for name in stuck
            )

            return CampaignReport(
                name=cfg.name,
                seed=cfg.seed,
                config=cfg.to_dict(),
                backend=cfg.backend,
                n_parties=len(self.parties),
                n_events=len(self.trace),
                trace_digest=self._trace_digest(),
                parties={
                    name: self.parties[name].ledger()
                    for name in sorted(self.parties)
                },
                verdicts=verdicts,
                detections=detections,
                conservation=conservation,
                invariants=tuple(findings),
                opcounts={party: dict(sorted(ops.items()))
                          for party, ops in sorted(self.counter.counts.items())},
            )
        finally:
            self.market.close()


# ---------------------------------------------------------------------------
# canned campaigns
# ---------------------------------------------------------------------------

def honest_campaign(seed: int = 0, *, scale: int = 1,
                    backend: str = "inprocess") -> CampaignConfig:
    """Honest economy, both schemes: must end clean with zero detections."""
    return CampaignConfig(
        name="honest", seed=seed, backend=backend,
        n_dec_jobs=4, n_pbs_jobs=2,
    ).scaled(scale)


def denomination_campaign(seed: int = 0, *, scale: int = 1,
                          backend: str = "inprocess",
                          break_algorithm: str = "epcba") -> CampaignConfig:
    """Malicious MA linking SP deposits to jobs via coin denominations."""
    return CampaignConfig(
        name="denomination", seed=seed, backend=backend,
        n_dec_jobs=6, n_pbs_jobs=0, malicious_ma=True,
        break_algorithm=break_algorithm,
        # distinct-ish payments give the attack its signal
        payment_choices=(1, 2, 3, 5, 7),
    ).scaled(scale)


def double_spend_campaign(seed: int = 0, *, scale: int = 1,
                          backend: str = "inprocess") -> CampaignConfig:
    """Rings and replayers against the serial store: all must be caught."""
    return CampaignConfig(
        name="double-spend", seed=seed, backend=backend,
        n_dec_jobs=2, n_pbs_jobs=0,
        double_spend_rings=2, ring_size=3, replay_sps=1,
    ).scaled(scale)


def mixed_campaign(seed: int = 0, *, scale: int = 1,
                   backend: str = "inprocess") -> CampaignConfig:
    """The full adversarial economy: every party type at once."""
    return CampaignConfig(
        name="mixed", seed=seed, backend=backend,
        n_dec_jobs=5, n_pbs_jobs=2,
        double_spend_rings=1, ring_size=3,
        replay_sps=1, omission_sps=1, malicious_ma=True,
        drop_rate=0.1, duplicate_rate=0.1, reorder_rate=0.2,
        deposit_wait_mean=0.5,
    ).scaled(scale)


CAMPAIGNS = {
    "honest": honest_campaign,
    "denomination": denomination_campaign,
    "double-spend": double_spend_campaign,
    "mixed": mixed_campaign,
}


def run_campaign(config: CampaignConfig, *, params=None,
                 keypair=None) -> CampaignReport:
    """Run one campaign to completion and return its report.

    The toy crypto substrate is derived from the config seed unless an
    explicit (*params*, *keypair*) pair is supplied (tests share one
    substrate across runs to keep the suite fast; byte-identical replay
    holds either way because the derivation is seed-deterministic).
    """
    if params is None or keypair is None:
        params, keypair = toy_market_params(
            random.Random(f"campaign-substrate:{config.seed}")
        )
    return Campaign(config, params, keypair).run()
