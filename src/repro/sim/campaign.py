"""Seeded, replayable market-economy campaigns against the live service.

A campaign runs the engine machines of Algorithms 1 and 4
(:mod:`repro.core.dec_machine`, :mod:`repro.core.pbs_machine`) —
job owners, sensing participants, double-spend rings, a (possibly
malicious) market administrator — through full PPMSdec and PPMSpbs
lifecycles.  Every job message is relayed by the MA under one-job
pseudonyms, and each message is one event on the campaign's
:class:`~repro.sim.events.EventQueue`, a seeded network latency after
it was sent.  The MAs' bank half runs on the **real**
:class:`~repro.service.server.MarketService` through one of the shared
gateways (:mod:`repro.service.gateway`: in process by default, or over
:class:`~repro.service.frontend.ServiceFrontend` sockets, or routed
into a :class:`~repro.cluster.node.LocalCluster`).
:mod:`repro.sim.party` holds what a campaign overrides.

Everything is derived from one seed: party RNGs, arrival times,
network latency, deposit waits, fault schedules, RSA keys, ZK
randomness.  Two runs of the same :class:`CampaignConfig` therefore
produce byte-identical :class:`~repro.sim.report.CampaignReport` JSON
— the report embeds the seed and the replay command, so any failing
campaign is a one-command reproduction.

Adversaries compose :mod:`repro.attacks`:

* a malicious MA runs the denomination attack
  (:func:`~repro.attacks.denomination.run_denomination_attack`) over
  its own PPMSdec board and the deposit stream the bank admitted,
  sweeping the configured coin-break algorithm (unitary / PCBA / EPCBA);
* double-spend rings deposit conflicting spends of one wallet node
  (:mod:`repro.attacks.rings`) under several accounts — the campaign
  asserts at most one admission per ring and that every rejection's
  evidence names the account that deposited first;
* replay SPs re-deposit spent tokens under fresh request ids;
* omission SPs take payment and go silent (outstanding float the
  conservation ledger must absorb, not flag);
* drop/duplicate/reorder faults from :mod:`repro.testing.faults`
  perturb honest deposit streams.

After the run the engine resolves the deposit stream, lets the MA
conclude, computes detection metrics and economy-wide value
conservation, and sweeps the substrate with the recovery / cluster
invariant checkers.  Every delivery a machine rejected is a finding.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import asdict, dataclass, replace
from typing import Any

from repro.attacks.rings import evidence_prior_account
from repro.core.engine import Outbound, Router
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
    DecDesk,
    DecJO,
    DecSP,
    MaliciousMA,
    OmissionSP,
    PbsDesk,
    PbsJO,
    PbsSP,
    ReplaySP,
    Ring,
)
from repro.sim.report import CampaignReport
from repro.testing.faults import FaultPlan
from repro.testing.invariants import check_recovery_invariants
from repro.testing.scenario import market_params

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
    needs.  ``call`` is synchronous (account opening, withdrawal,
    PPMSpbs deposit); ``deposit`` joins the PPMSdec deposit stream whose
    verdicts are resolved after the queue drains.  Duplicate request ids
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

    def open(self, sender: str, kind: str, payload: Any) -> None:
        """Open an account (``open-account`` or ``pbs-open-account``)."""
        status, body = self.call(sender, kind, payload, rid=f"{sender}:open")
        if status != "OK":
            raise RuntimeError(f"{kind} for {sender!r} failed: {body}")

    def deposit(self, sender: str, rid: str, payload: Any) -> None:
        """Join the deposit stream the MA observes; tallied at resolution
        (until :meth:`resolve_deposits` the verdict may stay pending)."""
        self._deposit_order.append((sender, rid))
        if self._service is not None:
            self._service.submit(sender, "deposit", payload, now=0.0, rid=rid)
            self._service.step()
            return
        self._answered[rid] = self._request(sender, "deposit", payload, rid)

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

        cluster = LocalCluster(params, keypair, n_nodes=max(2, config.n_nodes))
        router = cluster.router()
        return _MarketLink(
            router,
            lambda: check_cluster_invariants(
                params, keypair, cluster.map, cluster.dump_storage(),
                cross_slice_value=True,
            ),
            (router.close, cluster.close),
        )
    journal = Journal()
    service = MarketService(
        ShardedBank(params, keypair, random.Random(11)),
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
# the network: engine routers on the campaign clock
# ---------------------------------------------------------------------------

class _Network(Router):
    """An engine router whose every message is one event on the
    campaign's queue, delivered a seeded network latency after it was
    sent — a deposit after its ``at`` too, its sender's wait."""

    def __init__(self, queue: EventQueue, latency, trace: list) -> None:
        super().__init__()
        self.queue, self._latency, self.trace = queue, latency, trace

    def post(self, sender: str, out: Outbound) -> None:
        at = self.queue.now
        if out.kind == "deposit":
            at = max(at, out.payload["at"])
        self.queue.schedule(at + self._latency(), lambda: self._deliver(sender, out))

    def _deliver(self, sender: str, out: Outbound) -> None:
        self.trace.append((self.queue.now, out.receiver, out.kind))
        super()._deliver(sender, out)


# ---------------------------------------------------------------------------
# the campaign engine
# ---------------------------------------------------------------------------

class Campaign:
    """One seeded run of a roster of engine machines against the live market.

    Each scheme has its MA (:attr:`dec`, :attr:`pbs`) on its own
    network (:attr:`dec_net`, :attr:`pbs_net`); :attr:`residents` maps
    each campaign name to its machine (a ring answers to every ring
    account's name).
    """

    def __init__(self, config: CampaignConfig, params, keypair) -> None:
        self.config = config
        self.params = params
        self.keypair = keypair
        self.coin_value = 1 << params.tree_level
        self.counter = OpCounter()
        self.queue = EventQueue()
        self.market = _open_market(config, params, keypair)
        desk = MaliciousMA if config.malicious_ma else DecDesk
        self.dec = desk(self.market, params, self.counter)
        self.pbs = PbsDesk(self.market, self.counter)
        self.trace: list[tuple[float, str, str]] = []
        self.dec_net = _Network(self.queue, self._latency, self.trace)
        self.pbs_net = _Network(self.queue, self._latency, self.trace)
        self.dec_net.add(self.dec)
        self.pbs_net.add(self.pbs)
        self.residents: dict[str, Any] = {}
        self.truth: dict[str, str] = {}  # sp account -> its job on the board
        self.rings: list[Ring] = []
        #: the resolved deposit stream, in submission order (after :meth:`run`)
        self.deposits: list[dict[str, Any]] = []
        self._workers: dict[str, list] = {}  # job owner -> SPs not yet recruited
        self._rngs: dict[str, random.Random] = {}
        self._net_rng = random.Random(f"{config.seed}:#net")

    def rng_for(self, name: str) -> random.Random:
        if name not in self._rngs:
            self._rngs[name] = random.Random(f"{self.config.seed}:{name}")
        return self._rngs[name]

    def _latency(self) -> float:
        mean = self.config.delivery_latency_mean
        return self._net_rng.expovariate(1.0 / mean) if mean > 0 else 0.0

    def _trace_digest(self) -> str:
        lines = "\n".join(
            f"{t:.9f} {name} {kind}" for t, name, kind in self.trace
        )
        return hashlib.sha256(lines.encode()).hexdigest()

    # -- roster ------------------------------------------------------------
    def _build_roster(self) -> list:
        """Create every resident; returns the arrival actions, in order."""
        cfg = self.config
        roster_rng = self.rng_for("#roster")
        policy = (
            DepositPolicy.randomized(cfg.deposit_wait_mean)
            if cfg.deposit_wait_mean > 0 else DepositPolicy.immediate()
        )
        faulty = cfg.drop_rate > 0 or cfg.duplicate_rate > 0 or cfg.reorder_rate > 0
        arrivals = []

        replay_quota = cfg.replay_sps
        omission_quota = cfg.omission_sps
        fault_seq = 0
        for i in range(cfg.n_dec_jobs):
            n_sps = roster_rng.randint(cfg.min_sps, cfg.max_sps)
            payment = roster_rng.choice(cfg.payment_choices)
            sps = []
            for j in range(n_sps):
                name = f"sp-{i}-{j}"
                cls, plan = DecSP, None
                if replay_quota > 0:
                    replay_quota -= 1
                    cls = ReplaySP
                elif omission_quota > 0:
                    omission_quota -= 1
                    cls = OmissionSP
                elif faulty:
                    fault_seq += 1
                    plan = FaultPlan(
                        seed=cfg.seed * 100_003 + fault_seq,
                        drop=cfg.drop_rate,
                        duplicate=cfg.duplicate_rate,
                        reorder=cfg.reorder_rate,
                        max_slip=cfg.max_slip,
                    )
                sps.append(self._resident(name, cls(
                    name, self.params, self.rng_for(name), self.counter,
                    rsa_bits=cfg.rsa_bits, clock=self.queue, policy=policy, plan=plan)))
            name = f"jo-{i}"
            jo = self._resident(name, DecJO(
                name, self.params, self.rng_for(name), self.counter,
                rsa_bits=cfg.rsa_bits, break_algorithm=cfg.break_algorithm,
                clock=self.queue, recruit=self._recruit_dec, workers=n_sps))
            self._workers[jo.name] = sps
            arrivals.append(lambda jo=jo, payment=payment, funds=(n_sps + 1) * self.coin_value:
                            self._post_dec_job(jo, payment, funds))

        for r in range(cfg.double_spend_rings):
            name = f"ring{r}-leader"
            members = tuple(f"ring{r}-m{j}" for j in range(cfg.ring_size - 1))
            ring = Ring(name, members, self.params, self.keypair.public,
                        self.rng_for(name), self.queue)
            self.rings.append(ring)
            self.residents.update(dict.fromkeys(ring.accounts, ring))
            arrivals.append(lambda ring=ring: self._arm_ring(ring))

        for i in range(cfg.n_pbs_jobs):
            n_sps = roster_rng.randint(cfg.min_sps, cfg.max_sps)
            sps = []
            for j in range(n_sps):
                name = f"pbs-sp-{i}-{j}"
                sps.append(self._resident(name, PbsSP(
                    self.rng_for(name), self.counter, rsa_bits=cfg.rsa_bits,
                    clock=self.queue, policy=policy)))
            name = f"pbs-jo-{i}"
            jo = self._resident(name, PbsJO(
                self.rng_for(name), self.counter, rsa_bits=cfg.rsa_bits,
                recruit=self._recruit_pbs, workers=n_sps))
            self._workers[jo.name] = sps
            arrivals.append(lambda jo=jo, funds=n_sps + 1: self._post_pbs_job(jo, funds))
        return arrivals

    def _resident(self, name: str, party):
        self.residents[name] = party
        return party

    @staticmethod
    def _join(net: _Network, party, *aliases: str) -> None:
        net.add(party, *aliases)
        net.activate(party.name)

    # -- arrivals: each resident opens its account when it shows up ----------
    def _post_dec_job(self, jo: DecJO, payment: int, funds: int) -> None:
        self.dec.open_account(jo.aid, funds)
        jo.begin_job("sensing job", payment, self.keypair.public)
        self._join(self.dec_net, jo, jo.nym)

    def _recruit_dec(self, jo: DecJO) -> None:
        """The job is on the board: its workers take it (once; a second
        ``job-published`` recruits nobody)."""
        sps = self._workers.pop(jo.name, ())
        if not sps:
            return
        job = self.dec.board.lookup(jo.job_id)
        for sp in sps:
            self.dec.open_account(sp.aid, 0)
            sp.bind(job, jo.job_key.public, self.keypair.public, b"sensing-data",
                    self.queue.now)
            self.truth[sp.aid] = job.job_id
            self._join(self.dec_net, sp, sp.nym)

    def _arm_ring(self, ring: Ring) -> None:
        self.dec.open_account(ring.name, self.coin_value)
        for member in ring.accounts[1:]:
            self.dec.open_account(member, 0)
        self._join(self.dec_net, ring, *ring.accounts[1:])

    def _post_pbs_job(self, jo: PbsJO, funds: int) -> None:
        self.pbs.open_account(jo.account_pub, funds)
        jo.begin_job("unitary sensing job")
        self._join(self.pbs_net, jo, jo.nym)

    def _recruit_pbs(self, jo: PbsJO) -> None:
        sps = self._workers.pop(jo.name, ())
        if not sps:
            return
        job = self.pbs.board.lookup(jo.job_id)
        for sp in sps:
            self.pbs.open_account(sp.account_pub, 0)
            sp.bind(job, jo.job_key.public, b"sensing-data", True)
            self._join(self.pbs_net, sp, sp.nym)

    # -- analysis ----------------------------------------------------------
    def _detections(self, deposits: list[dict[str, Any]], *,
                    cross_node_flags: int = 0) -> dict[str, dict[str, Any]]:
        by_rid = {e["rid"]: e for e in deposits}
        detections: dict[str, dict[str, Any]] = {}

        if self.rings:
            total = admitted = rejected = extras = 0
            revealed = True
            for ring in self.rings:
                ring_admitted = 0
                for aid in ring.accounts:
                    entry = by_rid.get(f"{aid}:fence")
                    if entry is None:
                        continue  # a spend that never landed
                    total += 1
                    if entry["status"] == "OK":
                        ring_admitted += 1
                    elif entry["status"] == "REJECTED":
                        rejected += 1
                        if evidence_prior_account(entry["body"]) not in ring.accounts:
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
            p for p in self.residents.values() if isinstance(p, ReplaySP)
        ]
        if replayers:
            attempts = rejected = 0
            for sp in replayers:
                for rid in sp.sent:
                    entry = by_rid.get(rid) if ":replay:" in rid else None
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

        if self.dec.results:
            aids = sorted(self.dec.results)
            results = [self.dec.results[aid] for aid in aids]
            sizes = [r.anonymity_set_size for r in results]
            unique = sum(1 for r in results if r.uniquely_identified)
            # The attack's completeness guarantee — the true job always
            # sits in the anonymity set — binds only when the MA saw
            # the account's whole deposit vector; fault plans may drop
            # tokens at the source, so score coverage over the
            # fully-observed accounts and report the lossy rest.
            complete = [
                r for aid, r in zip(aids, results) if self.residents[aid].dropped == 0
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
        funded = sum(self.dec.funded.values())
        final = sum(self.market.balance_of(aid, "balance", {"aid": aid})
                    for aid in sorted(self.dec.funded))
        pbs_funded = sum(self.pbs.funded.values())
        pbs_final = sum(self.market.balance_of(name, "pbs-balance", {"key": key})
                        for name, key in sorted(self.pbs.keys.items()))
        return {
            "funded": funded,
            "issued": self.dec.issued,
            "deposited": deposited,
            "final": final,
            "outstanding": self.dec.issued - deposited,
            "pbs_funded": pbs_funded,
            "pbs_final": pbs_final,
            "conserved": (final == funded - self.dec.issued + deposited
                          and pbs_final == pbs_funded),
        }

    # -- run ---------------------------------------------------------------
    def run(self) -> CampaignReport:
        cfg = self.config
        try:
            arrivals = self.rng_for("#arrivals")
            t = 0.0
            for action in self._build_roster():
                self.queue.schedule(t, action)
                if cfg.arrival_gap > 0:
                    t += arrivals.expovariate(1.0 / cfg.arrival_gap)
            self.queue.run(max_events=cfg.max_events)

            deposits = self.deposits = self.market.resolve_deposits()
            self.dec.conclude(deposits, self.truth)
            verdicts = dict(sorted(self.market.verdicts.items()))

            conservation = self._conservation(deposits)
            findings = self.market.sweep()
            # Cross-node double deposits the ring attack fully explains
            # are the *detection* working, not an invariant failure —
            # reclassify them; unexplained ones stay findings.
            _XNODE = "(cross-node double deposit)"
            cross_node = [f for f in findings if f.endswith(_XNODE)]
            detections = self._detections(
                deposits, cross_node_flags=len(cross_node)
            )
            ds = detections.get("double_spend")
            if ds is not None and ds["cross_node_explained"]:
                findings = [f for f in findings if not f.endswith(_XNODE)]
            # a machine that rejected a delivery is a finding, honest or not
            findings.extend(
                f"{f.kind} from {f.sender!r} to {f.receiver!r} rejected: {f.error}"
                for net in (self.dec_net, self.pbs_net) for f in net.failures
            )
            parties = {name: self.residents[name].ledger()
                       for name in sorted(self.residents)}
            findings.extend(
                f"party {name!r} did not finish its lifecycle"
                for name, ledger in parties.items() if not ledger["done"]
            )
            parties["ma"] = {
                "role": "ma-malicious" if cfg.malicious_ma else "ma",
                "dec_jobs": len(self.dec.board.entries),
                "pbs_jobs": len(self.pbs.board.entries),
                "attacked": len(self.dec.results),
                "done": True,
            }

            return CampaignReport(
                name=cfg.name,
                seed=cfg.seed,
                config=cfg.to_dict(),
                backend=cfg.backend,
                n_parties=len(parties),
                n_events=len(self.trace),
                trace_digest=self._trace_digest(),
                parties=dict(sorted(parties.items())),
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

    Unless an explicit (*params*, *keypair*) pair is supplied, both are
    :func:`~repro.testing.scenario.market_params` of the config seed
    (tests share one substrate across runs to keep the suite fast;
    byte-identical replay holds either way because the derivation is
    seed-deterministic).
    """
    if params is None or keypair is None:
        params, keypair = market_params(
            random.Random(f"campaign-substrate:{config.seed}")
        )
    return Campaign(config, params, keypair).run()
