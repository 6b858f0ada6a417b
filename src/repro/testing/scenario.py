"""Scenario replay: market flows under faults, with crash recovery.

Two runners, one per market mechanism:

* :func:`run_deposit_scenario` — PPMSdec.  Spend tokens are minted
  once (:func:`build_deposit_kit`) against a fixed CL keypair, then a
  fresh journaled :class:`~repro.service.server.MarketService` replays
  the deposit traffic under a :class:`~repro.testing.faults.FaultPlan`:
  requests dropped, duplicated and reordered, the service killed at
  scripted envelopes and recovered from its write-ahead journal plus
  the latest checkpoint.
* :func:`run_pbs_scenario` — PPMSpbs.  Unitary coins are minted by a
  full Algorithm-4 run (:func:`build_pbs_kit`, ``deposit=False``), and
  a minimal journaled deposit endpoint over
  :class:`~repro.core.ppms_pbs.VirtualBankPbs` replays the deposits
  under the same fault machinery.

Both runners model the client side of an at-least-once network: a
delivery that dies in a :class:`~repro.testing.faults.CrashPoint` is
*retried under the same request id* after recovery, which is exactly
what makes the exactly-once layer (rid dedupe + journaled replies)
observable.  After every recovery — and once more at the end — the
global invariants run: balance conservation, serial-number uniqueness,
ledger/journal agreement, and the scenario-level checks (every
delivered request answered, at most one ``OK`` per coin, per-account
balances reconciling against the verdicts).

Everything is deterministic in the plan's seed; a failing
:class:`ScenarioResult` prints the seed, the full fault schedule, and
the one-liner that replays it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import repro.obs as obs
from repro.core.pbs_ledger import audit_pbs_bank, restore_pbs_bank, snapshot_pbs_bank
from repro.core.ppms_pbs import (
    CoinReceipt,
    DoubleDepositError,
    PPMSpbsSession,
    VirtualBankPbs,
)
from repro.crypto import rsa
from repro.crypto.cl_sig import CLKeyPair, cl_keygen
from repro.ecash.dec import setup
from repro.ecash.spend import DECParams, SpendToken
from repro.net.transport import Transport
from repro.service.batcher import VerificationBatcher
from repro.service.journal import Checkpoint, Journal
from repro.service.loadgen import OfflineIssuer, mint_deposit_traffic
from repro.service.server import MarketService
from repro.service.shard import ShardedBank
from repro.service.storage import MemoryStorage
from repro.testing.faults import CrashPoint, FaultClock, FaultPlan, FaultyTransport
from repro.testing.invariants import check_recovery_invariants

__all__ = [
    "DepositKit",
    "PbsDepositService",
    "PbsKit",
    "ScenarioResult",
    "build_deposit_kit",
    "build_pbs_kit",
    "run_deposit_scenario",
    "run_pbs_scenario",
    "toy_market_params",
]


def toy_market_params(
    rng: random.Random, *, level: int = 3
) -> tuple[DECParams, CLKeyPair]:
    """The toy PPMSdec substrate every fast harness shares.

    One recipe — :func:`build_deposit_kit`'s defaults, the campaign
    engine's substrate, the conftest fixtures — so a seed means the
    same parameters everywhere.  Toy sizes only: 64-bit security, fake
    pairing, 4 edge rounds.
    """
    params = setup(level, rng, security_bits=64, real_pairing=False, edge_rounds=4)
    return params, cl_keygen(params.backend, rng)


# ---------------------------------------------------------------------------
# result type
# ---------------------------------------------------------------------------

@dataclass
class ScenarioResult:
    """Everything one scenario run observed — and how to replay it."""

    name: str
    plan: FaultPlan
    delivered: int = 0
    duplicates: int = 0
    dropped: tuple[int, ...] = ()
    crashes: int = 0
    recoveries: int = 0
    checkpoints: int = 0
    ok: int = 0
    rejected: int = 0
    errors: int = 0
    verdicts: dict[str, str] = field(default_factory=dict)
    findings: tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        return not self.findings

    def report(self) -> str:
        """Multi-line failure report: seed, schedule, findings, replay."""
        runner = (
            "run_deposit_scenario" if self.name == "ppms-dec" else "run_pbs_scenario"
        )
        lines = [
            f"scenario {self.name} under fault seed {self.plan.seed}",
            f"fault schedule: {self.plan.describe()}",
            f"delivered {self.delivered} requests "
            f"({self.duplicates} duplicated, {len(self.dropped)} dropped), "
            f"{self.crashes} crashes, {self.recoveries} recoveries, "
            f"{self.checkpoints} checkpoints",
            f"verdicts: {self.ok} OK, {self.rejected} REJECTED, {self.errors} ERROR",
        ]
        if self.findings:
            lines.append("invariant findings:")
            lines.extend(f"  - {finding}" for finding in self.findings)
        lines.append(
            f"replay: repro.testing.{runner}({self.plan.seed})  "
            f"(or REPRO_TEST_SEED to shift the whole suite)"
        )
        return "\n".join(lines)


def _count_verdicts(result: ScenarioResult) -> None:
    for status in result.verdicts.values():
        if status == "OK":
            result.ok += 1
        elif status == "REJECTED":
            result.rejected += 1
        elif status == "ERROR":
            result.errors += 1


# ---------------------------------------------------------------------------
# PPMSdec: deposit kit + scenario
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _KitRequest:
    """One scripted deposit: a stable rid over a minted token."""

    rid: str
    aid: str
    token_index: int
    double_spend: bool  # True when this rid re-deposits an earlier token


@dataclass(frozen=True)
class DepositKit:
    """Pre-minted PPMSdec material, reusable across bank incarnations.

    Tokens are bound to *keypair*, not to any bank object — every
    scenario (and every recovery inside one) builds fresh banks around
    the same cryptographic identity, so the kit mints once per test
    session and the expensive ZKP work stays out of the fault loop.
    """

    params: DECParams
    keypair: CLKeyPair
    funding: tuple[tuple[str, int, int], ...]  # (aid, balance, coins minted)
    tokens: tuple[SpendToken, ...]
    amounts: tuple[int, ...]  # denomination of each token
    requests: tuple[_KitRequest, ...]


def build_deposit_kit(
    rng: random.Random,
    *,
    params: DECParams | None = None,
    keypair: CLKeyPair | None = None,
    n_accounts: int = 3,
    n_deposits: int = 8,
    node_level: int | None = None,
    double_spends: int = 2,
) -> DepositKit:
    """Fund, withdraw and mint *n_deposits* spend tokens client-side.

    Minting is :func:`repro.service.loadgen.mint_deposit_traffic` with
    an :class:`~repro.service.loadgen.OfflineIssuer` — no bank: the
    withdrawals are accounted for in ``funding`` (balance minus coins),
    so the scenario's bank opens each account, debits the coins, and
    conservation still closes.  *double_spends* extra requests
    re-deposit earlier tokens under fresh request ids — the intentional
    frauds the service must keep rejecting across crashes.
    """
    if n_accounts < 1 or n_deposits < 1:
        raise ValueError("need at least one account and one deposit")
    if params is None:
        params, generated = toy_market_params(rng)
        if keypair is None:
            keypair = generated
    if keypair is None:
        keypair = cl_keygen(params.backend, rng)
    level = params.tree_level
    # whole rounds: every account mints the same count, so ``tokens``
    # can be kept in per-account mint order and the round-robin request
    # order trimmed to exactly n_deposits
    per_account = -(-n_deposits // n_accounts)
    issuer = OfflineIssuer(params, keypair)
    minted = mint_deposit_traffic(
        issuer, rng, n_accounts=n_accounts,
        n_deposits=per_account * n_accounts, node_level=node_level,
    )
    tokens: list[SpendToken | None] = [None] * len(minted)
    requests: list[_KitRequest] = []
    for j, request in enumerate(minted):
        k = (j % n_accounts) * per_account + j // n_accounts
        tokens[k] = request.payload["token"]
        if j < n_deposits:
            requests.append(_KitRequest(rid=f"dep:{j}", aid=request.sender,
                                        token_index=k, double_spend=False))
    for extra in range(double_spends):
        # the fraud is scripted strictly after its victim, so in a
        # fault-free run the fresh deposit wins and the re-deposit is
        # the one rejected (faults may still reorder them — the
        # scenario checks "at most one OK per token" either way)
        victim_pos = rng.randrange(len(requests))
        victim = requests[victim_pos]
        requests.insert(
            rng.randrange(victim_pos + 1, len(requests) + 1),
            _KitRequest(
                rid=f"dep:ds{extra}",
                aid=victim.aid,
                token_index=victim.token_index,
                double_spend=True,
            ),
        )
    return DepositKit(
        params=params,
        keypair=keypair,
        funding=tuple(
            (r.sender, r.payload["balance"], r.payload["balance"] >> level)
            for r in issuer.opens
        ),
        tokens=tuple(tokens),
        amounts=tuple(t.denomination(level) for t in tokens),
        requests=tuple(requests),
    )


def run_deposit_scenario(
    plan: FaultPlan | int,
    *,
    kit: DepositKit | None = None,
    n_shards: int = 3,
    max_batch: int = 4,
    checkpoint_every: int = 5,
    telemetry: "obs.Telemetry | None" = None,
) -> ScenarioResult:
    """Replay the kit's deposit traffic under *plan*; verify everything.

    What survives a :class:`CrashPoint` is the journal's *storage* and
    nothing else: the service, bank, batcher and journal objects are
    abandoned, exactly the process-death model, and recovery reopens
    the storage the way a restarted server does — ``Journal(storage)``
    (frame scan, torn-tail handling) + ``load_checkpoint()`` (manifest
    validation).  Checkpoints are written every *checkpoint_every*
    successful deliveries, so recoveries exercise snapshot-plus-tail
    replay, not just full replay.

    *telemetry* (an :class:`repro.obs.Telemetry`) is handed to every
    incarnation, so one trace shows a request crossing a crash: its
    retry keeps the rid, hence the same trace id.
    """
    if isinstance(plan, int):
        plan = FaultPlan.from_seed(plan)
    if kit is None:
        kit = build_deposit_kit(random.Random(f"deposit-kit:{plan.seed}"))
    result = ScenarioResult(name="ppms-dec", plan=plan)
    storage = MemoryStorage()  # all that survives a crash
    clock = FaultClock(plan.crash_points)
    # the network under fault wraps the service boundary: each request
    # crosses it on the way in, each delivered reply on the way out
    net = FaultyTransport(clock)
    findings: list[str] = []

    def on_network(incarnation: MarketService) -> MarketService:
        incarnation.add_reply_observer(
            lambda sender, reply: net.send("MA", sender, "reply", reply))
        return incarnation

    def fresh_batcher() -> VerificationBatcher:
        return VerificationBatcher(
            kit.params, kit.keypair, max_batch=max_batch, seed=7,
            warm_tables=False, telemetry=telemetry,
        )

    # first incarnation: fund the accounts and book the withdrawals the
    # kit's coins correspond to.  Journaled but rid-less — these are
    # out-of-band setup mutations (same as loadgen minting), not
    # requests with a client lifecycle; each record replays exactly once
    bank = ShardedBank(
        kit.params, kit.keypair, random.Random(1), n_shards=n_shards,
        journal=Journal(storage, telemetry=telemetry), telemetry=telemetry,
    )
    for aid, balance, coins in kit.funding:
        bank.open_account(aid, balance)
        for _ in range(coins):
            bank.apply_withdrawal(aid)
    service = on_network(MarketService(
        bank,
        batcher=fresh_batcher(),
        rng=random.Random(2),
        telemetry=telemetry,
    ))

    def recover() -> MarketService:
        result.recoveries += 1
        journal = Journal(storage, telemetry=telemetry)
        recovered = on_network(MarketService.recover(
            kit.params,
            kit.keypair,
            journal,
            checkpoint=journal.load_checkpoint(),
            n_shards=n_shards,
            batcher=fresh_batcher(),
            telemetry=telemetry,
        ))
        sweep = check_recovery_invariants(recovered.bank, journal)
        findings.extend(
            f"after recovery {result.recoveries}: {f}" for f in sweep.findings
        )
        return recovered

    schedule, dropped = plan.perturb(len(kit.requests))
    result.dropped = dropped
    for delivery in schedule:
        request = kit.requests[delivery.original]
        if delivery.duplicate:
            result.duplicates += 1
        while True:  # the client retries through crashes, same rid
            try:
                payload = net.send(
                    request.aid, "MA", "deposit",
                    {"aid": request.aid, "token": kit.tokens[request.token_index]},
                )
                service.submit(request.aid, "deposit", payload, rid=request.rid)
                service.step()
                break
            except CrashPoint:
                service = recover()
        result.delivered += 1
        if checkpoint_every and result.delivered % checkpoint_every == 0:
            service.journal.write_checkpoint(service.checkpoint())
            result.checkpoints += 1
    while True:
        try:
            service.drain()
            break
        except CrashPoint:
            service = recover()
    result.crashes = len(clock.fired)

    # final invariant sweep over the surviving incarnation
    sweep = check_recovery_invariants(service.bank, service.journal)
    findings.extend(f"final: {f}" for f in sweep.findings)

    # scenario-level checks -------------------------------------------------
    delivered_rids = {kit.requests[d.original].rid for d in schedule}
    for request in kit.requests:
        reply = service.reply_for(request.rid)
        if request.rid not in delivered_rids:
            if reply is not None:
                findings.append(
                    f"rid {request.rid!r} was dropped by the network yet answered"
                )
            continue
        if reply is None:
            findings.append(f"rid {request.rid!r} delivered but never answered")
            continue
        result.verdicts[request.rid] = reply[0]
    _count_verdicts(result)

    ok_by_token: dict[int, list[str]] = {}
    for request in kit.requests:
        if result.verdicts.get(request.rid) == "OK":
            ok_by_token.setdefault(request.token_index, []).append(request.rid)
    for token_index, rids in sorted(ok_by_token.items()):
        if len(rids) > 1:
            findings.append(
                f"token {token_index} deposited OK under {len(rids)} rids "
                f"{rids} — a double deposit was admitted"
            )

    expected = {aid: balance - coins * (1 << kit.params.tree_level)
                for aid, balance, coins in kit.funding}
    token_owner = {r.token_index: r.aid for r in kit.requests}
    for token_index in ok_by_token:
        # all rids of one token share an owner; credit the token once
        expected[token_owner[token_index]] += kit.amounts[token_index]
    for aid, want in expected.items():
        have = service.bank.balance(aid)
        if have != want:
            findings.append(
                f"account {aid!r} balance {have} != reconciled {want} "
                "(verdicts and books disagree)"
            )
    result.findings = tuple(findings)
    return result


# ---------------------------------------------------------------------------
# PPMSpbs: kit + journaled deposit endpoint + scenario
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PbsKit:
    """Pre-minted PPMSpbs material: accounts, verified coins, script.

    Built by one full fault-free Algorithm-4 run with the deposits held
    back (``deposit=False``), so the scenario replays *only* the
    deposit step — the part the MA's books depend on — under faults.
    """

    accounts: tuple[tuple[bytes, tuple[int, int], int], ...]  # (aid, key, balance)
    receipts: tuple[CoinReceipt, ...]
    sp_keys: tuple[tuple[int, int], ...]  # per receipt, the SP's account key
    requests: tuple[_KitRequest, ...]  # aid field unused (keys identify parties)


def build_pbs_kit(
    rng: random.Random,
    *,
    n_sps: int = 3,
    rsa_bits: int = 512,
    extra_funds: int = 1,
    double_spends: int = 1,
) -> PbsKit:
    """Run Algorithm 4 once (no deposits); script the deposit replay."""
    if n_sps < 1:
        raise ValueError("need at least one sensing participant")
    session = PPMSpbsSession(rng, rsa_bits=rsa_bits)
    jo = session.new_job_owner(funds=n_sps + extra_funds)
    sps = [session.new_participant() for _ in range(n_sps)]
    receipts = session.run_job(jo, sps, deposit=False)
    accounts = tuple(
        (aid, session.ma.bank.bound_keys[aid], balance)
        for aid, balance in session.ma.bank.accounts.items()
    )
    requests = [
        _KitRequest(rid=f"pbs:{i}", aid="", token_index=i, double_spend=False)
        for i in range(len(receipts))
    ]
    for extra in range(double_spends):
        victim_pos = rng.randrange(len(requests))
        victim = requests[victim_pos]
        requests.insert(
            rng.randrange(victim_pos + 1, len(requests) + 1),
            _KitRequest(
                rid=f"pbs:ds{extra}",
                aid="",
                token_index=victim.token_index,
                double_spend=True,
            ),
        )
    return PbsKit(
        accounts=accounts,
        receipts=tuple(receipts),
        sp_keys=tuple((sp.account_pub.n, sp.account_pub.e) for sp in sps),
        requests=tuple(requests),
    )


class PbsDepositService:
    """Minimal journaled deposit endpoint over :class:`VirtualBankPbs`.

    The same write-ahead discipline as :class:`MarketService`, scaled
    to the unitary bank: verify (pure) → journal the ``apply`` → mutate
    → journal the ``reply`` → send.  Request-id dedupe gives retries
    their cached verdicts, so at-least-once delivery stays exactly-once
    on the books.

    Public because the campaign engine (:mod:`repro.sim.campaign`)
    drives PPMSpbs lifecycles against it; the fault scenarios here keep
    using it through the same interface.
    """

    def __init__(self, bank: VirtualBankPbs, journal: Journal,
                 transport: Transport | None = None) -> None:
        self.bank = bank
        self.journal = journal
        # the journal carries the scenario's telemetry stack; sharing it
        # keeps pbs submit spans and journal_append spans on one tracer
        self.obs = journal.obs
        self.transport = transport if transport is not None else Transport()
        self._replies: dict[str, tuple[str, dict]] = {}

    @staticmethod
    def _fresh_bank(kit: PbsKit) -> VirtualBankPbs:
        bank = VirtualBankPbs()
        for aid, key, balance in kit.accounts:
            bank.accounts[aid] = balance
            bank.bound_keys[aid] = tuple(key)
        return bank

    @classmethod
    def recover(cls, kit: PbsKit, journal: Journal,
                transport: Transport) -> "PbsDepositService":
        """Rebuild from the journal's newest checkpoint plus its tail."""
        bank = cls._fresh_bank(kit)
        checkpoint = journal.load_checkpoint()
        start = -1
        if checkpoint is not None:
            restore_pbs_bank(bank, checkpoint.blobs[0])
            start = checkpoint.lsn
        cls._replay_into(bank, journal, start)
        service = cls(bank, journal, transport)
        for record in journal.records():
            if record.kind == "reply":
                service._replies.setdefault(
                    record.rid,
                    (record.payload["status"], record.payload["body"]),
                )
        for record in journal.records():
            # applied but crash before the reply record: synthesize OK
            if record.kind == "apply" and record.rid not in service._replies:
                service._replies[record.rid] = ("OK", {})
        return service

    @staticmethod
    def _replay_into(bank: VirtualBankPbs, journal: Journal, start: int) -> None:
        applied: set[str] = set()
        for record in journal.records():
            if record.kind != "apply":
                continue
            if record.lsn <= start:
                applied.add(record.rid)
                continue
            if record.rid in applied:
                continue
            applied.add(record.rid)
            payload = record.payload
            if (payload["payer"], payload["serial"]) in bank.spent_serials:
                continue  # folded into the checkpoint already
            bank.apply_deposit(payload["payer"], payload["payee"], payload["serial"])

    def checkpoint(self) -> Checkpoint:
        return Checkpoint(
            lsn=self.journal.last_lsn, blobs=(snapshot_pbs_bank(self.bank),)
        )

    def reply_for(self, rid: str) -> tuple[str, dict] | None:
        return self._replies.get(rid)

    def submit(self, rid: str, signature, sp_key: tuple[int, int],
               jo_key: tuple[int, int]) -> str:
        """One deposit attempt; returns the verdict status."""
        tracer = self.obs.tracer
        with tracer.span("submit",
                         trace=obs.trace_id(rid) if tracer.enabled else None,
                         kind="pbs-deposit"):
            return self._submit(rid, signature, sp_key, jo_key)

    def _submit(self, rid: str, signature, sp_key: tuple[int, int],
                jo_key: tuple[int, int]) -> str:
        delivered = self.transport.send(
            "SP", "MA-pbs", "deposit",
            {"sig": signature, "sp_key": list(sp_key), "jo_key": list(jo_key)},
        )
        if rid in self._replies:
            status, body = self._replies[rid]
            self.transport.send("MA-pbs", "SP", "reply", {"status": status, **body})
            return status
        sig = delivered["sig"]
        try:
            payer, payee = self.bank.check_deposit(
                sig, delivered["sp_key"], delivered["jo_key"]
            )
        except DoubleDepositError:
            return self._finish(rid, "REJECTED", {"error": "double deposit"})
        except ValueError as exc:
            return self._finish(rid, "ERROR", {"error": str(exc)})
        self.journal.append(
            "apply", rid, "pbs-deposit",
            {"payer": payer, "payee": payee, "serial": sig.common_info},
        )
        self.bank.apply_deposit(payer, payee, sig.common_info)
        return self._finish(rid, "OK", {})

    def _finish(self, rid: str, status: str, body: dict) -> str:
        with self.obs.tracer.span("reply", status=status):
            self.journal.append("reply", rid, "pbs-deposit",
                                {"status": status, "body": body})
            self._replies[rid] = (status, body)
            self.transport.send("MA-pbs", "SP", "reply",
                                {"status": status, **body})
        return status


def _pbs_findings(service: PbsDepositService, kit: PbsKit) -> list[str]:
    """PBS analogue of the recovery invariants: audit + journal agreement."""
    findings = list(audit_pbs_bank(service.bank).findings)
    journal = service.journal
    shadow = PbsDepositService._fresh_bank(kit)
    PbsDepositService._replay_into(shadow, journal, -1)
    live = service.bank
    if live.accounts != shadow.accounts:
        findings.append(
            f"journal disagreement on accounts: live {live.accounts} "
            f"!= replayed {shadow.accounts}"
        )
    if live.spent_serials != shadow.spent_serials:
        findings.append(
            "journal disagreement on spent serials: "
            f"{len(live.spent_serials ^ shadow.spent_serials)} differ"
        )
    if live.transaction_log != shadow.transaction_log:
        findings.append("journal disagreement on the transaction log")
    applied: dict[str, int] = {}
    for record in journal.records():
        if record.kind == "apply":
            applied[record.rid] = applied.get(record.rid, 0) + 1
    for rid, count in applied.items():
        if count > 1:
            findings.append(f"rid {rid!r} has {count} apply records (double-applied)")
    return findings


def run_pbs_scenario(
    plan: FaultPlan | int,
    *,
    kit: PbsKit | None = None,
    checkpoint_every: int = 3,
    telemetry: "obs.Telemetry | None" = None,
) -> ScenarioResult:
    """Replay the kit's unitary deposits under *plan*; verify everything."""
    if isinstance(plan, int):
        plan = FaultPlan.from_seed(plan)
    if kit is None:
        kit = build_pbs_kit(random.Random(f"pbs-kit:{plan.seed}"))
    result = ScenarioResult(name="ppms-pbs", plan=plan)
    storage = MemoryStorage()  # all that survives a crash
    clock = FaultClock(plan.crash_points)
    findings: list[str] = []
    # the first incarnation starts as every later one: from the store
    service = PbsDepositService.recover(
        kit, Journal(storage, telemetry=telemetry), FaultyTransport(clock))

    def recover() -> PbsDepositService:
        result.recoveries += 1
        recovered = PbsDepositService.recover(
            kit, Journal(storage, telemetry=telemetry), FaultyTransport(clock)
        )
        findings.extend(
            f"after recovery {result.recoveries}: {f}"
            for f in _pbs_findings(recovered, kit)
        )
        return recovered

    schedule, dropped = plan.perturb(len(kit.requests))
    result.dropped = dropped
    for delivery in schedule:
        request = kit.requests[delivery.original]
        receipt = kit.receipts[request.token_index]
        if delivery.duplicate:
            result.duplicates += 1
        while True:
            try:
                service.submit(
                    request.rid,
                    receipt.signature,
                    kit.sp_keys[request.token_index],
                    receipt.jo_account_key,
                )
                break
            except CrashPoint:
                service = recover()
        result.delivered += 1
        if checkpoint_every and result.delivered % checkpoint_every == 0:
            service.journal.write_checkpoint(service.checkpoint())
            result.checkpoints += 1
    result.crashes = len(clock.fired)
    findings.extend(f"final: {f}" for f in _pbs_findings(service, kit))

    delivered_rids = {kit.requests[d.original].rid for d in schedule}
    for request in kit.requests:
        reply = service.reply_for(request.rid)
        if request.rid not in delivered_rids:
            if reply is not None:
                findings.append(
                    f"rid {request.rid!r} was dropped by the network yet answered"
                )
            continue
        if reply is None:
            findings.append(f"rid {request.rid!r} delivered but never answered")
            continue
        result.verdicts[request.rid] = reply[0]
    _count_verdicts(result)

    ok_by_receipt: dict[int, list[str]] = {}
    for request in kit.requests:
        if result.verdicts.get(request.rid) == "OK":
            ok_by_receipt.setdefault(request.token_index, []).append(request.rid)
    for receipt_index, rids in sorted(ok_by_receipt.items()):
        if len(rids) > 1:
            findings.append(
                f"coin {receipt_index} deposited OK under {len(rids)} rids "
                f"{rids} — a double deposit was admitted"
            )

    expected = {aid: balance for aid, _key, balance in kit.accounts}
    for receipt_index in ok_by_receipt:
        receipt = kit.receipts[receipt_index]
        payer = rsa.RSAPublicKey(*receipt.jo_account_key).fingerprint()
        payee = rsa.RSAPublicKey(*kit.sp_keys[receipt_index]).fingerprint()
        expected[payer] -= 1
        expected[payee] += 1
    for aid, want in expected.items():
        have = service.bank.accounts.get(aid)
        if have != want:
            findings.append(
                f"account {aid.hex()} balance {have} != reconciled {want} "
                "(verdicts and books disagree)"
            )
    result.findings = tuple(findings)
    return result
