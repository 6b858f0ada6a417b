"""Scenario replay: market flows under faults, with crash recovery.

One replay loop, two kits.  A kit is pre-minted protocol material, bound to
a fixed cryptographic identity rather than to any bank, plus a script
of deposit requests (each under a stable request id, including the
intentional double deposits the service must keep refusing):

* :func:`build_deposit_kit` — PPMSdec spend tokens, minted once against
  a fixed CL keypair; replayed by :func:`run_deposit_scenario`;
* :func:`build_pbs_kit` — PPMSpbs unitary coins from one full
  Algorithm-4 run with the deposits held back; replayed by
  :func:`run_pbs_scenario`.

Either way a fresh journaled
:class:`~repro.service.server.MarketService` replays the kit's traffic
under a :class:`~repro.testing.faults.FaultPlan`: requests dropped,
duplicated and reordered, the service killed at scripted envelopes and
recovered from its write-ahead journal plus the latest checkpoint.  A
kit contributes only its rid-less funding mutations, each request's
payload and its balance reconciliation.

The replay loop models the client side of an at-least-once network: a
delivery that dies in a :class:`~repro.testing.faults.CrashPoint` is
*retried under the same request id* after recovery, which is exactly
what makes the exactly-once layer (rid dedupe + journaled replies)
observable.  After every recovery — and once more at the end — the
global invariants run: balance conservation, serial-number uniqueness,
ledger/journal agreement (both schemes' books), and the scenario-level
checks (every delivered request answered, at most one ``OK`` per coin,
per-account balances reconciling against the verdicts).

Everything is deterministic in the plan's seed; a failing
:class:`ScenarioResult` prints the seed, the full fault schedule, and
the one-liner that replays it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import repro.obs as obs
from repro.core.pbs_machine import CoinReceipt, PPMSpbsSession
from repro.crypto import rsa
from repro.crypto.cl_sig import CLKeyPair, cl_keygen
from repro.ecash.dec import setup
from repro.ecash.spend import DECParams, SpendToken
from repro.service.batcher import VerificationBatcher
from repro.service.journal import Journal
from repro.service.loadgen import OfflineIssuer, mint_deposit_traffic
from repro.service.server import MarketService
from repro.service.shard import ShardedBank
from repro.service.storage import MemoryStorage
from repro.testing.faults import CrashPoint, FaultClock, FaultPlan, FaultyTransport
from repro.testing.invariants import check_recovery_invariants

__all__ = [
    "DepositKit",
    "PbsKit",
    "ScenarioResult",
    "build_deposit_kit",
    "build_pbs_kit",
    "market_params",
    "run_deposit_scenario",
    "run_pbs_scenario",
]


def market_params(rng: random.Random) -> tuple[DECParams, CLKeyPair]:
    """``setup(3, rng)``'s defaults (Tate pairing, 24 edge rounds) and an
    issuing keypair: the kits' and the campaign's default parameters."""
    params = setup(3, rng)
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


def _check_replies(
    result: ScenarioResult,
    requests: tuple["_KitRequest", ...],
    schedule: list,
    reply_for,
    findings: list[str],
    coin: str,
) -> dict[int, list[str]]:
    """The checks both runners end with: a delivered request is
    answered and a dropped one is not, and no *coin* is deposited ``OK``
    twice.  Fills ``result``'s verdicts and counts; returns the ``OK``
    rids per token index."""
    delivered_rids = {requests[d.original].rid for d in schedule}
    for request in requests:
        reply = reply_for(request.rid)
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
    for status in result.verdicts.values():
        if status == "OK":
            result.ok += 1
        elif status == "REJECTED":
            result.rejected += 1
        elif status == "ERROR":
            result.errors += 1

    ok_by_token: dict[int, list[str]] = {}
    for request in requests:
        if result.verdicts.get(request.rid) == "OK":
            ok_by_token.setdefault(request.token_index, []).append(request.rid)
    for token_index, rids in sorted(ok_by_token.items()):
        if len(rids) > 1:
            findings.append(
                f"{coin} {token_index} deposited OK under {len(rids)} rids "
                f"{rids} — a double deposit was admitted"
            )
    return ok_by_token


# ---------------------------------------------------------------------------
# the kits: pre-minted material, funding, payloads, reconciliation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _KitRequest:
    """One scripted deposit: a stable rid over a minted coin."""

    rid: str
    aid: str  # the depositing account's name (the request's sender)
    token_index: int
    double_spend: bool  # True when this rid re-deposits an earlier coin


def _script(rng: random.Random, requests: list[_KitRequest], prefix: str,
            double_spends: int) -> tuple[_KitRequest, ...]:
    """Insert *double_spends* re-deposits of earlier coins.

    Each fraud is scripted strictly after its victim, so in a
    fault-free run the fresh deposit wins and the re-deposit is the one
    rejected (faults may still reorder them — the scenario checks "at
    most one OK per coin" either way).
    """
    for extra in range(double_spends):
        victim_pos = rng.randrange(len(requests))
        victim = requests[victim_pos]
        requests.insert(
            rng.randrange(victim_pos + 1, len(requests) + 1),
            _KitRequest(rid=f"{prefix}:ds{extra}", aid=victim.aid,
                        token_index=victim.token_index, double_spend=True),
        )
    return tuple(requests)


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

    name = "ppms-dec"
    coin = "token"

    def fund(self, bank: ShardedBank) -> None:
        """Open each account and book the withdrawals the coins came from."""
        for aid, balance, coins in self.funding:
            bank.open_account(aid, balance)
            for _ in range(coins):
                bank.apply_withdrawal(aid)

    def payload(self, request: _KitRequest) -> tuple[str, dict]:
        return "deposit", {"aid": request.aid,
                           "token": self.tokens[request.token_index]}

    def reconcile(self, bank: ShardedBank, ok: dict[int, list[str]]) -> list[str]:
        expected = {aid: balance - coins * (1 << self.params.tree_level)
                    for aid, balance, coins in self.funding}
        owner = {r.token_index: r.aid for r in self.requests}
        for token_index in ok:
            # all rids of one token share an owner; credit the token once
            expected[owner[token_index]] += self.amounts[token_index]
        return _disagreements({aid: (bank.balance(aid), want)
                               for aid, want in expected.items()})


def _disagreements(books: dict) -> list[str]:
    return [f"account {aid} balance {have} != reconciled {want} "
            "(verdicts and books disagree)"
            for aid, (have, want) in books.items() if have != want]


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
    frauds the service must keep rejecting across crashes.  Without
    *params* the kit runs on :func:`market_params`.
    """
    if n_accounts < 1 or n_deposits < 1:
        raise ValueError("need at least one account and one deposit")
    if params is None:
        params, generated = market_params(rng)
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
    return DepositKit(
        params=params,
        keypair=keypair,
        funding=tuple(
            (r.sender, r.payload["balance"], r.payload["balance"] >> level)
            for r in issuer.opens
        ),
        tokens=tuple(tokens),
        amounts=tuple(t.denomination(level) for t in tokens),
        requests=_script(rng, requests, "dep", double_spends),
    )


@dataclass(frozen=True)
class PbsKit:
    """Pre-minted PPMSpbs material: accounts, verified coins, script.

    Built by one full fault-free Algorithm-4 run with the deposits held
    back (``deposit=False``), so the scenario replays *only* the
    deposit step — the part the MA's books depend on — under faults.
    *params*/*keypair* are the service's PPMSdec half, which a PPMSpbs
    replay leaves idle.
    """

    params: DECParams
    keypair: CLKeyPair
    accounts: tuple[tuple[bytes, tuple[int, int], int], ...]  # (aid, key, balance)
    receipts: tuple[CoinReceipt, ...]
    sp_keys: tuple[tuple[int, int], ...]  # per receipt, the SP's account key
    requests: tuple[_KitRequest, ...]

    name = "ppms-pbs"
    coin = "coin"

    def fund(self, bank: ShardedBank) -> None:
        for _aid, key, balance in self.accounts:
            bank.pbs_open_account(key, balance)

    def payload(self, request: _KitRequest) -> tuple[str, dict]:
        receipt = self.receipts[request.token_index]
        return "pbs-deposit", {"sig": receipt.signature,
                               "sp_key": self.sp_keys[request.token_index],
                               "jo_key": receipt.jo_account_key}

    def reconcile(self, bank: ShardedBank, ok: dict[int, list[str]]) -> list[str]:
        expected = {aid: balance for aid, _key, balance in self.accounts}
        for index in ok:
            expected[_account(self.receipts[index].jo_account_key)] -= 1
            expected[_account(self.sp_keys[index])] += 1
        return _disagreements({aid.hex(): (bank.pbs.accounts.get(aid), want)
                               for aid, want in expected.items()})


def _account(key: tuple[int, int]) -> bytes:
    return rsa.RSAPublicKey(*key).fingerprint()


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
    requests = [
        _KitRequest(rid=f"pbs:{i}", aid=sp.account_pub.fingerprint().hex(),
                    token_index=i, double_spend=False)
        for i, sp in enumerate(sps)
    ]
    script = _script(rng, requests, "pbs", double_spends)
    return PbsKit(
        *market_params(rng),
        accounts=tuple(
            (aid, session.ma.bank.bound_keys[aid], balance)
            for aid, balance in session.ma.bank.accounts.items()
        ),
        receipts=tuple(receipts),
        sp_keys=tuple((sp.account_pub.n, sp.account_pub.e) for sp in sps),
        requests=script,
    )


# ---------------------------------------------------------------------------
# the replay loop
# ---------------------------------------------------------------------------

def _replay(
    kit: DepositKit | PbsKit,
    plan: FaultPlan,
    *,
    max_batch: int,
    checkpoint_every: int,
    telemetry: "obs.Telemetry | None",
) -> ScenarioResult:
    """Replay *kit*'s requests against a journaled service under *plan*.

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
    result = ScenarioResult(name=kit.name, plan=plan)
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
            telemetry=telemetry,
        )

    # first incarnation: the kit's funding, journaled but rid-less —
    # out-of-band setup mutations (same as loadgen minting), not
    # requests with a client lifecycle; each record replays exactly once
    bank = ShardedBank(
        kit.params, kit.keypair, random.Random(1),
        journal=Journal(storage, telemetry=telemetry), telemetry=telemetry,
    )
    kit.fund(bank)
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
        kind, payload = kit.payload(request)
        if delivery.duplicate:
            result.duplicates += 1
        while True:  # the client retries through crashes, same rid
            try:
                delivered = net.send(request.aid, "MA", kind, payload)
                service.submit(request.aid, kind, delivered, rid=request.rid)
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
    ok_by_token = _check_replies(result, kit.requests, schedule, service.reply_for,
                                 findings, kit.coin)
    findings.extend(kit.reconcile(service.bank, ok_by_token))
    result.findings = tuple(findings)
    return result


def run_deposit_scenario(
    plan: FaultPlan | int,
    *,
    kit: DepositKit | None = None,
    max_batch: int = 4,
    checkpoint_every: int = 5,
    telemetry: "obs.Telemetry | None" = None,
) -> ScenarioResult:
    """Replay a PPMSdec kit's deposits under *plan*; verify everything."""
    if isinstance(plan, int):
        plan = FaultPlan.from_seed(plan)
    if kit is None:
        kit = build_deposit_kit(random.Random(f"deposit-kit:{plan.seed}"))
    return _replay(kit, plan, max_batch=max_batch,
                   checkpoint_every=checkpoint_every, telemetry=telemetry)


def run_pbs_scenario(
    plan: FaultPlan | int,
    *,
    kit: PbsKit | None = None,
    checkpoint_every: int = 3,
    telemetry: "obs.Telemetry | None" = None,
) -> ScenarioResult:
    """Replay a PPMSpbs kit's unitary deposits under *plan*; verify everything."""
    if isinstance(plan, int):
        plan = FaultPlan.from_seed(plan)
    if kit is None:
        kit = build_pbs_kit(random.Random(f"pbs-kit:{plan.seed}"))
    return _replay(kit, plan, max_batch=4,
                   checkpoint_every=checkpoint_every, telemetry=telemetry)
