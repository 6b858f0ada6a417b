"""Tests for the machines a campaign runs: the engine machines of
Algorithms 1 and 4 with the campaign's overrides (:mod:`repro.sim.party`).

One small seeded campaign with every party shape — honest, omitting and
replaying SPs, a double-spend ring, a malicious MA, a PPMSpbs job — runs
in process on the shared campaign substrate; the tests read its machines,
the market's books and the resolved deposit stream.  A second copy of
it takes hostile traffic generated from the machines' message tables:
whatever arrives, in whatever order and from whichever name, ends as
recorded delivery failures, never as an escaping exception, and moves
no value.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.dec_machine import MA, JODecMachine, MADecMachine, SPDecMachine
from repro.core.engine import Outbound, Router
from repro.core.market import JOB, KEY, PSEUDONYM
from repro.core.pbs_machine import JOMachine, MAMachine, SPMachine
from repro.crypto.cl_sig import BlindIssuanceRequest, CLSignature
from repro.ecash.dec import begin_withdrawal
from repro.ecash.spend import SpendToken
from repro.net.schema import Field
from repro.sim.campaign import Campaign, CampaignConfig
from repro.sim.party import DecJO, DecSP, OmissionSP, PbsSP, ReplaySP, Ring

#: every party shape a campaign builds, in one economy
CONFIG = CampaignConfig(
    name="parties", seed=3, n_dec_jobs=2, n_pbs_jobs=1, min_sps=2, max_sps=2,
    payment_choices=(3, 5), replay_sps=1, omission_sps=1,
    double_spend_rings=1, ring_size=3, malicious_ma=True,
)


def _run(config, campaign_substrate) -> Campaign:
    params, keypair = campaign_substrate
    campaign = Campaign(config, params, keypair)
    campaign.report = campaign.run()
    return campaign


@pytest.fixture(scope="module")
def campaign(campaign_substrate) -> Campaign:
    return _run(CONFIG, campaign_substrate)


@pytest.fixture(scope="module")
def hostile(campaign_substrate) -> tuple[Campaign, list[Router]]:
    """A run campaign and its parties, one plain router per scheme."""
    ran = _run(CONFIG, campaign_substrate)
    routers = []
    for net in (ran.dec_net, ran.pbs_net):
        router = Router()
        for name, party in net.parties.items():
            router.add(party, name)
        routers.append(router)
    return ran, routers


_reads = itertools.count()


def _read(campaign: Campaign, sender: str, kind: str, payload: dict) -> int:
    """A fresh balance read (a repeated request id is answered from the
    service's reply cache)."""
    body = campaign.market.gateway.request(kind, payload, sender=sender,
                                           rid=f"{sender}:read:{next(_reads)}")
    assert body["status"] == "OK", body
    return body["balance"]


def _balance(campaign: Campaign, aid: str) -> int:
    return _read(campaign, aid, "balance", {"aid": aid})


def _books(campaign: Campaign) -> tuple:
    """What each market issued, funded and holds, account by account."""
    dec, pbs = campaign.dec, campaign.pbs
    return (dec.issued, dict(dec.funded), dict(pbs.funded),
            [_balance(campaign, aid) for aid in sorted(dec.funded)],
            [_read(campaign, name, "pbs-balance", {"key": key})
             for name, key in sorted(pbs.keys.items())])


def _of(campaign: Campaign, cls) -> list:
    return [p for p in campaign.residents.values() if type(p) is cls]


# ---------------------------------------------------------------------------
# hostile traffic, generated from the machines' tables
# ---------------------------------------------------------------------------

#: every row a campaign's machines read (the desk's rows and the ring's
#: are shared, so each distinct row once)
ROWS = list({id(entry): (kind, entry)
             for machine in (MADecMachine, JODecMachine, SPDecMachine, Ring,
                             MAMachine, JOMachine, SPMachine)
             for kind, entry in machine.table.messages.items()}.values())

#: the hostile value of a shared field the market's state, not its
#: bounds, must refuse: a job not on any board, a pseudonym no party has
FOREIGN = {JOB: ["job-none"], PSEUDONYM: [b"\xee" * 16]}


def _sized(kind: type, size: int):
    return kind("x" * size) if kind is str else b"x" * size


def _valid(spec: Field, samples: dict) -> list:
    """Values *spec* accepts: the campaign's own for shared fields and
    crypto types, else one plain value inside the bounds."""
    kind = spec.types[0]
    if spec in samples or kind in samples:
        return samples.get(spec) or samples[kind]
    if kind in (str, bytes):
        return [_sized(kind, int(max(spec.low, 1)))]
    if kind in (int, float):
        return [kind(max(spec.low, 1))]
    return [kind()]


def _swapped(samples: list) -> list:
    """Well-typed, wrong values: one attribute of a sample taken from another."""
    out = []
    for a, b in itertools.permutations(samples[:3], 2):
        for name in (f.name for f in dataclasses.fields(a)):
            if getattr(a, name) != getattr(b, name):
                try:
                    out.append(dataclasses.replace(a, **{name: getattr(b, name)}))
                except (TypeError, ValueError):
                    continue
    return out[:6]


def _hostile(spec: Field, samples: dict) -> list:
    """Well-typed values *spec*'s row, or the state behind it, refuses:
    a bound edge just outside, a tiny or oversized key, a foreign
    pseudonym, an unknown job, a swapped crypto value."""
    kind = spec.types[0]
    out = list(FOREIGN.get(spec, ()))
    if spec.parts:
        base = _valid(spec, samples)[0]
        for key, part in spec.parts.items():
            out += [type(base)(v if i == key else x for i, x in enumerate(base))
                    for v in _hostile(part, samples)]
    elif dataclasses.is_dataclass(kind):
        out += _swapped(samples[kind])
    elif kind in (str, bytes):
        out += [_sized(kind, n) for n in (spec.low - 1, spec.high + 1) if 0 <= n <= 1 << 12]
    elif kind in (int, float):
        out += [kind(v) for v in (spec.low - 1, spec.high + 1) if abs(v) != math.inf]
        out += [math.nan, math.inf] if kind is float else []
    return out


def _payloads(kind: str, fields: dict, samples: dict, draw=lambda values: values[0]) -> list:
    """One payload per hostile value of each field, every other field
    valid; a row with no field to spoil gets its valid payload."""
    valid = {name: draw(_valid(spec, samples)) for name, spec in fields.items()
             if not spec.optional}
    spoiled = [{**valid, name: value} for name, spec in fields.items()
               for value in _hostile(spec, samples)]
    return [(kind, payload) for payload in spoiled or [valid]]


@pytest.fixture(scope="module")
def samples(hostile) -> dict:
    """Real values from the run campaign, for the fields that need them."""
    ran, _ = hostile
    workers = [p for p in ran.residents.values() if isinstance(p, (DecSP, PbsSP))]
    owners = [p for p in ran.residents.values() if type(p) is DecJO]
    keys = [(sp.labor_key.public.n, sp.labor_key.public.e) for sp in workers]
    return {
        JOB: [job.job_id for ma in (ran.dec, ran.pbs) for job in ma.board.jobs()],
        PSEUDONYM: [sp.pseudonym for sp in workers],
        KEY: keys, tuple: keys, list: [list(key) for key in keys],
        str: sorted(ran.dec.funded),
        # deposited coins only: a coin still outstanding could be credited
        SpendToken: [t for sp in _of(ran, DecSP) for t in sp.tokens],
        CLSignature: [coin.signature for jo in owners for coin, _ in jo.coins],
        BlindIssuanceRequest: [begin_withdrawal(ran.params, random.Random(i))[1]
                               for i in range(2)],
    }


def _flood(router: Router, senders: list, messages: list) -> Counter:
    """Every message from every sender to every name; the failures each
    (sender, receiver) pair recorded."""
    before = len(router.failures)
    for sender in senders:
        for kind, payload in messages:
            for target in sorted(router.parties):
                router.post(sender, Outbound(target, kind, payload))
    router.run()
    return Counter((f.sender, f.receiver) for f in router.failures[before:])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scheme=st.integers(0, 1), data=st.data())
def test_any_interleaving_leaves_a_legal_state(hostile, samples, scheme, data):
    """Generated traffic, each payload well typed with one hostile value,
    in any order from every name — the MA's included — to every machine
    a campaign runs: each message is one recorded refusal, no exception
    escapes, and the market's books do not move."""
    ran, routers = hostile
    router = routers[scheme]
    messages = data.draw(st.lists(
        st.sampled_from(ROWS).flatmap(lambda row: st.sampled_from(
            _payloads(row[0], row[1].fields, samples))), min_size=1, max_size=8))
    names, books = sorted(router.parties), _books(ran)
    rejected = _flood(router, names, messages)
    assert rejected == {(s, t): len(messages) for s in names for t in names}
    assert _books(ran) == books


@pytest.mark.parametrize("scheme", [0, 1], ids=["dec", "pbs"])
def test_forged_traffic_from_residents_moves_no_value(hostile, samples, scheme):
    """Every hostile payload of every row, from each resident name to
    every machine: each message to a JO or SP is one failure, and the
    market's books do not move."""
    ran, routers = hostile
    router = routers[scheme]
    messages = [m for kind, entry in ROWS for m in _payloads(kind, entry.fields, samples)]
    senders = [name for name in sorted(router.parties) if name != MA]
    books = _books(ran)
    rejected = _flood(router, senders, messages)
    assert {(s, t): rejected[s, t] for s in senders for t in senders} \
        == {(s, t): len(messages) for s in senders for t in senders}
    assert _books(ran) == books


# ---------------------------------------------------------------------------
# lifecycles
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n_sps=st.integers(1, 4), payment=st.integers(1, 8), seed=st.integers(0, 2**16))
# the coin-break edges on the level-3 tree, whose coin is worth 8: a whole
# coin per worker (each one a fresh withdrawal), and one power-of-two
# node (two workers a coin, the third waits for a second withdrawal)
@example(n_sps=4, payment=8, seed=0)
@example(n_sps=3, payment=4, seed=1)
def test_honest_dec_lifecycle_conserves_wallet_value(campaign_substrate, n_sps,
                                                      payment, seed):
    """A complete JO + SPs run: every unit funded is on some account after."""
    config = CampaignConfig(name="one-job", seed=seed, n_dec_jobs=1, n_pbs_jobs=0,
                            min_sps=n_sps, max_sps=n_sps, payment_choices=(payment,))
    campaign = _run(config, campaign_substrate)
    assert campaign.report.clean, campaign.report.summary()
    (jo,) = _of(campaign, DecJO)
    sps = _of(campaign, DecSP)
    coin_value = campaign.coin_value
    ledger = campaign.report.parties[jo.aid]
    assert ledger["done"] and ledger["data_received"] == n_sps
    # the withdrawn coins split exactly into payments plus change
    assert payment * n_sps + ledger["change_value"] == len(jo.coins) * coin_value
    assert _balance(campaign, jo.aid) == (n_sps + 1 - len(jo.coins)) * coin_value \
        + ledger["change_value"]
    for sp in sps:
        assert _balance(campaign, sp.aid) == payment
    # economy-wide: nothing minted, nothing burned
    funded = sum(campaign.dec.funded.values())
    assert sum(_balance(campaign, aid) for aid in campaign.dec.funded) == funded


def test_omission_sp_leaves_value_outstanding(campaign):
    (sp,) = _of(campaign, OmissionSP)
    ledger = campaign.report.parties[sp.aid]
    assert ledger["done"] and ledger["received_value"] > 0
    assert ledger["deposits"] == 0
    assert _balance(campaign, sp.aid) == 0
    assert all(entry["party"] != sp.aid for entry in campaign.deposits)
    conservation = campaign.report.conservation
    assert conservation["outstanding"] >= ledger["received_value"]
    assert conservation["conserved"]


def test_replay_sp_deposits_every_token_twice(campaign):
    (sp,) = _of(campaign, ReplaySP)
    honest = [rid for rid in sp.sent if ":dep:" in rid]
    replays = [rid for rid in sp.sent if ":replay:" in rid]
    assert len(honest) == len(replays) == len(sp.tokens) > 0
    verdicts = {e["rid"]: e["status"] for e in campaign.deposits}
    assert all(verdicts[rid] == "OK" for rid in honest)
    assert all(verdicts[rid] == "REJECTED" for rid in replays)
    assert _balance(campaign, sp.aid) == campaign.report.parties[sp.aid]["received_value"]


def test_ring_fences_conflicting_tokens_to_every_member(campaign):
    (ring,) = campaign.rings
    assert len(ring.accounts) == CONFIG.ring_size and ring.fenced == CONFIG.ring_size
    fences = [e for e in campaign.deposits if e["rid"].endswith(":fence")]
    assert sorted(e["party"] for e in fences) == sorted(ring.accounts)
    assert [e["status"] for e in fences].count("OK") == 1  # one node, one admission
    ds = campaign.report.detections["double_spend"]
    assert ds["caught"] and ds["identity_revealed"]
    assert all(campaign.residents[aid] is ring and isinstance(ring, Ring)
               for aid in ring.accounts)


def test_pbs_lifecycle_reaches_deposit(campaign):
    sps = _of(campaign, PbsSP)
    labels = [name for name, party in campaign.residents.items() if party in sps]
    assert labels and all(campaign.report.parties[name]["done"] for name in labels)
    for sp in sps:
        key = (sp.account_pub.n, sp.account_pub.e)
        assert _read(campaign, sp.name, "pbs-balance", {"key": key}) == 1
    assert campaign.report.conservation["pbs_final"] == campaign.report.conservation["pbs_funded"]
    assert len(campaign.pbs.board.jobs()) == CONFIG.n_pbs_jobs


def test_malicious_ma_scores_only_accounts_with_ground_truth(campaign):
    results = campaign.dec.results
    assert results and set(results) <= set(campaign.truth)
    admitted = {e["party"] for e in campaign.deposits if e["status"] == "OK"}
    # ring accounts and job owners' change deposits have no job to link
    assert admitted - set(campaign.truth)
    dropped = {aid for aid in results if campaign.residents[aid].dropped}
    assert all(r.true_job_covered for aid, r in results.items() if aid not in dropped)
