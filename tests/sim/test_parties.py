"""Tests for the machines a campaign runs: the engine machines of
Algorithms 1 and 4 with the campaign's overrides (:mod:`repro.sim.party`).

One small seeded campaign with every party shape — honest, omitting and
replaying SPs, a double-spend ring, a malicious MA, a PPMSpbs job — runs
in process on the shared toy substrate; the tests read its machines,
the market's books and the resolved deposit stream.  A second copy of
it takes hostile traffic: whatever arrives, in whatever order, ends as
recorded delivery failures, never as an escaping exception — and only
the MA's word moves value.
"""

from __future__ import annotations

import itertools
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.dec_machine import MA
from repro.core.engine import Outbound, Router
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
# hostile traffic
# ---------------------------------------------------------------------------

#: every message kind the machines handle, plus protocol noise
ALL_KINDS = sorted({
    "job-registration", "job-published", "withdraw-request", "withdraw-response",
    "labor-registration", "labor-forward", "labor-answer", "labor-answer-fwd",
    "blinded-payment", "blinded-forward", "data-submission", "payment-submission",
    "payment-delivery", "payment-confirm", "data-delivery", "deposit", "no-such-kind",
})

#: payloads from well-formed through subtly wrong to pure garbage
PAYLOADS = st.one_of(
    st.none(),
    st.integers(),
    st.just({}),
    st.just({"sp": "x", "sp_pubkey": "k"}),
    st.just({"jo": "jo", "job": "j", "payment": 2, "jo_pubkey": "k"}),
    st.just({"ciphertext": "junk", "jo_pubkey": "k"}),
    st.just({"ciphertext": b"junk"}),
    st.just({"rid": "r", "token_index": 0}),
    st.just({"token": 1}),
    st.just({"job": "j", "payment": 2}),
    st.just({"job": "j"}),
    st.just({"jd": "j", "w": 0, "rpk_fingerprint": b""}),
    st.just({"jd": "j", "w": 3, "rpk_fingerprint": b"f"}),
    st.just({"signature": 1}),
    st.just({"request": 5}),
    st.just({"job": "j", "rpk": (3, 5)}),
    st.just({"rpk": ("k", "k")}),
    st.just({"pseudonym": b"p", "ciphertext": b"c"}),
    st.just({"pseudonym": b"p", "job": "j", "data": b"d"}),
    st.just({"pseudonym": b"p"}),
    st.just({"aid": "a", "coin": 1, "at": 1.0, "rid": "r"}),
    st.just({"blob": b"x", "pseudonym": b"p"}),
    st.just({"job": "j", "pseudonym": b"p", "blob": b"x"}),
    st.just({"pseudonym": b"p", "blinded": 1}),
    st.just({"pseudonym": b"p", "pbs": 1, "ctr": 0}),
    st.just({"pbs": "sig", "ctr": 0}),
    st.just({"sig": 1, "ctr": 0, "serial": b"s", "sp_key": (3, 5), "jo_key": (3, 5),
             "rid": "r"}),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=3),
)

#: every field any handler reads, each of a plausible type but forged
FORGED = {
    "jd": "j", "w": 3, "rpk_fingerprint": b"f", "job": "j", "request": 5, "signature": 1,
    "rpk": (3, 5), "pseudonym": b"p", "ciphertext": b"c", "data": b"d", "blob": b"x",
    "blinded": 1, "pbs": 1, "ctr": 0, "sig": 1, "serial": b"s", "sp_key": (3, 5),
    "jo_key": (3, 5), "aid": "a", "coin": 1, "at": 1.0, "rid": "r",
}

#: half the messages carry every field (``one_of`` would make it 1 in 29)
PAYLOAD = st.booleans().flatmap(lambda every: st.just(FORGED) if every else PAYLOADS)

EVENTS = st.lists(st.tuples(st.sampled_from(ALL_KINDS), PAYLOAD), min_size=1, max_size=14)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scheme=st.integers(0, 1), events=EVENTS, data=st.data())
def test_any_interleaving_leaves_a_legal_state(hostile, scheme, events, data):
    """Any message, in any order, from any name to every machine a
    campaign runs: the router records each rejection and keeps going —
    no exception escapes.  A JO or SP hears only the MA, so from any
    other sender each of its messages is one failure; and no sender but
    the MA moves value."""
    ran, routers = hostile
    router = routers[scheme]
    names = sorted(router.parties)
    sender = data.draw(st.sampled_from(names), label="sender")
    before, books = len(router.failures), _books(ran)
    for kind, payload in events:
        for target in names:
            router.post(sender, Outbound(target, kind, payload))
    router.run()
    if sender != MA:
        rejected = Counter(f.receiver for f in router.failures[before:] if f.sender == sender)
        assert {name: rejected[name] for name in names if name != MA} \
            == {name: len(events) for name in names if name != MA}
        assert _books(ran) == books


@pytest.mark.parametrize("scheme", [0, 1], ids=["dec", "pbs"])
def test_forged_traffic_from_residents_moves_no_value(hostile, scheme):
    """Every kind with every field forged, from each resident name to
    every machine: each message to a JO or SP is one failure, and the
    market's books do not move."""
    ran, routers = hostile
    router = routers[scheme]
    names = sorted(router.parties)
    senders = [name for name in names if name != MA]
    before, books = len(router.failures), _books(ran)
    for sender in senders:
        for kind in ALL_KINDS:
            for target in names:
                router.post(sender, Outbound(target, kind, FORGED))
    router.run()
    rejected = Counter((f.sender, f.receiver) for f in router.failures[before:])
    assert {(s, t): rejected[s, t] for s in senders for t in senders} \
        == {(s, t): len(ALL_KINDS) for s in senders for t in senders}
    assert _books(ran) == books


# ---------------------------------------------------------------------------
# lifecycles
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n_sps=st.integers(1, 4), payment=st.integers(1, 8), seed=st.integers(0, 2**16))
# the coin-break edges on the toy tree, whose coin is worth 8: a whole
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
