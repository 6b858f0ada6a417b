"""No pseudonym is ever joined to an account.

A resident answers to two names: its account, under which it withdraws
and deposits, and its current pseudonym, under which it does everything
about a job.  What an operator learns includes its own routing tables
(Alqahtani & Mustafa, 2404.15886), so one DEC and one PBS session, two
workers each, and a seeded honest campaign running both schemes on the
same machines are checked for three joins:

* an MA table mapping a pseudonym to an account (or back);
* a message routed under a pseudonym that carries an account id — a
  DEC account id, or a PBS real key (its modulus or fingerprint);
* an account name sending or receiving job traffic.

A pseudonym is a job or labor party name, or a job or labor key
fingerprint.
"""

from __future__ import annotations

import random

import pytest

from repro._util import int_to_bytes
from repro.core import PPMSdecSession, PPMSpbsSession, dec_machine, pbs_machine
from repro.core.engine import Router
from repro.net.codec import encode
from repro.sim import campaign as campaign_module
from repro.sim.campaign import Campaign, honest_campaign
from repro.sim.party import DecJO, DecSP, PbsJO, PbsSP

ACCOUNT_KINDS = {"withdraw-request", "withdraw-response", "deposit"}


def _among(value, names) -> bool:
    try:
        return value in names
    except TypeError:  # unhashable: not a name
        return False


def joins(tables, routed, pseudonyms, accounts, account_ids) -> list[str]:
    """Every place a pseudonym meets an account.

    *tables* maps a table's name to the mapping; *routed* lists
    ``(sender, receiver, kind, payload)`` as the router addressed them;
    *accounts* are account names and ids, *account_ids* the byte
    strings that identify an account on the wire.
    """
    found = []
    for name, table in tables.items():
        for key, value in table.items():
            if ((_among(key, pseudonyms) and _among(value, accounts))
                    or (_among(key, accounts) and _among(value, pseudonyms))):
                found.append(f"table {name} maps {key!r} -> {value!r}")
    for sender, receiver, kind, payload in routed:
        if kind in ACCOUNT_KINDS:
            if sender in pseudonyms or receiver in pseudonyms:
                found.append(f"{kind} routed {sender!r} -> {receiver!r}")
            continue
        if sender in accounts or receiver in accounts:
            found.append(f"job traffic {kind} routed {sender!r} -> {receiver!r}")
        if sender in pseudonyms or receiver in pseudonyms:
            wire = encode(payload)
            if any(account_id in wire for account_id in account_ids):
                found.append(f"{kind} under a pseudonym carries an account id")
    return found


def ma_tables(ma, prefix: str = "") -> dict:
    """Every mapping the MA and its bank (if it holds one) hold."""
    owners = [("ma", ma)] + ([("bank", ma.bank)] if ma.bank is not None else [])
    return {f"{prefix}{owner}.{attr}": value for owner, obj in owners
            for attr, value in vars(obj).items() if isinstance(value, dict)}


@pytest.fixture()
def routed(monkeypatch) -> list:
    """What every session router in this test addresses, by name."""
    log: list = []

    class Tap(Router):
        def _deliver(self, sender, out):
            log.append((sender, out.receiver, out.kind, out.payload))
            super()._deliver(sender, out)

    class CampaignTap(campaign_module._Network):
        def _deliver(self, sender, out):
            log.append((sender, out.receiver, out.kind, out.payload))
            super()._deliver(sender, out)

    monkeypatch.setattr(dec_machine, "Router", Tap)
    monkeypatch.setattr(pbs_machine, "Router", Tap)
    monkeypatch.setattr(campaign_module, "_Network", CampaignTap)
    return log


def test_a_dec_session_joins_no_pseudonym_to_an_account(dec_params, routed):
    session = PPMSdecSession(dec_params, random.Random(3), rsa_bits=512,
                             break_algorithm="pcba")
    jo = session.new_job_owner("account-of-the-jo", 16)
    sps = [session.new_participant(f"account-of-sp-{i}") for i in range(2)]
    session.run_job(jo, sps, payment=3)
    pseudonyms = {jo.nym, jo.job_key.public.fingerprint()}
    pseudonyms |= {sp.nym for sp in sps} | {sp.pseudonym for sp in sps}
    accounts = {jo.aid} | {sp.aid for sp in sps}
    assert any(kind == "deposit" for _, _, kind, _ in routed)
    assert joins(ma_tables(session.ma), routed, pseudonyms, accounts,
                 {aid.encode() for aid in accounts}) == []


def test_a_pbs_session_joins_no_pseudonym_to_an_account(routed):
    session = PPMSpbsSession(random.Random(4), rsa_bits=512)
    jo = session.new_job_owner(funds=2)
    sps = [session.new_participant() for _ in range(2)]
    session.run_job(jo, sps)
    pseudonyms = {jo.nym, jo.job_key.public.fingerprint()}
    pseudonyms |= {sp.nym for sp in sps} | {sp.pseudonym for sp in sps}
    residents = [jo, *sps]
    accounts = {party.name for party in residents}
    accounts |= {party.account_pub.fingerprint() for party in residents}
    account_ids = {party.account_pub.fingerprint() for party in residents}
    account_ids |= {int_to_bytes(party.account_pub.n) for party in residents}
    assert any(kind == "deposit" for _, _, kind, _ in routed)
    assert joins(ma_tables(session.ma), routed, pseudonyms, accounts, account_ids) == []


def test_a_campaign_joins_no_pseudonym_to_an_account(campaign_substrate, routed):
    params, keypair = campaign_substrate
    campaign = Campaign(honest_campaign(5), params, keypair)
    report = campaign.run()
    assert report.clean, report.summary()
    residents = list(campaign.residents.values())
    pseudonyms, accounts, account_ids = set(), set(), set()
    for party in residents:
        key = party.job_key if isinstance(party, (DecJO, PbsJO)) else party.labor_key
        pseudonyms |= {party.nym, key.public.fingerprint()}
        accounts.add(party.name)
        if isinstance(party, (DecJO, DecSP)):
            account_ids.add(party.aid.encode())
        else:
            assert isinstance(party, (PbsJO, PbsSP))
            accounts.add(party.account_pub.fingerprint())
            account_ids |= {party.account_pub.fingerprint(),
                            int_to_bytes(party.account_pub.n)}
    kinds = {kind for _, _, kind, _ in routed}
    assert {"withdraw-request", "deposit", "labor-forward", "payment-delivery"} <= kinds
    tables = {**ma_tables(campaign.dec, "dec."), **ma_tables(campaign.pbs, "pbs.")}
    assert joins(tables, routed, pseudonyms, accounts, account_ids) == []
