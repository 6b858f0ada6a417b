"""Outcome reference for the two sessions.

One digest per run pins what a market leaves behind: the Table I rows,
the bank's books, the deposit stream with its times, every payment's
value and fake count, every unitary coin, and the bulletin board.  The
envelopes and the job ids are deliberately left out: how the steps of
Algorithms 1 and 4 travel may change, what they decide may not.

Each run shares one seeded RNG between parameter setup, key generation,
blinding and the deposit waits, so a step that moved one draw changes
a digest.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core import PPMSdecSession, PPMSpbsSession
from repro.ecash.dec import setup
from repro.net.codec import encode

SEEDS = (0, 1, 2)

#: (mechanism, seed, break algorithm) -> sha256 prefix of the outcome
REFERENCE = {
    ("dec", 0, "pcba"): "db7856835a229266",
    ("dec", 0, "epcba"): "b8ea17e3eb8e79b7",
    ("dec", 0, "unitary"): "1065e7e5c537d499",
    ("dec", 1, "pcba"): "5d075a63065cee8b",
    ("dec", 1, "epcba"): "101f15dbc81fa1ed",
    ("dec", 1, "unitary"): "e7b4182dca888221",
    ("dec", 2, "pcba"): "3e350c547101b47d",
    ("dec", 2, "epcba"): "88ad2059117760ec",
    ("dec", 2, "unitary"): "a9f43dfd1b7f1ac7",
    ("pbs", 0, None): "af826b02055b60d7",
    ("pbs", 1, None): "8d0295cf51b7b44a",
    ("pbs", 2, None): "53d79d0eea20283b",
}


def _rows(session) -> dict:
    return {party: session.counter.party_row(party) for party in ("JO", "SP", "MA")}


def _board(ma) -> list:
    return [(job.description, job.payment) for job in ma.board.jobs()]


def dec_outcome(seed: int, algorithm: str) -> dict:
    rng = random.Random(seed)
    params = setup(3, rng, security_bits=80, real_pairing=False, edge_rounds=6)
    session = PPMSdecSession(params, rng, rsa_bits=512, break_algorithm=algorithm)
    jo = session.new_job_owner("jo", funds=32)
    sps = [session.new_participant(f"sp-{i}") for i in range(3)]
    bundles = session.run_job(jo, sps, payment=2 + 2 * seed, description=f"job {seed}")
    change = jo.deposit_change(session.ma, session.transport, session.counter)
    ma, bank = session.ma, session.ma.bank
    return {
        "rows": _rows(session),
        "accounts": sorted(bank.accounts.items()),
        "withdrawals": list(bank.withdrawals),
        "serials": sorted(bank._seen_serials.values()),
        "deposits": [(e.time, e.aid, e.amount, e.node_level) for e in ma.deposit_events],
        "bundles": [(b.total_value(params.tree_level), b.fake_count, b.signature_valid)
                    for b in bundles],
        "change": change,
        "board": _board(ma),
    }


def pbs_outcome(seed: int) -> dict:
    session = PPMSpbsSession(random.Random(1000 + seed), rsa_bits=512)
    jo = session.new_job_owner(funds=4)
    sps = [session.new_participant() for _ in range(3)]
    receipts = session.run_job(jo, sps, description=f"unit job {seed}")
    bank = session.ma.bank
    return {
        "rows": _rows(session),
        "accounts": sorted(bank.accounts.items()),
        "spent": sorted(bank.spent_serials),
        "log": list(bank.transaction_log),
        "receipts": [encode((r.signature, list(r.jo_account_key), r.serial))
                     for r in receipts],
        "board": _board(session.ma),
    }


def digest(outcome: dict) -> str:
    return hashlib.sha256(repr(outcome).encode()).hexdigest()[:16]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("algorithm", ["pcba", "epcba", "unitary"])
def test_dec_outcome_is_pinned(seed, algorithm):
    assert digest(dec_outcome(seed, algorithm)) == REFERENCE[("dec", seed, algorithm)]


@pytest.mark.parametrize("seed", SEEDS)
def test_pbs_outcome_is_pinned(seed):
    assert digest(pbs_outcome(seed)) == REFERENCE[("pbs", seed, None)]
