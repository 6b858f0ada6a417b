"""Outcome reference for the two sessions.

One digest per run pins what a market leaves behind: the Table I rows,
the bank's books, the deposit stream with its times, every payment's
value and fake count, every unitary coin, and the bulletin board.  The
envelopes and the job ids are deliberately left out: how the steps of
Algorithms 1 and 4 travel may change, what they decide may not.  What
they cost on the wire is pinned on its own: Table II's per-role bytes
and message counts, measured when the job's run is over.

Each run shares one seeded RNG between parameter setup, key generation,
blinding and the deposit waits, so a step that moved one draw changes
a digest.
"""

from __future__ import annotations

import functools
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

#: run -> Table II after run_job: role -> (input B, output B, messages sent)
TRAFFIC = {
    ("dec", 0, "pcba"): {"JO": (540, 19089, 5), "SP": (18800, 4318, 12),
                         "MA": (23407, 19340, 11)},
    ("dec", 0, "epcba"): {"JO": (540, 25465, 5), "SP": (25176, 10596, 15),
                          "MA": (36061, 25716, 11)},
    ("dec", 0, "unitary"): {"JO": (540, 40250, 5), "SP": (39961, 10600, 15),
                            "MA": (50850, 40501, 11)},
    ("dec", 1, "pcba"): {"JO": (651, 13014, 6), "SP": (12575, 3073, 12),
                         "MA": (16087, 13226, 12)},
    ("dec", 1, "epcba"): {"JO": (653, 24379, 6), "SP": (23941, 14345, 18),
                          "MA": (38724, 24594, 12)},
    ("dec", 1, "unitary"): {"JO": (653, 40402, 6), "SP": (39963, 20606, 21),
                            "MA": (61008, 40616, 12)},
    ("dec", 2, "pcba"): {"JO": (766, 18163, 7), "SP": (17576, 6809, 15),
                         "MA": (24972, 18342, 13)},
    ("dec", 2, "epcba"): {"JO": (766, 23258, 7), "SP": (22671, 13085, 18),
                          "MA": (36343, 23437, 13)},
    ("dec", 2, "unitary"): {"JO": (766, 40533, 7), "SP": (39946, 30613, 27),
                            "MA": (71146, 40712, 13)},
    ("pbs", 0, None): {"JO": (1180, 1265, 7), "SP": (1038, 2250, 15),
                       "MA": (3515, 2218, 16)},
    ("pbs", 1, None): {"JO": (1180, 1265, 7), "SP": (1038, 2250, 15),
                       "MA": (3515, 2218, 16)},
    ("pbs", 2, None): {"JO": (1179, 1265, 7), "SP": (1038, 2249, 15),
                       "MA": (3514, 2217, 16)},
}


def _traffic(session) -> dict:
    """Per role: input bytes, output bytes and messages sent so far."""
    transport = session.transport
    return {role: (transport.input_bytes(role), transport.output_bytes(role),
                   sum(e.sender == role for e in transport.log))
            for role in ("JO", "SP", "MA")}


def _rows(session) -> dict:
    return {party: session.counter.party_row(party) for party in ("JO", "SP", "MA")}


def _board(ma) -> list:
    return [(job.description, job.payment) for job in ma.board.jobs()]


@functools.cache
def dec_run(seed: int, algorithm: str) -> tuple[dict, dict]:
    """One PPMSdec reference run: its outcome and its job's traffic."""
    rng = random.Random(seed)
    params = setup(3, rng, security_bits=80, real_pairing=False, edge_rounds=6)
    session = PPMSdecSession(params, rng, rsa_bits=512, break_algorithm=algorithm)
    jo = session.new_job_owner("jo", funds=32)
    sps = [session.new_participant(f"sp-{i}") for i in range(3)]
    bundles = session.run_job(jo, sps, payment=2 + 2 * seed, description=f"job {seed}")
    traffic = _traffic(session)
    change = session.deposit_change(jo)
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
    }, traffic


@functools.cache
def pbs_run(seed: int) -> tuple[dict, dict]:
    """One PPMSpbs reference run: its outcome and its job's traffic."""
    session = PPMSpbsSession(random.Random(1000 + seed), rsa_bits=512)
    jo = session.new_job_owner(funds=4)
    sps = [session.new_participant() for _ in range(3)]
    receipts = session.run_job(jo, sps, description=f"unit job {seed}")
    traffic = _traffic(session)
    bank = session.ma.bank
    return {
        "rows": _rows(session),
        "accounts": sorted(bank.accounts.items()),
        "spent": sorted(bank.spent_serials),
        "log": list(bank.transaction_log),
        "receipts": [encode((r.signature, list(r.jo_account_key), r.serial))
                     for r in receipts],
        "board": _board(session.ma),
    }, traffic


def digest(outcome: dict) -> str:
    return hashlib.sha256(repr(outcome).encode()).hexdigest()[:16]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("algorithm", ["pcba", "epcba", "unitary"])
def test_dec_outcome_is_pinned(seed, algorithm):
    assert digest(dec_run(seed, algorithm)[0]) == REFERENCE[("dec", seed, algorithm)]


@pytest.mark.parametrize("seed", SEEDS)
def test_pbs_outcome_is_pinned(seed):
    assert digest(pbs_run(seed)[0]) == REFERENCE[("pbs", seed, None)]


@pytest.mark.parametrize("run", sorted(TRAFFIC, key=repr))
def test_traffic_is_pinned(run):
    mechanism, seed, algorithm = run
    outcome = dec_run(seed, algorithm) if mechanism == "dec" else pbs_run(seed)
    assert outcome[1] == TRAFFIC[run]
