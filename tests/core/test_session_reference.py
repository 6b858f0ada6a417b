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
a digest.  The PPMSdec pins moved once when the pairing group was built
on storey 0's prime: the toy target became storey 0's own group (it was
a 160-bit group of its own here), ``setup`` stopped drawing a pairing order,
and the equality proof lost its integer response.
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
    ("dec", 0, "pcba"): "fd180339f3dad5ab",
    ("dec", 0, "epcba"): "37ccdedd2b010736",
    ("dec", 0, "unitary"): "23865a2de281c404",
    ("dec", 1, "pcba"): "6e1eed207bf69ed6",
    ("dec", 1, "epcba"): "f6e7bb74f19c0c6a",
    ("dec", 1, "unitary"): "1c139040022f8249",
    ("dec", 2, "pcba"): "e131f8d39463f710",
    ("dec", 2, "epcba"): "48dbec21fe741641",
    ("dec", 2, "unitary"): "814b36ce54598eeb",
    ("pbs", 0, None): "af826b02055b60d7",
    ("pbs", 1, None): "8d0295cf51b7b44a",
    ("pbs", 2, None): "53d79d0eea20283b",
}

#: run -> Table II after run_job: role -> (input B, output B, messages sent)
TRAFFIC = {
    ("dec", 0, "pcba"): {"JO": (507, 18036, 5), "SP": (17769, 4112, 12),
                         "MA": (22148, 18276, 11)},
    ("dec", 0, "epcba"): {"JO": (507, 24366, 5), "SP": (24099, 10165, 15),
                          "MA": (34531, 24606, 11)},
    ("dec", 0, "unitary"): {"JO": (507, 38481, 5), "SP": (38214, 10161, 15),
                            "MA": (48642, 38721, 11)},
    ("dec", 1, "pcba"): {"JO": (585, 11899, 6), "SP": (11505, 2859, 12),
                         "MA": (14758, 12090, 12)},
    ("dec", 1, "epcba"): {"JO": (585, 23221, 6), "SP": (22827, 13681, 18),
                          "MA": (36902, 23412, 12)},
    ("dec", 1, "unitary"): {"JO": (585, 38642, 6), "SP": (38248, 19747, 21),
                            "MA": (58389, 38833, 12)},
    ("dec", 2, "pcba"): {"JO": (667, 16974, 7), "SP": (16453, 6364, 15),
                         "MA": (23338, 17120, 13)},
    ("dec", 2, "epcba"): {"JO": (666, 22153, 7), "SP": (21631, 12457, 18),
                          "MA": (34610, 22297, 13)},
    ("dec", 2, "unitary"): {"JO": (667, 38799, 7), "SP": (38278, 29361, 27),
                            "MA": (68160, 38945, 13)},
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
    params = setup(3, rng, real_pairing=False, edge_rounds=6)
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
