#!/usr/bin/env python3
"""A full market day: both mechanisms, credit circulation, mix network.

The closest thing to the paper's Fig. 1 in motion.  One simulated day:

1. a PPMSdec market opens: several organizations publish jobs with
   different payments, workers complete them and deposit their coins;
2. one worker turns its earnings around and *buys* sensing work from a
   peer (Section III-A: "the currency can be used to buy sensing
   services from other SPs"), then redeems the rest for a real-world
   voucher;
3. a unitary PPMSpbs market runs alongside for micro-tasks;
4. all labor-registration traffic goes through a mix-network batch so
   a network eavesdropper sees only a shuffled multiset of message
   sizes (the trust model's network-level anonymity, exercised rather
   than assumed).

Prints a closing dashboard: balances, total traffic, operation counts,
the mix's eavesdropper view, and the conservation-of-money check.

Usage::

    python examples/market_day.py
"""

from __future__ import annotations

import random

import numpy as np

from repro.core import PPMSdecSession, PPMSpbsSession, RedemptionDesk, trade_sensing_service
from repro.ecash import setup
from repro.metrics import format_table, format_traffic_table
from repro.net import MixNetwork, Transport
from repro.workloads import GENERATORS, generate_market


def main() -> None:
    rng = random.Random(11)
    np_rng = np.random.default_rng(11)

    print("=== Morning: PPMSdec market (arbitrary payments) ===")
    params = setup(level=4, rng=rng)
    dec = PPMSdecSession(params, rng, rsa_bits=1024, break_algorithm="epcba")
    spec = generate_market(rng, level=4, n_jobs=3, participants_per_job=(1, 2))

    workers = []
    owners = []
    payload_kinds = list(GENERATORS)
    for i, job in enumerate(spec.jobs):
        owner = dec.new_job_owner(f"org-{i}", funds=64)
        owners.append(owner)
        job_workers = []
        for k in range(job.n_participants):
            worker = dec.new_participant(f"worker-{len(workers)}")
            workers.append(worker)
            job_workers.append(worker)
        payload = GENERATORS[payload_kinds[i % len(payload_kinds)]](np_rng)
        dec.run_job(owner, job_workers, description=job.description,
                    payment=job.payment, data_payload=payload)
        print(f"  job '{job.description}': payment {job.payment} x "
              f"{job.n_participants} workers — paid and deposited")

    print("\n=== Midday: credit circulation ===")
    bank = dec.ma.bank
    # find a worker who can cover a whole coin; top them up via one more job
    rich = "worker-0"
    if bank.balance(rich) < 16:
        topup = dec.new_job_owner("topup-org", funds=32)
        owners.append(topup)
        dec.run_job(topup, [workers[0]], payment=16 - bank.balance(rich) or 16)
    seller = dec.new_participant("freelancer")
    buyer = trade_sensing_service(dec, rich, seller, payment=3,
                          description="peer calibration readings")
    print(f"  {rich} bought 3 credits of peer sensing from 'freelancer' "
          f"(balance now {bank.balance(rich)})")
    desk = RedemptionDesk(bank=bank, rng=rng)
    voucher = desk.redeem(rich, 2)
    print(f"  {rich} redeemed 2 credits -> voucher {voucher.voucher_id.hex()[:12]}…")

    print("\n=== Afternoon: PPMSpbs micro-task market (unitary) ===")
    pbs = PPMSpbsSession(rng, rsa_bits=1024)
    agency = pbs.new_job_owner(funds=6)
    micro_workers = [pbs.new_participant() for _ in range(4)]
    pbs.run_job(agency, micro_workers, description="pothole photos")
    print(f"  4 micro-tasks paid 1 credit each; "
          f"bank saw {len(pbs.ma.bank.transaction_log)} (JO,SP) pairs — by design")

    print("\n=== Mix network: what the wire eavesdropper saw ===")
    mix = MixNetwork(transport=Transport(), rng=rng)
    for i, worker in enumerate(workers[:4]):
        mix.enqueue(f"circuit-{i}", "MA", "labor-registration",
                    {"blob": bytes(64)})  # uniform-size registrations
    mix.flush()
    obs = mix.observations[-1]
    print(f"  batch of {obs.batch_size}, sizes {set(obs.message_lengths)} "
          f"— uniform, shuffled, sender-unlinkable")

    print("\n=== Closing dashboard ===")
    total_worker = sum(bank.balance(f"worker-{i}") for i in range(len(workers)))
    print(f"  workers hold {total_worker} credits; "
          f"freelancer holds {bank.balance('freelancer')}; "
          f"{sum(v.amount for v in desk.issued)} redeemed")
    print()
    print(format_table(dec.counter, ["JO", "SP", "MA"],
                       title="PPMSdec day-total operation counts:"))
    print()
    print(format_traffic_table(dec.transport, ["JO", "SP", "MA"],
                               title="PPMSdec day-total traffic:"))

    # conservation: all credits that entered accounts are accounted for
    opening = 64 * len(spec.jobs) + 32 * ("topup-org" in bank.accounts)
    closing = sum(bank.accounts.values())
    in_wallets = sum(o.spendable_balance() for o in owners) + buyer.spendable_balance()
    redeemed = sum(v.amount for v in desk.issued)
    assert opening == closing + in_wallets + redeemed, "money leak!"
    print(f"\n  conservation check: opening {opening} = accounts {closing} "
          f"+ wallets {in_wallets} + redeemed {redeemed} ✓")


if __name__ == "__main__":
    main()
