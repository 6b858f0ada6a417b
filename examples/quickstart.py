#!/usr/bin/env python3
"""Quickstart: one sensing job through the PPMSdec market.

Runs the full Algorithm-1 flow — job registration, blind withdrawal,
cash break, encrypted payment, data submission, delivery, verification
and deposits — for a single job owner and sensing participant, then
prints the bank's view, the operation counts (Table I's units) and the
transport's traffic (Table II's units).

Usage::

    python examples/quickstart.py
"""

from __future__ import annotations

import random

from repro.core import PPMSdecSession
from repro.ecash import setup
from repro.metrics import format_table, format_traffic_table


def main() -> None:
    rng = random.Random(2015)  # the paper's vintage

    # Setup(DEC): level-4 tree -> coins of value 16. Uses a precomputed
    # Cunningham chain (the paper's offline setup mode); pass
    # use_known_chain=False to feel the Fig. 2 search cost instead.
    print("Setting up DEC parameters (level 4)...")
    params = setup(level=4, rng=rng)

    market = PPMSdecSession(params, rng, rsa_bits=1024, break_algorithm="epcba")
    hospital = market.new_job_owner("hospital-233", funds=64)
    alice = market.new_participant("alice")

    print("Running one full job (payment = 5 credits)...")
    bundles = market.run_job(
        hospital,
        [alice],
        description="ambient noise samples, city centre",
        payment=5,
        data_payload=b"62.1dB@(32.05,118.78) 58.9dB@(32.06,118.79)",
    )

    bundle = bundles[0]
    print(f"\nAlice received {bundle.total_value(params.tree_level)} credits "
          f"in {len(bundle.tokens)} real coins "
          f"(+{bundle.fake_count} fakes padding the payload)")
    print(f"JO signature valid: {bundle.signature_valid}")

    bank = market.ma.bank
    print(f"\nBank balances: hospital={bank.balance('hospital-233')} "
          f"alice={bank.balance('alice')}")
    print(f"Deposits seen by the bank: "
          f"{[e.amount for e in market.ma.deposit_events]} "
          f"(the cash break at work — not one lump of 5)")

    print("\n" + format_table(market.counter, ["JO", "SP", "MA"],
                              title="Operation counts (cf. paper Table I):"))
    print("\n" + format_traffic_table(market.transport, ["JO", "SP", "MA"],
                                      title="Traffic (cf. paper Table II):"))


if __name__ == "__main__":
    main()
