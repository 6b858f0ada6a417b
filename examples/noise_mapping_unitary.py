#!/usr/bin/env python3
"""Urban noise mapping on the unitary-payment market (PPMSpbs).

A city agency crowdsources noise measurements; every submission earns
exactly one credit, so the light-weight PPMSpbs mechanism applies
(paper Section V).  The example runs a batch of participants through
Algorithm 4 and then demonstrates the mechanism's privacy split:

* the *job owner* never learns which account it paid — we dump the
  JO's complete receive-log and check the workers' real keys are absent;
* the *MA/bank* does see the (JO, SP) transaction pairs — by design,
  the paper's anti-money-laundering concession.

Usage::

    python examples/noise_mapping_unitary.py
"""

from __future__ import annotations

import random

import numpy as np

from repro.core import PPMSpbsSession
from repro.metrics import format_table, format_traffic_table
from repro.net.codec import encode
from repro.workloads import noise_map_reading


def main() -> None:
    rng = random.Random(44)
    np_rng = np.random.default_rng(44)

    market = PPMSpbsSession(rng, rsa_bits=1024)
    agency = market.new_job_owner(funds=20)
    workers = [market.new_participant() for _ in range(8)]

    print("Running 8 participants through the unitary market...")
    receipts = market.run_job(
        agency,
        workers,
        description="A-weighted noise levels, downtown grid",
        data_payload=noise_map_reading(np_rng),
    )
    print(f"{len(receipts)} coins issued, verified and deposited.\n")

    bank = market.ma.bank
    print(f"Agency balance: {bank.balance(agency.account_pub.fingerprint())} "
          f"(started at 20, paid 8 unitary credits)")
    paid = sum(bank.balance(w.account_pub.fingerprint()) for w in workers)
    print(f"Workers hold {paid} credits in total.\n")

    # privacy against the JO: its inbox never contains a worker's real key
    jo_inbox = b"".join(
        encode(e.payload) for e in market.transport.log if e.receiver == "JO"
    )
    leaked = sum(
        1
        for w in workers
        if w.account_pub.n.to_bytes((w.account_pub.n.bit_length() + 7) // 8, "big") in jo_inbox
    )
    print(f"Worker real keys visible to the JO: {leaked}/8 "
          f"(blindness of the partially blind signature)")

    # the deliberate concession: the bank sees who transacted
    print(f"Bank transaction log entries: {len(bank.transaction_log)} "
          f"(the paper removes bank-side transaction privacy to thwart "
          f"money laundering)\n")

    print(format_table(market.counter, ["JO", "SP", "MA"],
                       title="Operation counts — note: zero ZKPs (Table I):"))
    print()
    print(format_traffic_table(market.transport, ["JO", "SP", "MA"],
                               title="Traffic for 8 rounds (Table II scale):"))


if __name__ == "__main__":
    main()
