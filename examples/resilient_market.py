#!/usr/bin/env python3
"""The message-driven runtime under fire: honest traffic + injected attacks.

A deployed market is a set of daemons reacting to whatever arrives, in
whatever order, from whoever sends it.  The sessions (`PPMSdecSession`,
`PPMSpbsSession`) run both mechanisms as exactly such parties on the
message-driven engine (:mod:`repro.core.engine`); after an honest job,
this example has an attacker inject malformed, replayed and
mis-addressed envelopes into the job's router, and shows that:

* every honest worker still gets paid,
* every injected attack lands in the router's failure log with the
  specific defence that rejected it,
* the books still balance afterwards (ledger audit).

Usage::

    python examples/resilient_market.py
"""

from __future__ import annotations

import random

from repro.core import PPMSdecSession, PPMSpbsSession
from repro.core.engine import Outbound
from repro.core.ledger import audit_bank
from repro.ecash import setup


def main() -> None:
    rng = random.Random(77)

    print("=== PPMSdec on the message-driven engine ===")
    params = setup(level=3, rng=rng, edge_rounds=8)
    market = PPMSdecSession(params, rng, rsa_bits=512, break_algorithm="pcba")
    jo = market.new_job_owner("jo-acct", 4 * (1 << params.tree_level))
    sps = [market.new_participant(f"sp-acct-{i}") for i in range(2)]
    market.run_job(jo, sps, payment=5)
    router, ma = market.router, market.ma
    print(f"honest run: {len(router.transport.log)} envelopes, "
          f"{len(router.failures)} failures")
    for sp in sps:
        print(f"  {sp.aid}: received {sp.bundle.total_value(params.tree_level)}, "
              f"balance {ma.bank.balance(sp.aid)}")

    print("\n--- attacker wakes up ---")
    attacks = [
        ("replay an already-deposited coin",
         lambda: router.post(sps[0].name, Outbound("MA", "deposit", next(
             e for e in router.transport.log
             if e.kind == "deposit" and e.payload["aid"] == sps[0].aid
         ).payload))),
        ("deposit into someone else's account",
         lambda: router.post(sps[0].name, Outbound("MA", "deposit", {
             "aid": sps[1].aid, "coin": b"irrelevant"}))),
        ("withdraw without an account",
         lambda: _unenrolled_withdrawal(router, params)),
        ("register labor for a ghost job",
         lambda: router.post("mallory", Outbound("MA", "labor-registration", {
             "job": "ghost-job", "rpk": (3, 5)}))),
        ("pay a pseudonym that never registered labor",
         lambda: _pay_a_ghost(router, jo.job_id)),
    ]
    for description, act in attacks:
        before = len(router.failures)
        act()
        router.run()
        fired = router.failures[before:]
        verdicts = "; ".join(f.error.split(" (")[0] for f in fired) or "?!"
        print(f"  [{description}] rejected: {verdicts}")

    wallet_float = sum(w.balance for (_, w) in jo.coins)
    report = audit_bank(ma.bank, outstanding_float=wallet_float)
    print(f"\nledger audit after the attack wave: "
          f"{'CLEAN' if report.clean else report.findings}")

    print("\n=== PPMSpbs on the engine, same treatment ===")
    market2 = PPMSpbsSession(rng, rsa_bits=512)
    jo2 = market2.new_job_owner(funds=5)
    sps2 = [market2.new_participant() for _ in range(3)]
    market2.run_job(jo2, sps2)
    router2, ma2 = market2.router, market2.ma
    print(f"honest run: {len(router2.transport.log)} envelopes, "
          f"{len(router2.failures)} failures")
    sp = sps2[0]
    coin = sp.receipts[-1].signature
    router2.post(sp.name, Outbound("MA", "deposit", {
        "sig": coin.value, "ctr": coin.counter, "serial": coin.common_info,
        "sp_key": (sp.account_pub.n, sp.account_pub.e),
        "jo_key": list(sp.receipts[-1].jo_account_key),
    }))
    router2.run()
    print(f"  [replayed unitary coin] rejected: {router2.failures[-1].error}")
    balances = [ma2.bank.balance(s.account_pub.fingerprint()) for s in sps2]
    print(f"  worker balances intact: {balances}")

    print("\nAll injected attacks rejected; all honest outcomes preserved.")


def _unenrolled_withdrawal(router, params) -> None:
    from repro.ecash.dec import begin_withdrawal

    _, request = begin_withdrawal(params, random.Random(5))
    router.post("mallory", Outbound("MA", "withdraw-request", {"request": request}))


def _pay_a_ghost(router, job_id: str) -> None:
    ghost = b"z" * 16
    router.post("mallory", Outbound("MA", "data-submission",
                                    {"pseudonym": ghost, "job": job_id, "data": b"d"}))
    router.post("mallory", Outbound("MA", "payment-submission",
                                    {"pseudonym": ghost, "ciphertext": b"c"}))


if __name__ == "__main__":
    main()
