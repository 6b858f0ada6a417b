#!/usr/bin/env python3
"""The paper's motivating scenario: an HIV-study sensing job.

Section I of the paper: "Consider a research organization that uses the
market to collect data from HIV patients' daily physical status ...
knowing that a person participates in this job directly reveals he or
she has HIV."  This example runs that study through PPMSdec with a
*curious MA* attached to the wire, then shows concretely what the MA
can and cannot learn:

1. it sees the job, its payment, and pseudonymous labor registrations;
2. it cannot read the patients' telemetry (encrypted to pseudonym keys);
3. it cannot link deposits back to the withdrawal (blind issuance);
4. its best remaining inference — the denomination attack on the
   deposit streams — is run for real, against several decoy jobs, and
   reported per cash-break strategy.

Usage::

    python examples/hiv_study_market.py
"""

from __future__ import annotations

import random

import numpy as np

from repro.attacks import CuriousMAView, run_denomination_attack
from repro.core import PPMSdecSession
from repro.ecash import setup
from repro.workloads import health_telemetry


def run_market(break_algorithm: str, seed: int = 7):
    rng = random.Random(seed)
    np_rng = np.random.default_rng(seed)
    params = setup(level=5, rng=rng)
    market = PPMSdecSession(params, rng, rsa_bits=1024, break_algorithm=break_algorithm)

    ma_view = CuriousMAView()
    ma_view.attach(market.transport)

    # the study plus decoy jobs with other payments, as a real market has
    study = market.new_job_owner("research-org", funds=128)
    decoys = [market.new_job_owner(f"decoy-org-{i}", funds=128) for i in range(4)]
    decoy_payments = [2, 5, 17, 26]

    patients = [market.new_participant(f"patient-{i}") for i in range(3)]
    market.run_job(
        study,
        patients,
        description="daily physical status, longitudinal study",
        payment=22,
        data_payload=health_telemetry(np_rng),
    )
    for jo, payment, i in zip(decoys, decoy_payments, range(4)):
        worker = market.new_participant(f"worker-{i}")
        market.run_job(jo, [worker], description=f"decoy job {i}", payment=payment)

    # the curious MA assembles its view
    for profile in market.ma.board.jobs():
        ma_view.observe_job(profile.job_id, profile.payment)
    for event in market.ma.deposit_events:
        ma_view.observe_deposit(event.aid, event.amount, event.time)
    return market, ma_view


def main() -> None:
    print("=== HIV-study market under PPMSdec ===\n")
    for strategy in ("pcba", "epcba", "unitary"):
        market, ma_view = run_market(strategy)
        study_job = market.ma.board.jobs()[0]

        # what the MA cannot do: read the data
        payment_envs = [e for e in market.transport.log if e.kind == "payment-delivery"]
        print(f"[{strategy}] encrypted payment blob: {payment_envs[0].wire_bytes} B "
              f"(opaque to the MA)")

        # the MA's denomination attack against each patient account
        identified = 0
        for i in range(3):
            deposits = ma_view.deposits_of(f"patient-{i}")
            result = run_denomination_attack(
                ma_view.published_jobs, study_job.job_id, deposits
            )
            identified += result.uniquely_identified
            print(f"[{strategy}] patient-{i}: deposits {sorted(deposits)} -> "
                  f"anonymity set {result.anonymity_set_size} "
                  f"({'LINKED to the study!' if result.uniquely_identified else 'not uniquely linked'})")
        print(f"[{strategy}] patients uniquely linked: {identified}/3\n")

    print("Note: with a single lump-sum deposit (no cash break) every "
          "patient would be linked whenever the study's payment is unique "
          "in the market — run examples/denomination_attack_demo.py for "
          "the quantitative sweep.")


if __name__ == "__main__":
    main()
