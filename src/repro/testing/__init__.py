"""Deterministic fault injection, invariant checking, and property testing.

The paper's security story — double-deposit detection, denomination
defenses — only holds if the MA bank stays consistent when requests
are dropped, duplicated, reordered, or the service dies mid-batch.
This package makes those failure modes *reproducible*:

* :mod:`repro.testing.faults` — a :class:`FaultPlan` derives a full
  fault schedule (drop/duplicate/reorder rates, scripted crash
  points) from a single integer seed; :class:`FaultyTransport` raises
  :class:`CrashPoint` at the scripted envelopes.
* :mod:`repro.testing.invariants` — global checks run after every
  recovery: balance conservation across shards, serial-number
  uniqueness, and exact ledger/journal agreement.
* :mod:`repro.testing.cluster_invariants` — the multi-node sweep over
  per-slice storage dumps: cross-node serial/rid uniqueness, ring
  placement, and cluster-wide balance conservation.
* :mod:`repro.testing.scenario` — replays PPMSdec (sharded service)
  and PPMSpbs (unitary bank) market flows under a fault plan, crash-
  recovering the service from its write-ahead journal, and reports
  everything needed to replay a failure from its seed.
* :mod:`repro.testing.properties` — a tiny seed-driven property-test
  runner (``REPRO_TEST_SEED`` aware, no third-party dependency).

See ``docs/testing.md`` for the seed/replay workflow.
"""

from repro.testing.faults import (
    CrashPoint,
    StorageCrasher,
    FaultClock,
    FaultPlan,
    FaultyTransport,
)
from repro.testing.cluster_invariants import check_cluster_invariants
from repro.testing.invariants import InvariantReport, check_recovery_invariants
from repro.testing.properties import PropertyError, env_seed, property_test
from repro.testing.scenario import (
    DepositKit,
    PbsKit,
    ScenarioResult,
    build_deposit_kit,
    build_pbs_kit,
    run_deposit_scenario,
    run_pbs_scenario,
)

__all__ = [
    "FaultPlan",
    "FaultClock",
    "FaultyTransport",
    "CrashPoint",
    "StorageCrasher",
    "InvariantReport",
    "check_recovery_invariants",
    "check_cluster_invariants",
    "PropertyError",
    "env_seed",
    "property_test",
    "DepositKit",
    "PbsKit",
    "ScenarioResult",
    "build_deposit_kit",
    "build_pbs_kit",
    "run_deposit_scenario",
    "run_pbs_scenario",
]
