"""Reference digests for the fault and PPMSpbs scenario sweeps.

Each digest is the sha256 of the canonical JSON of one row per run:
the scenario seeds 0…39, then one crash point at a time under fault
seed 5 (envelopes 0…59 for PPMSdec, 0…29 for PPMSpbs).  A row holds
everything a run observed, verdicts and findings included, so a change
to minting, verification, the journal or recovery moves a digest.  A
deliberate move is recorded old → new here and in CHANGES.md.

The sweeps take ~40 s, so they run with ``REPRO_FAULT_SMOKE=1``
(``make test-faults``).
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.testing import FaultPlan, run_deposit_scenario, run_pbs_scenario

pytestmark = pytest.mark.skipif(
    not os.environ.get("REPRO_FAULT_SMOKE"),
    reason="the reference sweeps run with REPRO_FAULT_SMOKE=1",
)

#: scenario -> (runner, crash points swept, digest).  PPMSdec moved
#: f7e4e234…13f2943 → b4710ca1…52daad2b when the kits left the toy
#: pairing for ``setup(3)``, and b4710ca1…52daad2b → 29838f06…ef8f2d83
#: when the pairing group was built on storey 0's prime; PPMSpbs
#: replays no DEC token and held both times.
REFERENCE = {
    "ppms-dec": (run_deposit_scenario, 60,
                 "29838f066b13d8fb935c9d17c90cf5a56579a41bf6c3074df3132cceef8f2d83"),
    "ppms-pbs": (run_pbs_scenario, 30,
                 "ade7a3403c802289e96ae899b0210efd21c2aa035daae4ac886d3a1811240655"),
}


def _row(result) -> tuple:
    return (result.delivered, result.duplicates, list(result.dropped),
            result.crashes, result.recoveries, result.checkpoints,
            result.ok, result.rejected, result.errors,
            sorted(result.verdicts.items()), list(result.findings))


@pytest.mark.parametrize("scenario", sorted(REFERENCE))
def test_sweep_digest_did_not_move(scenario):
    run, crash_points, digest = REFERENCE[scenario]
    rows = [_row(run(seed)) for seed in range(40)]
    rows += [_row(run(FaultPlan(seed=5, crash_points=(k,))))
             for k in range(crash_points)]
    blob = json.dumps(rows, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest
