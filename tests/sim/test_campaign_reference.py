"""Report reference for the seeded mixed campaign, one per backend.

``python tools/run_campaign.py mixed --seed 2015 --backend B`` is the
campaign the CI job replays; its report digest (sha256 of the canonical
JSON) pins everything the economy decided — every party's ledger, the
verdict tally, the detections, conservation, the sweep's findings and
the Table I tallies.  The three backends differ only where the wire
does (the cluster routes ring deposits by account, so one serial can be
admitted on two slices and flagged by the sweep).
"""

from __future__ import annotations

import pytest

from repro.sim.campaign import mixed_campaign, run_campaign

#: backend -> report digest of ``mixed --seed 2015``
REFERENCE = {
    "inprocess": "bc800e607af999a49d040632eb5f0eeef255ecdc11f9f78b9b126768635f54ee",
    "socket": "d85c36c42b564fff0ac2a29ca4742b27b1e11e25149f4824c84722ca9a2310b2",
    "cluster": "006c17ac60e6b898357267d1c949bf7bf349cc8cf8abab000991b4dac92272ab",
}


@pytest.mark.parametrize("backend", sorted(REFERENCE))
def test_mixed_2015_report_did_not_move(backend):
    report = run_campaign(mixed_campaign(2015, backend=backend))
    assert report.clean, report.summary()
    assert report.digest() == REFERENCE[backend]
