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
    "inprocess": "79a9d657070f4a58073110f7bb78488c220a4a7e2813e142c5dbfbf3e0138b53",
    "socket": "168f2c85f33364b6409d1821ab144230678bce27307654d22cd77053ca071e7e",
    "cluster": "5da799e63748926f72795c24ae640f525824d81c3f845a26d4bc5bc1f79e5af1",
}


@pytest.mark.parametrize("backend", sorted(REFERENCE))
def test_mixed_2015_report_did_not_move(backend):
    report = run_campaign(mixed_campaign(2015, backend=backend))
    assert report.clean, report.summary()
    assert report.digest() == REFERENCE[backend]
