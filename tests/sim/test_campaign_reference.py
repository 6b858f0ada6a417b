"""Report reference for the seeded mixed campaign, one per backend.

``python tools/run_campaign.py mixed --seed 2015 --backend B`` is the
campaign the CI job replays; its report digest (sha256 of the canonical
JSON) pins everything the economy decided — every party's ledger, the
verdict tally, the detections, conservation, the sweep's findings and
the Table I tallies.  The three backends differ only where the wire
does (the cluster routes ring deposits by account, so one serial can be
admitted on two slices and flagged by the sweep).

The campaign runs on ``setup(3)``'s Tate parameters.  Leaving the toy
pairing moved two digests once: in-process ``bc800e60…5f54ee`` →
``111e747f…9482a4dd`` and socket ``d85c36c4…2310b2`` →
``1f150945…e51c5ef``; the cluster's held.
"""

from __future__ import annotations

import pytest

from repro.crypto.pairing import TatePairing
from repro.sim.campaign import Campaign, mixed_campaign, run_campaign

#: backend -> report digest of ``mixed --seed 2015``
REFERENCE = {
    "inprocess": "111e747f283c19b6199446d356dd137a71398cb672ae1c8bbf11999d9482a4dd",
    "socket": "1f150945383c7f1dbdf9047f4416f2e24871179cbd1b9afd68c7c8c13e51c5ef",
    "cluster": "006c17ac60e6b898357267d1c949bf7bf349cc8cf8abab000991b4dac92272ab",
}


@pytest.mark.parametrize("backend", sorted(REFERENCE))
def test_mixed_2015_report_did_not_move(backend, monkeypatch):
    ran = []
    run = Campaign.run
    monkeypatch.setattr(Campaign, "run",
                        lambda self: ran.append(self.params) or run(self))
    report = run_campaign(mixed_campaign(2015, backend=backend))
    assert report.clean, report.summary()
    assert report.digest() == REFERENCE[backend]
    [params] = ran
    assert isinstance(params.backend, TatePairing)
    assert params.edge_rounds == 24
