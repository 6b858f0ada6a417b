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
``1f150945…e51c5ef``; the cluster's held.  Building the pairing group
on storey 0's prime moved two once more (a party's one RNG feeds its
spend proofs and its behaviour, and the proofs now draw shorter
scalars): in-process ``111e747f…9482a4dd`` → ``bc800e60…5f54ee``, with
three more coin units deposited by the end, and cluster
``006c17ac…2272ab`` → ``4372efb3…a9d476``; the socket's held.
Deleting ``CampaignConfig``'s shard-count field moved all three, and
only because the report's ``config`` lost that key (re-adding it at its
old value, 3, gives the old digests back): in-process ``bc800e60…5f54ee`` →
``1f0c71e1…e31444``, socket ``1f150945…e51c5ef`` →
``c488bb29…ce9fd9``, cluster ``4372efb3…a9d476`` → ``42356aba…1b37e9``.
"""

from __future__ import annotations

import pytest

from repro.crypto.pairing import TatePairing
from repro.sim.campaign import Campaign, mixed_campaign, run_campaign

#: backend -> report digest of ``mixed --seed 2015``
REFERENCE = {
    "inprocess": "1f0c71e16a077e3cd4c9eaf6ecf5d730343f83e1ec5de9f70c43a742afe31444",
    "socket": "c488bb2957710543c2856926f9da7684710c1e568ad34e4dd67eb13003ce9fd9",
    "cluster": "42356abab6f08ea7116d3c548d66ecb950b140bae542b021fe201b44be1b37e9",
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
