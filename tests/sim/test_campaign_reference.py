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
"""

from __future__ import annotations

import pytest

from repro.crypto.pairing import TatePairing
from repro.sim.campaign import Campaign, mixed_campaign, run_campaign

#: backend -> report digest of ``mixed --seed 2015``
REFERENCE = {
    "inprocess": "bc800e607af999a49d040632eb5f0eeef255ecdc11f9f78b9b126768635f54ee",
    "socket": "1f150945383c7f1dbdf9047f4416f2e24871179cbd1b9afd68c7c8c13e51c5ef",
    "cluster": "4372efb364d69069f40fd34165b4512a718ee6450dddb3c6f9f03cf778a9d476",
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
