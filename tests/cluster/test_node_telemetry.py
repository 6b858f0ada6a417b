"""A default-built cluster counts: every node's registry records its replies."""

from __future__ import annotations

import random

from repro.cluster import LocalCluster
from repro.service.loadgen import WireIssuer, mint_deposit_traffic, run_trace


class _CountingGateway:
    """The router, tallying the ``OK`` replies its client received."""

    def __init__(self, router) -> None:
        self.router = router
        self.ok = 0

    def request(self, kind, payload, **kwargs) -> dict:
        reply = self.router.request(kind, payload, **kwargs)
        self.ok += reply.get("status") == "OK"
        return reply


def _fleet_ok(snapshots: dict[str, dict]) -> int:
    return sum(entry["value"]
               for snapshot in snapshots.values()
               for entry in snapshot["counters"]
               if entry["name"] == "repro_service_replies_total"
               and entry["labels"] == {"status": "OK"})


def test_default_nodes_count_every_ok_reply(dec_params_toy, cluster_keypair):
    # each node builds its own default telemetry
    with LocalCluster(dec_params_toy, cluster_keypair, n_nodes=3) as cluster:
        with cluster.router() as router:
            gateway = _CountingGateway(router)
            deposits = mint_deposit_traffic(
                WireIssuer(gateway, dec_params_toy, cluster_keypair.public),
                random.Random(42), n_accounts=3, n_deposits=4,
            )
            report = run_trace(gateway, deposits)
        assert report.ok == 4
        assert gateway.ok > report.ok  # minting's opens and withdrawals too
        assert _fleet_ok(cluster.telemetry_snapshots()) == gateway.ok
