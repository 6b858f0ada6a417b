"""Router behavior: keyed routing, re-routing, the proxy front door."""

from __future__ import annotations

import socket
import threading

import pytest

from repro.cluster import ClusterProxy, ClusterRouter, RouteError, StaleClusterMapError
from repro.cluster.node import open_dump
from repro.cluster.ring import ClusterMap
from repro.service.frontend import ServiceClient


def _dead_address() -> tuple[str, int]:
    """An address nothing listens on (bound once, then released)."""
    with socket.create_server(("127.0.0.1", 0)) as probe:
        return probe.getsockname()[:2]


def test_requests_route_by_account_id(local_cluster):
    with local_cluster.router() as router:
        for i in range(5):
            aid = f"sp{i}"
            reply = router.request("open-account", {"aid": aid, "balance": 8},
                                   sender=aid)
            assert reply["status"] == "OK"
        # the owner's journal — and only the owner's — carries the account
        journals = {node: list(open_dump(dump).records())
                    for node, dump in local_cluster.dump_storage().items()}
        for i in range(5):
            aid = f"sp{i}"
            owner = local_cluster.map.owner_of(aid)
            for node, records in journals.items():
                opened_here = any(
                    r.kind == "apply" and r.op == "open-account"
                    and r.payload["aid"] == aid
                    for r in records
                )
                assert opened_here == (node == owner)


def test_replies_carry_no_transport_envelope(local_cluster):
    with local_cluster.router() as router:
        reply = router.request("open-account", {"aid": "sp0", "balance": 4},
                               sender="sp0")
        assert "cid" not in reply and "req" not in reply


def test_missing_partition_key_is_a_route_error(local_cluster):
    with local_cluster.router() as router:
        with pytest.raises(RouteError):
            router.request("balance", {"account": "sp0"})


def test_audit_fans_out_to_every_node(local_cluster):
    with local_cluster.router() as router:
        report = router.audit()
        assert report == {"status": "OK", "clean": True, "findings": []}


def test_stale_map_without_refresh_raises(local_cluster):
    cmap = local_cluster.map
    broken = ClusterMap(
        version=cmap.version, nodes=cmap.nodes,
        addresses={n: _dead_address() for n in cmap.nodes},
        vnodes=cmap.vnodes,
    )
    with ClusterRouter(broken, refresh=None, attempts=1, backoff=0.01,
                       connect_timeout=0.25) as router:
        with pytest.raises(StaleClusterMapError) as excinfo:
            router.request("balance", {"aid": "sp0"})
        assert excinfo.value.version == cmap.version


def test_version_bump_reroutes_deterministically(local_cluster):
    with local_cluster.router(attempts=2, backoff=0.01,
                              connect_timeout=0.5,
                              refresh_backoff=0.01) as router:
        reply = router.request("open-account", {"aid": "sp0", "balance": 16},
                               sender="sp0")
        assert reply["status"] == "OK"
        victim = local_cluster.map.owner_of("sp0")
        local_cluster.kill(victim)
        adopter = local_cluster.failover(victim)
        assert local_cluster.map.version == 1
        # same key, same ring owner, new address: the retry lands on
        # the adopter and the verdict is served from adopted state
        reply = router.request("balance", {"aid": "sp0"}, sender="sp0")
        assert reply == {"status": "OK", "balance": 16}
        assert router.reroutes == 1
        assert router.map.version == 1
        assert router.map.owner_of("sp0") == victim  # ownership never moves
        assert tuple(router.map.address_of(victim)) == \
            local_cluster.nodes[adopter].adopted[victim][1].address


def test_proxy_serves_single_node_wire_protocol(local_cluster):
    with local_cluster.router() as router:
        with ClusterProxy(router) as proxy:
            with ServiceClient(proxy.address, sender="sp7") as client:
                reply = client.request("open-account",
                                       {"aid": "sp7", "balance": 32})
                assert reply["status"] == "OK" and reply["cid"] == 0
                reply = client.request("balance", {"aid": "sp7"})
                assert reply["balance"] == 32
                # keyless audit fans out through the proxy too
                reply = client.request("audit", {})
                assert reply["clean"] is True
            assert proxy.served == 3
            idle = socket.create_connection(proxy.address, timeout=5.0)
        # closed means closed: the port refuses a dial and the accept
        # and connection threads are gone, idle client or not
        with pytest.raises(OSError):
            socket.create_connection(proxy.address, timeout=1.0)
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("proxy-") and t.is_alive()]
        idle.close()
