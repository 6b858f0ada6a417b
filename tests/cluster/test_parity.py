"""Byte-identical parity: the cluster answers exactly like one node.

The same offline-minted trace (issuance happens client-side, so no
service state is consumed producing it) is replayed against a plain
single-node ``ServiceFrontend`` and against a three-node cluster
through the router; every reply is canonically encoded and compared as
bytes.  Fault-free, replay-free traffic only — ``REJECTED`` evidence
embeds node-local sequence numbers and withdraw verdicts embed
issuance randomness, so those kinds are exercised by the failover and
loadgen suites instead.
"""

from __future__ import annotations

import random

from repro.net.codec import encode
from repro.service.frontend import ServiceClient, ServiceFrontend
from repro.service.journal import Journal
from repro.service.loadgen import OfflineIssuer, Request, mint_deposit_traffic
from repro.service.server import MarketService
from repro.service.shard import ShardedBank

_ENVELOPE_KEYS = ("cid", "req")


def _stripped(reply: dict) -> dict:
    return {k: v for k, v in reply.items() if k not in _ENVELOPE_KEYS}


def _trace(params, keypair) -> tuple[list[Request], list[Request]]:
    rng = random.Random(41)
    issuer = OfflineIssuer(params, keypair)
    deposits = mint_deposit_traffic(issuer, rng, n_accounts=3, n_deposits=8)
    opens = issuer.opens
    balances = [Request(sender=f"sp{i}", kind="balance",
                        payload={"aid": f"sp{i}"}) for i in range(3)]
    return opens, deposits + balances


def test_cluster_replies_byte_identical_to_single_node(
        local_cluster, dec_params_toy, cluster_keypair):
    opens, rest = _trace(dec_params_toy, cluster_keypair)
    requests = opens + rest

    journal = Journal()
    bank = ShardedBank(dec_params_toy, cluster_keypair, random.Random(0), journal=journal)
    service = MarketService(bank, journal=journal)
    with ServiceFrontend(service) as frontend:
        with ServiceClient(frontend.address) as client:
            single = [_stripped(client.request(r.kind, r.payload,
                                               sender=r.sender))
                      for r in opens]
            single_audit = _stripped(client.request("audit", {}))
            single += [_stripped(client.request(r.kind, r.payload,
                                                sender=r.sender))
                       for r in rest]
            single_clean = _stripped(client.request("audit", {}))["clean"]

    with local_cluster.router() as router:
        clustered = [router.request(r.kind, r.payload, sender=r.sender)
                     for r in opens]
        cluster_audit = router.audit()
        clustered += [router.request(r.kind, r.payload, sender=r.sender)
                      for r in rest]
        cluster_clean = router.audit()["clean"]

    assert len(single) == len(clustered) == len(requests)
    for request, lone, sharded in zip(requests, single, clustered):
        assert encode(lone) == encode(sharded), (
            f"{request.kind} for {request.sender} diverged: "
            f"{lone!r} != {sharded!r}"
        )
    # the merged cluster audit is byte-identical at the clean point
    # (after the deposits both sides flag offline-minted value the same
    # way, but cluster findings carry node prefixes — compare the flag)
    assert encode(single_audit) == encode(cluster_audit)
    assert single_clean == cluster_clean


def test_parity_trace_spreads_over_every_node(local_cluster, dec_params_toy,
                                              cluster_keypair):
    """The parity result is meaningful: the trace really is sharded."""
    opens, rest = _trace(dec_params_toy, cluster_keypair)
    owners = {local_cluster.map.owner_of(r.payload["aid"])
              for r in opens + rest}
    assert len(owners) >= 2
