#!/usr/bin/env python3
"""A sharded market administrator surviving the loss of a node.

Three cluster nodes each own a consistent-hash slice of the account
space; one CL issuing key is shared, so any node's verdicts verify
under the single bank public key.  A router hashes every request's
account id onto the ring and speaks the ordinary single-node wire
protocol to the owner.  Mid-trace we kill a node outright, have its
designated peer adopt the slice from its byte copy of the dead node's
journal storage, and finish the trace — no request lost, none run twice,
cluster-wide invariants clean.

Usage::

    python examples/cluster_market.py
"""

from __future__ import annotations

import random

from repro.cluster import LocalCluster
from repro.crypto.cl_sig import cl_keygen
from repro.ecash import setup
from repro.service.loadgen import WireIssuer, mint_deposit_traffic, run_trace
from repro.testing import check_cluster_invariants


def main() -> None:
    rng = random.Random(2015)
    params = setup(level=4, rng=rng, security_bits=64, edge_rounds=6)
    keypair = cl_keygen(params.backend, rng)

    with LocalCluster(params, keypair, n_nodes=3, checkpoint_every=8) as cluster:
        shares = cluster.map.ring.slice_share()
        print("=== three-node cluster, one market administrator ===")
        for node in cluster.map.nodes:
            print(f"  {node} at {cluster.map.address_of(node)} "
                  f"owns ~{shares[node]:.0%} of the key space")

        with cluster.router(attempts=2, backoff=0.01,
                            refresh_backoff=0.01) as router:
            # fund accounts and withdraw coins over the wire, so the
            # books conserve and the sweep can hold it against them
            deposits = mint_deposit_traffic(
                WireIssuer(router, params, keypair.public), rng,
                n_accounts=4, n_deposits=12, replay_fraction=0.25,
            )
            phase1, phase2 = deposits[:6], deposits[6:]

            report1 = run_trace(router, phase1)
            print(f"\nphase 1 (all nodes up): {report1.ok} ok, "
                  f"{report1.rejected} double-spends rejected")

            victim = cluster.map.owner_of(phase2[0].payload["aid"])
            print(f"\n--- killing {victim} (owner of the next request) ---")
            cluster.kill(victim)
            adopter = cluster.failover(victim)
            print(f"{adopter} adopted {victim}'s slice; map is now "
                  f"version {cluster.map.version} "
                  f"(ring unchanged, address rebound)")

            report2 = run_trace(router, phase2)
            print(f"phase 2 (degraded): {report2.ok} ok, "
                  f"{report2.rejected} rejected, "
                  f"{router.reroutes} re-route(s)")

            total_ok = report1.ok + report2.ok
            total_rej = report1.rejected + report2.rejected
            print(f"\nacross the crash: {total_ok} fresh deposits accepted "
                  f"exactly once, {total_rej} replays rejected, 0 lost")

        sweep = check_cluster_invariants(
            params, keypair, cluster.map, cluster.dump_storage(),
            conservation=True,
        )
        print(f"cluster invariant sweep: "
              f"{'CLEAN' if sweep.clean else sweep.findings}")


if __name__ == "__main__":
    main()
