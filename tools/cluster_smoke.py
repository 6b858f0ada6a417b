#!/usr/bin/env python
"""Cluster smoke: boot 3 processes, SIGKILL one mid-trace, sweep.

The CI-facing end-to-end check for ``repro.cluster``:

1. boot a three-node :class:`~repro.cluster.launcher.ProcessCluster`
   (each node its own Python process, ephemeral ports, one shared
   issuing key from a seeded ``setup()``: the Tate pairing and 24 edge
   rounds, what ``launcher init`` writes);
2. drive a seeded deposit trace through the router — accounts funded
   and coins withdrawn over the wire, so the books conserve;
3. SIGKILL the node that owns the next request's account, have its
   designated peer adopt the slice, and finish the trace;
4. assert nothing was lost or double-applied (fresh deposits all OK,
   deliberate replays all REJECTED), that the surviving nodes' own
   metrics — merged fleet-wide as ``tools/merge_telemetry.py
   --aggregate`` does — count at least phase 2's ``OK`` replies, and
   run the cluster-wide invariant sweep over every surviving slice's
   storage dump.

Exit status 0 only if every check holds.  Usage::

    python tools/cluster_smoke.py [--rundir DIR] [--seed N]
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cluster.launcher import ProcessCluster  # noqa: E402
from repro.crypto.cl_sig import cl_keygen  # noqa: E402
from repro.ecash.dec import setup  # noqa: E402
from repro.service.loadgen import (  # noqa: E402
    WireIssuer,
    mint_deposit_traffic,
    run_trace,
)
from repro.testing import check_cluster_invariants  # noqa: E402

from merge_telemetry import merge_snapshots  # noqa: E402  (tools/, the script's dir)


def run(rundir: str, seed: int) -> int:
    rng = random.Random(seed)
    params = setup(4, rng)
    keypair = cl_keygen(params.backend, rng)
    failures: list[str] = []

    with ProcessCluster(params, keypair, rundir, n_nodes=3,
                        checkpoint_every=8) as cluster:
        print(f"booted {len(cluster.map.nodes)} node processes: "
              + ", ".join(f"{n}@{cluster.map.address_of(n)[1]}"
                          for n in cluster.map.nodes))
        with cluster.router(attempts=2, backoff=0.01,
                            refresh_backoff=0.01) as router:
            deposits = mint_deposit_traffic(
                WireIssuer(router, params, keypair.public), rng,
                n_accounts=4, n_deposits=12, replay_fraction=0.25,
            )
            phase1, phase2 = deposits[:6], deposits[6:]
            report1 = run_trace(router, phase1)
            print(f"phase 1: {report1.ok} ok, {report1.rejected} rejected")

            victim = cluster.map.owner_of(phase2[0].payload["aid"])
            print(f"SIGKILL {victim} (owner of the next request)")
            cluster.kill(victim)
            adopter = cluster.failover(victim)
            print(f"{adopter} adopted {victim}'s slice; "
                  f"map version {cluster.map.version}")

            report2 = run_trace(router, phase2)
            print(f"phase 2: {report2.ok} ok, {report2.rejected} rejected, "
                  f"{router.reroutes} re-route(s)")

            ok = report1.ok + report2.ok
            rejected = report1.rejected + report2.rejected
            errors = report1.errors + report2.errors
            if ok != 9:
                failures.append(f"expected 9 fresh deposits OK, got {ok}")
            if rejected != 3:
                failures.append(f"expected 3 replays REJECTED, got {rejected}")
            if errors:
                failures.append(f"{errors} request(s) errored")
            if router.reroutes < 1:
                failures.append("router never re-routed across the failover")

        fleet = merge_snapshots(list(cluster.telemetry_snapshots().items()),
                                aggregate=True)
        counted = fleet.counter("repro_service_replies_total",
                                status="OK").value
        print(f"fleet telemetry: {counted} OK replies counted")
        if counted < report2.ok:
            failures.append(f"nodes counted {counted} OK replies, "
                            f"fewer than phase 2's {report2.ok}")

        sweep = check_cluster_invariants(
            params, keypair, cluster.map, cluster.dump_storage(),
            conservation=True,
        )
        if not sweep.clean:
            failures.extend(f"sweep: {f}" for f in sweep.findings)
        print(f"invariant sweep: {'CLEAN' if sweep.clean else 'DIRTY'}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("cluster smoke passed: no request lost, none double-applied")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="3-node SIGKILL-mid-trace cluster smoke test",
    )
    parser.add_argument("--rundir", default=None,
                        help="rundir for node coordination files "
                             "(default: a fresh temp dir)")
    parser.add_argument("--seed", type=int, default=2015)
    args = parser.parse_args(argv)
    if args.rundir:
        os.makedirs(args.rundir, exist_ok=True)
        return run(args.rundir, args.seed)
    with tempfile.TemporaryDirectory(prefix="cluster-smoke-") as rundir:
        return run(rundir, args.seed)


if __name__ == "__main__":
    raise SystemExit(main())
