"""Multi-process cluster launcher (single host, CI-friendly).

Runs each :class:`~repro.cluster.node.ClusterNode` in its own Python
process, which is what makes SIGKILL a real experiment instead of a
simulation: the killed node's books, journal and sockets genuinely
vanish, and the only surviving state is whatever its shipper already
pushed into the peer's kernel buffers.

The pieces:

* **bootstrap blob** — one file carrying the DEC parameters *and* the
  CL issuing secrets (``x``, ``y``) plus the cluster layout, so every
  node process reconstructs an identical market administrator without
  re-running setup.  Sharding partitions *state*, not trust: the blob
  is the MA's own key material and the rundir stands in for the MA's
  provisioning channel — treat it accordingly.
* **``node`` CLI** (``python -m repro.cluster.launcher node``) — the
  child entry point.  Dynamic mode binds ephemeral ports and reports
  them via ``<id>.json``; fixed mode (when ``cluster.json`` is
  pre-written by ``init``, e.g. under docker compose) binds the
  declared ports.  Either way the child waits for ``cluster.json``,
  installs the map, connects its shipper, touches ``<id>.ready`` and
  serves until a ``shutdown`` control frame.
* **``init`` CLI** — generates a bootstrap blob + fixed-address
  ``cluster.json`` for static deployments (``docker-compose.cluster.yml``
  drives this): ``setup()``'s Tate parameters, issuing secrets from the
  OS CSPRNG.  A node refuses a bootstrap on any other pairing backend.
* :class:`ProcessCluster` — the parent-side orchestrator used by the
  smoke tests and ``make cluster-demo``: spawn N children, collect
  their reports, publish the map, and expose ``kill`` (SIGKILL) /
  ``failover`` / ``dump_storage`` / ``telemetry`` over the nodes'
  control ports.

All parent↔child coordination is plain files in the rundir (written
via rename, so readers never see a torn file) plus control frames on
the replication ports — no extra dependencies, works anywhere Python
and a loopback interface exist.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from typing import Any

from repro.crypto.cl_sig import CLKeyPair
from repro.crypto.pairing import TatePairing
from repro.cluster.node import ClusterNode, open_dump
from repro.cluster.replicate import control_call
from repro.cluster.ring import ClusterMap, DEFAULT_VNODES
from repro.ecash.params_io import export_params, import_params
from repro.net.codec import seal, unseal

__all__ = [
    "write_bootstrap",
    "read_bootstrap",
    "node_main",
    "ProcessCluster",
    "main",
]

_BOOT_MAGIC = b"repro-cluster-bootstrap-v1"


# -- bootstrap blob --------------------------------------------------------
def write_bootstrap(path: str, params, keypair, *, nodes: list[str],
                    vnodes: int = DEFAULT_VNODES, n_shards: int = 4,
                    checkpoint_every: int = 64) -> None:
    """Serialize everything a node process needs to become the MA."""
    state = {
        "params": export_params(params, keypair.public),
        "x": keypair.x,
        "y": keypair.y,
        "nodes": list(nodes),
        "vnodes": vnodes,
        "n_shards": n_shards,
        "checkpoint_every": checkpoint_every,
    }
    _write_atomic(path, seal(_BOOT_MAGIC, state), binary=True)


def read_bootstrap(path: str) -> dict:
    """Load a bootstrap blob; returns params/keypair/layout in one dict."""
    with open(path, "rb") as fh:
        blob = fh.read()
    state = unseal(_BOOT_MAGIC, blob, "cluster bootstrap blob",
                   lambda message: ValueError(f"{path}: {message}"))
    params, public = import_params(state["params"])  # always carries the key
    return {
        "params": params,
        "keypair": CLKeyPair(x=state["x"], y=state["y"], public=public),
        "nodes": list(state["nodes"]),
        "vnodes": int(state["vnodes"]),
        "n_shards": int(state["n_shards"]),
        "checkpoint_every": int(state["checkpoint_every"]),
    }


def _write_atomic(path: str, data: Any, *, binary: bool = False) -> None:
    """Write-then-rename so concurrent readers never see a torn file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    mode = "wb" if binary else "w"
    with open(tmp, mode) as fh:
        fh.write(data)
    os.replace(tmp, path)


def _wait_for_file(path: str, *, timeout: float, proc=None) -> str:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                return fh.read()
        if proc is not None and proc.poll() is not None:
            break
        time.sleep(0.02)
    raise TimeoutError(f"gave up waiting for {path}")


# -- child process ---------------------------------------------------------
def node_main(rundir: str, node_id: str, *, bind_host: str | None = None,
              setup_timeout: float = 60.0) -> int:
    """Run one cluster node until a ``shutdown`` control frame.

    Dynamic mode (the default, used by :class:`ProcessCluster`): bind
    ephemeral ports, report them in ``<id>.json``, wait for the parent
    to publish ``cluster.json``.  Fixed mode (``cluster.json`` already
    present and naming this node): bind the declared ports directly —
    the docker-compose path, where addresses are known up front.
    """
    bootstrap = read_bootstrap(os.path.join(rundir, "bootstrap.blob"))
    if not isinstance(backend := bootstrap["params"].backend, TatePairing):
        raise SystemExit(f"node {node_id}: refusing a {type(backend).__name__} "
                         "bootstrap, which has no security; write a new one "
                         "with `python -m repro.cluster.launcher init`")
    cluster_path = os.path.join(rundir, "cluster.json")

    port = replica_port = 0
    host = bind_host or "127.0.0.1"
    if os.path.exists(cluster_path):
        published = json.loads(_wait_for_file(cluster_path, timeout=1.0))
        if node_id in published.get("replicas", {}):
            port = int(published["map"]["addresses"][node_id][1])
            replica_port = int(published["replicas"][node_id][1])

    node = ClusterNode(
        node_id, bootstrap["params"], bootstrap["keypair"],
        n_shards=bootstrap["n_shards"],
        checkpoint_every=bootstrap["checkpoint_every"],
        host=host, port=port, replica_port=replica_port,
        seed=bootstrap["nodes"].index(node_id),
    )
    _write_atomic(
        os.path.join(rundir, f"{node_id}.json"),
        json.dumps({"node": node_id, "pid": os.getpid(),
                    "frontend": list(node.address),
                    "replica": list(node.replica_address)}),
    )
    published = json.loads(_wait_for_file(cluster_path, timeout=setup_timeout))
    node.control({"type": "set-map", "map": published["map"]})
    peer = ClusterMap.from_state(published["map"]).replica_peer(node_id)
    peer_addr = published["replicas"][peer]
    node.connect_shipper((peer_addr[0], int(peer_addr[1])))
    _write_atomic(os.path.join(rundir, f"{node_id}.ready"), "ready\n")

    node.shutdown_requested.wait()
    node.close()
    return 0


# -- parent-side orchestrator ----------------------------------------------
class ProcessCluster:
    """Spawn, address, and command a subprocess cluster.

    The parent keeps the authoritative :class:`ClusterMap`; routers
    built by :meth:`router` refresh from it, and :meth:`failover`
    pushes each new version to the survivors' control ports so their
    own view (served to any other client asking ``{"type": "map"}``)
    stays current.
    """

    def __init__(self, params, keypair, rundir: str, *, n_nodes: int = 3,
                 n_shards: int = 4, vnodes: int = DEFAULT_VNODES,
                 checkpoint_every: int = 64, setup_timeout: float = 90.0,
                 python: str = sys.executable) -> None:
        if n_nodes < 2:
            raise ValueError("a cluster needs at least two nodes")
        self.rundir = rundir
        os.makedirs(rundir, exist_ok=True)
        names = [f"n{i}" for i in range(n_nodes)]
        write_bootstrap(os.path.join(rundir, "bootstrap.blob"),
                        params, keypair, nodes=names, vnodes=vnodes,
                        n_shards=n_shards, checkpoint_every=checkpoint_every)

        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

        self.procs: dict[str, subprocess.Popen] = {}
        self._logs: dict[str, Any] = {}
        for name in names:
            log = open(os.path.join(rundir, f"{name}.log"), "w")
            self._logs[name] = log
            self.procs[name] = subprocess.Popen(
                [python, "-m", "repro.cluster.launcher", "node",
                 "--rundir", rundir, "--node", name],
                env=env, stdout=log, stderr=subprocess.STDOUT,
            )

        reports = {
            name: json.loads(self._await(f"{name}.json", setup_timeout, name))
            for name in names
        }
        self.replicas = {n: tuple(r["replica"]) for n, r in reports.items()}
        self.map = ClusterMap(
            version=0, nodes=tuple(names),
            addresses={n: tuple(r["frontend"]) for n, r in reports.items()},
            vnodes=vnodes,
        )
        _write_atomic(
            os.path.join(rundir, "cluster.json"),
            json.dumps({"map": self.map.to_state(),
                        "replicas": {n: list(a) for n, a in self.replicas.items()}}),
        )
        for name in names:
            self._await(f"{name}.ready", setup_timeout, name)
        self.dead: set[str] = set()

    def _await(self, filename: str, timeout: float, name: str) -> str:
        """*filename* once *name* writes it; a child that exits first
        (a refused bootstrap, say) fails at once, quoting its log."""
        try:
            return _wait_for_file(os.path.join(self.rundir, filename),
                                  timeout=timeout, proc=self.procs[name])
        except TimeoutError:
            log = os.path.join(self.rundir, f"{name}.log")
            with open(log, encoding="utf-8", errors="replace") as fh:
                last = (fh.read().strip().splitlines() or [""])[-1]
            raise RuntimeError(
                f"node {name!r} never produced {filename} (exit status "
                f"{self.procs[name].poll()}; see {log}): {last}") from None

    # -- commanding the fleet ---------------------------------------------
    def control(self, name: str, frame: dict, *, timeout: float = 30.0) -> dict:
        """One control-frame exchange with *name*'s replication port."""
        return control_call(self.replicas[name], frame, timeout=timeout)

    def router(self, **kwargs):
        """A :class:`ClusterRouter` refreshing from the parent's map."""
        from repro.cluster.router import ClusterRouter

        kwargs.setdefault("refresh", lambda: self.map)
        return ClusterRouter(self.map, **kwargs)

    def kill(self, name: str) -> None:
        """SIGKILL one node — the real crash, nothing flushed or closed."""
        if name in self.dead:
            return
        self.dead.add(name)
        proc = self.procs[name]
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)

    def failover(self, dead: str) -> str:
        """Adopt *dead*'s slice on its peer; publish the rebound map."""
        adopter = self.map.replica_peer(dead)
        if adopter in self.dead:
            raise RuntimeError(
                f"designated peer {adopter!r} of {dead!r} is also dead; "
                "re-replication after failover is out of scope"
            )
        result = self.control(adopter, {"type": "adopt", "node": dead})
        if not result.get("ok"):
            raise RuntimeError(f"adoption of {dead!r} failed: {result}")
        self.map = self.map.rebind(dead, tuple(result["address"]))
        for name in self.map.nodes:
            if name not in self.dead:
                self.control(name, {"type": "set-map",
                                    "map": self.map.to_state()})
        return adopter

    def dump_storage(self) -> dict[str, dict]:
        """Every served slice's storage, from each live node's ``dump`` frame."""
        dumps: dict[str, dict] = {}
        for name in self.map.nodes:
            if name in self.dead:
                continue
            reply = self.control(name, {"type": "dump"})
            if reply.get("ok"):
                dumps.update(reply["slices"])
        return dumps

    def dump_journals(self) -> dict[str, list[dict]]:
        """Each slice's retained records, reopened from :meth:`dump_storage`.

        Only ``benchmarks/e2e/harness.py`` reads this, and it changes only
        with the benchmark; ROADMAP 10(a) moves it and deletes this view.
        """
        return {node: [record.to_state() for record in open_dump(dump).records()]
                for node, dump in self.dump_storage().items()}

    def telemetry_snapshots(self) -> dict[str, dict]:
        """Per-node metrics snapshots (feed for ``tools/merge_telemetry``)."""
        snaps: dict[str, dict] = {}
        for name in self.map.nodes:
            if name in self.dead:
                continue
            reply = self.control(name, {"type": "telemetry"})
            if reply.get("ok"):
                snaps[name] = reply["metrics"]
        return snaps

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        for name, proc in self.procs.items():
            if name in self.dead:
                continue
            try:
                self.control(name, {"type": "shutdown"}, timeout=5.0)
            except Exception:
                pass
        deadline = time.monotonic() + 10.0
        for name, proc in self.procs.items():
            remaining = max(0.1, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
        for log in self._logs.values():
            log.close()

    def __enter__(self) -> "ProcessCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- CLI -------------------------------------------------------------------
def _cmd_init(args: argparse.Namespace) -> int:
    """Generate bootstrap + fixed-address cluster.json (compose mode)."""
    import random

    from repro.crypto.cl_sig import cl_keygen
    from repro.ecash.dec import setup

    entries = []
    for spec in args.nodes:
        parts = spec.split(":")
        if len(parts) != 4:
            raise SystemExit(
                f"bad --nodes entry {spec!r} (want name:host:port:replica_port)"
            )
        entries.append((parts[0], parts[1], int(parts[2]), int(parts[3])))

    os.makedirs(args.rundir, exist_ok=True)
    rng = random.SystemRandom()  # a seeded init would publish the MA's key
    params = setup(args.tree_level, rng)
    keypair = cl_keygen(params.backend, rng)
    names = [e[0] for e in entries]
    write_bootstrap(os.path.join(args.rundir, "bootstrap.blob"),
                    params, keypair, nodes=names, vnodes=args.vnodes,
                    n_shards=args.n_shards,
                    checkpoint_every=args.checkpoint_every)
    cmap = ClusterMap(
        version=0, nodes=tuple(names),
        addresses={name: (host, port) for name, host, port, _ in entries},
        vnodes=args.vnodes,
    )
    _write_atomic(
        os.path.join(args.rundir, "cluster.json"),
        json.dumps({"map": cmap.to_state(),
                    "replicas": {name: [host, rport]
                                 for name, host, _, rport in entries}}),
    )
    print(f"wrote bootstrap + cluster.json for {len(names)} nodes "
          f"to {args.rundir}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.cluster.launcher",
        description="single-host multi-process cluster launcher",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    node = sub.add_parser("node", help="run one cluster node process")
    node.add_argument("--rundir", required=True)
    node.add_argument("--node", required=True, dest="node_id")
    node.add_argument("--bind-host", default=None)

    init = sub.add_parser("init", help="write bootstrap + fixed cluster.json")
    init.add_argument("--rundir", required=True)
    init.add_argument("--nodes", nargs="+", required=True,
                      metavar="NAME:HOST:PORT:RPORT")
    init.add_argument("--tree-level", type=int, default=4)
    init.add_argument("--vnodes", type=int, default=DEFAULT_VNODES)
    init.add_argument("--n-shards", type=int, default=4)
    init.add_argument("--checkpoint-every", type=int, default=64)

    args = parser.parse_args(argv)
    if args.command == "node":
        return node_main(args.rundir, args.node_id, bind_host=args.bind_host)
    return _cmd_init(args)


if __name__ == "__main__":
    sys.exit(main())
