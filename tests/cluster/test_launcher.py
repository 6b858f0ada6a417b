"""Bootstrap blob round-trip, what ``init`` writes and what a node
refuses, and the real-SIGKILL subprocess smoke."""

from __future__ import annotations

import os

import pytest

from repro.cluster.launcher import (
    ProcessCluster,
    main,
    node_main,
    read_bootstrap,
    write_bootstrap,
)
from repro.crypto.cl_sig import cl_keygen
from repro.crypto.pairing import TatePairing


def test_bootstrap_blob_round_trips(tmp_path, dec_params_toy, cluster_keypair):
    path = str(tmp_path / "bootstrap.blob")
    write_bootstrap(path, dec_params_toy, cluster_keypair,
                    nodes=["n0", "n1"], vnodes=32, n_shards=2,
                    checkpoint_every=16)
    loaded = read_bootstrap(path)
    assert loaded["nodes"] == ["n0", "n1"]
    assert loaded["vnodes"] == 32
    assert loaded["n_shards"] == 2
    assert loaded["checkpoint_every"] == 16
    assert loaded["params"].tree_level == dec_params_toy.tree_level
    kp = loaded["keypair"]
    assert (kp.x, kp.y) == (cluster_keypair.x, cluster_keypair.y)
    assert kp.public == cluster_keypair.public


def test_bootstrap_blob_rejects_tampering(tmp_path, dec_params_toy,
                                          cluster_keypair):
    path = str(tmp_path / "bootstrap.blob")
    write_bootstrap(path, dec_params_toy, cluster_keypair, nodes=["n0", "n1"])
    blob = bytearray(open(path, "rb").read())
    blob[-1] ^= 0x01
    with open(path, "wb") as fh:
        fh.write(blob)
    with pytest.raises(ValueError, match="digest"):
        read_bootstrap(path)
    with open(path, "wb") as fh:
        fh.write(b"not a bootstrap at all")
    with pytest.raises(ValueError, match="magic"):
        read_bootstrap(path)


def _init(rundir: str) -> dict:
    rc = main([
        "init", "--rundir", rundir,
        "--nodes", "n0:127.0.0.1:8000:8001", "n1:127.0.0.1:8010:8011",
        "--tree-level", "3",
    ])
    assert rc == 0
    return read_bootstrap(os.path.join(rundir, "bootstrap.blob"))


def test_init_cli_writes_compose_artifacts(tmp_path):
    rundir = str(tmp_path / "run")
    loaded = _init(rundir)
    assert os.path.exists(os.path.join(rundir, "cluster.json"))
    assert loaded["nodes"] == ["n0", "n1"]
    assert loaded["params"].tree_level == 3


def test_init_writes_setup_defaults_and_a_fresh_key(tmp_path):
    """``init`` writes ``setup()``'s recipe, and its issuing key comes
    from the OS CSPRNG: no two runs share it."""
    first = _init(str(tmp_path / "a"))
    second = _init(str(tmp_path / "b"))
    for loaded in (first, second):
        assert isinstance(loaded["params"].backend, TatePairing)
        assert loaded["params"].edge_rounds == 24
    assert ((first["keypair"].x, first["keypair"].y)
            != (second["keypair"].x, second["keypair"].y))
    assert first["keypair"].public != second["keypair"].public


def test_node_refuses_a_toy_bootstrap(tmp_path, dec_params_toy,
                                      cluster_keypair):
    rundir = str(tmp_path / "run")
    os.makedirs(rundir)
    write_bootstrap(os.path.join(rundir, "bootstrap.blob"), dec_params_toy,
                    cluster_keypair, nodes=["n0", "n1"])
    with pytest.raises(SystemExit, match="ToyPairing"):
        node_main(rundir, "n0")
    with pytest.raises(RuntimeError, match="ToyPairing"):
        ProcessCluster(dec_params_toy, cluster_keypair,
                       str(tmp_path / "spawned"), n_nodes=2)


def test_subprocess_cluster_survives_a_real_sigkill(tmp_path, dec_params,
                                                    session_rng):
    rundir = str(tmp_path / "run")
    keypair = cl_keygen(dec_params.backend, session_rng)
    with ProcessCluster(dec_params, keypair, rundir,
                        n_nodes=3, checkpoint_every=8) as cluster:
        with cluster.router(attempts=2, backoff=0.01,
                            refresh_backoff=0.01) as router:
            for i in range(6):
                reply = router.request(
                    "open-account", {"aid": f"sp{i}", "balance": 4 * i},
                    sender=f"sp{i}",
                )
                assert reply["status"] == "OK"

            victim = cluster.map.owner_of("sp0")
            cluster.kill(victim)  # genuine SIGKILL: process state is gone
            adopter = cluster.failover(victim)
            ping = cluster.control(adopter, {"type": "ping"})
            assert victim in ping["serving"]

            # every account — victim-owned included — still answers
            for i in range(6):
                reply = router.request("balance", {"aid": f"sp{i}"},
                                       sender=f"sp{i}")
                assert reply == {"status": "OK", "balance": 4 * i}

            # per-node telemetry only comes from survivors
            snaps = cluster.telemetry_snapshots()
            assert victim not in snaps and adopter in snaps
