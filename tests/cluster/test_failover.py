"""Kill a node mid-trace; the cluster neither loses nor reruns a request."""

from __future__ import annotations

import random
import time

from repro.cluster import StaleClusterMapError
from repro.cluster.node import open_dump
from repro.service.loadgen import WireIssuer, mint_deposit_traffic, run_trace
from repro.testing import check_cluster_invariants


def _aid_owned_by(cmap, node: str, prefix: str = "probe") -> str:
    for j in range(10_000):
        aid = f"{prefix}{j}"
        if cmap.owner_of(aid) == node:
            return aid
    raise AssertionError(f"no {prefix}* account hashes to {node}")


def test_cluster_survives_sigkill_mid_trace(local_cluster, dec_params_toy,
                                            cluster_keypair):
    rng = random.Random(2026)
    with local_cluster.router(attempts=2, backoff=0.01,
                              refresh_backoff=0.01) as router:
        # fund + withdraw over the wire so the books conserve end to end
        deposits = mint_deposit_traffic(
            WireIssuer(router, dec_params_toy, cluster_keypair.public), rng,
            n_accounts=4, n_deposits=12, replay_fraction=0.2,
        )
        assert len(deposits) == 12  # 10 fresh + 2 deliberate replays

        # phase 1: first half lands while all three nodes are alive
        phase1, phase2 = deposits[:6], deposits[6:]
        report1 = run_trace(router, phase1)
        assert report1.errors == 0 and report1.shed == 0

        # pin a request on the soon-to-die node under a known rid
        victim = local_cluster.map.owner_of(phase2[0].payload["aid"])
        probe = _aid_owned_by(local_cluster.map, victim)
        before = router.request("open-account", {"aid": probe, "balance": 5},
                                sender="probe", rid="probe-rid-1")
        assert before == {"status": "OK", "balance": 5}

        # SIGKILL-equivalent: no drain, no goodbye — then adoption
        local_cluster.kill(victim)
        adopter = local_cluster.failover(victim)
        assert adopter != victim
        assert victim in local_cluster.nodes[adopter].serving()

        # the pre-kill rid is answered from the adopted reply cache —
        # the account exists over there, so a rerun would be REJECTED
        again = router.request("open-account", {"aid": probe, "balance": 5},
                               sender="probe", rid="probe-rid-1")
        assert again == before
        fresh = router.request("open-account", {"aid": probe, "balance": 5},
                               sender="probe", rid="probe-rid-2")
        assert fresh["status"] != "OK"

        # phase 2 re-routes to the adopter transparently
        report2 = run_trace(router, phase2)
        assert report2.errors == 0 and report2.shed == 0
        assert router.reroutes >= 1

        # exactly-once across the crash: every fresh deposit accepted
        # once, every deliberate replay rejected, nothing lost
        assert report1.ok + report2.ok == 10
        assert report1.rejected + report2.rejected == 2

    # cluster-wide sweep over the surviving slices (incl. the adopted
    # one): serials unique, rids on one node, placement + conservation
    report = check_cluster_invariants(
        dec_params_toy, cluster_keypair, local_cluster.map,
        local_cluster.dump_storage(), conservation=True,
    )
    assert report.clean, report.findings


def test_double_failure_of_a_replica_pair_is_reported(local_cluster):
    victim = "n0"
    adopter = local_cluster.map.replica_peer(victim)
    local_cluster.kill(victim)
    local_cluster.kill(adopter)
    try:
        local_cluster.failover(victim)
    except RuntimeError as exc:
        assert "also dead" in str(exc)
    else:
        raise AssertionError("double failure should not silently fail over")


def test_a_failed_adoption_leaves_the_replica_for_a_retry(local_cluster,
                                                         monkeypatch):
    import pytest

    from repro.service.server import MarketService

    victim = "n0"
    adopter = local_cluster.nodes[local_cluster.map.replica_peer(victim)]
    with local_cluster.router(attempts=2, backoff=0.01,
                              refresh_backoff=0.01) as router:
        aid = _aid_owned_by(local_cluster.map, victim)
        before = router.request("open-account", {"aid": aid, "balance": 4},
                                sender="probe", rid="retry-rid")
    local_cluster.kill(victim)

    def boom(*args, **kwargs):
        raise RuntimeError("recovery interrupted")

    with monkeypatch.context() as patch:
        patch.setattr(MarketService, "recover", boom)
        with pytest.raises(RuntimeError, match="interrupted"):
            adopter.adopt(victim)
    # the replica went back into its slot: a retry adopts it
    assert adopter.receiver.slot(victim).storage is not None
    # while one adoption holds the replica, another says so
    storage = adopter.receiver.take(victim)
    reply = adopter.adopt(victim)
    assert not reply["ok"] and "already in progress" in reply["error"]
    adopter.receiver.slot(victim).storage = storage
    local_cluster.failover(victim)
    with local_cluster.router(attempts=2, backoff=0.01,
                              refresh_backoff=0.01) as router:
        again = router.request("open-account", {"aid": aid, "balance": 4},
                               sender="probe", rid="retry-rid")
    assert before == again == {"status": "OK", "balance": 4}


def test_router_with_no_feed_reports_staleness_after_kill(local_cluster):
    import pytest

    with local_cluster.router(refresh=None, attempts=1, backoff=0.01,
                              connect_timeout=0.5) as router:
        reply = router.request("open-account", {"aid": "sp0", "balance": 3},
                               sender="sp0")
        assert reply["status"] == "OK"
        victim = local_cluster.map.owner_of("sp0")
        local_cluster.kill(victim)
        with pytest.raises(StaleClusterMapError):
            router.request("balance", {"aid": "sp0"}, sender="sp0")


def _settle(router, cmap, node: str) -> None:
    """Return once *node*'s slice has finished its after-batch maintenance.

    The cut runs after each batch, behind its reply; a read (never
    journaled) is a batch of its own, answered only after the one before
    it finished.
    """
    router.request("balance", {"aid": _aid_owned_by(cmap, node)}, sender="probe")


def _sweep(params, keypair, cluster):
    return check_cluster_invariants(params, keypair, cluster.map,
                                    cluster.dump_storage())


def test_retention_bounds_node_journals_and_failover_still_works(
        dec_params_toy, cluster_keypair):
    """A default node compacts its journal against its newest checkpoint
    like a single server, adoption still recovers exactly (the replica
    is a copy of the compacted store, checkpoint included), and the
    sweep audits the compacted slices — adopted one included — clean."""
    from repro.cluster import LocalCluster

    rng = random.Random(77)
    with LocalCluster(dec_params_toy, cluster_keypair, n_nodes=3,
                      checkpoint_every=4, segment_records=4) as cluster:
        with cluster.router(attempts=2, backoff=0.01,
                            refresh_backoff=0.01) as router:
            deposits = mint_deposit_traffic(
                WireIssuer(router, dec_params_toy, cluster_keypair.public), rng,
                n_accounts=4, n_deposits=8, replay_fraction=0.0,
            )
            report = run_trace(router, deposits)
            assert report.errors == 0

            # retention actually dropped journal prefixes somewhere:
            # every node saw >= checkpoint_every records, so at least
            # one compaction fired after a checkpoint
            assert any(node.journal.first_lsn > 0
                       for node in cluster.nodes.values())
            for node in cluster.nodes.values():
                if node.journal.first_lsn > 0:
                    cut = node.journal.load_checkpoint().lsn
                    assert node.journal.first_lsn <= cut + 1

            victim = cluster.map.owner_of(deposits[0].payload["aid"])
            probe = _aid_owned_by(cluster.map, victim, prefix="ret")
            before = router.request("open-account",
                                    {"aid": probe, "balance": 3},
                                    sender="probe", rid="ret-rid")
            assert before == {"status": "OK", "balance": 3}
            cluster.kill(victim)
            adopter = cluster.failover(victim)
            # the adopted slice answers the pre-kill rid idempotently
            again = router.request("open-account",
                                   {"aid": probe, "balance": 3},
                                   sender="probe", rid="ret-rid")
            assert again == before
            assert victim in cluster.nodes[adopter].serving()
            for node in cluster.map.nodes:
                _settle(router, cluster.map, node)
        sweep = _sweep(dec_params_toy, cluster_keypair, cluster)
    assert sweep.clean, sweep.findings


def test_an_adopted_slice_compacts_like_every_other_stack(
        dec_params_toy, cluster_keypair):
    """Adoption serves the slice with its own journal maintenance, so
    traffic after a failover checkpoints and compacts it too."""
    from repro.cluster import LocalCluster

    with LocalCluster(dec_params_toy, cluster_keypair, n_nodes=3,
                      checkpoint_every=4, segment_records=4) as cluster:
        victim = "n0"
        with cluster.router(attempts=2, backoff=0.01,
                            refresh_backoff=0.01) as router:
            # a slice that never journaled leaves its peer nothing to adopt
            assert router.request(
                "open-account", {"aid": _aid_owned_by(cluster.map, victim),
                                 "balance": 1}, sender="probe")["status"] == "OK"
            cluster.kill(victim)
            adopter = cluster.failover(victim)
            service, _front = cluster.nodes[adopter].adopted[victim]
            adopted_at = service.journal.first_lsn
            for i in range(6):  # three records each: past two segments
                aid = _aid_owned_by(cluster.map, victim, prefix=f"a{i}-")
                assert router.request("open-account", {"aid": aid, "balance": 1},
                                      sender="probe")["status"] == "OK"
            _settle(router, cluster.map, victim)
        assert service.journal.first_lsn > adopted_at
        assert service.journal.load_checkpoint().lsn >= service.journal.first_lsn - 1


def test_the_sweep_finds_a_cross_node_double_deposit_after_compaction(
        dec_params_toy, cluster_keypair):
    """One coin deposited under two accounts that live on different
    slices is admitted by both nodes; the sweep must still name it once
    both slices have compacted the deposits' records away — the serials
    are in the checkpointed books."""
    from repro.cluster import LocalCluster
    from repro.service.loadgen import Request

    rng = random.Random(79)
    with LocalCluster(dec_params_toy, cluster_keypair, n_nodes=3,
                      checkpoint_every=4, segment_records=4) as cluster:
        with cluster.router(attempts=2, backoff=0.01,
                            refresh_backoff=0.01) as router:
            deposits = mint_deposit_traffic(
                WireIssuer(router, dec_params_toy, cluster_keypair.public), rng,
                n_accounts=4, n_deposits=4, replay_fraction=0.0,
            )
            first = deposits[0].payload
            owners = {cluster.map.owner_of(f"sp{i}"): f"sp{i}" for i in range(4)}
            here = cluster.map.owner_of(first["aid"])
            there = next(node for node in owners if node != here)
            twice = {here: Request(first["aid"], "deposit", first, rid="twice-a"),
                     there: Request(owners[there], "deposit",
                                    {**first, "aid": owners[there]}, rid="twice-b")}
            assert run_trace(router, list(twice.values())).ok == 2

            for node, request in twice.items():
                _compact_past(router, cluster, node, request.rid)
        sweep = _sweep(dec_params_toy, cluster_keypair, cluster)
    doubles = [f for f in sweep.findings if f.endswith("(cross-node double deposit)")]
    assert doubles and len(doubles) == len(sweep.findings), sweep.findings


def test_the_sweep_finds_a_rid_applied_on_two_compacted_slices(
        dec_params_toy, cluster_keypair):
    """One rid applied on two slices is found from the checkpoints'
    settled rids once compaction took both ``apply`` records."""
    from repro.cluster import LocalCluster

    with LocalCluster(dec_params_toy, cluster_keypair, n_nodes=3,
                      checkpoint_every=4, segment_records=4) as cluster:
        with cluster.router(attempts=2, backoff=0.01,
                            refresh_backoff=0.01) as router:
            for node in ("n0", "n1"):
                aid = _aid_owned_by(cluster.map, node, prefix="dup")
                assert router.request("open-account", {"aid": aid, "balance": 1},
                                      sender="probe", rid="dup")["status"] == "OK"
                _compact_past(router, cluster, node, "dup")
        sweep = _sweep(dec_params_toy, cluster_keypair, cluster)
    assert sweep.findings == (
        "n1: rid 'dup' also applied on slice n0 (request ran on two nodes)",)


def _compact_past(router, cluster, node: str, rid: str) -> None:
    """Open accounts on *node* until compaction took *rid*'s apply record."""
    journal = cluster.nodes[node].journal
    lsn = next(r.lsn for r in journal.records()
               if r.kind == "apply" and r.rid == rid)
    for i in range(12):
        if journal.first_lsn > lsn:
            return
        aid = _aid_owned_by(cluster.map, node, prefix=f"{node}-{i}-")
        router.request("open-account", {"aid": aid, "balance": 1}, sender="probe")
        _settle(router, cluster.map, node)
    assert journal.first_lsn > lsn


def test_sweep_names_a_compacted_dump_instead_of_half_replaying_it(
        dec_params_toy, cluster_keypair):
    """A compacted slice whose covering checkpoint is missing from the
    dump cannot be rebuilt: the sweep says it does not replay, and
    reports nothing else of it — replaying the retained tail as if it
    were the whole slice would report books that "disagree" with
    nothing."""
    from repro.cluster import LocalCluster

    rng = random.Random(78)
    with LocalCluster(dec_params_toy, cluster_keypair, n_nodes=3,
                      checkpoint_every=4, segment_records=4) as cluster:
        with cluster.router(attempts=2, backoff=0.01,
                            refresh_backoff=0.01) as router:
            deposits = mint_deposit_traffic(
                WireIssuer(router, dec_params_toy, cluster_keypair.public), rng,
                n_accounts=4, n_deposits=10, replay_fraction=0.0,
            )
            assert run_trace(router, deposits).errors == 0
        dumps = cluster.dump_storage()
    compacted = [node for node, dump in dumps.items()
                 if open_dump(dump).first_lsn > 0]
    assert compacted
    for node in compacted:
        dumps[node]["storage"] = {name: data for name, data
                                  in dumps[node]["storage"].items()
                                  if not name.startswith("ckpt-")}
    sweep = check_cluster_invariants(
        dec_params_toy, cluster_keypair, cluster.map, dumps)
    for node in compacted:
        mine = [f for f in sweep.findings if f.startswith(f"{node}: ")]
        assert len(mine) == 1 and mine[0].startswith(
            f"{node}: journal does not replay: journal compacted to lsn"), mine


def test_node_and_replica_storage_stay_bounded(dec_params_toy, cluster_keypair):
    """A default node compacts as a single server does: from 10 to 40
    deposits its storage, its peer's byte copy and its retained records
    stay within a constant (a node that kept every segment grew by
    18-39 KB and 21-45 records here)."""
    from repro.cluster import LocalCluster

    rng = random.Random(80)
    with LocalCluster(dec_params_toy, cluster_keypair, n_nodes=3,
                      checkpoint_every=4, segment_records=4) as cluster:
        with cluster.router(attempts=2, backoff=0.01,
                            refresh_backoff=0.01) as router:
            deposits = mint_deposit_traffic(
                WireIssuer(router, dec_params_toy, cluster_keypair.public), rng,
                n_accounts=4, n_deposits=40, replay_fraction=0.0,
            )

            def footprint() -> dict[str, tuple[int, int]]:
                sizes = {}
                for name, node in cluster.nodes.items():
                    _settle(router, cluster.map, name)
                    slot = cluster.nodes[cluster.map.replica_peer(name)] \
                        .receiver.slot(name)
                    _wait_for(lambda: slot.applied == node.shipper._ops)
                    own = node.shipper.snapshot()
                    assert {n: slot.storage.read(n)
                            for n in slot.storage.names()} == own
                    sizes[name] = (sum(map(len, own.values())), len(node.journal))
                return sizes

            assert run_trace(router, deposits[:10]).ok == 10
            early = footprint()
            assert run_trace(router, deposits[10:]).ok == 30
            late = footprint()
    for name, (size, records) in late.items():
        assert size <= early[name][0] + 8192, (name, early[name], size)
        assert records <= early[name][1] + 2 * 4 + 4, (name, early[name], records)


def _wait_for(predicate, *, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.01)


def _segments(storage) -> list[str]:
    return [name for name in storage.names() if name.startswith("seg-")]


def test_failover_of_a_node_compaction_emptied_reuses_no_lsn(
        dec_params_toy, cluster_keypair):
    """A node whose last compaction dropped every segment leaves a replica
    holding a checkpoint and no record: the adopter must reopen it after
    the checkpoint's cut, not at lsn 0, or new records would re-use LSNs
    the checkpoint already covers."""
    from repro.cluster import LocalCluster

    with LocalCluster(dec_params_toy, cluster_keypair, n_nodes=3,
                      checkpoint_every=4, segment_records=4) as cluster:
        victim = "n0"
        node = cluster.nodes[victim]
        node.maintenance.retain_segments = 0  # compaction keeps no slack
        with cluster.router(attempts=2, backoff=0.01,
                            refresh_backoff=0.01) as router:
            # open accounts on the victim until a compaction has emptied
            # its store of segments (three records a request, four a
            # segment: the fourth request ends on a segment boundary)
            opened = []
            while not (opened and not _segments(node.shipper)):
                assert len(opened) < 8, node.shipper.names()
                aid = _aid_owned_by(cluster.map, victim,
                                    prefix=f"e{len(opened)}-")
                reply = router.request("open-account",
                                       {"aid": aid, "balance": 2},
                                       sender="probe", rid=f"empty:{aid}")
                assert reply == {"status": "OK", "balance": 2}
                opened.append(aid)
                # the cut runs after the batch, behind the reply; a read
                # (never journaled) comes back only after it finished
                router.request("balance", {"aid": aid}, sender="probe")
            cut = node.journal.last_lsn
            assert node.journal.load_checkpoint().lsn == cut

            cluster.kill(victim)
            adopter = cluster.failover(victim)
            service, _front = cluster.nodes[adopter].adopted[victim]
            assert (service.journal.first_lsn, service.journal.last_lsn) \
                == (cut + 1, cut)
            # pre-kill verdicts answer from the adopted reply cache
            again = router.request("open-account",
                                   {"aid": opened[0], "balance": 2},
                                   sender="probe", rid=f"empty:{opened[0]}")
            assert again == {"status": "OK", "balance": 2}
            # and the slice keeps serving, numbering on from the cut
            aid = _aid_owned_by(cluster.map, victim, prefix="after")
            assert router.request("open-account", {"aid": aid, "balance": 1},
                                  sender="probe")["status"] == "OK"
            assert [r.lsn for r in service.journal.records()][0] == cut + 1
            assert router.audit()["clean"]


def test_the_pbs_book_survives_failover_of_its_owner_slice(
        local_cluster, dec_params_toy, cluster_keypair):
    """Every ``pbs-*`` request routes to one slice; killing its owner
    hands the PPMSpbs book, its spent serials and its reply cache to
    the adopter like any other slice."""
    from repro.testing import build_pbs_kit

    kit = build_pbs_kit(random.Random("cluster:pbs"), n_sps=2)
    with local_cluster.router(attempts=2, backoff=0.01,
                              refresh_backoff=0.01) as router:
        for i, (_aid, key, balance) in enumerate(kit.accounts):
            reply = router.request("pbs-open-account",
                                   {"key": key, "balance": balance},
                                   sender="ops", rid=f"pbs-open:{i}")
            assert reply["status"] == "OK"

        def coin(index: int) -> dict:
            receipt = kit.receipts[index]
            return {"sig": receipt.signature, "sp_key": kit.sp_keys[index],
                    "jo_key": receipt.jo_account_key}

        before = router.request("pbs-deposit", coin(0), sender="sp0",
                                rid="pbs-dep:0")
        assert before["status"] == "OK"

        victim = local_cluster.map.owner_of(router.key_of("pbs-deposit", {}))
        local_cluster.kill(victim)
        adopter = local_cluster.failover(victim)
        assert victim in local_cluster.nodes[adopter].serving()

        # the retried rid is answered from the adopted reply cache, and
        # the adopted book still knows the serial is spent
        again = router.request("pbs-deposit", coin(0), sender="sp0",
                               rid="pbs-dep:0")
        assert again == before
        replay = router.request("pbs-deposit", coin(0), sender="sp0",
                                rid="pbs-dep:replay")
        assert replay == {"status": "REJECTED", "error": "double deposit"}
        assert router.request("pbs-deposit", coin(1), sender="sp1",
                              rid="pbs-dep:1")["status"] == "OK"
        for index in (0, 1):
            reply = router.request("pbs-balance", {"key": kit.sp_keys[index]},
                                   sender="sp")
            assert reply == {"status": "OK", "balance": 1}
        for node in local_cluster.map.nodes:
            _settle(router, local_cluster.map, node)
    sweep = _sweep(dec_params_toy, cluster_keypair, local_cluster)
    assert sweep.clean, sweep.findings
