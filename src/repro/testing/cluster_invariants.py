"""Cluster-wide invariants over per-slice storage dumps.

The single-node sweep (:mod:`repro.testing.invariants`) certifies one
bank against one journal.  A sharded cluster adds failure modes no
per-node check can see:

* a **serial deposited on two nodes** — deposits route by the
  depositing *account*, so the same coin spent under two different
  accounts lands on two different nodes, each of which locally sees a
  fresh serial.  The paper's double-deposit defense is only as strong
  as the global store, so the sweep intersects every pair of slices'
  serial sets (detect-after-the-fact, exactly the audit semantics the
  single bank already uses for operator-facing checks);
* a **request applied on two nodes** — a router retrying across a
  failover must land on the adopter's reply cache, never re-execute;
  a rid applied on two slices is the smoking gun for a
  lost-then-rerun request;
* an **account on the wrong node** — every account in a slice's books
  must hash to that slice under the cluster map's ring, or routing and
  state have diverged;
* **value conservation** — each node only sees its own slice of the
  flow, so "deposited never exceeds issued" must be summed globally.
  It holds for wire-driven traffic (minted through a
  :class:`repro.service.loadgen.WireIssuer`); offline-minted parity
  traffic (an ``OfflineIssuer``) deliberately violates it, so the
  conservation family is gated behind ``conservation=True``.

Input is ``{slice node id: dump}`` — what a node's ``dump`` control
frame (or ``LocalCluster.dump_storage``) returns: each slice's storage,
copied between two of its operations.  Each slice is opened the way a
restart opens it (:func:`~repro.cluster.node.open_dump`,
``load_checkpoint()``, :meth:`ShardedBank.recover`) and checked by the
single-node machinery; the cluster checks then run over the recovered
books — checkpoint plus retained tail — so a compacted slice is audited
in full, and one whose covering checkpoint is gone does not replay.
Only a slice's opened − withdrawn + deposited = final balances needs
the full history (no checkpoint stores opening balances): it runs on
slices that still hold lsn 0.
"""

from __future__ import annotations

import random

from repro.cluster.node import open_dump
from repro.cluster.ring import ClusterMap
from repro.service.journal import Journal
from repro.service.shard import ShardedBank
from repro.testing.invariants import InvariantReport, _check_lifecycle

__all__ = ["check_cluster_invariants"]


#: apply op -> (payload field, sign) in a slice's balance identity
_FLOW = {"open-account": ("balance", 1), "withdraw": ("value", -1),
         "deposit": ("amount", 1)}


def check_cluster_invariants(
    params,
    keypair,
    cmap: "ClusterMap | dict",
    dumps: dict[str, dict],
    *,
    n_shards: int = 4,
    conservation: bool = True,
    cross_slice_value: bool = False,
) -> InvariantReport:
    """Sweep every cluster invariant over per-slice storage *dumps*.

    *cmap* may be a :class:`~repro.cluster.ring.ClusterMap` or its
    ``to_state()`` dict (the form a node's ``map`` control frame
    serves).  Findings are prefixed with the slice they implicate.

    *cross_slice_value* tolerates value moving between slices (a coin
    withdrawn on one node, deposited on another — the normal market
    economy shape): the per-slice deposited-vs-issued inequality is
    skipped and only its global form is enforced.
    """
    if isinstance(cmap, dict):
        cmap = ClusterMap.from_state(cmap)
    findings: list[str] = []
    for node in cmap.nodes:
        if node not in dumps:
            findings.append(f"{node}: no storage dump for this slice")

    books = {}  # node -> the slice's recovered books, merged across shards
    applied: dict[str, set[str]] = {}
    full: dict[str, Journal] = {}  # the slices that still hold lsn 0
    for node, dump in sorted(dumps.items()):
        try:
            journal = open_dump(dump)
            checkpoint = journal.load_checkpoint()
            shadow = ShardedBank.recover(
                params, keypair, random.Random(0), journal,
                checkpoint=checkpoint, n_shards=n_shards,
            )
        except Exception as exc:
            findings.append(f"{node}: journal does not replay: {exc}")
            continue
        books[node] = shadow.merged()
        applied[node] = {r.rid for r in journal.records()
                         if r.kind == "apply" and r.rid}
        if checkpoint is not None:
            # a mutating request answered OK was applied; the checkpoint
            # remembers it after compaction took its apply record
            applied[node].update(rid for rid, status, _body in checkpoint.replies
                                 if status == "OK")
        if journal.first_lsn == 0:
            full[node] = journal
        audit = shadow.audit(allow_foreign_value=cross_slice_value)
        findings.extend(f"{node}: {f}" for f in audit.findings)
        findings.extend(f"{node}: {f}" for f in _check_lifecycle(journal, checkpoint))

    # global serial uniqueness: no deposited serial on two slices
    seen: dict[int, str] = {}
    for node, bank in sorted(books.items()):
        for serial in sorted(bank._seen_serials):
            prior = seen.get(serial)
            if prior is not None:
                findings.append(
                    f"{node}: serial {serial} also deposited on slice "
                    f"{prior} (cross-node double deposit)"
                )
            else:
                seen[serial] = node

    # global rid uniqueness: no request applied on two slices
    applied_on: dict[str, str] = {}
    for node, rids in sorted(applied.items()):
        for rid in sorted(rids):
            prior = applied_on.get(rid)
            if prior is not None:
                findings.append(
                    f"{node}: rid {rid!r} also applied on slice {prior} "
                    "(request ran on two nodes)"
                )
            else:
                applied_on[rid] = node

    # ring placement: every account lives on the slice that owns it
    for node, bank in sorted(books.items()):
        for aid in sorted(bank.accounts):
            owner = cmap.owner_of(aid)
            if owner != node:
                findings.append(
                    f"{node}: account {aid!r} belongs to slice {owner} "
                    "under the ring (misplaced state)"
                )

    if conservation:
        for node, journal in sorted(full.items()):
            net = sum(_FLOW[r.op][1] * r.payload[_FLOW[r.op][0]]
                      for r in journal.records() if r.kind == "apply")
            final = sum(books[node].accounts.values())
            if net != final:
                findings.append(
                    f"{node}: balance conservation broken: opened - withdrawn "
                    f"+ deposited = {net} != final balances {final}"
                )
        # the books hold every withdrawal and deposit record in full
        level = params.tree_level
        issued = sum(len(bank.withdrawals) for bank in books.values()) << level
        deposited = sum(1 << (level - record[1]) for bank in books.values()
                        for record in set(bank._seen_serials.values()))
        if deposited > issued:
            findings.append(
                f"cluster: deposited value {deposited} exceeds issued "
                f"value {issued}"
            )

    return InvariantReport(findings=tuple(findings))
