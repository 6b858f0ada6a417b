"""Cluster-wide invariants over per-slice journal dumps.

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
  a rid with ``apply`` records on two slices is the smoking gun for a
  lost-then-rerun request;
* an **account on the wrong node** — every account in a slice's books
  must hash to that slice under the cluster map's ring, or routing and
  state have diverged;
* **cross-node conservation** — each node only sees its own slice of
  the flow, so value conservation (opened − withdrawn + deposited =
  final balances; deposited never exceeds issued) must be summed
  globally.  It holds for wire-driven traffic (minted through a
  :class:`repro.service.loadgen.WireIssuer`); offline-minted parity
  traffic (an ``OfflineIssuer``) deliberately violates it, so the
  conservation family is gated behind ``conservation=True``.

Input is ``{slice node id: [journal record states]}`` — exactly what a
node's ``dump`` control frame (or ``LocalCluster.dump_journals``)
returns — so the sweep runs against live clusters, post-mortem
rundirs, and in-process harnesses alike.  Each slice is first rebuilt
through :meth:`ShardedBank.recover` and checked by the single-node
machinery; the cluster-level checks then run over the shadow books.
A dump must be the slice's *full* stream from lsn 0: one cut short by
compaction (``journal_retention=``) is reported, not half-replayed.
"""

from __future__ import annotations

import random

from repro.cluster.ring import ClusterMap
from repro.service.journal import Journal
from repro.service.shard import ShardedBank
from repro.testing.invariants import InvariantReport, _check_lifecycle

__all__ = ["check_cluster_invariants"]


def _slice_serials(bank: ShardedBank) -> set[int]:
    serials: set[int] = set()
    for shard in bank.shards:
        serials.update(shard._seen_serials)
    return serials


def _slice_accounts(bank: ShardedBank) -> dict[str, int]:
    accounts: dict[str, int] = {}
    for shard in bank.shards:
        accounts.update(shard.accounts)
    return accounts


def _flow_totals(journal: Journal) -> dict[str, int]:
    """Value flow recorded by one slice's ``apply`` records."""
    totals = {"opened": 0, "withdrawn": 0, "deposited": 0}
    for record in journal.records():
        if record.kind != "apply":
            continue
        if record.op == "open-account":
            totals["opened"] += record.payload["balance"]
        elif record.op == "withdraw":
            totals["withdrawn"] += record.payload["value"]
        elif record.op == "deposit":
            totals["deposited"] += record.payload["amount"]
    return totals


def check_cluster_invariants(
    params,
    keypair,
    cmap: "ClusterMap | dict",
    dumps: dict[str, list[dict]],
    *,
    n_shards: int = 4,
    conservation: bool = True,
    cross_slice_value: bool = False,
) -> InvariantReport:
    """Sweep every cluster invariant over per-slice journal *dumps*.

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
            findings.append(f"{node}: no journal dump for this slice")

    shadows: dict[str, ShardedBank] = {}
    journals: dict[str, Journal] = {}
    for node, states in sorted(dumps.items()):
        try:
            journal = journals[node] = Journal.from_records(states)
            if journal.first_lsn > 0:
                findings.append(
                    f"{node}: dump starts at lsn {journal.first_lsn} "
                    "(compacted) — the sweep needs the full stream"
                )
                continue
            shadow = ShardedBank.recover(
                params, keypair, random.Random(0), journal,
                n_shards=n_shards,
            )
        except Exception as exc:
            findings.append(f"{node}: journal does not replay: {exc}")
            continue
        shadows[node] = shadow
        audit = shadow.audit(allow_foreign_value=cross_slice_value)
        findings.extend(f"{node}: {f}" for f in audit.findings)
        findings.extend(f"{node}: {f}" for f in _check_lifecycle(journal))

    # global serial uniqueness: no deposited serial on two slices
    seen: dict[int, str] = {}
    for node, shadow in sorted(shadows.items()):
        for serial in sorted(_slice_serials(shadow)):
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
    for node, journal in sorted(journals.items()):
        slice_rids = {r.rid for r in journal.records()
                      if r.kind == "apply" and r.rid}
        for rid in sorted(slice_rids):
            prior = applied_on.get(rid)
            if prior is not None:
                findings.append(
                    f"{node}: rid {rid!r} also applied on slice {prior} "
                    "(request ran on two nodes)"
                )
            else:
                applied_on[rid] = node

    # ring placement: every account lives on the slice that owns it
    for node, shadow in sorted(shadows.items()):
        for aid in sorted(_slice_accounts(shadow)):
            owner = cmap.owner_of(aid)
            if owner != node:
                findings.append(
                    f"{node}: account {aid!r} belongs to slice {owner} "
                    "under the ring (misplaced state)"
                )

    if conservation:
        opened = withdrawn = deposited = final = 0
        for node, shadow in sorted(shadows.items()):
            totals = _flow_totals(journals[node])
            opened += totals["opened"]
            withdrawn += totals["withdrawn"]
            deposited += totals["deposited"]
            final += sum(_slice_accounts(shadow).values())
        if opened - withdrawn + deposited != final:
            findings.append(
                f"cluster: balance conservation broken: opened {opened} "
                f"- withdrawn {withdrawn} + deposited {deposited} != "
                f"final balances {final}"
            )
        if deposited > withdrawn:
            findings.append(
                f"cluster: deposited value {deposited} exceeds issued "
                f"value {withdrawn}"
            )

    return InvariantReport(findings=tuple(findings))
