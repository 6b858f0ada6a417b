"""Core-operation counters (Table I of the paper), and both tables' renderers.

The paper tallies, per party and mechanism, four operation classes:

* ``ZKP`` — zero-knowledge proofs (counting one per proof object;
  the paper does the same, e.g. "(8+i) ZKP" for PPMSdec's JO),
* ``Enc`` — encryptions *and* signature generations,
* ``Dec`` — decryptions *and* signature verifications,
* ``H``  — standalone hash invocations.

The protocol implementations call :meth:`OpCounter.record` at every
operation site, so the measured table can be printed next to the
paper's claimed rows (see ``benchmarks/bench_table1_opcounts.py``).
Table II needs no counter of its own: it is the transport's envelope
log summed (:class:`repro.net.transport.Transport`), rendered by
:func:`format_traffic_table`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

__all__ = [
    "OpCounter",
    "OPS",
    "format_table",
    "format_traffic_table",
]

OPS = ("ZKP", "Enc", "Dec", "H")


@dataclass
class OpCounter:
    """Per-party operation tally."""

    counts: dict[str, dict[str, int]] = field(
        default_factory=lambda: defaultdict(lambda: defaultdict(int))
    )

    def record(self, party: str, op: str, n: int = 1) -> None:
        """Add *n* operations of class *op* for *party*."""
        if op not in OPS:
            raise ValueError(f"unknown op class {op!r}; expected one of {OPS}")
        if n < 0:
            raise ValueError("operation count cannot be negative")
        self.counts[party][op] += n

    def get(self, party: str, op: str) -> int:
        return self.counts.get(party, {}).get(op, 0)

    def party_row(self, party: str) -> dict[str, int]:
        """All op counts for one party (zero-filled)."""
        return {op: self.get(party, op) for op in OPS}

    def merged(self, other: "OpCounter") -> "OpCounter":
        """A new counter combining both tallies."""
        out = OpCounter()
        for src in (self, other):
            for party, ops in src.counts.items():
                for op, n in ops.items():
                    out.counts[party][op] += n
        return out

    def reset(self) -> None:
        self.counts.clear()

    def summary(self, party: str) -> str:
        """Compact Table-I-style cell, e.g. ``"9ZKP+4Enc+1Dec+1H"``."""
        parts = [f"{self.get(party, op)}{op}" for op in OPS if self.get(party, op)]
        return "+".join(parts) if parts else "0"


def format_table(counter: OpCounter, parties: list[str], title: str = "") -> str:
    """Render an ASCII table of per-party operation counts."""
    lines = []
    if title:
        lines.append(title)
    header = f"{'party':<8}" + "".join(f"{op:>8}" for op in OPS)
    lines.append(header)
    lines.append("-" * len(header))
    for party in parties:
        row = counter.party_row(party)
        lines.append(f"{party:<8}" + "".join(f"{row[op]:>8}" for op in OPS))
    return "\n".join(lines)


def format_traffic_table(transport, parties: list[str], title: str = "") -> str:
    """Render a Table-II-style ASCII table (input/output bytes, total kB)."""
    lines = []
    if title:
        lines.append(title)
    header = f"{'party':<8}{'input (B)':>12}{'output (B)':>12}"
    lines.append(header)
    lines.append("-" * len(header))
    for party in parties:
        lines.append(
            f"{party:<8}{transport.input_bytes(party):>12}"
            f"{transport.output_bytes(party):>12}"
        )
    lines.append(f"{'total':<8}{transport.total_bytes() / 1024.0:>23.2f} kB")
    return "\n".join(lines)
