"""The privacy gate every exported label and attribute passes through.

Telemetry is the one channel that deliberately leaves the trust
boundary of the market: traces land in an operator's Perfetto tab,
metrics in a scrape endpoint.  The paper's anonymity guarantees
(unlinkable withdrawals, blinded coins, pseudonymous accounts) are
worthless if the serving layer's *instrumentation* re-publishes the
very values the cryptography hides — a serial number in a span
attribute links two deposits as surely as a broken blind signature.

The policy here is therefore **allowlist, not blocklist**: an
attribute key must be on :data:`SAFE_KEYS` for its value to be
exported verbatim, and even then only scalar values of bounded size
pass.  Everything else is either

* **dropped** (keys on :data:`DROP_KEYS` — values so sensitive even a
  digest leaks cardinality an attacker could use, e.g. raw spend
  tokens), or
* **hashed** — replaced by ``#`` + 12 hex chars of
  ``sha256(salt || canonical-bytes)``.  The salt is drawn fresh per
  process (:func:`configure` pins it for tests), so digests are
  useless for offline dictionary attacks against low-entropy inputs
  like account ids, yet stay stable *within* a run — an operator can
  still correlate "the same (hashed) sender" across spans.

Trace ids are derived the same way (:func:`trace_id`): request ids
may embed account ids (``sp0:auto:17``), so the id that crosses into
telemetry is always the digest, never the rid itself.

This module is pure stdlib — no ``repro`` imports — so every layer
can use it without cycles (enforced by ``tools/lint_imports.py``).
"""

from __future__ import annotations

import hashlib
import os

__all__ = [
    "SAFE_KEYS",
    "DROP_KEYS",
    "RedactionPolicy",
    "DEFAULT_POLICY",
    "configure",
    "hash_value",
    "trace_id",
]

#: Attribute keys whose (scalar) values are safe to export verbatim:
#: structural facts about the service — sizes, counts, positions,
#: statuses — that hold for any workload and identify no participant.
SAFE_KEYS: frozenset[str] = frozenset(
    {
        "kind",       # request kind: deposit / withdraw / ...
        "op",         # journal operation name
        "status",     # reply status: OK / BUSY / ERROR / REJECTED
        "reason",     # admission shed reason: rate / queue
        "phase",      # pipeline phase label
        "batch",      # jobs in a batch
        "deposits",   # deposit jobs in a flush
        "withdraws",  # withdraw jobs in a flush
        "chunks",     # pool chunks in a flush
        "n",          # generic count
        "count",
        "size",
        "bytes",
        "lsn",        # journal log sequence number
        "seq",        # service sequence number (dense, service-local)
        "depth",      # queue depth
        "level",      # tree level (public protocol parameter)
        "flushes",
        "redone",
        "replayed",
        "recovery",
        "cache",      # fastexp cache name
        "dedup",
        "admitted",
        "worker",     # dense verify-pool worker index (never a pid)
        "workers",    # verify-pool size
        "fallback",   # pool dispatch degraded to inline
        "node",       # cluster node id (operator-chosen: n0, n1, ...)

    }
)

#: Keys whose values never appear in telemetry in any form — not even
#: hashed.  A digest still reveals *when the same value recurs*, and
#: for these (raw coin/token material) recurrence is itself the
#: double-spend-shaped signal only the bank may see.
DROP_KEYS: frozenset[str] = frozenset(
    {"token", "coin", "signature", "request", "payload", "body", "blinded",
     "secret", "key", "node_key", "wallet"}
)

#: Longest string allowed through for a safe key; anything longer is
#: hashed even when the key is safe (a "status" carrying a blob is not
#: a status).
_MAX_SAFE_STR = 64

_SALT: bytes = os.urandom(16)


def configure(*, salt: bytes | None = None) -> bytes:
    """Pin the per-process digest salt; returns the previous salt.

    Production never calls this — a random salt is the point.  Tests
    pin it to make digests reproducible inside one assertion block.
    """
    global _SALT
    previous = _SALT
    if salt is not None:
        if not salt:
            raise ValueError("salt must be non-empty")
        _SALT = bytes(salt)
    return previous


def _canonical_bytes(value: object) -> bytes:
    if isinstance(value, bytes):
        return b"b:" + value
    if isinstance(value, str):
        return b"s:" + value.encode("utf-8", "surrogatepass")
    if isinstance(value, bool):
        return b"B:1" if value else b"B:0"
    if isinstance(value, int):
        return b"i:" + str(value).encode()
    if isinstance(value, float):
        return b"f:" + repr(value).encode()
    return b"r:" + repr(value).encode("utf-8", "backslashreplace")


def hash_value(value: object) -> str:
    """Salted 48-bit digest tag for an unsafe value: ``#9f2c01ab34de``."""
    digest = hashlib.sha256(_SALT + _canonical_bytes(value)).hexdigest()
    return "#" + digest[:12]


def trace_id(rid: str) -> str:
    """The telemetry-side identity of a request id.

    Deterministic in the rid (and the process salt), so every layer
    that sees the rid — accept, batcher, shard apply, journal, reply —
    derives the *same* trace id without any shared mutable context;
    that derivation is the propagation mechanism.  The rid itself
    (which may embed an account id) never leaves the process.
    """
    digest = hashlib.sha256(_SALT + b"t:" + rid.encode("utf-8", "surrogatepass"))
    return "t" + digest.hexdigest()[:16]


class RedactionPolicy:
    """Allowlist scrubber applied to every span attribute and metric label.

    ``scrub`` maps an attribute dict to its exportable form:

    * key on *drop_keys* → removed entirely;
    * key on *safe_keys* and value a bounded scalar → exported as-is
      (non-string scalars are stringified by the exporters, not here);
    * anything else → value replaced by :func:`hash_value`'s digest
      tag.  Containers are hashed whole — telemetry never walks into a
      payload.
    """

    def __init__(
        self,
        *,
        safe_keys: frozenset[str] | set[str] = SAFE_KEYS,
        drop_keys: frozenset[str] | set[str] = DROP_KEYS,
    ) -> None:
        self.safe_keys = frozenset(safe_keys)
        self.drop_keys = frozenset(drop_keys)

    def value(self, key: str, value: object):
        """The exportable form of one attribute, or ``None`` to drop."""
        if key in self.drop_keys:
            return None
        if key in self.safe_keys:
            if isinstance(value, bool) or isinstance(value, (int, float)):
                return value
            if isinstance(value, str) and len(value) <= _MAX_SAFE_STR:
                return value
        return hash_value(value)

    def scrub(self, attrs: dict) -> dict:
        """Exportable copy of *attrs* (drops, passes, hashes per key)."""
        out: dict = {}
        for key, value in attrs.items():
            scrubbed = self.value(str(key), value)
            if scrubbed is not None:
                out[str(key)] = scrubbed
        return out


#: The policy used by the default tracer and registry.
DEFAULT_POLICY = RedactionPolicy()
