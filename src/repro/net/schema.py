"""One declarative message table per socket surface.

Each surface that reads frames off a socket declares a :class:`Table`
beside its handlers — :data:`repro.service.server.REQUESTS`, and the
two halves of a node's replication port, :data:`repro.cluster.replicate
.STREAM` and :data:`repro.cluster.node.CONTROL`.  An entry maps a kind
to its field schema, handler, ``mutating``/``crypto`` flags and the
reply field recovery rebuilds.  :meth:`Table.check` validates a message
before the surface acts on it (never copying or normalising it), the
surface dispatches to the entry's handler, and :func:`render` writes
the table into the docs (``tools/check_docs.py`` fails on drift).

Types match exactly, so ``bool`` never counts as ``int``; unknown
fields are rejected.  Bounds are inclusive, on a number's value (NaN
and the infinities are outside any bound) or on a ``str``/``bytes``/
``list``/``tuple``/``dict``'s length.  A field's ``parts`` check what is
inside a value the same way: a dataclass's attributes, a sequence's
items.  Stdlib only: the module that declares a
table hands in its value types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["MAX_ID", "Field", "Message", "Table", "render"]

#: longest id (account, sender, request, node) a message may carry
MAX_ID = 256

_SIZED = (str, bytes, list, tuple, dict)
_MISSING = object()


def _show(value: Any) -> str:
    """A short repr: an error must not echo a hostile megabyte back."""
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _num(bound: float) -> str:
    if isinstance(bound, float):
        return f"{bound:g}"
    if bound > 1 << 20 and not bound & (bound + 1):  # a wide 2^k − 1
        return f"2^{bound.bit_length()} − 1"
    if bound > 1 << 20 and not bound & (bound - 1):  # a wide 2^k
        return f"2^{bound.bit_length() - 1}"
    return str(bound)


class Field:
    """One field: its exact types, whether it may be absent, its bounds."""

    def __init__(self, *types: type, optional: bool = False,
                 low: float = -math.inf, high: float = math.inf,
                 parts: "dict[str | int, Field] | None" = None) -> None:
        self.types, self.optional, self.low, self.high = types, optional, low, high
        self.bounded = low > -math.inf or high < math.inf
        self.sized = types[0] in _SIZED  # bounds limit the length
        #: fields inside the value: a dataclass's attributes by name, a
        #: sequence's items by index (its length bounds must cover them)
        self.parts = parts or {}

    def problem(self, value: Any) -> str | None:
        """Why *value* does not fit this field, or ``None``."""
        if type(value) not in self.types:
            return f"must be {self._types()}, not {type(value).__name__}"
        if self.bounded:
            size = len(value) if self.sized else value
            if not self.low <= size <= self.high:
                return (f"{'length' if self.sized else 'value'} must be "
                        f"{self._bounds()}, got {_show(size)}")
        for key, spec in self.parts.items():
            part = value[key] if type(key) is int else getattr(value, key)
            problem = spec.problem(part)
            if problem is not None:
                return f"[{key}] {problem}" if type(key) is int else f".{key} {problem}"
        return None

    def _types(self) -> str:
        return " or ".join(t.__name__ for t in self.types)

    def _bounds(self) -> str:
        if self.low == self.high:
            return _num(self.low)
        if self.high == math.inf:
            return f"≥ {_num(self.low)}"
        if self.low == -math.inf:
            return f"≤ {_num(self.high)}"
        return f"{_num(self.low)} … {_num(self.high)}"

    def __str__(self) -> str:
        text = self._types()
        if self.bounded:
            text += f", {'length ' if self.sized else ''}{self._bounds()}"
        if self.parts:
            text += " (" + "; ".join(
                f"[{key}]: {spec}" if type(key) is int else f"`.{key}`: {spec}"
                for key, spec in self.parts.items()) + ")"
        return text


@dataclass(frozen=True)
class Message:
    """One kind's row of a table."""

    fields: dict[str, Field]
    handler: Callable[..., Any]
    mutating: bool = False  # journaled before it runs, answered on record
    #: starts batched verification before apply (``None``: the handler
    #: does all the work at apply time)
    crypto: Callable[..., Any] | None = None
    rebuilds: str | None = None  # the reply field recovery rebuilds
    answers: str = ""  # what a well-formed message gets back (docs)
    #: refuses, before anything is journaled, a message the surface's
    #: state cannot take: ``screen(surface, body)`` → problem or ``None``
    screen: Callable[..., str | None] | None = None


class Table:
    """Every kind one surface accepts, plus the envelope they all carry.

    *key* names the frame field a kind travels in (allowed in every
    message); *envelope* fields travel beside the body.
    """

    def __init__(self, title: str, messages: dict[str, Message], *,
                 key: str | None = None,
                 envelope: dict[str, Field] | None = None) -> None:
        self.title, self.messages, self.key = title, messages, key
        self.envelope = envelope or {}
        self._allowed = {kind: frozenset(m.fields) | ({key} - {None})
                         for kind, m in messages.items()}

    def check(self, kind: Any, body: Any,
              **envelope: Any) -> tuple[Message | None, str | None]:
        """``(entry, problem)``: *problem* is ``None`` for a well-formed
        message, *entry* ``None`` for an unknown kind.  An optional
        envelope field passed as ``None`` counts as absent."""
        for name, value in envelope.items():
            spec = self.envelope[name]
            if value is None and spec.optional:
                continue
            problem = spec.problem(value)
            if problem is not None:
                return None, f"{name} {problem}"
        entry = self.messages.get(kind) if type(kind) is str else None
        if entry is None:
            return None, f"unknown {self.title} {_show(kind)}"
        if type(body) is not dict:
            return entry, f"{kind} must be a dict, not {type(body).__name__}"
        allowed = self._allowed[kind]
        if not body.keys() <= allowed:
            unknown = next(k for k in body if k not in allowed)
            return entry, f"{kind}: unknown field {_show(unknown)}"
        for name, spec in entry.fields.items():
            value = body.get(name, _MISSING)
            if value is _MISSING:
                problem = None if spec.optional else "is missing"
            else:
                problem = spec.problem(value)
            if problem is not None:
                return entry, f"{kind}: {name!r} {problem}"
        return entry, None


def _fields(fields: dict[str, Field], sep: str = "<br>") -> str:
    return sep.join(f"`{name}`{' (optional)' if spec.optional else ''}: {spec}"
                    for name, spec in fields.items()) or "—"


def render(table: Table) -> str:
    """*table* as markdown: the envelope, then one row per kind."""
    lines = [f"Envelope of every {table.title}: "
             f"{_fields(table.envelope, '; ')}.", ""] if table.envelope else []
    lines += [f"| {table.key or 'kind'} | fields | flags | answered with |",
              "|---|---|---|---|"]
    for kind, entry in table.messages.items():
        flags = [name for name, on in (("mutating", entry.mutating),
                                       ("crypto", entry.crypto),
                                       ("screened", entry.screen)) if on]
        flags += [f"recovery rebuilds `{entry.rebuilds}`"] if entry.rebuilds else []
        lines.append(f"| `{kind}` | {_fields(entry.fields)} | "
                     f"{', '.join(flags) or '—'} | {entry.answers} |")
    return "\n".join(lines) + "\n"
