"""Fixed-base precomputation tables and the verification kernel.

Every spend/deposit verification in the market is dominated by modular
exponentiations whose bases are *fixed for the lifetime of the market*:
the tower generators ``g, h, γ`` of each storey, the bank's CL public
key, and the pairing-group generator.  This module turns that
repetition into speed with :class:`FixedBaseTable`, a fixed-window
table over ``Z_p``: row *i* holds ``base^(d·2^(w·i))`` for every
*w*-bit digit *d*, so one exponentiation is one table multiply per
non-zero digit, with no squarings, against ``~1.2 * bits`` multiplies
for ``pow``'s sliding window.  At a 70-bit storey modulus that is ~4×
faster than ``pow``.

Tables are cached in :class:`PromotionCache` instances — bounded LRU
maps that only *build* a table after a base has been seen
``promote_after`` times, so one-shot exponentiations never pay the
build cost.  All caches register themselves in a module registry;
:func:`stats` aggregates their hit/miss/build/eviction counters (also
published as gauges by :meth:`repro.service.MarketService.dump_telemetry`).

A cold base takes the plain path, ``pow``, and a table computes the
same group element ``pow`` does, so results are bit-identical either
way; the parity tests hold the two paths against each other.

The hot loops of verification — a table exponentiation here, the
Miller replay and the F_{p²} powers of :mod:`repro.crypto.pairing.tate`,
the Legendre membership test of
:class:`~repro.crypto.groups.SchnorrGroup`, the verifiers'
variable-base powers (:func:`powm`) and the rounds of an edge proof —
and the codec's encode and decode walks (:mod:`repro.net.codec`) also
run in a compiled kernel, ``_kernel.c`` beside this file, over libgmp.
This module loads it (:data:`KERNEL`), building it on first import
into a cache beside the source (:func:`build_kernel`); without ``gcc``,
``gmp.h`` or a writable cache the Python loops run, and they stay the
oracle the kernel is tested against.  :func:`stats` reports which path
served how many verification calls in its ``kernel`` row.

This module must stay dependency-free: it imports nothing from
``repro`` (enforced by ``tools/lint_imports.py``) so every layer —
crypto, e-cash, service — can use it without cycles.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import logging
import os
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

__all__ = [
    "KERNEL",
    "KERNEL_CALLS",
    "KernelBuildError",
    "build_kernel",
    "CacheStats",
    "FixedBaseTable",
    "PromotionCache",
    "exp_fixed",
    "fixed_base",
    "warm_fixed_base",
    "powm",
    "enabled",
    "stats",
    "reset",
]


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------

@dataclass
class CacheStats:
    """Counters for one table cache.

    ``hits`` — exponentiations served from a built table; ``misses`` —
    calls that fell back to the naive path because no table existed
    yet; ``builds`` — tables constructed (by promotion or warming);
    ``evictions`` — tables dropped by the LRU bound.
    """

    hits: int = 0
    misses: int = 0
    builds: int = 0
    evictions: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "builds": self.builds,
            "evictions": self.evictions,
        }


# ---------------------------------------------------------------------------
# the compiled verification kernel
# ---------------------------------------------------------------------------

_KERNEL_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
#: where built kernels live, one file per source hash and interpreter
#: (gitignored; ``make clean`` empties it)
KERNEL_CACHE = os.path.join(os.path.dirname(_KERNEL_SOURCE), "__kernel_cache__")


class KernelBuildError(RuntimeError):
    """The kernel could not be built; the message names why."""


def build_kernel(cache: str = KERNEL_CACHE) -> str:
    """Compile ``_kernel.c`` into *cache* unless it is there; its path.

    The file name carries the source's hash and the interpreter's
    extension suffix, so an edited source or another interpreter builds
    afresh.  ``gcc`` writes a temporary file that :func:`os.replace`
    moves into place, so processes that build at once all end with the
    same complete file.  Raises :class:`KernelBuildError` naming a
    missing ``gcc``, a missing ``gmp.h`` or an unwritable cache.
    """
    with open(_KERNEL_SOURCE, "rb") as source:
        digest = hashlib.sha256(source.read()).hexdigest()[:16]
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    path = os.path.join(cache, f"_kernel-{digest}{suffix}")
    if os.path.exists(path):
        return path
    import shutil
    import subprocess
    import sysconfig
    import tempfile

    gcc = shutil.which("gcc")
    if gcc is None:
        raise KernelBuildError("no gcc on PATH")
    try:
        os.makedirs(cache, exist_ok=True)
        fd, scratch = tempfile.mkstemp(suffix=suffix, dir=cache)
    except OSError as exc:
        raise KernelBuildError(f"cache {cache} is not writable: {exc}") from exc
    os.close(fd)
    try:
        try:
            done = subprocess.run(
                [gcc, "-O2", "-shared", "-fPIC", "-I", sysconfig.get_paths()["include"],
                 _KERNEL_SOURCE, "-o", scratch, "-lgmp"],
                capture_output=True, text=True, check=False, timeout=300,
            )
        except subprocess.TimeoutExpired as exc:
            raise KernelBuildError("gcc timed out") from exc
        if done.returncode:
            reason = "no gmp.h" if "gmp.h" in done.stderr else "gcc failed"
            raise KernelBuildError(f"{reason}: {done.stderr.strip()[-400:]}")
        os.replace(scratch, path)
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)
    return path


def _load_kernel(cache: str = KERNEL_CACHE):
    """The kernel module, building it first if need be; ``None``, after
    one logged warning naming the reason, when it cannot be had."""
    try:
        path = build_kernel(cache)
        spec = importlib.util.spec_from_file_location("repro.crypto._kernel", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except (KernelBuildError, OSError, ImportError) as exc:
        logging.getLogger(__name__).warning(
            "verification kernel unavailable, the Python loops run: %s", exc)
        return None
    return module


#: the loaded kernel module, or ``None``: the Python loops then run
#: (tests set it to ``None`` to drive the Python path)
KERNEL = _load_kernel()

#: operations each path served since the last :func:`reset`, by entry
#: point: ``<op>_c`` on the kernel, ``<op>_py`` on the Python loop.
#: ``replay`` counts Miller replays, ``exp`` table exponentiations,
#: ``legendre`` Legendre symbols, ``fp2_pow`` F_{p²} powers and
#: ``powm`` variable-base powers.  The kernel's ``edge_rounds`` is
#: credited with the table exponentiations and powers its Python loop
#: makes (:func:`~repro.crypto.zkp.committed_double_log.verify_edge`).
KERNEL_CALLS: dict[str, int] = {
    f"{op}_{path}": 0
    for op in ("replay", "exp", "legendre", "fp2_pow", "powm") for path in ("c", "py")
}


def powm(base: int, exponent: int, modulus: int) -> int:
    """``pow(base, exponent, modulus)`` for ``exponent >= 0`` and
    ``modulus >= 1``, on the kernel when it is loaded.

    For public values only: the verifiers' per-proof bases and the
    membership checks.  Nothing in the kernel is constant time, so a
    prover's or issuer's secret exponent stays on ``pow``
    (:meth:`~repro.crypto.groups.SchnorrGroup.exp`).
    """
    kernel = KERNEL
    if kernel is not None:
        KERNEL_CALLS["powm_c"] += 1
        return kernel.powm(base, exponent, modulus)
    KERNEL_CALLS["powm_py"] += 1
    return pow(base, exponent, modulus)


def kernel_limbs(kernel, modulus: int) -> int:
    """Limbs per packed value for residues modulo *modulus*."""
    return -(-modulus.bit_length() // kernel.LIMB_BITS)


# ---------------------------------------------------------------------------
# fixed-base window tables
# ---------------------------------------------------------------------------

#: most elements one integer table may hold: ~35 KB per base at a
#: 70-bit modulus, 128 KB at 1024 bits
_INT_ENTRIES = 1024


def _window(bits: int) -> int:
    """The widest window ``w ≤ bits`` whose ``ceil(bits/w)`` rows of
    ``2^w`` elements fit in ``_INT_ENTRIES`` (``1`` when none does)."""
    w = 1
    while w < bits and -(-bits // (w + 1)) << (w + 1) <= _INT_ENTRIES:
        w += 1
    return w


def _window_rows(identity: Any, op: Callable[[Any, Any], Any], base: Any,
                 bits: int, window: int) -> list[list[Any]]:
    """Row *i* holds ``base^(d·2^(window·i))`` at index ``d < 2^window``."""
    rows: list[list[Any]] = []
    x = base
    for i in range(-(-bits // window)):
        if i:
            x = op(rows[-1][-1], x)  # x^(2^w - 1) · x = x^(2^w)
        row = [identity, x]
        for _ in range((1 << window) - 2):
            row.append(op(row[-1], x))
        rows.append(row)
    return rows


class FixedBaseTable:
    """Fixed-window precomputation for ``base^e mod modulus``.

    Row *i* holds ``base^(d·2^(w·i))`` for every digit ``d < 2^w``, so an
    exponentiation is one multiply per non-zero *w*-bit digit of the
    exponent — no squarings.  *w* is the widest window that keeps the
    table within ``_INT_ENTRIES`` elements (6 at a 70-bit exponent, 5 at
    160 bits); *window* overrides it (the parity tests sweep it).

    Exponents are reduced modulo *order* when given (sound for any
    element of the order-*order* subgroup); exponents outside
    ``[0, 2^bits)`` fall back to :func:`pow`.  With the kernel loaded, an
    int exponent runs the kernel's loop over the rows packed into one
    buffer, which the first such call builds.
    """

    __slots__ = ("base", "modulus", "order", "bits", "window", "_rows", "_packed")

    def __init__(
        self,
        base: int,
        modulus: int,
        *,
        bits: int | None = None,
        order: int | None = None,
        window: int | None = None,
    ) -> None:
        if modulus < 3:
            raise ValueError("modulus too small")
        if bits is None:
            if order is None:
                raise ValueError("need an exponent bit bound: pass bits or order")
            bits = order.bit_length()
        if bits < 1:
            raise ValueError("bits must be positive")
        if window is None:
            window = _window(bits)
        if window < 1:
            raise ValueError("window must be positive")
        self.base = base % modulus
        self.modulus = modulus
        self.order = order
        self.bits = bits
        self.window = window
        self._rows = _window_rows(1, lambda a, b: a * b % modulus, self.base,
                                  bits, window)
        self._packed: tuple[bytes, int] | None = None

    @property
    def table_size(self) -> int:
        """Number of stored group elements."""
        return len(self._rows) << self.window

    def exp(self, exponent: int) -> int:
        """``base^exponent mod modulus`` — identical to ``pow``."""
        e = exponent
        if self.order is not None:
            e %= self.order
        if e < 0 or e.bit_length() > self.bits:
            # out of the precomputed range: exact fallback
            return pow(self.base, e, self.modulus)
        kernel = KERNEL
        if kernel is not None and type(e) is int:
            KERNEL_CALLS["exp_c"] += 1
            buf, limbs, window = self.kernel_rows()
            return kernel.table_exp(buf, limbs, window, e, self.modulus)
        KERNEL_CALLS["exp_py"] += 1
        m = self.modulus
        w = self.window
        mask = (1 << w) - 1
        acc = 1
        for row in self._rows:
            if not e:
                break
            digit = e & mask
            if digit:
                acc = acc * row[digit] % m
            e >>= w
        return acc

    #: a table is its own exponentiation: :func:`fixed_base` hands it out
    __call__ = exp

    def kernel_rows(self) -> tuple[bytes, int, int]:
        """The rows as the kernel reads them, ``(buffer, limbs, window)``,
        packed on the first call (needs :data:`KERNEL`)."""
        if self._packed is None:
            limbs = kernel_limbs(KERNEL, self.modulus)
            rows = [x for row in self._rows for x in row]
            self._packed = (KERNEL.pack(rows, limbs), limbs)
        return (*self._packed, self.window)


# ---------------------------------------------------------------------------
# promotion cache
# ---------------------------------------------------------------------------

#: registry of live caches, for aggregate stats (weak so throwaway
#: backends in tests don't accumulate)
_REGISTRY: list[weakref.ref] = []


class PromotionCache:
    """Bounded LRU of precomputed tables with usage promotion.

    A table is only *built* once its key has been requested more than
    ``promote_after`` times — before that :meth:`get` returns ``None``
    and the caller takes its naive path.  This keeps one-shot bases
    (per-proof commitments, throwaway test groups) from ever paying a
    build, while steady-state bases (market generators, bank keys)
    promote within a handful of calls.  :meth:`force` builds
    unconditionally — the warm-up path.  No switch turns a cache off: a
    lookup that answers ``None`` is the only way onto the plain path.
    """

    def __init__(
        self,
        name: str,
        builder: Callable[..., Any],
        *,
        max_entries: int = 32,
        promote_after: int = 4,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        if promote_after < 0:
            raise ValueError("promote_after cannot be negative")
        self.name = name
        self.max_entries = max_entries
        self.promote_after = promote_after
        self.stats = CacheStats()
        self._builder = builder
        self._entries: OrderedDict[Any, Any] = OrderedDict()
        self._pending: OrderedDict[Any, int] = OrderedDict()
        _REGISTRY.append(weakref.ref(self))

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Any, *build_args: Any) -> Any | None:
        """The table for *key*, or ``None`` while below the threshold."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry
        uses = self._pending.get(key, 0) + 1
        if uses <= self.promote_after:
            self.stats.misses += 1
            self._pending[key] = uses
            self._pending.move_to_end(key)
            # the pending map is bookkeeping, not payload — keep it small
            while len(self._pending) > 8 * self.max_entries:
                self._pending.popitem(last=False)
            return None
        return self.force(key, *build_args)

    def peek(self, key: Any) -> Any | None:
        """The resident table for *key* (a counted hit), or ``None``
        without counting a use towards promotion."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
        return entry

    def force(self, key: Any, *build_args: Any) -> Any:
        """Build (or fetch) the table for *key* unconditionally."""
        self._pending.pop(key, None)
        entry = self._entries.get(key)
        if entry is None:
            entry = self._builder(*build_args)
            self.stats.builds += 1
            self._entries[key] = entry
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
        self._entries.move_to_end(key)
        return entry

    def clear(self) -> None:
        """Drop every table and pending count; reset the counters."""
        self._entries.clear()
        self._pending.clear()
        self.stats = CacheStats()


# ---------------------------------------------------------------------------
# the shared integer cache
# ---------------------------------------------------------------------------

#: resident integer tables at most, LRU-evicted
_MAX_INT_TABLES = 64


def _build_int_table(base: int, modulus: int, bits: int, order: int | None) -> FixedBaseTable:
    return FixedBaseTable(base, modulus, bits=bits, order=order)


_INT_TABLES = PromotionCache(
    "fastexp.int",
    _build_int_table,
    max_entries=_MAX_INT_TABLES,
    promote_after=4,
)


def enabled() -> bool:
    """Always ``True``: tables are a fixed property of the market.  Kept
    for the e2e server's ready line, its one reader."""
    return True


def exp_fixed(
    base: int,
    modulus: int,
    exponent: int,
    *,
    order: int | None = None,
    bits: int | None = None,
) -> int:
    """``pow(base, exponent, modulus)`` through the fixed-base cache.

    Semantics are identical to ``pow`` (with *order* given, the
    exponent is first reduced modulo it — sound for any element of
    that subgroup, and what :class:`~repro.crypto.groups.SchnorrGroup`
    does anyway).  The table path is taken once this base has been seen
    often enough to have been promoted — at any modulus size.
    """
    if order is not None:
        exponent %= order
    if bits is None:
        bits = order.bit_length() if order is not None else max(exponent.bit_length(), 1)
    table = _INT_TABLES.get((modulus, base), base, modulus, bits, order)
    if table is None:
        return pow(base, exponent, modulus)
    return table.exp(exponent)


def fixed_base(base: int, modulus: int, *, order: int) -> Callable[[int], int]:
    """``e ↦ base^e mod modulus`` (*e* reduced modulo *order*), with the
    table looked up once.

    A verifier takes one of these per fixed base per proof and calls it
    every round: on a resident table it is the :class:`FixedBaseTable`
    itself (one counted hit for the whole proof; its
    :meth:`~FixedBaseTable.kernel_rows` can go to the kernel whole); on
    a cold base every call goes through :func:`exp_fixed`, so promotion
    and the counters see each use.
    """
    table = _INT_TABLES.peek((modulus, base))
    if table is not None and table.order == order:
        return table
    return lambda exponent: exp_fixed(base, modulus, exponent, order=order)


def warm_fixed_base(
    base: int,
    modulus: int,
    *,
    order: int | None = None,
    bits: int | None = None,
) -> None:
    """Eagerly build the table for a known-hot base."""
    if bits is None:
        if order is None:
            raise ValueError("need an exponent bit bound: pass bits or order")
        bits = order.bit_length()
    _INT_TABLES.force((modulus, base), base, modulus, bits, order)


_CACHE_COLUMNS = ("hits", "misses", "builds", "evictions", "tables")


def stats() -> dict[str, dict[str, int]]:
    """Aggregate counters of every live cache, keyed by cache name.

    Caches sharing a name (e.g. one ``tate.pair`` cache per backend
    instance) are summed into one row.  The ``kernel`` row says whether
    the compiled kernel loaded and counts :data:`KERNEL_CALLS`; its
    cache columns are zero, so a sum over rows stays a table count.
    """
    out: dict[str, dict[str, int]] = {}
    live: list[weakref.ref] = []
    for ref in _REGISTRY:
        cache = ref()
        if cache is None:
            continue
        live.append(ref)
        row = out.setdefault(cache.name, dict.fromkeys(_CACHE_COLUMNS, 0))
        for field_name, value in cache.stats.as_dict().items():
            row[field_name] += value
        row["tables"] += len(cache)
    _REGISTRY[:] = live
    out["kernel"] = {**dict.fromkeys(_CACHE_COLUMNS, 0), "loaded": int(KERNEL is not None),
                     **KERNEL_CALLS}
    return out


def reset() -> None:
    """Clear every live cache and zero all counters (test isolation)."""
    KERNEL_CALLS.update(dict.fromkeys(KERNEL_CALLS, 0))
    live: list[weakref.ref] = []
    for ref in _REGISTRY:
        cache = ref()
        if cache is None:
            continue
        live.append(ref)
        cache.clear()
    _REGISTRY[:] = live
