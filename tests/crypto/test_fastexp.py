"""Fixed-base window tables, the promotion cache and Miller tables.

Parity suites pin every fast path against the naive loop it replaces
(``pow`` / double-and-add / :func:`tate_pairing`), including the edge
exponents: zero, negatives, values at and far above the group order.
"""

from __future__ import annotations

import builtins
import pickle
import random

import pytest

from repro.crypto import fastexp
from repro.crypto.pairing import TatePairing, generate_curve
from repro.crypto.pairing import curve
from repro.crypto.pairing.curve import Point, PointTable, _point
from repro.crypto.pairing.tate import MillerTable, tate_pairing

# RFC 2409 Oakley Group 2: a well-known 1024-bit safe prime (generating
# one takes minutes on the bench VM; hardcoding keeps tests fast)
P1024 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF",
    16,
)
Q1024 = (P1024 - 1) // 2
G1024 = 4  # 2^2 — a quadratic residue, hence of order Q1024


@pytest.fixture(autouse=True)
def _isolated_fastexp():
    """Each test starts with empty caches and default configuration."""
    previous = fastexp.configure()
    fastexp.reset()
    yield
    fastexp.configure(**previous)
    fastexp.reset()


# ---------------------------------------------------------------------------
# FixedBaseTable
# ---------------------------------------------------------------------------

def _edge_exponents(bits, order=None):
    """0, 1, ``2^bits − 1``, ``2^bits`` and negatives; with *order* also
    ``order − 1``, ``order`` and a multiple above it."""
    edges = [0, 1, 2, (1 << bits) - 1, 1 << bits, -1, -(1 << bits) - 3]
    if order is not None:
        edges += [order - 1, order, order + 1, 5 * order + 7, -order - 1]
    return edges


@pytest.fixture(scope="module")
def storey_groups():
    """The four storeys of a ``setup(3)`` tower: 68–74-bit moduli, the
    top one with cofactor ``(p − 1)/q = 18``."""
    from repro.ecash.dec import setup

    params = setup(3, random.Random(3), security_bits=80, real_pairing=False,
                   edge_rounds=6)
    return [params.tower.group(s) for s in range(4)]


class TestFixedBaseTable:
    @pytest.mark.parametrize("window", [1, 2, 3, 5, 6])
    def test_parity_with_pow(self, window):
        rng = random.Random(0xFA57)
        table = fastexp.FixedBaseTable(G1024, P1024, bits=160, window=window)
        assert table.window == window
        exps = [rng.getrandbits(160) for _ in range(16)] + _edge_exponents(160)
        for e in exps:
            assert table.exp(e) == pow(G1024, e, P1024)
        ordered = fastexp.FixedBaseTable(G1024, P1024, bits=160, order=Q1024,
                                         window=window)
        for e in exps + _edge_exponents(160, Q1024):
            assert ordered.exp(e) == pow(G1024, e, P1024)

    def test_storey_moduli_parity(self, storey_groups):
        rng = random.Random(0x5708)
        assert 18 in {(grp.p - 1) // grp.q for grp in storey_groups}
        for grp in storey_groups:
            for base in (grp.g, grp.derive_generator(b"h")):
                for order in (grp.q, None):
                    table = fastexp.FixedBaseTable(base, grp.p, bits=grp.q.bit_length(),
                                                   order=order)
                    exps = [rng.randrange(grp.q) for _ in range(24)]
                    for e in exps + _edge_exponents(grp.q.bit_length(), grp.q):
                        assert table.exp(e) == pow(base, e, grp.p)

    def test_window_is_picked_from_bits(self):
        """Widest window within ~1,024 entries: 6 at a storey's 70 bits,
        5 at 160 bits, 1 at a 1023-bit order."""
        for bits, window in ((70, 6), (74, 6), (160, 5), (1023, 1)):
            table = fastexp.FixedBaseTable(G1024, P1024, bits=bits)
            assert table.window == window
            assert table.table_size <= max(1024, 2 * bits)

    def test_boundary_exponents(self):
        table = fastexp.FixedBaseTable(G1024, P1024, bits=160)
        for e in (0, 1, 2, (1 << 160) - 1):
            assert table.exp(e) == pow(G1024, e, P1024)

    def test_exponent_above_bits_falls_back_exactly(self):
        table = fastexp.FixedBaseTable(G1024, P1024, bits=64)
        e = 1 << 100  # outside the precomputed range
        assert table.exp(e) == pow(G1024, e, P1024)

    def test_order_reduction(self):
        rng = random.Random(1)
        table = fastexp.FixedBaseTable(G1024, P1024, order=Q1024)
        e = rng.getrandbits(2048)  # scalar far above the group order
        assert table.exp(e) == pow(G1024, e % Q1024, P1024)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            fastexp.FixedBaseTable(G1024, P1024)  # no bits, no order
        with pytest.raises(ValueError):
            fastexp.FixedBaseTable(G1024, P1024, bits=0)
        with pytest.raises(ValueError):
            fastexp.FixedBaseTable(G1024, P1024, bits=64, window=0)
        with pytest.raises(ValueError):
            fastexp.FixedBaseTable(G1024, 2, bits=64)

    def test_table_size_accounting(self):
        table = fastexp.FixedBaseTable(G1024, P1024, bits=160, window=4)
        assert table.table_size == 40 * 16


class TestGenericFixedBaseTable:
    """The fixed-point window table (``curve.PointTable``, which took
    over the group-generic table's one use: fixed curve points)."""

    def test_point_parity(self, session_rng):
        params = generate_curve(32, session_rng)
        backend = TatePairing(params)
        base = backend.random_element(session_rng)
        bits = backend.order.bit_length()
        scalars = [session_rng.randrange(backend.order) for _ in range(6)]
        scalars += [0, 1, backend.order - 1, (1 << bits) - 1]
        for window in (1, 4, 6):
            table = PointTable((base.x.a, base.y.a), params.p, bits, window=window)
            for s in scalars:
                assert _point(table.exp(s), params.p) == base.multiply(s)

    def test_backend_exp_fixed_parity(self, session_rng):
        """``TatePairing.exp_fixed`` through its int-pair table, and
        through a table adopted from an export, equals ``exp``."""
        backend = TatePairing(generate_curve(32, session_rng))
        base = backend.random_element(session_rng)
        backend.warm_exp_fixed(base)
        clone = TatePairing(backend.params)
        assert clone.install_tables(backend.export_tables(), register=False) == 1
        r = backend.order
        scalars = [session_rng.randrange(r) for _ in range(6)] + [0, 1, r - 1, r, -1, 3 * r + 5]
        for s in scalars:
            want = backend.exp(base, s)
            assert backend.exp_fixed(base, s) == want == clone.exp_fixed(base, s)
        assert backend._point_tables.stats.hits == len(scalars)
        assert clone._point_tables.stats.hits == len(scalars)

    def test_operations_per_exponentiation(self, monkeypatch):
        """At most one point addition per row after the first: 19 for
        the 20 rows of an 80-bit ``r`` at the point window of 4, and
        one inversion."""
        params = generate_curve(80, random.Random(80))
        g = params.generator
        table = PointTable((g.x.a, g.y.a), params.p, 80)
        real_jadd, real_pow = curve._jadd, pow
        adds, inversions = [], []

        def counting_jadd(P, Q, p):
            if P[2] and Q[2]:
                adds.append(None)
            return real_jadd(P, Q, p)

        def counting_pow(*args):
            if args[1:2] == (-1,):
                inversions.append(None)
            return real_pow(*args)

        rng = random.Random(80)
        scalars = [rng.randrange(params.r) for _ in range(32)]
        results = []
        with monkeypatch.context() as patch:
            patch.setattr(curve, "_jadd", counting_jadd)
            patch.setattr(builtins, "pow", counting_pow)
            for s in scalars:
                adds.clear()
                inversions.clear()
                results.append(table.exp(s))
                assert len(adds) <= 19 and len(inversions) == 1
        assert [_point(xy, params.p) for xy in results] == [g.multiply(s) for s in scalars]

    def test_rejects_out_of_range(self):
        params = generate_curve(16, random.Random(16))
        g = params.generator
        table = PointTable((g.x.a, g.y.a), params.p, bits=16)
        with pytest.raises(ValueError):
            table.exp(1 << 20)
        with pytest.raises(ValueError):
            table.exp(-1)


# ---------------------------------------------------------------------------
# the promotion cache and the module-level exp_fixed
# ---------------------------------------------------------------------------

class TestPromotionCache:
    def test_promotes_after_threshold(self):
        built = []
        cache = fastexp.PromotionCache(
            "t.promote", lambda k: built.append(k) or k, promote_after=3
        )
        for _ in range(3):
            assert cache.get("a", "a") is None  # below threshold
        assert cache.get("a", "a") == "a"  # 4th use builds
        assert built == ["a"]
        assert cache.get("a", "a") == "a"  # now a hit
        assert cache.stats.misses == 3 and cache.stats.builds == 1 and cache.stats.hits == 1

    def test_force_builds_immediately(self):
        cache = fastexp.PromotionCache("t.force", lambda k: k * 2, promote_after=10)
        assert cache.force("x", "x") == "xx"
        assert cache.get("x", "x") == "xx"
        assert cache.stats.builds == 1 and cache.stats.hits == 1

    def test_lru_eviction_bound(self):
        cache = fastexp.PromotionCache("t.lru", lambda k: k, max_entries=2, promote_after=0)
        for key in ("a", "b", "c"):
            cache.force(key, key)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # "a" was evicted; "b" and "c" survive
        assert cache.get("b", "b") == "b"
        assert cache.get("c", "c") == "c"

    def test_clear_resets_everything(self):
        cache = fastexp.PromotionCache("t.clear", lambda k: k, promote_after=0)
        cache.force("a", "a")
        cache.clear()
        assert len(cache) == 0 and cache.stats.builds == 0


class TestExpFixed:
    def test_small_modulus_bypasses(self, schnorr_group):
        # a 64-bit group is tabled like any other once the base promotes
        grp = schnorr_group
        for e in range(123456789, 123456789 + 6):
            assert grp.exp_fixed(grp.g, e) == grp.exp(grp.g, e)
        stats = fastexp.stats()["fastexp.int"]
        assert stats["bypasses"] == 0 and stats["builds"] == 1
        assert stats["hits"] == 1  # the 5th use builds, the 6th hits

    def test_large_modulus_promotes_and_hits(self):
        fastexp.configure(promote_after=2)
        for i in range(6):
            got = fastexp.exp_fixed(G1024, P1024, 1000 + i, order=Q1024)
            assert got == pow(G1024, 1000 + i, P1024)
        stats = fastexp.stats()["fastexp.int"]
        assert stats["builds"] == 1
        assert stats["hits"] == 3  # uses 4..6 served from the table
        assert stats["tables"] == 1

    def test_disabled_bypasses(self):
        fastexp.configure(enabled=False)
        assert not fastexp.enabled()
        got = fastexp.exp_fixed(G1024, P1024, 777, order=Q1024)
        assert got == pow(G1024, 777, P1024)
        assert fastexp.stats()["fastexp.int"]["builds"] == 0

    def test_warm_builds_eagerly(self):
        assert fastexp.warm_fixed_base(G1024, P1024, order=Q1024)
        stats = fastexp.stats()["fastexp.int"]
        assert stats["builds"] == 1
        assert fastexp.exp_fixed(G1024, P1024, 424242, order=Q1024) == pow(
            G1024, 424242, P1024
        )
        assert fastexp.stats()["fastexp.int"]["hits"] == 1

    def test_warm_is_gated_too(self, schnorr_group):
        # small moduli are tabled; only the global toggle gates a warm
        grp = schnorr_group
        assert fastexp.warm_fixed_base(grp.g, grp.p, order=grp.q)
        assert fastexp.stats()["fastexp.int"]["builds"] == 1
        fastexp.reset()
        fastexp.configure(enabled=False)
        assert not fastexp.warm_fixed_base(grp.g, grp.p, order=grp.q)
        stats = fastexp.stats()["fastexp.int"]
        assert stats["builds"] == 0 and stats["bypasses"] == 1

    def test_env_override_disables(self, monkeypatch):
        # the env knob is read at import; emulate by reloading config
        monkeypatch.setenv("REPRO_FASTEXP", "0")
        import importlib

        import repro.crypto.fastexp as fe_mod
        state = fe_mod.configure()
        try:
            importlib.reload(fe_mod)
            assert not fe_mod.enabled()
        finally:
            importlib.reload(fe_mod)
            monkeypatch.delenv("REPRO_FASTEXP")
            importlib.reload(fe_mod)
            fe_mod.configure(**{k: v for k, v in state.items()})


# ---------------------------------------------------------------------------
# Miller tables
# ---------------------------------------------------------------------------

class TestMillerTable:
    @pytest.fixture(scope="class")
    def curve_backend(self):
        rng = random.Random(0x417)
        params = generate_curve(40, rng)
        return params, TatePairing(params), rng

    def test_pair_parity_over_random_points(self, curve_backend):
        params, backend, rng = curve_backend
        for _ in range(3):
            P = backend.random_element(rng)
            table = MillerTable(params, P)
            for _ in range(4):
                Q = backend.random_element(rng)
                assert table.pair(Q) == tate_pairing(params, P, Q)

    def test_pair_infinity(self, curve_backend):
        params, backend, rng = curve_backend
        table = MillerTable(params, backend.g)
        assert table.pair(backend.identity()) == backend.gt_one()

    def test_rejects_infinity_base(self, curve_backend):
        params, backend, _ = curve_backend
        with pytest.raises(ValueError):
            MillerTable(params, backend.identity())

    def test_backend_pair_uses_table_after_promotion(self, curve_backend):
        params, _, rng = curve_backend
        backend = TatePairing(params)  # fresh caches
        P = backend.random_element(rng)
        Q = backend.random_element(rng)
        ref = tate_pairing(params, P, Q)
        for _ in range(5):
            assert backend.pair(P, Q) == ref
        stats = backend._pair_tables.stats
        assert stats.builds >= 1 and stats.hits >= 1

    def test_symmetry_slot_swap(self, curve_backend):
        """A table for the *second* argument serves via ê(a,b) = ê(b,a)."""
        params, _, rng = curve_backend
        backend = TatePairing(params)
        P = backend.random_element(rng)
        Q = backend.random_element(rng)
        backend.warm_pair(Q)  # only the second slot is warmed
        assert backend.pair(P, Q) == tate_pairing(params, P, Q)
        assert backend._pair_tables.stats.hits >= 1

    def test_pickle_drops_and_rebuilds_caches(self, curve_backend):
        params, _, rng = curve_backend
        backend = TatePairing(params)
        backend.warm_pair(backend.g)
        clone = pickle.loads(pickle.dumps(backend))
        assert len(clone._pair_tables) == 0  # caches not shipped
        P = backend.random_element(rng)
        assert clone.pair(backend.g, P) == backend.pair(backend.g, P)
