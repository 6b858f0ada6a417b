"""Parity of the deposit-verification kernels with their reference formulas.

Each kernel the verifier leans on is pinned against the plain
computation it replaces, so a decision can never depend on which one
ran:

* the Legendre-symbol subgroup test against ``pow(a, q, p) == 1``;
* the denominator-free Miller replay against the textbook Miller loop
  (verticals and denominators kept, :class:`Fp2` objects throughout);
* the int-pair ``μ_r`` membership test against the subgroup it names;
* the one-final-exponentiation statement ``V`` against
  ``ê(g, c~) · ê(X, a~)^(r−1)``;

and a token whose curve point is not F_p-rational — the one input the
real-parts-only Miller loop would read differently — is refused.

Every class runs twice: as written, on the compiled kernel when it is
loaded, and as its ``…OnPython`` twin with the loader's handle
(``fastexp.KERNEL``) set to ``None``, the Python loops the kernel is
held to.  The hostile-input suite at the end feeds each kernel entry
point 0, 1, p−1, p, negative, oversized, ``bool`` and non-int values on
both paths and requires the same value or the same exception class
(``edge_rounds`` through ``verify_edge``, in any slot of a proof or its
statement; ``int_run``'s parity is ``tests/net/test_codec_kernel.py``'s);
``powm``, whose Python twin is ``pow`` itself, must equal ``pow`` or
raise, and only the verifiers and the membership check may call it.
"""

from __future__ import annotations

import dataclasses
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import fastexp
from repro.crypto.cl_sig import cl_blind_issue, cl_keygen
from repro.crypto.groups import SchnorrGroup, build_tower
from repro.crypto.hashing import Transcript
from repro.crypto.pairing import TatePairing, ToyPairing, generate_curve, tate
from repro.crypto.pairing.curve import Point
from repro.crypto.pairing.field import Fp2
from repro.crypto.pairing.tate import MillerTable, _fp2_pow, tate_pairing
from repro.ecash.batch import batch_verify_spends
from repro.crypto.zkp.committed_double_log import CommittedEdgeProof, prove_edge, verify_edge
from repro.ecash.dec import begin_withdrawal, finish_withdrawal, setup
from repro.ecash.spend import create_spend, verify_spend
from repro.ecash.tree import NodeId

# RFC 2409 Oakley Group 2: a 1024-bit safe prime
P1024 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF",
    16,
)


@pytest.fixture(autouse=True)
def _isolated_fastexp():
    previous = fastexp.configure()
    fastexp.reset()
    yield
    fastexp.configure(**previous)
    fastexp.reset()


@pytest.fixture(autouse=True)
def _path(request, monkeypatch):
    """The ``…OnPython`` twins run with the kernel handle patched out."""
    if getattr(request.cls, "on_python", False):
        monkeypatch.setattr(fastexp, "KERNEL", None)


@pytest.fixture(scope="module")
def curve():
    params = generate_curve(40, random.Random(0x5EED))
    return params, TatePairing(params)


# ---------------------------------------------------------------------------
# Legendre membership vs pow
# ---------------------------------------------------------------------------

def _by_pow(group: SchnorrGroup, a: int) -> bool:
    return 0 < a < group.p and pow(a, group.q, group.p) == 1


class TestLegendreMembership:
    @pytest.fixture(scope="class")
    def tower(self):
        return build_tower(3, random.Random(11))

    def test_every_storey_decides_like_pow(self, tower):
        rng = random.Random(12)
        for group in tower.levels:
            p = group.p
            cases = [0, 1, 2, p - 1, p, p + 1, -1, group.g]
            cases += [rng.randrange(1, p) for _ in range(200)]
            cases += [group.power(rng.randrange(1, group.q)) for _ in range(50)]
            for a in cases:
                assert group.contains(a) == _by_pow(group, a), (p, a)

    def test_random_non_residues_rejected(self, tower):
        rng = random.Random(13)
        safe = [g for g in tower.levels if g.p == 2 * g.q + 1]
        assert safe
        for group in safe:
            seen = 0
            while seen < 50:
                a = rng.randrange(2, group.p)
                if pow(a, group.q, group.p) == group.p - 1:
                    assert not group.contains(a)
                    seen += 1

    def test_non_safe_storey_keeps_pow(self, tower):
        top = tower.levels[-1]
        assert top.p != 2 * top.q + 1  # the tower's top storey has cofactor > 2
        rng = random.Random(14)
        for _ in range(200):
            a = rng.randrange(0, top.p + 2)
            assert top.contains(a) == _by_pow(top, a)


# ---------------------------------------------------------------------------
# Miller replay vs the textbook loop
# ---------------------------------------------------------------------------

def _textbook_tate(params, P, Q) -> Fp2:
    """``ê(P, Q)`` by the Miller loop with every vertical and denominator
    kept, on :class:`Fp2` objects, then ``(conj(f)/f)^((p+1)/r)``."""
    p, r = params.p, params.r
    S = Q.distort()

    def line(t, u):
        if t.is_infinity or u.is_infinity:
            return S.x - (u if t.is_infinity else t).x
        if t.x == u.x:
            if t.y == -u.y:
                return S.x - t.x
            lam = ((t.x * t.x).scalar_mul(3) + Fp2.one(p)) / t.y.scalar_mul(2)
        else:
            lam = (u.y - t.y) / (u.x - t.x)
        return S.y - t.y - lam * (S.x - t.x)

    f, T = Fp2.one(p), P
    for bit in bin(r)[3:]:
        two_t = T + T
        f = f * f * line(T, T) / line(two_t, -two_t)
        T = two_t
        if bit == "1":
            t_plus_p = T + P
            f = f * line(T, P) / line(t_plus_p, -t_plus_p)
            T = t_plus_p
    return (f.conjugate() / f).pow((p + 1) // r)


class TestMillerReplay:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_table_pair_equals_tate_pairing(self, curve, enabled):
        params, _ = curve
        fastexp.configure(enabled=enabled)
        backend = TatePairing(params)
        rng = random.Random(21)
        for _ in range(3):
            P = backend.random_element(rng)
            table = MillerTable(params, P)
            backend.warm_pair(P)
            for _ in range(3):
                Q = backend.random_element(rng)
                want = _textbook_tate(params, P, Q)
                assert table.pair(Q) == want
                assert tate_pairing(params, P, Q) == want
                assert backend.pair(P, Q) == want
                assert backend.pair(Q, P) == want

    def test_state_roundtrip_and_range_checks(self, curve):
        params, backend = curve
        table = MillerTable(params, backend.g)
        state = table.to_state()
        clone = MillerTable.from_state(params, state)
        Q = backend.random_element(random.Random(22))
        assert clone.raw(Q) == table.raw(Q)
        lam, k = state["steps"][0][1:]
        for bad in ((True, params.p, k), (True, lam, -1), (1, lam, k),
                    (False, None, None), (True, lam, None)):
            broken = dict(state, steps=[bad] + state["steps"][1:])
            with pytest.raises(ValueError):
                MillerTable.from_state(params, broken)
        xa, xb, ya, yb, inf = state["point"]
        with pytest.raises(ValueError):
            MillerTable.from_state(params, dict(state, point=(xa + params.p, xb, ya, yb, inf)))


# ---------------------------------------------------------------------------
# μ_r membership
# ---------------------------------------------------------------------------

class TestGtContains:
    def test_rejects_outside_mu_r(self, curve):
        params, backend = curve
        p, r = params.p, params.r
        x = backend.gt_generator()
        assert backend.gt_contains(x)
        assert backend.gt_contains(backend.gt_one())
        assert not backend.gt_contains(Fp2.zero(p))
        assert not backend.gt_contains(-x)          # norm 1, order 2r
        assert not backend.gt_contains(Fp2(2, 0, p))  # norm ≠ 1
        # an element of μ_(p+1) outside μ_r: z^((p-1)·r) ≠ 1 has order
        # dividing the cofactor (p+1)/r
        rng = random.Random(31)
        while True:
            z = Fp2(rng.randrange(1, p), rng.randrange(1, p), p)
            w = (z.conjugate() / z).pow(r)
            if not w.is_one():
                break
        assert w.norm() == 1
        assert not backend.gt_contains(w)
        assert not backend.gt_contains(w * x)


# ---------------------------------------------------------------------------
# the transcript statement with one final exponentiation
# ---------------------------------------------------------------------------

class TestStatement:
    def _check(self, backend, rng):
        keypair = cl_keygen(backend, rng)
        X = keypair.public.X
        for _ in range(3):
            sig_a, sig_c = backend.random_element(rng), backend.random_element(rng)
            old = backend.gt_mul(
                backend.pair(backend.g, sig_c),
                backend.gt_exp(backend.pair(X, sig_a), backend.order - 1),
            )
            assert backend.pair_ratio(backend.g, sig_c, X, sig_a) == old

    def test_tate(self, curve):
        _, backend = curve
        self._check(backend, random.Random(41))

    def test_tate_without_tables(self, curve):
        params, _ = curve
        fastexp.configure(enabled=False)
        self._check(TatePairing(params), random.Random(42))

    def test_toy(self):
        rng = random.Random(43)
        self._check(ToyPairing.generate(64, rng), rng)


class TestPairableScreen:
    def test_non_rational_signature_point_is_refused(self, dec_params, rng, monkeypatch):
        """The Miller loop reads only real parts, so a token whose curve
        point carries an imaginary part is refused before any pairing."""
        backend = dec_params.backend
        bank_kp = cl_keygen(backend, rng)
        secret, request = begin_withdrawal(dec_params, rng)
        signature = cl_blind_issue(backend, bank_kp, request, rng)
        coin = finish_withdrawal(dec_params, bank_kp.public, secret, signature)
        tokens = [create_spend(dec_params, bank_kp.public, coin.secret, coin.signature,
                               NodeId(1, i), rng) for i in range(2)]
        c = tokens[1].sig_c
        p = backend.params.p
        bent = Point(Fp2(c.x.a, 1, p), c.y, p)
        assert backend.pairable(c) and not backend.pairable(bent)
        tokens[1] = dataclasses.replace(tokens[1], sig_c=bent)
        pairings = []
        real_final = tate.final_exponentiation
        with monkeypatch.context() as patch:
            patch.setattr(tate, "final_exponentiation",
                          lambda *args: pairings.append(1) or real_final(*args))
            assert not verify_spend(dec_params, bank_kp.public, tokens[1])
        assert pairings == []
        assert [verify_spend(dec_params, bank_kp.public, t) for t in tokens] == [True, False]
        assert batch_verify_spends(dec_params, bank_kp.public, tokens, rng) == [True, False]


# ---------------------------------------------------------------------------
# the kernel against the Python loops, on hostile input
# ---------------------------------------------------------------------------

needs_kernel = pytest.mark.skipif(fastexp.KERNEL is None,
                                  reason="the verification kernel is not built")


def _outcome(fn, *args):
    """What *fn* returns, or the class of what it raises."""
    try:
        return "value", fn(*args)
    except Exception as exc:  # the class is the outcome compared
        return "raises", type(exc)


def _both_paths(fn, *args):
    """``(kernel outcome, Python outcome)`` of one call."""
    kernel = fastexp.KERNEL
    on_kernel = _outcome(fn, *args)
    fastexp.KERNEL = None
    try:
        on_python = _outcome(fn, *args)
    finally:
        fastexp.KERNEL = kernel
    return on_kernel, on_python


def _hostile(p: int, bits: int):
    """The values every entry point is fed, for modulus *p*."""
    edges = [0, 1, 2, p - 1, p, p + 1, -1, -p, 1 << bits, (1 << bits) - 1,
             True, False, 2.0, "7", None, 3 + 0j]
    return st.one_of(
        st.sampled_from(edges),
        st.integers(min_value=-(1 << (bits + 8)), max_value=1 << (bits + 8)),
        st.integers(min_value=1 << 2048, max_value=1 << 2100),
        st.integers(max_value=-1),
    )


@pytest.fixture(scope="module")
def edge_statement():
    """A hidden-child edge statement over ``setup(3)``'s storeys 1 and 2
    (``verify_edge``'s arguments before the proof) and its proof."""
    rng = random.Random(62)
    params = setup(3, rng)
    parent, child = params.tower.group(1), params.tower.group(2)
    (g, h), (g2, h2) = params.commit_bases(1), params.commit_bases(2)
    gamma = params.edge_generator(1, 1)
    value, r1, r2 = (parent.random_exponent(rng) for _ in range(3))
    c_parent = parent.mul(parent.exp(g, value), parent.exp(h, r1))
    c_child = child.mul(child.exp(g2, parent.exp(gamma, value)), child.exp(h2, r2))
    args = (parent, g, h, c_parent, gamma, child, g2, h2, c_child)
    proof = prove_edge(*args, value, r1, r2, rng, Transcript(b"edge"))
    return args, proof


@pytest.fixture(scope="module")
def p1024_group():
    return SchnorrGroup(p=P1024, q=(P1024 - 1) // 2, g=4)


@pytest.fixture(scope="module")
def storeys():
    return build_tower(3, random.Random(11)).levels


@needs_kernel
class TestHostileInput:
    @settings(max_examples=60)
    @given(data=st.data())
    def test_table_exp(self, data, storeys, p1024_group):
        for group in (*storeys, p1024_group):
            for table in (fastexp.FixedBaseTable(group.g, group.p, order=group.q),
                          fastexp.FixedBaseTable(group.g, group.p, bits=group.q.bit_length())):
                e = data.draw(_hostile(group.q, group.q.bit_length()))
                on_kernel, on_python = _both_paths(table.exp, e)
                assert on_kernel == on_python, (group.p, e)

    @settings(max_examples=60)
    @given(data=st.data())
    def test_membership(self, data, storeys, p1024_group):
        for group in (*storeys, p1024_group):
            batch = data.draw(st.lists(_hostile(group.p, group.p.bit_length()), max_size=4))
            batch += [group.power(data.draw(st.integers(1, group.q - 1)))]
            for elements in (batch, batch[::-1], [batch[0]]):
                on_kernel, on_python = _both_paths(group.contains_all, elements)
                assert on_kernel == on_python, (group.p, elements)
            on_kernel, on_python = _both_paths(group.contains, batch[0])
            assert on_kernel == on_python, (group.p, batch[0])

    @settings(max_examples=60)
    @given(data=st.data())
    def test_miller_replay(self, data, curve):
        params, backend = curve
        table = MillerTable(params, backend.g)
        p = params.p
        xq = data.draw(_hostile(p, p.bit_length()))
        yq = data.draw(_hostile(p, p.bit_length()))
        point = SimpleNamespace(is_infinity=False, x=SimpleNamespace(a=xq),
                                y=SimpleNamespace(a=yq))
        on_kernel, on_python = _both_paths(table.raw, point)
        assert on_kernel == on_python, (xq, yq)

    @settings(max_examples=60)
    @given(data=st.data())
    def test_fp2_pow(self, data, curve):
        params, _ = curve
        for p in (params.p, P1024):
            a, b = (data.draw(_hostile(p, p.bit_length())) for _ in range(2))
            e = data.draw(st.one_of(_hostile(params.r, params.r.bit_length()),
                                    st.sampled_from([params.r, (p + 1) // params.r])))
            modulus = data.draw(st.sampled_from([p, p, 1, 2, 0, -p, True]))
            on_kernel, on_python = _both_paths(_fp2_pow, a, b, e, modulus)
            assert on_kernel == on_python, (a, b, e, modulus)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_edge_rounds(self, data, edge_statement):
        """Hostile values in any slot of an edge proof or its statement:
        ``verify_edge`` on ``edge_rounds`` decides as its Python loop."""
        args, proof = edge_statement
        parent, child = args[0], args[5]
        for grp, bases in ((parent, args[1:3] + args[4:5]), (child, args[6:8])):
            grp.warm_fixed(*bases)
        u, t, responses = (list(proof.commitments_u), list(proof.commitments_t),
                           [list(r) for r in proof.responses])
        slot = data.draw(st.sampled_from(["c_parent", "c_child", "u", "t", "response"]))
        j = data.draw(st.integers(0, proof.rounds - 1))
        group = parent if slot in ("c_parent", "u", "response") else child
        value = data.draw(_hostile(group.p, group.p.bit_length()))
        statement = list(args)
        if slot == "c_parent":
            statement[3] = value
        elif slot == "c_child":
            statement[8] = value
        elif slot == "u":
            u[j] = value
        elif slot == "t":
            t[j] = value
        else:
            responses[j][data.draw(st.integers(0, 2))] = value
        hostile = CommittedEdgeProof(tuple(u), tuple(t), tuple(map(tuple, responses)))

        def verify():
            return verify_edge(*statement, hostile, Transcript(b"edge"))

        on_kernel, on_python = _both_paths(verify)
        assert on_kernel == on_python, (slot, j, value)

    def test_malformed_kernel_calls_raise(self):
        kernel = fastexp.KERNEL
        steps = kernel.pack([1, 2, 3], 1)
        table = (kernel.pack(range(4), 1), 1, 2)
        rounds = [[table] * 5, 1, 1, 0, (1,), (1,), ((1, 1, 1),), 7, 3, 7, 3]

        def edge_rounds(**changes):
            args = list(rounds)
            for index, value in changes.items():
                args[int(index[1:])] = value
            return lambda: kernel.edge_rounds(*args)

        assert edge_rounds()() == (1, 0)
        assert edge_rounds(a4=(2,))() == (0, 1)
        assert edge_rounds(a5=(2,))() == (0, 2)
        for call, error in [
            (lambda: kernel.pack([-1], 1), ValueError),
            (lambda: kernel.pack([1 << 64], 1), ValueError),
            (lambda: kernel.pack(["1"], 1), TypeError),
            (lambda: kernel.pack([1], 0), ValueError),
            (lambda: kernel.replay(steps + b"x", 1, 1, 1, 7), ValueError),
            (lambda: kernel.replay(bytearray(steps), 1, 1, 1, 7), TypeError),
            (lambda: kernel.replay(steps, 1, 1, 1, 0), ValueError),
            (lambda: kernel.replay(steps, 1, 1.0, 1, 7), TypeError),
            (lambda: kernel.table_exp(kernel.pack(range(4), 1), 1, 2, 1 << 2, 7), ValueError),
            (lambda: kernel.table_exp(kernel.pack(range(4), 1), 1, 2, -1, 7), ValueError),
            (lambda: kernel.table_exp(kernel.pack(range(4), 1), 1, 0, 1, 7), ValueError),
            (lambda: kernel.legendre_all([1], 8), ValueError),
            (lambda: kernel.legendre_all(5, 7), TypeError),
            (lambda: kernel.fp2_pow(1, 1, 0, 7), ValueError),
            (lambda: kernel.fp2_pow(1, 1), TypeError),
            (lambda: kernel.powm(2, -1, 7), ValueError),
            (lambda: kernel.powm(2, 3, 0), ValueError),
            (lambda: kernel.powm(2, 3, -7), ValueError),
            (lambda: kernel.powm(2.0, 3, 7), TypeError),
            (lambda: kernel.powm(2, 3), TypeError),
            (edge_rounds(a0=[table] * 4), ValueError),
            (edge_rounds(a0=[table[:2]] * 5), ValueError),
            (edge_rounds(a0=[(table[0], 1, 0)] * 5), ValueError),
            (edge_rounds(a0=[(table[0] + b"x", 1, 2)] * 5), ValueError),
            (edge_rounds(a0={table}), TypeError),
            (edge_rounds(a5=(1, 2)), ValueError),
            (edge_rounds(a6=((1, 1),)), ValueError),
            (edge_rounds(a6=({1, 2, 3},)), TypeError),
            (edge_rounds(a4=iter((1,))), TypeError),
            (edge_rounds(a4=("1",)), TypeError),
            (edge_rounds(a6=((1 << 9, 1, 1),), a8=1 << 10), ValueError),
            (edge_rounds(a7=0), ValueError),
            (edge_rounds(a10=-3), ValueError),
            (edge_rounds(a1=1.0), TypeError),
            (lambda: kernel.edge_rounds(*rounds[:10]), TypeError),
            (lambda: kernel.int_run(b"\x03\x00", 0, 1, []), ValueError),
            (lambda: kernel.int_run(b"\x03\x02\x00\x01", 0, 1, []), ValueError),
            (lambda: kernel.int_run(b"\x03\x05\x01", 0, 1, []), ValueError),
            (lambda: kernel.int_run(b"\x08\x05\x03\x01\x01", 0, 1, []), ValueError),
            (lambda: kernel.int_run(b"", 1, 1, []), ValueError),
            (lambda: kernel.int_run(b"", 0, -1, []), ValueError),
            (lambda: kernel.int_run(bytearray(b"\x03\x01\x01"), 0, 1, []), TypeError),
            (lambda: kernel.int_run(b"\x03\x01\x01", 0, 1, ()), TypeError),
        ]:
            with pytest.raises(error):
                call()


def _powm_operands(*, modulus: bool = False):
    """Hostile ``powm`` operands: signs, zero, even and odd, 600-bit, and
    values that are not ints (never ``None`` as the modulus: ``pow(b, e,
    None)`` is ``b ** e``, unbounded for a 600-bit ``e``)."""
    big = 1 << 600
    edges = [0, 1, 2, 3, 4, -1, -2, -7, big - 1, big, big + 1, -big - 1,
             True, False, 2.0, "7", 3 + 0j] + ([] if modulus else [None])
    return st.one_of(
        st.sampled_from(edges),
        st.integers(min_value=-(1 << 70), max_value=1 << 70),
        st.integers(min_value=-big, max_value=big),
    )


@needs_kernel
class TestPowm:
    @settings(max_examples=500)
    @given(b=_powm_operands(), e=_powm_operands(), m=_powm_operands(modulus=True))
    def test_raises_or_equals_pow(self, b, e, m):
        """A value from the kernel is ``pow``'s value; the kernel raises
        wherever ``pow`` does, and besides only on a negative exponent
        or a modulus below 1, which no caller passes."""
        want = _outcome(pow, b, e, m)
        got = _outcome(fastexp.KERNEL.powm, b, e, m)
        if got[0] == "value":
            assert got == want, (b, e, m)
            return
        assert got[1] in (TypeError, ValueError), (b, e, m)
        if want[0] == "value":
            assert e < 0 or m < 1, (b, e, m)

    def test_storey_sized_operands(self, storeys, p1024_group):
        rng = random.Random(54)
        for group in (*storeys, p1024_group):
            for _ in range(20):
                b = rng.randrange(-group.p, 2 * group.p)
                e = rng.randrange(1 << 600)
                assert fastexp.KERNEL.powm(b, e, group.p) == pow(b, e, group.p)
                assert fastexp.KERNEL.powm(b, e % group.q, group.p) == group.exp(b, e)

    def test_the_helper_counts_its_path(self):
        assert fastexp.powm(3, 5, 7) == pow(3, 5, 7)
        fastexp.KERNEL, kernel = None, fastexp.KERNEL
        try:
            assert fastexp.powm(3, 5, 7) == pow(3, 5, 7)
        finally:
            fastexp.KERNEL = kernel
        row = fastexp.stats()["kernel"]
        assert (row["powm_c"], row["powm_py"]) == (1, 1)


def test_powm_is_reached_only_from_verifiers_and_membership_checks():
    """``powm`` is for public values: no prover, issuer or key
    generation reaches it, only the functions named here."""
    import ast
    import pathlib

    import repro

    root = pathlib.Path(repro.__file__).parent
    callers = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                named = (isinstance(node, ast.Attribute) and node.attr == "powm") or (
                    isinstance(node, ast.Name) and node.id == "powm")
                if named and fn.name != "powm":
                    callers.add(f"{path.relative_to(root).as_posix()}::{fn.name}")
    assert callers == {
        "crypto/groups.py::contains_all",
        "crypto/zkp/committed_double_log.py::verify_edge",
        "crypto/zkp/committed_double_log.py::verify_revealed_edge",
        "crypto/zkp/equality.py::verify_equality_deferred",
    }


@needs_kernel
class TestRebuiltTables:
    def test_a_miller_table_from_state_packs_its_own_buffer(self, curve):
        params, backend = curve
        rng = random.Random(51)
        table = MillerTable(params, backend.random_element(rng))
        points = [backend.random_element(rng) for _ in range(3)]
        want = [table.raw(Q) for Q in points]
        assert table._packed is not None
        clone = MillerTable.from_state(params, table.to_state())
        assert clone._packed is None
        assert [clone.raw(Q) for Q in points] == want
        assert clone._packed == table._packed
        fastexp.KERNEL, kernel = None, fastexp.KERNEL
        try:
            assert [clone.raw(Q) for Q in points] == want
        finally:
            fastexp.KERNEL = kernel

    def test_installed_tables_pair_like_the_exporter(self, curve):
        params, backend = curve
        rng = random.Random(52)
        source = TatePairing(params)
        fixed = source.random_element(rng)
        source.warm_pair(fixed)
        source.warm_exp_fixed(fixed)
        points = [source.random_element(rng) for _ in range(3)]
        want = [source.pair(fixed, Q) for Q in points]
        adopter = TatePairing(params)
        assert adopter.install_tables(source.export_tables(), register=False) == 2
        calls = fastexp.KERNEL_CALLS["replay_c"]
        assert [adopter.pair(fixed, Q) for Q in points] == want
        assert fastexp.KERNEL_CALLS["replay_c"] == calls + len(points)

    def test_window_table_packs_on_first_use_and_agrees(self, p1024_group):
        group = p1024_group
        table = fastexp.FixedBaseTable(group.g, group.p, order=group.q)
        assert table._packed is None
        rng = random.Random(53)
        exps = [rng.randrange(group.q) for _ in range(5)]
        assert [table.exp(e) for e in exps] == [pow(group.g, e, group.p) for e in exps]
        buf, limbs = table._packed
        assert limbs == 1024 // fastexp.KERNEL.LIMB_BITS
        assert len(buf) == table.table_size * limbs * fastexp.KERNEL.LIMB_BITS // 8


def test_stats_report_the_kernel_row(storeys):
    group = storeys[0]
    group.contains_all([group.g, group.g])
    row = fastexp.stats()["kernel"]
    assert row["loaded"] == int(fastexp.KERNEL is not None)
    path = "c" if fastexp.KERNEL is not None else "py"
    assert row[f"legendre_{path}"] == 2
    assert all(row[column] == 0 for column in ("hits", "misses", "builds", "tables"))
    fastexp.reset()
    assert all(value == 0 for key, value in fastexp.stats()["kernel"].items() if key != "loaded")


def test_a_failed_build_warns_once_and_leaves_the_python_path(tmp_path, monkeypatch, caplog):
    import shutil

    monkeypatch.setattr(shutil, "which", lambda name: None)
    with caplog.at_level("WARNING", logger="repro.crypto.fastexp"):
        assert fastexp._load_kernel(str(tmp_path / "cache")) is None
    assert [r.getMessage() for r in caplog.records if "kernel" in r.getMessage()] == [
        "verification kernel unavailable, the Python loops run: no gcc on PATH"]
    with pytest.raises(fastexp.KernelBuildError, match="no gcc"):
        fastexp.build_kernel(str(tmp_path / "cache"))


def test_an_unwritable_cache_is_named(tmp_path, monkeypatch):
    import shutil

    monkeypatch.setattr(shutil, "which", lambda name: "/usr/bin/" + name)
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    with pytest.raises(fastexp.KernelBuildError, match="not writable"):
        fastexp.build_kernel(str(blocker / "cache"))


def test_a_missing_gmp_header_is_named(tmp_path, monkeypatch):
    import shutil
    import subprocess

    monkeypatch.setattr(shutil, "which", lambda name: "/usr/bin/" + name)
    monkeypatch.setattr(subprocess, "run", lambda *a, **k: SimpleNamespace(
        returncode=1, stderr="_kernel.c:23:10: fatal error: gmp.h: No such file or directory"))
    with pytest.raises(fastexp.KernelBuildError, match="^no gmp.h"):
        fastexp.build_kernel(str(tmp_path / "cache"))
    assert list((tmp_path / "cache").iterdir()) == []  # the temporary file is gone


# every class above once more on the forced Python path
for _cls in (TestLegendreMembership, TestMillerReplay,
             TestGtContains, TestStatement, TestPairableScreen):
    globals()[_cls.__name__ + "OnPython"] = type(
        _cls.__name__ + "OnPython", (_cls,), {"on_python": True})
