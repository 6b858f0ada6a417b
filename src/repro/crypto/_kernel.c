/*
 * The verification kernel: the loops that lead a deposit's profile,
 * on libgmp's mpz.
 *
 *   replay(buf, nlimbs, xq, yq, p)        Miller replay of a MillerTable
 *   table_exp(buf, nlimbs, window, e, m)  one FixedBaseTable exponentiation
 *   edge_rounds(tables, c_parent, c_child, bits, us, ts, responses,
 *               pp, pq, cp, cq)           verify_edge's cut-and-choose rounds
 *   legendre_all(elements, p)             every Legendre symbol (a/p) == 1
 *   fp2_pow(a, b, e, p)                   (a + b·i)^e in F_{p²}
 *   powm(b, e, m)                         b^e mod m, a variable base
 *   int_run(data, pos, count, items)      the codec's runs of short ints
 *
 * plus pack(values, nlimbs), which lays a table's Python rows or steps
 * out as one buffer of fixed-width native limbs (LIMB_BITS bits each).
 * Each function is the Python loop it replaces (crypto/fastexp.py,
 * crypto/pairing/tate.py, crypto/ntheory.py,
 * crypto/zkp/committed_double_log.py, net/codec.py), step for step, or
 * the built-in pow (powm), and returns the same values.  The callers
 * keep every range, type and membership check in Python and call in
 * only with exact ints the Python loop accepts; what is checked here
 * only keeps a malformed call from reading outside its buffer.
 *
 * int_run is the one entry that reads attacker bytes itself: a frame's
 * body, straight off the socket.  It applies the codec's own checks
 * (truncation, empty int, leading zero byte) and raises ValueError
 * where the Python loop would; it builds only ints, tuples and lists,
 * and touches no shared temporary.
 *
 * Nothing here is constant-time.  At the MA every value is public
 * (tokens, proofs, public keys); a spender's own window-table
 * exponentiations also run table_exp on its device, and powm and
 * edge_rounds are called by verifiers only.  Built and loaded by
 * repro.crypto.fastexp.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <gmp.h>

#define LIMB_BYTES ((Py_ssize_t)sizeof(mp_limb_t))
#define STACK_BYTES 512

/* -- int <-> mpz --------------------------------------------------------- */

/* z = v for a Python int v of any sign and size: its two's-complement
 * bytes, imported as a magnitude.  Runs no Python code, so the shared
 * temporaries below stay consistent for the whole of a kernel call. */
static int
to_mpz(mpz_t z, PyObject *v)
{
    if (!PyLong_Check(v)) {
        PyErr_Format(PyExc_TypeError, "kernel operands must be int, not %.100s",
                     Py_TYPE(v)->tp_name);
        return -1;
    }
    int sign = _PyLong_Sign(v);
    if (sign == 0) {
        mpz_set_ui(z, 0);
        return 0;
    }
    size_t bits = _PyLong_NumBits(v);
    if (bits == (size_t)-1 && PyErr_Occurred())
        return -1;
    size_t n = bits / 8 + 1;
    unsigned char stack[STACK_BYTES];
    unsigned char *buf = n <= STACK_BYTES ? stack : PyMem_Malloc(n);
    if (buf == NULL) {
        PyErr_NoMemory();
        return -1;
    }
#if PY_VERSION_HEX >= 0x030D0000
    int rc = PyLong_AsNativeBytes(v, buf, (Py_ssize_t)n, Py_ASNATIVEBYTES_LITTLE_ENDIAN) < 0;
#else
    int rc = _PyLong_AsByteArray((PyLongObject *)v, buf, n, 1, 1);
#endif
    if (rc == 0) {
        if (sign < 0) { /* two's complement -> magnitude */
            int carry = 1;
            for (size_t i = 0; i < n; i++) {
                buf[i] = (unsigned char)(~buf[i] + carry);
                carry = carry && buf[i] == 0;
            }
        }
        mpz_import(z, n, -1, 1, 0, 0, buf);
        if (sign < 0)
            mpz_neg(z, z);
    }
    if (buf != stack)
        PyMem_Free(buf);
    return rc ? -1 : 0;
}

/* A new Python int equal to z >= 0. */
static PyObject *
from_mpz(const mpz_t z)
{
    if (mpz_fits_ulong_p(z))
        return PyLong_FromUnsignedLong(mpz_get_ui(z));
    size_t n = (mpz_sizeinbase(z, 2) + 7) / 8, count = 0;
    unsigned char stack[STACK_BYTES];
    unsigned char *buf = n <= STACK_BYTES ? stack : PyMem_Malloc(n);
    if (buf == NULL)
        return PyErr_NoMemory();
    mpz_export(buf, &count, -1, 1, 0, 0, z);
    PyObject *out = _PyLong_FromByteArray(buf, count, 1, 0);
    if (buf != stack)
        PyMem_Free(buf);
    return out;
}

static PyObject *
pair_from_mpz(const mpz_t a, const mpz_t b)
{
    PyObject *x = from_mpz(a);
    if (x == NULL)
        return NULL;
    PyObject *y = from_mpz(b);
    if (y == NULL) {
        Py_DECREF(x);
        return NULL;
    }
    PyObject *out = PyTuple_Pack(2, x, y);
    Py_DECREF(x);
    Py_DECREF(y);
    return out;
}

/* A modulus operand: an int >= 1. */
static int
to_modulus(mpz_t z, PyObject *v)
{
    if (to_mpz(z, v) < 0)
        return -1;
    if (mpz_sgn(z) <= 0) {
        PyErr_SetString(PyExc_ValueError, "kernel modulus must be positive");
        return -1;
    }
    return 0;
}

static int
check_args(Py_ssize_t nargs, Py_ssize_t want, const char *name)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)", name, want, nargs);
    return -1;
}

/* A packed buffer: a bytes object of whole groups of nlimbs limbs. */
static int
packed(PyObject *buf, PyObject *limbs, Py_ssize_t group, const mp_limb_t **data,
       Py_ssize_t *nlimbs, Py_ssize_t *ngroups)
{
    if (!PyBytes_CheckExact(buf)) {
        PyErr_SetString(PyExc_TypeError, "kernel table must be bytes");
        return -1;
    }
    *nlimbs = PyLong_AsSsize_t(limbs);
    if (*nlimbs == -1 && PyErr_Occurred())
        return -1;
    Py_ssize_t width = *nlimbs * group * LIMB_BYTES;
    if (*nlimbs < 1 || *nlimbs > (1 << 16) || PyBytes_GET_SIZE(buf) % width) {
        PyErr_SetString(PyExc_ValueError, "kernel table has the wrong size");
        return -1;
    }
    *data = (const mp_limb_t *)PyBytes_AS_STRING(buf);
    *ngroups = PyBytes_GET_SIZE(buf) / width;
    return 0;
}

/* Temporaries shared by every call: a call runs no Python code and
 * never releases the GIL, so no two calls overlap, and the limbs
 * allocated by the first call are reused by the rest. */
static mpz_t T[12];

/* -- pack ------------------------------------------------------------------ */

/* pack(values, nlimbs) -> bytes: each value in [0, 2^(64·nlimbs)) as
 * nlimbs native limbs, least significant first. */
static PyObject *
k_pack(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_args(nargs, 2, "pack") < 0)
        return NULL;
    Py_ssize_t nlimbs = PyLong_AsSsize_t(args[1]);
    if (nlimbs == -1 && PyErr_Occurred())
        return NULL;
    if (nlimbs < 1 || nlimbs > (1 << 16)) {
        PyErr_SetString(PyExc_ValueError, "nlimbs out of range");
        return NULL;
    }
    PyObject *seq = PySequence_Fast(args[0], "pack() needs a sequence");
    if (seq == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    PyObject *out = PyBytes_FromStringAndSize(NULL, n * nlimbs * LIMB_BYTES);
    if (out == NULL)
        goto fail;
    mp_limb_t *dst = (mp_limb_t *)PyBytes_AS_STRING(out);
    memset(dst, 0, (size_t)(n * nlimbs * LIMB_BYTES));
    for (Py_ssize_t i = 0; i < n; i++, dst += nlimbs) {
        if (to_mpz(T[0], PySequence_Fast_GET_ITEM(seq, i)) < 0)
            goto fail;
        if (mpz_sgn(T[0]) < 0 || (Py_ssize_t)mpz_size(T[0]) > nlimbs) {
            PyErr_SetString(PyExc_ValueError, "value does not fit the packed width");
            goto fail;
        }
        mpz_export(dst, NULL, -1, sizeof(mp_limb_t), 0, 0, T[0]);
    }
    Py_DECREF(seq);
    return out;
fail:
    Py_DECREF(seq);
    Py_XDECREF(out);
    return NULL;
}

/* -- Miller replay --------------------------------------------------------- */

/* Step flags, one limb group each ahead of λ and k. */
#define STEP_DOUBLE 1
#define STEP_VERTICAL 2

/* replay(buf, nlimbs, xq, yq, p) -> (a, b): tate._replay over packed
 * steps (flag, λ, k). */
static PyObject *
k_replay(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_args(nargs, 5, "replay") < 0)
        return NULL;
    const mp_limb_t *step;
    Py_ssize_t nlimbs, nsteps;
    if (packed(args[0], args[1], 3, &step, &nlimbs, &nsteps) < 0)
        return NULL;
    mpz_ptr xq = T[0], yq = T[1], p = T[2], fa = T[3], fb = T[4], la = T[5], t = T[6], u = T[7];
    if (to_mpz(xq, args[2]) < 0 || to_mpz(yq, args[3]) < 0 || to_modulus(p, args[4]) < 0)
        return NULL;
    mpz_set_ui(fa, 1);
    mpz_set_ui(fb, 0);
    for (Py_ssize_t i = 0; i < nsteps; i++, step += 3 * nlimbs) {
        mp_limb_t flag = step[0];
        if (flag & STEP_DOUBLE) {
            /* (fa + fb)(fa − fb), 2·fa·fb */
            mpz_add(t, fa, fb);
            mpz_sub(u, fa, fb);
            mpz_mul(u, t, u);
            mpz_mul(t, fa, fb);
            mpz_mul_2exp(t, t, 1);
            mpz_mod(fa, u, p);
            mpz_mod(fb, t, p);
            if (flag & STEP_VERTICAL)
                continue;
        }
        mpz_t lam, k;
        mpz_roinit_n(lam, step + nlimbs, nlimbs);
        mpz_roinit_n(k, step + 2 * nlimbs, nlimbs);
        /* la = λ·x_Q + k; (fa·la − fb·y_Q, fa·y_Q + fb·la) */
        mpz_mul(la, lam, xq);
        mpz_add(la, la, k);
        mpz_mul(t, fa, la);
        mpz_submul(t, fb, yq);
        mpz_mul(u, fa, yq);
        mpz_addmul(u, fb, la);
        mpz_mod(fa, t, p);
        mpz_mod(fb, u, p);
    }
    return pair_from_mpz(fa, fb);
}

/* -- fixed-window table exponentiation ------------------------------------- */

/* A packed FixedBaseTable: row i holds the 2^window elements
 * base^(d·2^(window·i)), nlimbs limbs each. */
typedef struct {
    const mp_limb_t *row;
    Py_ssize_t nlimbs, nrows;
    long window;
} Table;

static int
to_table(Table *tb, PyObject *buf, PyObject *limbs, PyObject *window)
{
    tb->window = PyLong_AsLong(window);
    if (tb->window == -1 && PyErr_Occurred())
        return -1;
    if (tb->window < 1 || tb->window > 20) {
        PyErr_SetString(PyExc_ValueError, "window out of range");
        return -1;
    }
    return packed(buf, limbs, (Py_ssize_t)1 << tb->window, &tb->row, &tb->nlimbs, &tb->nrows);
}

/* acc = base^e mod m: FixedBaseTable.exp's loop for 0 <= e < 2^bits,
 * one multiply per non-zero window digit (1 when there is none); t is
 * scratch.  The product is reduced once it reaches three moduli's
 * limbs and at the end, not after every multiply: the same residue. */
static int
window_exp(mpz_ptr acc, const Table *tb, mpz_srcptr e, mpz_srcptr m, mpz_ptr t)
{
    if (mpz_sgn(e) < 0 || mpz_sizeinbase(e, 2) > (size_t)(tb->nrows * tb->window)) {
        PyErr_SetString(PyExc_ValueError, "exponent outside the table");
        return -1;
    }
    mpz_set_ui(acc, 1);
    const mp_limb_t mask = ((mp_limb_t)1 << tb->window) - 1;
    const Py_ssize_t stride = ((Py_ssize_t)1 << tb->window) * tb->nlimbs;
    const size_t top = mpz_sizeinbase(e, 2), wide = 3 * mpz_size(m);
    const mp_limb_t *row = tb->row;
    int reduced = 1;
    for (size_t shift = 0; shift < top; shift += tb->window, row += stride) {
        size_t limb = shift / GMP_NUMB_BITS, bit = shift % GMP_NUMB_BITS;
        mp_limb_t digit = mpz_getlimbn(e, limb) >> bit;
        if (bit + tb->window > GMP_NUMB_BITS)
            digit |= mpz_getlimbn(e, limb + 1) << (GMP_NUMB_BITS - bit);
        digit &= mask;
        if (digit) {
            mpz_t x;
            mpz_roinit_n(x, row + digit * tb->nlimbs, tb->nlimbs);
            mpz_mul(t, acc, x);
            reduced = mpz_size(t) >= wide;
            if (reduced)
                mpz_mod(acc, t, m);
            else
                mpz_swap(acc, t);
        }
    }
    if (!reduced)
        mpz_mod(acc, acc, m);
    return 0;
}

/* table_exp(buf, nlimbs, window, e, m) -> int: one window_exp. */
static PyObject *
k_table_exp(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_args(nargs, 5, "table_exp") < 0)
        return NULL;
    Table tb;
    if (to_table(&tb, args[0], args[1], args[2]) < 0)
        return NULL;
    mpz_ptr e = T[0], m = T[1], acc = T[2], t = T[3];
    if (to_mpz(e, args[3]) < 0 || to_modulus(m, args[4]) < 0 || window_exp(acc, &tb, e, m, t) < 0)
        return NULL;
    return from_mpz(acc);
}

/* -- cut-and-choose edge rounds -------------------------------------------- */

/* A tuple or list (its items read without running Python code). */
static PyObject **
items_of(PyObject *seq, Py_ssize_t *n)
{
    if (PyTuple_CheckExact(seq) || PyList_CheckExact(seq)) {
        *n = PySequence_Fast_GET_SIZE(seq);
        return PySequence_Fast_ITEMS(seq);
    }
    PyErr_SetString(PyExc_TypeError, "edge_rounds() needs tuples or lists");
    return NULL;
}

/* acc = the table's base^(v mod order) mod m, for an int v. */
static int
reduced_exp(mpz_ptr acc, const Table *tb, PyObject *v, mpz_srcptr order, mpz_srcptr m,
            mpz_ptr e, mpz_ptr t)
{
    if (to_mpz(t, v) < 0)
        return -1;
    mpz_mod(e, t, order);
    return window_exp(acc, tb, e, m, t);
}

/* edge_rounds(tables, c_parent, c_child, bits, us, ts, responses, pp,
 * pq, cp, cq) -> (j, equation): verify_edge's loop over its rounds.
 * tables holds (buf, nlimbs, window) for g, h, γ (storey t, modulo pp,
 * exponents reduced modulo pq) and g', h' (storey t+1, modulo cp,
 * modulo cq).  Round j with challenge bit 1 reveals (δ, η, ε) and checks
 *   1: c_parent · g^δ · h^η == u_j          2: c_child^(γ^δ) · h'^ε == t_j
 * and with bit 0 reveals (w, v, σ) and checks
 *   1: g^w · h^v == u_j                      2: g'^(γ^w) · h'^σ == t_j
 * computing γ^δ ahead of equation 1, as the Python loop does.  Returns
 * the round and equation of the first check that fails, or (n, 0). */
static PyObject *
k_edge_rounds(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_args(nargs, 11, "edge_rounds") < 0)
        return NULL;
    Py_ssize_t ntables, n, nts, nrs;
    PyObject **specs = items_of(args[0], &ntables);
    if (specs == NULL)
        return NULL;
    if (ntables != 5) {
        PyErr_SetString(PyExc_ValueError, "edge_rounds() needs five tables");
        return NULL;
    }
    Table tb[5];
    for (int i = 0; i < 5; i++) {
        Py_ssize_t three;
        PyObject **spec = items_of(specs[i], &three);
        if (spec == NULL)
            return NULL;
        if (three != 3) {
            PyErr_SetString(PyExc_ValueError, "a table is (buf, nlimbs, window)");
            return NULL;
        }
        if (to_table(&tb[i], spec[0], spec[1], spec[2]) < 0)
            return NULL;
    }
    PyObject **us = items_of(args[4], &n), **ts = items_of(args[5], &nts),
             **rs = items_of(args[6], &nrs);
    if (us == NULL || ts == NULL || rs == NULL)
        return NULL;
    if (nts != n || nrs != n) {
        PyErr_SetString(PyExc_ValueError, "edge_rounds() needs one u, t and response a round");
        return NULL;
    }
    mpz_ptr cpar = T[0], cch = T[1], bits = T[2], pp = T[3], pq = T[4], cp = T[5], cq = T[6],
            x = T[7], y = T[8], gd = T[9], e = T[10], t = T[11];
    if (to_mpz(cpar, args[1]) < 0 || to_mpz(cch, args[2]) < 0 || to_mpz(bits, args[3]) < 0
        || to_modulus(pp, args[7]) < 0 || to_modulus(pq, args[8]) < 0
        || to_modulus(cp, args[9]) < 0 || to_modulus(cq, args[10]) < 0)
        return NULL;
    for (Py_ssize_t j = 0; j < n; j++) {
        Py_ssize_t three;
        PyObject **r = items_of(rs[j], &three);
        if (r == NULL)
            return NULL;
        if (three != 3) {
            PyErr_SetString(PyExc_ValueError, "a response is three ints");
            return NULL;
        }
        int one = mpz_tstbit(bits, (mp_bitcnt_t)j);
        /* equation 1 (γ^δ first on a 1-bit) */
        if (one && reduced_exp(gd, &tb[2], r[0], pq, pp, e, t) < 0)
            return NULL;
        if (reduced_exp(x, &tb[0], r[0], pq, pp, e, t) < 0
            || reduced_exp(y, &tb[1], r[1], pq, pp, e, t) < 0)
            return NULL;
        mpz_mul(t, x, y);
        mpz_mod(x, t, pp);
        if (one) {
            mpz_mul(t, cpar, x);
            mpz_mod(x, t, pp);
        }
        if (to_mpz(y, us[j]) < 0)
            return NULL;
        if (mpz_cmp(x, y) != 0)
            return Py_BuildValue("(ni)", j, 1);
        /* equation 2 */
        if (one) {
            mpz_powm(x, cch, gd, cp);
        } else {
            if (reduced_exp(gd, &tb[2], r[0], pq, pp, e, t) < 0)
                return NULL;
            mpz_mod(e, gd, cq);
            if (window_exp(x, &tb[3], e, cp, t) < 0)
                return NULL;
        }
        if (reduced_exp(y, &tb[4], r[2], cq, cp, e, t) < 0)
            return NULL;
        mpz_mul(t, x, y);
        mpz_mod(x, t, cp);
        if (to_mpz(y, ts[j]) < 0)
            return NULL;
        if (mpz_cmp(x, y) != 0)
            return Py_BuildValue("(ni)", j, 2);
    }
    return Py_BuildValue("(ni)", n, 0);
}

/* -- Legendre membership --------------------------------------------------- */

/* legendre_all(elements, p) -> bool: whether (a/p) == 1 for every a,
 * for an odd p > 1.  Stops at the first symbol that is not 1, as
 * all(jacobi(a, p) == 1 for a in elements) does. */
static PyObject *
k_legendre_all(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_args(nargs, 2, "legendre_all") < 0)
        return NULL;
    mpz_ptr a = T[0], p = T[1];
    if (to_modulus(p, args[1]) < 0)
        return NULL;
    if (mpz_even_p(p) || mpz_cmp_ui(p, 1) == 0) {
        PyErr_SetString(PyExc_ValueError, "legendre_all() needs an odd p > 1");
        return NULL;
    }
    PyObject *seq = PySequence_Fast(args[0], "legendre_all() needs a sequence");
    if (seq == NULL)
        return NULL;
    PyObject *out = Py_True;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    for (Py_ssize_t i = 0; i < n && out == Py_True; i++) {
        if (to_mpz(a, PySequence_Fast_GET_ITEM(seq, i)) < 0) {
            Py_DECREF(seq);
            return NULL;
        }
        if (mpz_jacobi(a, p) != 1)
            out = Py_False;
    }
    Py_DECREF(seq);
    Py_INCREF(out);
    return out;
}

/* -- F_{p²} powers ---------------------------------------------------------- */

/* fp2_pow(a, b, e, p) -> (a', b'): tate._fp2_pow's square-and-multiply
 * for e >= 1. */
static PyObject *
k_fp2_pow(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_args(nargs, 4, "fp2_pow") < 0)
        return NULL;
    mpz_ptr a = T[0], b = T[1], e = T[2], p = T[3], ra = T[4], rb = T[5], t = T[6], u = T[7];
    if (to_mpz(a, args[0]) < 0 || to_mpz(b, args[1]) < 0 || to_mpz(e, args[2]) < 0
        || to_modulus(p, args[3]) < 0)
        return NULL;
    if (mpz_sgn(e) <= 0) {
        PyErr_SetString(PyExc_ValueError, "fp2_pow() needs e >= 1");
        return NULL;
    }
    mpz_mod(ra, a, p);
    mpz_mod(rb, b, p);
    for (mp_bitcnt_t bit = mpz_sizeinbase(e, 2) - 1; bit-- > 0;) {
        /* ((ra + rb)(ra − rb), 2·ra·rb) */
        mpz_add(t, ra, rb);
        mpz_sub(u, ra, rb);
        mpz_mul(u, t, u);
        mpz_mul(t, ra, rb);
        mpz_mul_2exp(t, t, 1);
        mpz_mod(ra, u, p);
        mpz_mod(rb, t, p);
        if (mpz_tstbit(e, bit)) {
            /* (ra·a − rb·b, ra·b + rb·a) */
            mpz_mul(t, ra, a);
            mpz_submul(t, rb, b);
            mpz_mul(u, ra, b);
            mpz_addmul(u, rb, a);
            mpz_mod(ra, t, p);
            mpz_mod(rb, u, p);
        }
    }
    return pair_from_mpz(ra, rb);
}

/* -- variable-base powers --------------------------------------------------- */

/* powm(b, e, m) -> int: pow(b, e, m) for e >= 0 and m >= 1, on
 * mpz_powm (sliding window, Montgomery for odd m). */
static PyObject *
k_powm(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_args(nargs, 3, "powm") < 0)
        return NULL;
    mpz_ptr b = T[0], e = T[1], m = T[2], r = T[3];
    if (to_mpz(b, args[0]) < 0 || to_mpz(e, args[1]) < 0 || to_modulus(m, args[2]) < 0)
        return NULL;
    if (mpz_sgn(e) < 0) {
        PyErr_SetString(PyExc_ValueError, "powm() needs e >= 0");
        return NULL;
    }
    mpz_powm(r, b, e, m);
    return from_mpz(r);
}

/* -- the codec's integer runs ----------------------------------------------- */

/* net/codec.py's tags */
#define TAG_INT_POS 3
#define TAG_LIST 7
#define TAG_TUPLE 8

/* Whether data[pos] starts a short int (tag, one length byte < 128):
 * 1, with *end after it; 0 when it does not, or its header is cut off
 * (the Python loop reports that); -1 on a truncated or non-canonical
 * one, as the Python loop raises. */
static int
short_int(const unsigned char *data, Py_ssize_t size, Py_ssize_t pos, Py_ssize_t *end)
{
    if (pos + 1 >= size || data[pos] != TAG_INT_POS || data[pos + 1] >= 0x80)
        return 0;
    Py_ssize_t m = data[pos + 1], start = pos + 2;
    if (m > size - start) {
        PyErr_SetString(PyExc_ValueError, "truncated int");
        return -1;
    }
    if (m != 1 && (m == 0 || data[start] == 0)) {
        PyErr_SetString(PyExc_ValueError, "non-canonical int");
        return -1;
    }
    *end = start + m;
    return 1;
}

/* The short int whose header is at p (validated by short_int). */
static PyObject *
int_at(const unsigned char *p)
{
    return _PyLong_FromByteArray(p + 2, p[1], 0, 0);
}

/* Whether data[pos] starts a tuple or list (one length byte) of short
 * ints only: 1 with *out the new object and *end after it; 0 when it
 * does not (nothing consumed); -1 where the Python loop raises. */
static int
short_seq(const unsigned char *data, Py_ssize_t size, Py_ssize_t pos, Py_ssize_t *end,
          PyObject **out)
{
    if (pos + 1 >= size || (data[pos] != TAG_TUPLE && data[pos] != TAG_LIST)
        || data[pos + 1] >= 0x80)
        return 0;
    Py_ssize_t n = data[pos + 1], first = pos + 2, at = first;
    if (n > size - first) {
        PyErr_SetString(PyExc_ValueError, "truncated sequence");
        return -1;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        int r = short_int(data, size, at, &at);
        if (r <= 0)
            return r;
    }
    PyObject *seq = data[pos] == TAG_TUPLE ? PyTuple_New(n) : PyList_New(n);
    if (seq == NULL)
        return -1;
    for (Py_ssize_t i = 0; i < n; i++, first += 2 + data[first + 1]) {
        PyObject *item = int_at(data + first);
        if (item == NULL) {
            Py_DECREF(seq);
            return -1;
        }
        if (data[pos] == TAG_TUPLE)
            PyTuple_SET_ITEM(seq, i, item);
        else
            PyList_SET_ITEM(seq, i, item);
    }
    *out = seq;
    *end = at;
    return 1;
}

/* int_run(data, pos, count, items) -> pos': the codec's sequence loop
 * over at most count items from data[pos], for as long as each is a
 * short non-negative int or a tuple or list (one length byte) of such
 * ints; appends them to the list items and returns the offset after
 * the last.  Stops, consuming nothing, at any other item: the Python
 * loop takes that one. */
static PyObject *
k_int_run(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_args(nargs, 4, "int_run") < 0)
        return NULL;
    if (!PyBytes_CheckExact(args[0]) || !PyList_CheckExact(args[3])) {
        PyErr_SetString(PyExc_TypeError, "int_run() needs bytes and a list");
        return NULL;
    }
    const unsigned char *data = (const unsigned char *)PyBytes_AS_STRING(args[0]);
    Py_ssize_t size = PyBytes_GET_SIZE(args[0]);
    Py_ssize_t pos = PyLong_AsSsize_t(args[1]), count = PyLong_AsSsize_t(args[2]);
    if ((pos == -1 || count == -1) && PyErr_Occurred())
        return NULL;
    if (pos < 0 || pos > size || count < 0) {
        PyErr_SetString(PyExc_ValueError, "int_run() position out of range");
        return NULL;
    }
    for (; count > 0; count--) {
        Py_ssize_t end;
        PyObject *item = NULL;
        int r = short_int(data, size, pos, &end);
        if (r > 0)
            item = int_at(data + pos);
        else if (r == 0)
            r = short_seq(data, size, pos, &end, &item);
        if (r < 0 || (r > 0 && item == NULL))
            return NULL;
        if (r == 0)
            break;
        r = PyList_Append(args[3], item);
        Py_DECREF(item);
        if (r < 0)
            return NULL;
        pos = end;
    }
    return PyLong_FromSsize_t(pos);
}

/* -- module ----------------------------------------------------------------- */

static PyMethodDef kernel_methods[] = {
    {"pack", (PyCFunction)(void (*)(void))k_pack, METH_FASTCALL,
     "pack(values, nlimbs) -> bytes of fixed-width native limbs"},
    {"replay", (PyCFunction)(void (*)(void))k_replay, METH_FASTCALL,
     "replay(buf, nlimbs, xq, yq, p) -> (a, b): a Miller replay"},
    {"table_exp", (PyCFunction)(void (*)(void))k_table_exp, METH_FASTCALL,
     "table_exp(buf, nlimbs, window, e, m) -> int: a window-table exponentiation"},
    {"edge_rounds", (PyCFunction)(void (*)(void))k_edge_rounds, METH_FASTCALL,
     "edge_rounds(tables, c_parent, c_child, bits, us, ts, responses, pp, pq, cp, cq)"
     " -> (j, equation): the first failing check of a cut-and-choose edge proof"},
    {"legendre_all", (PyCFunction)(void (*)(void))k_legendre_all, METH_FASTCALL,
     "legendre_all(elements, p) -> bool: every Legendre symbol is 1"},
    {"fp2_pow", (PyCFunction)(void (*)(void))k_fp2_pow, METH_FASTCALL,
     "fp2_pow(a, b, e, p) -> (a', b'): (a + b·i)^e in F_{p^2}"},
    {"powm", (PyCFunction)(void (*)(void))k_powm, METH_FASTCALL,
     "powm(b, e, m) -> int: b^e mod m for e >= 0, m >= 1"},
    {"int_run", (PyCFunction)(void (*)(void))k_int_run, METH_FASTCALL,
     "int_run(data, pos, count, items) -> pos': the codec's runs of short ints"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_kernel",
    .m_doc = "The verification kernel on libgmp.",
    .m_size = -1,
    .m_methods = kernel_methods,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    static int ready;
    for (size_t i = 0; !ready && i < sizeof T / sizeof T[0]; i++)
        mpz_init(T[i]);
    ready = 1;
    PyObject *module = PyModule_Create(&kernel_module);
    if (module != NULL && PyModule_AddIntConstant(module, "LIMB_BITS", GMP_NUMB_BITS) < 0)
        Py_CLEAR(module);
    return module;
}
