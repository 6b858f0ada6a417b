/*
 * The verification kernel: the loops that lead a deposit's profile,
 * on libgmp's mpz, and the canonical codec's two walks.
 *
 *   replay(buf, nlimbs, xq, yq, p)        Miller replay of a MillerTable
 *   table_exp(buf, nlimbs, window, e, m)  one FixedBaseTable exponentiation
 *   edge_rounds(tables, c_parent, c_child, bits, us, ts, responses,
 *               pp, pq, cp, cq)           verify_edge's cut-and-choose rounds
 *   legendre_all(elements, p)             every Legendre symbol (a/p) == 1
 *   fp2_pow(a, b, e, p)                   (a + b·i)^e in F_{p²}
 *   powm(b, e, m)                         b^e mod m, a variable base
 *   codec_encode(value, by_type, encoded, builtin, max_depth)
 *                                         net/codec.py's _put walk
 *   codec_decode(data, key, by_tag, build, max_depth)
 *                                         net/codec.py's _take walk
 *
 * plus pack(values, nlimbs), which lays a table's Python rows or steps
 * out as one buffer of fixed-width native limbs (LIMB_BITS bits each).
 * Each function is the Python loop it replaces (crypto/fastexp.py,
 * crypto/pairing/tate.py, crypto/ntheory.py,
 * crypto/zkp/committed_double_log.py, net/codec.py), step for step, or
 * the built-in pow (powm), and returns the same values.  The arithmetic
 * entries' callers keep every range, type and membership check in
 * Python and call in only with exact ints the Python loop accepts; what
 * is checked there only keeps a malformed call from reading outside its
 * buffer.
 *
 * The codec entries are the exception on both counts.  codec_decode
 * reads attacker bytes itself (a frame's body, straight off the
 * socket): it applies every check of the codec's decode contract in
 * the Python walk's order and raises the same exception with the same
 * message, and every length it reads is compared with the bytes left
 * before it is used.  Both codec entries call back into Python (a
 * registered class's fields getter, codec._build, codec._builtin, a
 * key's comparison, a str subclass's methods), so they use none of the
 * shared mpz temporaries below, hold no borrowed reference across a
 * callback, and keep a half-decoded container's items in a C array, not
 * in a Python object.  Both stop at max_depth containers deep, so
 * neither recursion outgrows the C stack.
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

/* Temporaries shared by the arithmetic entries: such a call runs no
 * Python code and never releases the GIL, so no two calls overlap, and
 * the limbs allocated by the first call are reused by the rest.  The
 * codec entries, which do run Python code, never touch them. */
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

/* -- the canonical codec ----------------------------------------------------- */

/* net/codec.py's tags */
enum { TAG_NONE, TAG_FALSE, TAG_TRUE, TAG_INT_POS, TAG_INT_NEG, TAG_BYTES, TAG_STR, TAG_LIST,
       TAG_TUPLE, TAG_DICT, TAG_OBJ, TAG_FLOAT };

/* attribute names read off a codec._Spec and an Encoded (set up once) */
static PyObject *S_head, *S_fields, *S_names, *S_name, *S_data;

static int
too_deep(void)
{
    PyErr_SetString(PyExc_ValueError, "value nested too deeply");
    return -1;
}

/* The magnitude bytes of a non-negative int v, big-endian, into n bytes. */
static int
magnitude_bytes(PyObject *v, unsigned char *dst, size_t n)
{
#if PY_VERSION_HEX >= 0x030D0000
    return PyLong_AsNativeBytes(v, dst, (Py_ssize_t)n,
                                Py_ASNATIVEBYTES_BIG_ENDIAN | Py_ASNATIVEBYTES_UNSIGNED_BUFFER)
           < 0 ? -1 : 0;
#else
    return _PyLong_AsByteArray((PyLongObject *)v, dst, n, 0, 0);
#endif
}

/* The encoder's output buffer and the codec state it reads: the live
 * _by_type registry, the Encoded class, codec._builtin, MAX_DEPTH. */
typedef struct {
    unsigned char *buf;
    Py_ssize_t len, cap;
    PyObject *by_type, *encoded, *builtin;
    long max_depth;
    unsigned char stack[STACK_BYTES];
} Enc;

/* n more bytes at the end of the output (their address). */
static unsigned char *
reserve(Enc *en, Py_ssize_t n)
{
    if (n > en->cap - en->len) {
        if (n > PY_SSIZE_T_MAX / 4 - en->len) {
            PyErr_NoMemory();
            return NULL;
        }
        Py_ssize_t cap = 2 * (en->len + n);
        unsigned char *buf = en->buf == en->stack ? PyMem_Malloc(cap) : PyMem_Realloc(en->buf, cap);
        if (buf == NULL) {
            PyErr_NoMemory();
            return NULL;
        }
        if (en->buf == en->stack)
            memcpy(buf, en->stack, en->len);
        en->buf = buf;
        en->cap = cap;
    }
    en->len += n;
    return en->buf + en->len - n;
}

static int
put_raw(Enc *en, const void *src, Py_ssize_t n)
{
    unsigned char *at = reserve(en, n);
    if (at == NULL)
        return -1;
    memcpy(at, src, n);
    return 0;
}

/* _put_head: a tag and its length, 7 bits a byte, MSB = continuation. */
static int
put_head(Enc *en, int tag, Py_ssize_t n)
{
    unsigned char *at = reserve(en, 11), *p = at;
    if (at == NULL)
        return -1;
    *p++ = (unsigned char)tag;
    size_t u = (size_t)n;
    for (; u > 0x7F; u >>= 7)
        *p++ = (unsigned char)((u & 0x7F) | 0x80);
    *p++ = (unsigned char)u;
    en->len -= 11 - (p - at);
    return 0;
}

static int
put_int(Enc *en, PyObject *v)
{
    int overflow;
    long long x = PyLong_AsLongLongAndOverflow(v, &overflow);
    if (x == -1 && PyErr_Occurred())
        return -1;
    if (!overflow) {
        unsigned long long mag = x < 0 ? 0ULL - (unsigned long long)x : (unsigned long long)x;
        unsigned char raw[8];
        int n = 0;
        do {
            raw[7 - n++] = (unsigned char)mag;
            mag >>= 8;
        } while (mag);
        if (put_head(en, x < 0 ? TAG_INT_NEG : TAG_INT_POS, n) < 0)
            return -1;
        return put_raw(en, raw + 8 - n, n);
    }
    PyObject *mag = overflow < 0 ? PyNumber_Negative(v) : Py_NewRef(v);
    if (mag == NULL)
        return -1;
    size_t bits = _PyLong_NumBits(mag), n = bits / 8 + (bits % 8 != 0);
    unsigned char *at;
    int rc = (bits == (size_t)-1 && PyErr_Occurred())
             || put_head(en, overflow < 0 ? TAG_INT_NEG : TAG_INT_POS, (Py_ssize_t)n) < 0
             || (at = reserve(en, (Py_ssize_t)n)) == NULL || magnitude_bytes(mag, at, n) < 0;
    Py_DECREF(mag);
    return rc ? -1 : 0;
}

static int enc(Enc *en, PyObject *v, long depth);

/* Each item of a tuple or list, reading a list's length afresh each
 * round as its iterator does. */
static int
enc_items(Enc *en, PyObject *seq, long depth)
{
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(seq); i++) {
        PyObject *item = Py_NewRef(PySequence_Fast_GET_ITEM(seq, i));
        int rc = enc(en, item, depth);
        Py_DECREF(item);
        if (rc < 0)
            return -1;
    }
    return 0;
}

/* A dict: its keys sorted as sorted() sorts them, each a str. */
static int
enc_dict(Enc *en, PyObject *d, long depth)
{
    if (depth >= en->max_depth)
        return too_deep();
    PyObject *keys = PySequence_List(d);
    if (keys == NULL)
        return -1;
    int rc = -1;
    if (PyList_Sort(keys) < 0 || put_head(en, TAG_DICT, PyList_GET_SIZE(keys)) < 0)
        goto done;
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(keys); i++) {
        PyObject *key = PyList_GET_ITEM(keys, i);
        if (!PyUnicode_Check(key)) {
            PyErr_SetString(PyExc_TypeError, "codec dicts must have str keys");
            goto done;
        }
        if (enc(en, key, depth + 1) < 0)
            goto done;
        PyObject *value = PyDict_GetItemWithError(d, key);
        if (value == NULL) {
            if (!PyErr_Occurred())
                PyErr_SetObject(PyExc_KeyError, key);
            goto done;
        }
        Py_INCREF(value);
        int r = enc(en, value, depth + 1);
        Py_DECREF(value);
        if (r < 0)
            goto done;
    }
    rc = 0;
done:
    Py_DECREF(keys);
    return rc;
}

/* A registered dataclass: spec.head, then spec.fields(obj). */
static int
enc_obj(Enc *en, PyObject *spec, PyObject *v, long depth)
{
    if (depth >= en->max_depth)
        return too_deep();
    PyObject *head = PyObject_GetAttr(spec, S_head), *fields = NULL, *items = NULL;
    char *raw;
    Py_ssize_t n;
    int rc = -1;
    if (head == NULL || PyBytes_AsStringAndSize(head, &raw, &n) < 0 || put_raw(en, raw, n) < 0)
        goto done;
    fields = PyObject_GetAttr(spec, S_fields);
    if (fields == NULL || (items = PyObject_CallOneArg(fields, v)) == NULL)
        goto done;
    PyObject *seq = PySequence_Fast(items, "codec fields must be a sequence");
    if (seq == NULL)
        goto done;
    rc = enc_items(en, seq, depth + 1);
    Py_DECREF(seq);
done:
    Py_XDECREF(head);
    Py_XDECREF(fields);
    Py_XDECREF(items);
    return rc;
}

/* Encoded: its data copied verbatim, as bytearray += data would. */
static int
enc_verbatim(Enc *en, PyObject *v)
{
    PyObject *data = PyObject_GetAttr(v, S_data);
    if (data == NULL)
        return -1;
    Py_buffer view;
    int rc = PyObject_GetBuffer(data, &view, PyBUF_SIMPLE);
    if (rc < 0) {
        PyErr_Clear();
        PyErr_Format(PyExc_TypeError, "can't concat %.100s to bytearray", Py_TYPE(data)->tp_name);
    } else {
        rc = put_raw(en, view.buf, view.len);
        PyBuffer_Release(&view);
    }
    Py_DECREF(data);
    return rc;
}

/* codec._put: the value v, depth containers deep. */
static int
enc(Enc *en, PyObject *v, long depth)
{
    PyTypeObject *t = Py_TYPE(v);
    if (t == &PyTuple_Type || t == &PyList_Type) {
        if (depth >= en->max_depth)
            return too_deep();
        if (put_head(en, t == &PyTuple_Type ? TAG_TUPLE : TAG_LIST, Py_SIZE(v)) < 0)
            return -1;
        return enc_items(en, v, depth + 1);
    }
    if (t == &PyLong_Type)
        return put_int(en, v);
    if (t == &PyUnicode_Type || t == &PyBytes_Type) {
        Py_ssize_t n;
        const char *raw;
        if (t == &PyBytes_Type) {
            raw = PyBytes_AS_STRING(v);
            n = PyBytes_GET_SIZE(v);
        } else if ((raw = PyUnicode_AsUTF8AndSize(v, &n)) == NULL) {
            return -1;
        }
        if (put_head(en, t == &PyBytes_Type ? TAG_BYTES : TAG_STR, n) < 0)
            return -1;
        return put_raw(en, raw, n);
    }
    if (v == Py_None || t == &PyBool_Type) {
        unsigned char tag = v == Py_None ? TAG_NONE : v == Py_True ? TAG_TRUE : TAG_FALSE;
        return put_raw(en, &tag, 1);
    }
    if (t == &PyFloat_Type) {
        unsigned char *at = reserve(en, 9);
        if (at == NULL)
            return -1;
        at[0] = TAG_FLOAT;
        return PyFloat_Pack8(PyFloat_AS_DOUBLE(v), (char *)at + 1, 0);
    }
    if (t == &PyDict_Type)
        return enc_dict(en, v, depth);
    /* exact builtins are never registered: only dataclasses are */
    PyObject *spec = PyDict_GetItemWithError(en->by_type, (PyObject *)t);
    if (spec != NULL) {
        Py_INCREF(spec);
        int rc = enc_obj(en, spec, v, depth);
        Py_DECREF(spec);
        return rc;
    }
    if (PyErr_Occurred())
        return -1;
    if ((PyObject *)t == en->encoded)
        return enc_verbatim(en, v);
    PyObject *base = PyObject_CallOneArg(en->builtin, v);
    if (base == NULL)
        return -1;
    int rc = enc(en, base, depth);
    Py_DECREF(base);
    return rc;
}

/* codec_encode(value, by_type, encoded, builtin, max_depth) -> bytes:
 * codec._put's walk. */
static PyObject *
k_codec_encode(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_args(nargs, 5, "codec_encode") < 0)
        return NULL;
    if (!PyDict_CheckExact(args[1])) {
        PyErr_SetString(PyExc_TypeError, "codec_encode() needs the registry dict");
        return NULL;
    }
    Enc en;
    en.buf = en.stack;
    en.len = 0;
    en.cap = STACK_BYTES;
    en.by_type = args[1];
    en.encoded = args[2];
    en.builtin = args[3];
    en.max_depth = PyLong_AsLong(args[4]);
    if (en.max_depth == -1 && PyErr_Occurred())
        return NULL;
    PyObject *out = enc(&en, args[0], 0) < 0 ? NULL
                    : PyBytes_FromStringAndSize((const char *)en.buf, en.len);
    if (en.buf != en.stack)
        PyMem_Free(en.buf);
    return out;
}

/* The decoder's input and the codec state it reads: the live _by_tag
 * registry, codec._build, MAX_DEPTH. */
typedef struct {
    const unsigned char *data;
    Py_ssize_t size;
    PyObject *by_tag, *build;
    long max_depth;
} Dec;

static void *
refuse(const char *message)
{
    PyErr_SetString(PyExc_ValueError, message);
    return NULL;
}

/* The length at *pos (codec._take_len, which the Python walk calls only
 * past a first byte of 128 or more: one below ends the loop at once),
 * saturated at PY_SSIZE_T_MAX (every caller compares it with a byte
 * count, which a larger length exceeds just the same); refuses an
 * overlong one. */
static int
take_len(const Dec *de, Py_ssize_t *pos, Py_ssize_t *n)
{
    size_t value = 0;
    for (Py_ssize_t shift = 0;; shift += 7) {
        if (*pos >= de->size) {
            refuse("truncated value");
            return -1;
        }
        unsigned char byte = de->data[(*pos)++];
        size_t bits = byte & 0x7F;
        if (bits && (shift >= 63 || bits > ((size_t)PY_SSIZE_T_MAX >> shift)))
            value = PY_SSIZE_T_MAX;
        else if (value != PY_SSIZE_T_MAX)
            value |= bits << shift;
        if (!(byte & 0x80)) {
            if (!byte && shift) {
                refuse("overlong length");
                return -1;
            }
            *n = (Py_ssize_t)value;
            return 0;
        }
    }
}

static PyObject *take(const Dec *de, Py_ssize_t *pos, long depth);

/* The registered class whose tag, n bytes long, is at *pos (a new
 * reference), with *pos after the field count and *fields that count;
 * NULL where codec._take refuses it. */
static PyObject *
take_spec(const Dec *de, Py_ssize_t *pos, Py_ssize_t n, Py_ssize_t *fields)
{
    Py_ssize_t avail = de->size - *pos, count;
    PyObject *name = PyBytes_FromStringAndSize((const char *)de->data + *pos, n < avail ? n : avail);
    if (name == NULL)
        return NULL;
    PyObject *spec = PyDict_GetItemWithError(de->by_tag, name);
    Py_DECREF(name);
    if (spec == NULL) {
        if (PyErr_Occurred())
            return NULL;
        if (n > avail)
            return refuse("truncated codec tag");
        PyObject *text = PyUnicode_DecodeUTF8((const char *)de->data + *pos, n, NULL);
        if (text != NULL) {
            PyErr_Format(PyExc_ValueError, "unknown codec tag %R", text);
            Py_DECREF(text);
        }
        return NULL;
    }
    if (n > avail)
        return refuse("truncated value");
    *pos += n;
    Py_INCREF(spec);
    PyObject *names = PyObject_GetAttr(spec, S_names);
    int failed = names == NULL || take_len(de, pos, &count) < 0
                 || (*fields = PyObject_Length(names)) < 0;
    Py_XDECREF(names);
    if (!failed && count != *fields) {
        PyObject *what = PyObject_GetAttr(spec, S_name);
        if (what != NULL) {
            PyErr_Format(PyExc_ValueError, "field count mismatch for %R", what);
            Py_DECREF(what);
        }
        failed = 1;
    }
    if (failed)
        Py_CLEAR(spec);
    return spec;
}

/* A tuple, list or registered object, its tag at *pos.  The items go
 * to a C array first, so that no half-filled Python object exists
 * while an item's decode runs Python code (codec._build). */
static PyObject *
take_seq(const Dec *de, Py_ssize_t *pos, long depth)
{
    if (depth >= de->max_depth) {
        too_deep();
        return NULL;
    }
    unsigned char tag = de->data[(*pos)++];
    Py_ssize_t n, got = 0, cap = 16;
    PyObject *spec = NULL, *stack[16], **items = stack, *out = NULL;
    if (take_len(de, pos, &n) < 0)
        return NULL;
    if (tag == TAG_OBJ) {
        if ((spec = take_spec(de, pos, n, &n)) == NULL)
            return NULL;
    } else if (n > de->size - *pos) {
        return refuse("truncated sequence");
    }
    for (; got < n; got++) {
        if (got == cap) {
            PyObject **grown = PyMem_Malloc(2 * cap * sizeof(PyObject *));
            if (grown == NULL) {
                PyErr_NoMemory();
                goto done;
            }
            memcpy(grown, items, got * sizeof(PyObject *));
            if (items != stack)
                PyMem_Free(items);
            items = grown;
            cap *= 2;
        }
        if ((items[got] = take(de, pos, depth + 1)) == NULL)
            goto done;
    }
    out = tag == TAG_LIST ? PyList_New(n) : PyTuple_New(n);
    if (out == NULL)
        goto done;
    for (; got > 0; got--) { /* the new object takes each reference */
        if (tag == TAG_LIST)
            PyList_SET_ITEM(out, got - 1, items[got - 1]);
        else
            PyTuple_SET_ITEM(out, got - 1, items[got - 1]);
    }
    if (spec != NULL) {
        PyObject *call[2] = {spec, out};
        Py_SETREF(out, PyObject_Vectorcall(de->build, call, 2, NULL));
    }
done:
    for (; got > 0; got--)
        Py_DECREF(items[got - 1]);
    if (items != stack)
        PyMem_Free(items);
    Py_XDECREF(spec);
    return out;
}

/* codec._take_dict: the dict whose length is at *pos; when key is not
 * NULL, span gets the byte span of its value. */
static PyObject *
take_dict(const Dec *de, Py_ssize_t *pos, long depth, PyObject *key, Py_ssize_t *span)
{
    if (depth >= de->max_depth) {
        too_deep();
        return NULL;
    }
    Py_ssize_t n;
    if (take_len(de, pos, &n) < 0)
        return NULL;
    if (n > (de->size - *pos) / 2)
        return refuse("truncated dict");
    PyObject *out = PyDict_New(), *prev = NULL;
    if (out == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *k = take(de, pos, depth + 1), *v;
        if (k == NULL)
            goto fail;
        if (!PyUnicode_CheckExact(k)) {
            Py_DECREF(k);
            refuse("codec dict key must decode to str");
            goto fail;
        }
        if (prev != NULL && PyUnicode_Compare(k, prev) <= 0) {
            Py_DECREF(k);
            refuse("codec dict keys must be strictly ascending");
            goto fail;
        }
        Py_XSETREF(prev, k);
        Py_ssize_t start = *pos;
        if ((v = take(de, pos, depth + 1)) == NULL)
            goto fail;
        int rc = PyDict_SetItem(out, k, v);
        Py_DECREF(v);
        if (rc < 0)
            goto fail;
        if (key != NULL) {
            if ((rc = PyObject_RichCompareBool(k, key, Py_EQ)) < 0)
                goto fail;
            if (rc) {
                span[0] = start;
                span[1] = *pos;
            }
        }
    }
    Py_XDECREF(prev);
    return out;
fail:
    Py_XDECREF(prev);
    Py_DECREF(out);
    return NULL;
}

/* codec._take: the value at *pos, depth containers deep; *pos moves
 * past it. */
static PyObject *
take(const Dec *de, Py_ssize_t *pos, long depth)
{
    if (*pos >= de->size)
        return refuse("truncated value");
    unsigned char tag = de->data[*pos];
    if (tag == TAG_TUPLE || tag == TAG_LIST || tag == TAG_OBJ)
        return take_seq(de, pos, depth);
    (*pos)++;
    Py_ssize_t n;
    const unsigned char *at;
    switch (tag) {
    case TAG_INT_POS:
    case TAG_INT_NEG: {
        if (take_len(de, pos, &n) < 0)
            return NULL;
        if (n > de->size - *pos)
            return refuse("truncated int");
        at = de->data + *pos;
        if (!n || (!at[0] && (tag == TAG_INT_NEG || n != 1)))
            return refuse("non-canonical int");
        *pos += n;
        PyObject *value;
        if (n <= 8) {
            unsigned long long mag = 0;
            for (Py_ssize_t i = 0; i < n; i++)
                mag = mag << 8 | at[i];
            value = PyLong_FromUnsignedLongLong(mag);
        } else {
            value = _PyLong_FromByteArray(at, n, 0, 0);
        }
        if (value == NULL || tag == TAG_INT_POS)
            return value;
        Py_SETREF(value, PyNumber_Negative(value));
        return value;
    }
    case TAG_BYTES:
    case TAG_STR:
        if (take_len(de, pos, &n) < 0)
            return NULL;
        if (n > de->size - *pos)
            return refuse(tag == TAG_BYTES ? "truncated bytes" : "truncated str");
        at = de->data + *pos;
        *pos += n;
        if (tag == TAG_BYTES)
            return PyBytes_FromStringAndSize((const char *)at, n);
        return PyUnicode_DecodeUTF8((const char *)at, n, NULL);
    case TAG_DICT:
        return take_dict(de, pos, depth, NULL, NULL);
    case TAG_NONE:
        Py_RETURN_NONE;
    case TAG_TRUE:
        Py_RETURN_TRUE;
    case TAG_FALSE:
        Py_RETURN_FALSE;
    case TAG_FLOAT: {
        if (*pos + 8 > de->size)
            return refuse("truncated float");
        double x = PyFloat_Unpack8((const char *)de->data + *pos, 0);
        if (x == -1.0 && PyErr_Occurred())
            return NULL;
        *pos += 8;
        return PyFloat_FromDouble(x);
    }
    default: {
        PyObject *raw = PyBytes_FromStringAndSize((const char *)&tag, 1);
        if (raw != NULL) {
            PyErr_Format(PyExc_ValueError, "unknown tag byte %R", raw);
            Py_DECREF(raw);
        }
        return NULL;
    }
    }
}

/* codec_decode(data, key, by_tag, build, max_depth) -> (value, span):
 * codec._decode's walk over the bytes data.  span is None, or, when
 * key is a str and data a dict holding it, the bytes of key's value. */
static PyObject *
k_codec_decode(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_args(nargs, 5, "codec_decode") < 0)
        return NULL;
    if (!PyBytes_CheckExact(args[0]) || !PyDict_CheckExact(args[2])) {
        PyErr_SetString(PyExc_TypeError, "codec_decode() needs bytes and the registry dict");
        return NULL;
    }
    Dec de = {(const unsigned char *)PyBytes_AS_STRING(args[0]), PyBytes_GET_SIZE(args[0]),
              args[2], args[3], PyLong_AsLong(args[4])};
    if (de.max_depth == -1 && PyErr_Occurred())
        return NULL;
    Py_ssize_t pos = 0, span[2] = {-1, -1};
    PyObject *value, *key = args[1] == Py_None ? NULL : args[1];
    if (key != NULL && de.size && de.data[0] == TAG_DICT) {
        pos = 1;
        value = take_dict(&de, &pos, 0, key, span);
    } else {
        value = take(&de, &pos, 0);
    }
    if (value == NULL)
        return NULL;
    if (pos != de.size) {
        Py_DECREF(value);
        return refuse("trailing bytes after value");
    }
    PyObject *slice = span[0] < 0 ? Py_NewRef(Py_None)
                      : PyBytes_FromStringAndSize((const char *)de.data + span[0], span[1] - span[0]);
    if (slice == NULL) {
        Py_DECREF(value);
        return NULL;
    }
    PyObject *out = PyTuple_Pack(2, value, slice);
    Py_DECREF(value);
    Py_DECREF(slice);
    return out;
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
    {"codec_encode", (PyCFunction)(void (*)(void))k_codec_encode, METH_FASTCALL,
     "codec_encode(value, by_type, encoded, builtin, max_depth) -> bytes: codec._put's walk"},
    {"codec_decode", (PyCFunction)(void (*)(void))k_codec_decode, METH_FASTCALL,
     "codec_decode(data, key, by_tag, build, max_depth) -> (value, span): codec._take's walk"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_kernel",
    .m_doc = "The verification kernel on libgmp, and the codec's two walks.",
    .m_size = -1,
    .m_methods = kernel_methods,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    static int ready;
    for (size_t i = 0; !ready && i < sizeof T / sizeof T[0]; i++)
        mpz_init(T[i]);
    if (!ready && ((S_head = PyUnicode_InternFromString("head")) == NULL
                   || (S_fields = PyUnicode_InternFromString("fields")) == NULL
                   || (S_names = PyUnicode_InternFromString("names")) == NULL
                   || (S_name = PyUnicode_InternFromString("name")) == NULL
                   || (S_data = PyUnicode_InternFromString("data")) == NULL))
        return NULL;
    ready = 1;
    PyObject *module = PyModule_Create(&kernel_module);
    if (module != NULL && PyModule_AddIntConstant(module, "LIMB_BITS", GMP_NUMB_BITS) < 0)
        Py_CLEAR(module);
    return module;
}
