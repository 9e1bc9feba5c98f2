/* The head of a recursion step, compiled: the compensated prefix sum, Q and
   the linear-run scan in one pass.

   step_head(x, delta, trapezoid, out_p, out_g, work) -> (j, k) gives, node
   by node, the bits of the float64 operations of kernels._numpy_head: the
   running sum s of x, the FastTwoSum error e = min(a, b) - (t - max(a, b))
   of each addition t = a + b, the running sum E of those errors, the sum
   s + E at every node after the first, and from it Q = ((s + E) - x * 0.5)
   * delta (trapezoid) or (s + E) * delta (Riemann).  On the leading run of
   nodes where |Q| < 2^-56 it writes P = 1 to out_p and Q to out_g; past the
   run it writes -Q to work.  k is where that run ends, len(x) if it does
   not, and j counts the nodes at its start that were summed scaled (below).

   Those j nodes are the band's subnormal head.  While x[i] and the running
   sum are below 2^-900 the loop works in a domain scaled by 2^128, so that
   no operand or result of an addition is subnormal (an addition or a
   product that meets one takes a microcode assist on x86, which costs more
   than the operation).  The scaling changes no bit of a sum.  For two
   doubles a, b whose sum and scaled sum are finite, fl(2^k a + 2^k b) =
   2^k fl(a + b): an exact sum of at least 2^-1022 in magnitude is rounded
   to 53 bits at the same relative place either way, and a smaller one is a
   multiple of 2^-1074 that needs at most 52 bits, so both are exact.  A
   compare is unchanged by the scaling too, and the compensated recurrence
   uses nothing else.  A subnormal input is scaled, and a sum whose
   unscaled value is subnormal is unscaled, through its integer mantissa;
   every other scaling is a multiplication by a power of two, which is
   exact.  So the split point changes speed, never bits.

   Q is formed in the scaled domain too, from S, 2^128 times s + E:
   - the half h = fl(x * 0.5) is exact for |x| >= 2^-1021; below that x is
     mantissa * 2^-1074, and h is half the mantissa rounded to even, times
     2^-1074, scaled through that integer (scaled_half);
   - the difference d = S - 2^128 h is 2^128 fl((s + E) - h), by the lemma
     above;
   - the product p = fl(d * delta).  Every nonzero d is a multiple of 2^-946
     of magnitude at least 2^-946, and delta a multiple of 2^-128, so for
     2^-76 <= |delta| the exact product is a multiple of 2^-1074 and p is
     normal.  If |p| >= 2^-894, the unscaled product is rounded to 53 bits
     at the same relative place, or to 2^-1022 from just below it on both
     grids, so 2^-128 p is numpy's product.  Below 2^-894 the unscaled
     product is subnormal: numpy rounds it once, to the grid 2^-1074, which
     is the grid 2^-946 here, while p was rounded already.  Rounding p again
     to even gives the same value except where p lies on a tie of the coarse
     grid and is not exact; there the exact error fma(d, delta, -p), a
     nonzero multiple of 2^-1074 (so neither rounded nor flushed), says on
     which side the exact product lies (scaled_product).  The result is
     built from its integer mantissa with p's sign, so a product that
     rounds to zero keeps its sign, and one that rounds up to 2^-1022 has
     the mantissa 2^52, whose bits are those of 2^-1022.

   The head lies inside the linear run, so P = 1 is its value.  A head node
   has |x| < 2^-900 and, before x is added, a running sum below 2^-900 (the
   loop's own exit tests; NaN and inf fail them by their exponent field), so
   |s + E| < 2^-899 and |x * 0.5| < 2^-901, and |Q| < 2^-898 |delta|.  The
   scaled head is entered only for 2^-76 <= |delta| < 2^841 (HEAD_DELTA_MIN,
   HEAD_DELTA): below the upper bound |Q| is at most 2^-57, under 2^-56
   with its roundings, and the numpy head marks every such node linear too;
   the lower bound is the product's, above.  A NaN, zero, infinite or other
   delta gives j = 0, and the plain loop runs from node 0.

   A multiplication sits next to additions (x * 0.5 before the subtraction),
   so a fused multiply-add would change a bit where x * 0.5 rounds; setup.py
   builds this file with contraction off, and the pragma asks the same of a
   compiler that honours it.  The one fma is the explicit call for the
   exact error, which contraction does not touch.  Every operation is
   exactly rounded, so the bits are those of numpy's additions and
   multiplications at any of its SIMD dispatch levels, on every platform
   that evaluates double in double.

   Every argument is read through the buffer protocol: x a C-contiguous 1-d
   buffer of native doubles, out_p, out_g and work writable ones at least as
   long, none overlapping another.  Anything else raises and nothing is
   written, so a float32 or strided buffer is never read as doubles byte
   for byte. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* GCC does not know the pragma; setup.py passes it -ffp-contract=off */
#if defined(__clang__) || !defined(__GNUC__)
#pragma STDC FP_CONTRACT OFF
#endif

#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "the step head needs every double operation rounded to double"
#endif

/* kernels.LINEAR_TAIL: below it exp(-Q) rounds to 1 and -expm1(-Q) to Q */
#define LINEAR_TAIL 0x1p-56
#define SIGN_BIT UINT64_C(0x8000000000000000)
#define EXPONENT_BITS UINT64_C(0x7ff0000000000000)
#define MANTISSA_BITS UINT64_C(0x000fffffffffffff)
/* the head holds x below 2^-900, exponent fields up to 122, and scaled
   running sums below 2^(128-900) */
#define HEAD_EXPONENTS (UINT64_C(123) << 52)
#define HEAD_SCALED_SUM 0x1p-772
/* the scaled head's delta bound: there |Q| < 2^-898 |delta| < 2^-57 */
#define HEAD_DELTA 0x1p841
/* and its lower bound: there a scaled product is normal (scaled_product) */
#define HEAD_DELTA_MIN 0x1p-76

static inline uint64_t
bits_of(double v)
{
    uint64_t u;
    memcpy(&u, &v, sizeof u);
    return u;
}

static inline double
double_of(uint64_t u)
{
    double v;
    memcpy(&v, &u, sizeof v);
    return v;
}

/* 2^128 x for |x| < 2^-900, with no subnormal operand: a subnormal x is
   mantissa * 2^-1074, so 2^128 x is mantissa * 2^-946 */
static inline double
scale_up(double x)
{
    uint64_t u = bits_of(x);
    if ((u & EXPONENT_BITS) == 0)
        return double_of(bits_of((double)(int64_t)(u & MANTISSA_BITS) * 0x1p-946)
                         | (u & SIGN_BIT));
    return x * 0x1p128;
}

/* 2^128 fl(x * 0.5) for |x| < 2^-900, from x and scaled = 2^128 x: exact
   halving from 2^-1021 up; below it x is mantissa * 2^-1074, and the
   product is half the mantissa rounded to even, times 2^-1074 */
static inline double
scaled_half(double x, double scaled)
{
    uint64_t u = bits_of(x) & ~SIGN_BIT;
    if (u >= (UINT64_C(2) << 52))
        return scaled * 0.5;
    uint64_t half = (u >> 1) + (u & (u >> 1) & 1);
    return double_of(bits_of((double)(int64_t)half * 0x1p-946) | (bits_of(x) & SIGN_BIT));
}

/* the unscaled product fl(2^-128 d * delta), from the scaled difference d,
   for 2^-76 <= |delta| < 2^841: p = fl(d * delta) is normal, and below
   2^-894 the unscaled product is subnormal, so the exact product is rounded
   once to the scaled grid 2^-946, the sign of the exact error
   fma(d, delta, -p) deciding a tie that p's own rounding made */
static inline double
scaled_product(double d, double delta)
{
    double p = d * delta;
    double a = fabs(p);
    if (a >= 0x1p-894)
        return p * 0x1p-128;
    double v = a * 0x1p946;  /* below 2^52 */
    double r = (v + 0x1p52) - 0x1p52;  /* v rounded to even */
    if (fabs(v - r) == 0.5) {
        double err = fma(d, delta, -p);
        if (err != 0.0)
            r = (err > 0.0) == (p > 0.0) ? v + 0.5 : v - 0.5;
    }
    return double_of((uint64_t)r | (bits_of(p) & SIGN_BIT));
}

/* 2^-128 v for a v that is 2^128 times a double, with no subnormal result:
   below 2^-894 that double is subnormal, mantissa = 2^946 |v| exactly */
static inline double
scale_down(double v)
{
    double a = fabs(v);
    if (a >= 0x1p-894)
        return v * 0x1p-128;
    return double_of((uint64_t)(int64_t)(a * 0x1p946) | (bits_of(v) & SIGN_BIT));
}

/* Q of one node from its sum, and the linear run: P = 1 and Q while it
   lasts, -Q after it; *k becomes the first node past the run */
static inline void
emit(Py_ssize_t node, double sum, double b, double delta, int trapezoid,
     double *out_p, double *out_g, double *work, Py_ssize_t *k)
{
    double q = (trapezoid ? sum - b * 0.5 : sum) * delta;
    if (*k > node) {
        if (fabs(q) < LINEAR_TAIL) {  /* a NaN ends the run */
            out_p[node] = 1.0;
            out_g[node] = q;
            return;
        }
        *k = node;
    }
    work[node] = -q;
}

/* the step's head on m > 0 nodes; returns the run's end k and sets *head to j */
static Py_ssize_t
head_pass(const double *x, Py_ssize_t m, double delta, int trapezoid,
          double *out_p, double *out_g, double *work, Py_ssize_t *head)
{
    Py_ssize_t i = 1, k = m;
    /* -0.0 + e is e, bit for bit, so the first E is e itself, as the numpy
       accumulate of the errors gives it */
    double s = x[0], E = -0.0;
    if (fabs(delta) >= HEAD_DELTA_MIN && fabs(delta) < HEAD_DELTA
        && (bits_of(s) & ~SIGN_BIT) < HEAD_EXPONENTS) {
        double S = scale_up(s), ES = -0.0;
        out_p[0] = 1.0;
        out_g[0] = scaled_product(trapezoid ? S - scaled_half(s, S) : S, delta);
        for (; i < m && fabs(S) < HEAD_SCALED_SUM
               && (bits_of(x[i]) & ~SIGN_BIT) < HEAD_EXPONENTS; i++) {
            double a = S, b = scale_up(x[i]);
            double t = a + b;
            double big = a > b ? a : b, small = a > b ? b : a;
            ES += small - (t - big);
            S = t;
            double sum = t + ES;
            out_p[i] = 1.0;
            out_g[i] = scaled_product(trapezoid ? sum - scaled_half(x[i], b) : sum, delta);
        }
        s = scale_down(S);
        E = scale_down(ES);
        *head = i;
    }
    else {
        *head = 0;
        emit(0, s, s, delta, trapezoid, out_p, out_g, work, &k);
    }
    for (; i < m; i++) {
        double a = s, b = x[i];
        double t = a + b;
        double big = a > b ? a : b, small = a > b ? b : a;
        E += small - (t - big);
        s = t;
        emit(i, t + E, b, delta, trapezoid, out_p, out_g, work, &k);
    }
    return k;
}

static int
get_doubles(PyObject *obj, Py_buffer *view, int writable, const char *name)
{
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | (writable ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    if (view->ndim != 1 || view->itemsize != sizeof(double)
        || view->format == NULL || strcmp(view->format, "d") != 0) {
        PyErr_Format(PyExc_TypeError,
                     "step_head: %s must be a 1-d buffer of native float64, got format %s, ndim %d",
                     name, view->format ? view->format : "B", view->ndim);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

static int
overlap(const Py_buffer *u, const Py_buffer *v, Py_ssize_t m)
{
    const char *a = u->buf, *b = v->buf;
    Py_ssize_t size = m * (Py_ssize_t)sizeof(double);
    return m > 0 && a < b + size && b < a + size;
}

static PyObject *
step_head(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    /* the buffer arguments: x, out_p, out_g and work */
    static const char *names[] = {"x", "out_p", "out_g", "work"};
    static const int positions[] = {0, 3, 4, 5};
    Py_buffer views[4];
    int got = 0;
    Py_ssize_t m = 0, j = 0, k = 0;
    const char *error = NULL;
    if (nargs != 6) {
        PyErr_Format(PyExc_TypeError, "step_head takes 6 arguments (%zd given)", nargs);
        return NULL;
    }
    double delta = PyFloat_AsDouble(args[1]);
    if (delta == -1.0 && PyErr_Occurred())
        return NULL;
    int trapezoid = PyObject_IsTrue(args[2]);
    if (trapezoid < 0)
        return NULL;
    for (; got < 4; got++)
        if (get_doubles(args[positions[got]], &views[got], got > 0, names[got]) < 0)
            goto release;
    m = views[0].shape[0];
    for (int a = 1; a < 4 && error == NULL; a++) {
        if (views[a].shape[0] < m)
            error = "step_head: an output is shorter than x";
        for (int b = 0; b < a && error == NULL; b++)
            if (overlap(&views[a], &views[b], m))
                error = "step_head: two arguments overlap";
    }
    if (error == NULL && m > 0) {
        Py_BEGIN_ALLOW_THREADS
        k = head_pass(views[0].buf, m, delta, trapezoid,
                      views[1].buf, views[2].buf, views[3].buf, &j);
        Py_END_ALLOW_THREADS
    }
release:
    for (int a = 0; a < got; a++)
        PyBuffer_Release(&views[a]);
    if (got < 4)
        return NULL;
    if (error != NULL) {
        PyErr_SetString(PyExc_ValueError, error);
        return NULL;
    }
    return Py_BuildValue("(nn)", j, k);
}

static PyMethodDef methods[] = {
    {"step_head", (PyCFunction)(void (*)(void))step_head, METH_FASTCALL,
     "step_head(x, delta, trapezoid, out_p, out_g, work) -> (j, k)\n--\n\n"
     "The compensated prefix sums of x, Q and the linear run of a recursion\n"
     "step in one pass: P = 1 and Q on the linear run, which ends at k, and\n"
     "-Q after it; the subnormal head x[:j], inside the run, is summed scaled."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_compensated",
    "The head of a recursion step, its compensated prefix sum included, in one compiled pass.",
    -1, methods,
};

PyMODINIT_FUNC
PyInit__compensated(void)
{
    return PyModule_Create(&module);
}
