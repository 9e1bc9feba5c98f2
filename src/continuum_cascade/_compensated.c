/* The head of a recursion step, compiled: the compensated prefix sum, Q and
   the linear-run scan in one pass.

   step_head(x, delta, trapezoid, out_p, out_g, work) -> (j, k) does, node
   by node, the float64 operations of kernels._numpy_head in the same order:
   the running sum s of x, the FastTwoSum error e = min(a, b) - (t - max(a, b))
   of each addition t = a + b, the running sum E of those errors, the sum
   s + E at every node after the first, and from it Q = ((s + E) - x * 0.5)
   * delta (trapezoid) or (s + E) * delta (Riemann).  On the leading run of
   nodes where |Q| < 2^-56 it writes P = 1 to out_p and Q to out_g; past the
   run it writes -Q to work.  k is where that run ends, len(x) if it does
   not.  The first j nodes are the exception: there it writes P = 1 and the
   sums s + E to work, and the caller forms Q from them into out_g.

   Those j nodes are the band's subnormal head.  While x[i] and the running
   sum are below 2^-900 the loop sums in a domain scaled by 2^128, so that
   no operand or result of an addition is subnormal (an addition that meets
   one takes a microcode assist on x86, which costs more than the addition);
   numpy's vector loops, which pay one assist per vector, form Q there.
   The scaling changes no bit.  For two doubles a, b whose sum and scaled
   sum are finite, fl(2^k a + 2^k b) = 2^k fl(a + b): an exact sum of at
   least 2^-1022 in magnitude is rounded to 53 bits at the same relative
   place either way, and a smaller one is a multiple of 2^-1074 that needs
   at most 52 bits, so both are exact.  A compare is unchanged by the
   scaling too, and the compensated recurrence uses nothing else.  A
   subnormal input is scaled, and a sum whose unscaled value is subnormal
   is unscaled, through its integer mantissa; every other scaling is a
   multiplication by a power of two, which is exact.  So the split point
   changes speed, never bits.

   The head lies inside the linear run, so P = 1 is its value.  A head node
   has |x| < 2^-900 and, before x is added, a running sum below 2^-900 (the
   loop's own exit tests; NaN and inf fail them by their exponent field), so
   |s + E| < 2^-899 and |x * 0.5| < 2^-901, and |Q| < 2^-898 |delta|.  The
   scaled head is entered only for |delta| < 2^841 (HEAD_DELTA), where that
   is at most 2^-57, under 2^-56 with its roundings: the numpy head marks
   every such node linear too.  A NaN, infinite or larger delta gives j = 0,
   and the plain loop runs from node 0.

   A multiplication sits next to additions (x * 0.5 before the subtraction),
   so a fused multiply-add would change a bit where x * 0.5 rounds; setup.py
   builds this file with contraction off, and the pragma asks the same of a
   compiler that honours it.  Every operation is exactly rounded, so the
   bits are those of numpy's additions and multiplications at any of its
   SIMD dispatch levels, on every platform that evaluates double in double.

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
    if (fabs(delta) < HEAD_DELTA && (bits_of(s) & ~SIGN_BIT) < HEAD_EXPONENTS) {
        double S = scale_up(s), ES = -0.0;
        out_p[0] = 1.0;
        work[0] = s;
        for (; i < m && fabs(S) < HEAD_SCALED_SUM
               && (bits_of(x[i]) & ~SIGN_BIT) < HEAD_EXPONENTS; i++) {
            double a = S, b = scale_up(x[i]);
            double t = a + b;
            double big = a > b ? a : b, small = a > b ? b : a;
            ES += small - (t - big);
            S = t;
            out_p[i] = 1.0;
            work[i] = scale_down(t + ES);
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
     "-Q after it, except that the subnormal head x[:j], inside the run, gets\n"
     "P = 1 and its sums in work[:j]."},
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
