/* A recursion step, compiled: the head (the compensated prefix sum, Q and
   the linear-run scan) in one pass, then P and g past the linear run from
   the owned exp/expm1 routine, with the step's guard folded into that pass.

   step(x, delta, trapezoid, out_p, out_g, work) -> (excess, j, k) runs the
   head below, then exp_pass (further below) on the -Q it left in
   work[k:len(x)], and returns how far P and g left [0, 1] (kernels.py).
   exp_pair(t, out_p, out_g) runs exp_pass alone: P = e^t and g = -expm1(t).

   The head gives, node
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

   The owned exp (exp_pass) forms P = e^t and g = -expm1(t) of t = -Q from
   +, -, * and integer operations on the bits alone, each exactly rounded,
   so its bits are the same in the scalar loop, in every vector clone and
   in kernels._exp_pair, the numpy transcription of the same operations:
   - t is clamped to [-746, 746]: below -746 both P and 2^k round to 0 and
     g to 1, above 746 P is inf; a NaN stays NaN;
   - Cody-Waite reduction: k = round(t / ln 2) by the shifter 0x1.8p52,
     read as an integer from the bits of the shifted sum, and r = (t -
     k LN2HI) - k LN2LO, where LN2HI has 11 trailing zero bits, so k LN2HI
     and its difference from t are exact for |k| < 2^11;
   - p = e^r - 1 = r + r^2 s, s the Horner sum of 1/i! for i = 2..13;
   - 2^k = 2^h 2^(k - h) with h = floor(k / 2), each factor built from its
     exponent bits and normal, so P = ((1 + p) 2^h) 2^(k - h) is rounded
     once where it is subnormal;
   - g = (1 - 2^k) - 2^k p, which is -p exactly at k = 0.
   For |t| < 2^-56, k = 0, r = t and r^2 s is below half an ulp of r, so P
   = 1 and g = Q exactly: the linear run is the routine's own value, not a
   shortcut past it.

   The guard: the head ORs the bits of g over the linear run, where P = 1,
   and exp_pass ORs two integer tests over the rest, bits(P) above those of
   1.0 (P > 1, a negative P or a NaN) and bits(g) above those of +inf (g
   below +0, -0.0 included, or a NaN).  The excess is 0.0 when none fails
   and the run is not empty.  Otherwise an exact rescan computes it as
   kernels._numpy_step does, so the fast path changes no bit of it.  The
   tests are integer compares in two uint64_t accumulators: gcc vectorises
   that form of the loop, and not an FP min/max reduction, an FP compare
   in the flag or one combined accumulator (under -ftrapping-math).

   Every argument is read through the buffer protocol: x (t) a C-contiguous
   1-d buffer of native doubles, out_p, out_g and work writable ones at
   least as long, none overlapping another.  Anything else raises and
   nothing is written, so a float32 or strided buffer is never read as
   doubles byte for byte. */

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

/* the owned exp's constants; kernels.py holds the same doubles */
#define CLAMP_BITS UINT64_C(0x4087500000000000)  /* 746.0 */
#define INVLN2 0x1.71547652b82fep0
#define SHIFTER 0x1.8p52
#define LN2HI 0x1.62e42fee00000p-1
#define LN2LO 0x1.a39ef35793c76p-33
/* bits(SHIFTER + k) - SHIFTER_BIAS is k + 2048, positive for |k| < 2048 */
#define SHIFTER_BIAS (UINT64_C(0x4338000000000000) - 2048)
#define ONE_BITS UINT64_C(0x3ff0000000000000)

/* the exp pass's loop is built for x86-64-v4, AVX2 and the baseline, the
   one that runs chosen at load time through an ifunc (GCC 11 on, x86-64
   GNU/Linux); elsewhere it is the plain loop, with the same bits */
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 11 \
    && defined(__x86_64__) && defined(__gnu_linux__)
#define EXP_CLONES __attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
#else
#define EXP_CLONES
#endif

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
   lasts, with Q's bits ORed into *run_bits, -Q after it; *k becomes the
   first node past the run */
static inline void
emit(Py_ssize_t node, double sum, double b, double delta, int trapezoid,
     double *out_p, double *out_g, double *work, Py_ssize_t *k, uint64_t *run_bits)
{
    double q = (trapezoid ? sum - b * 0.5 : sum) * delta;
    if (*k > node) {
        if (fabs(q) < LINEAR_TAIL) {  /* a NaN ends the run */
            out_p[node] = 1.0;
            out_g[node] = q;
            *run_bits |= bits_of(q);
            return;
        }
        *k = node;
    }
    work[node] = -q;
}

/* the step's head on m > 0 nodes; returns the run's end k, sets *head to j
   and ORs the bits of g on the run into *run_bits */
static Py_ssize_t
head_pass(const double *x, Py_ssize_t m, double delta, int trapezoid,
          double *out_p, double *out_g, double *work, Py_ssize_t *head,
          uint64_t *run_bits)
{
    Py_ssize_t i = 1, k = m;
    /* -0.0 + e is e, bit for bit, so the first E is e itself, as the numpy
       accumulate of the errors gives it */
    double s = x[0], E = -0.0;
    uint64_t bits = 0;
    if (fabs(delta) >= HEAD_DELTA_MIN && fabs(delta) < HEAD_DELTA
        && (bits_of(s) & ~SIGN_BIT) < HEAD_EXPONENTS) {
        double S = scale_up(s), ES = -0.0;
        out_p[0] = 1.0;
        out_g[0] = scaled_product(trapezoid ? S - scaled_half(s, S) : S, delta);
        bits |= bits_of(out_g[0]);
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
            bits |= bits_of(out_g[i]);
        }
        s = scale_down(S);
        E = scale_down(ES);
        *head = i;
    }
    else {
        *head = 0;
        emit(0, s, s, delta, trapezoid, out_p, out_g, work, &k, &bits);
    }
    for (; i < m; i++) {
        double a = s, b = x[i];
        double t = a + b;
        double big = a > b ? a : b, small = a > b ? b : a;
        E += small - (t - big);
        s = t;
        emit(i, t + E, b, delta, trapezoid, out_p, out_g, work, &k, &bits);
    }
    *run_bits = bits;
    return k;
}

/* P = e^t and g = -expm1(t) of each t_in[i], i < n, by the owned routine
   (top of file); nonzero when some P fails P <= 1 or some g fails g >= +0,
   tested on the bits */
EXP_CLONES static int
exp_pass(const double *restrict t_in, Py_ssize_t n, double *restrict out_p,
         double *restrict out_g)
{
    uint64_t bad_p = 0, bad_g = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        /* |t| clamped at 746 on its bits, a NaN kept: an FP compare there
           would keep gcc from vectorising the loop */
        uint64_t u = bits_of(t_in[i]), mag = u & ~SIGN_BIT;
        mag = (mag > CLAMP_BITS) & (mag <= EXPONENT_BITS) ? CLAMP_BITS : mag;
        double t = double_of(mag | (u & SIGN_BIT));
        double shifted = t * INVLN2 + SHIFTER;
        uint64_t k = bits_of(shifted) - SHIFTER_BIAS;  /* k + 2048 */
        double kd = shifted - SHIFTER;
        double r = (t - kd * LN2HI) - kd * LN2LO;
        double s = 0x1.6124613a86d09p-33;  /* 1/13! */
        s = s * r + 0x1.1eed8eff8d898p-29;
        s = s * r + 0x1.ae64567f544e4p-26;
        s = s * r + 0x1.27e4fb7789f5cp-22;
        s = s * r + 0x1.71de3a556c734p-19;
        s = s * r + 0x1.a01a01a01a01ap-16;
        s = s * r + 0x1.a01a01a01a01ap-13;
        s = s * r + 0x1.6c16c16c16c17p-10;
        s = s * r + 0x1.1111111111111p-7;
        s = s * r + 0x1.5555555555555p-5;
        s = s * r + 0x1.5555555555555p-3;
        s = s * r + 0x1.0000000000000p-1;  /* 1/2! */
        double p = r + (r * r) * s;
        uint64_t h = k >> 1;  /* floor(k / 2) + 1024 */
        double a = double_of((h - 1) << 52);  /* 2^h */
        double b = double_of((k - h - 1) << 52);  /* 2^(k - h) */
        double e = a * b;  /* 2^k */
        double big_p = ((1.0 + p) * a) * b;
        double g = (1.0 - e) - e * p;
        out_p[i] = big_p;
        out_g[i] = g;
        bad_p |= bits_of(big_p) > ONE_BITS;
        bad_g |= bits_of(g) > EXPONENT_BITS;
    }
    return (bad_p | bad_g) != 0;
}

/* the excess as kernels._numpy_step computes it on m nodes whose linear
   run ends at k: the largest P from node k - 1 on, less 1, against minus
   the smallest g, each found as numpy's argmax and argmin find it (the
   first extreme, or the first NaN) and combined as Python's max(a, b) */
static double
rescan(const double *p, const double *g, Py_ssize_t k, Py_ssize_t m)
{
    Py_ssize_t i = k > 0 ? k - 1 : 0;
    double big = p[i], small = g[0];
    for (i++; i < m && big == big; i++)
        if (!(p[i] <= big))
            big = p[i];
    for (i = 1; i < m && small == small; i++)
        if (!(g[i] >= small))
            small = g[i];
    double a = big - 1.0, b = -small;
    return b > a ? b : a;
}

static int
get_doubles(PyObject *obj, Py_buffer *view, int writable, const char *func, const char *name)
{
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | (writable ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    if (view->ndim != 1 || view->itemsize != sizeof(double)
        || view->format == NULL || strcmp(view->format, "d") != 0) {
        PyErr_Format(PyExc_TypeError,
                     "%s: %s must be a 1-d buffer of native float64, got format %s, ndim %d",
                     func, name, view->format ? view->format : "B", view->ndim);
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

/* views[a] of args[positions[a]] for a < count: the first read-only, the
   rest writable, at least as long as the first and none overlapping
   another; returns the first one's length, or -1 with an exception set
   and every view released */
static Py_ssize_t
get_views(const char *func, PyObject *const *args, const int *positions,
          const char *const *names, int count, Py_buffer *views)
{
    int got = 0;
    const char *error = NULL;
    Py_ssize_t m = 0;
    for (; got < count; got++)
        if (get_doubles(args[positions[got]], &views[got], got > 0, func, names[got]) < 0)
            break;
    if (got == count) {
        m = views[0].shape[0];
        for (int a = 1; a < count && error == NULL; a++) {
            if (views[a].shape[0] < m)
                error = "an output is shorter than the input";
            for (int b = 0; b < a && error == NULL; b++)
                if (overlap(&views[a], &views[b], m))
                    error = "two arguments overlap";
        }
        if (error == NULL)
            return m;
        PyErr_Format(PyExc_ValueError, "%s: %s", func, error);
    }
    for (int a = 0; a < got; a++)
        PyBuffer_Release(&views[a]);
    return -1;
}

static PyObject *
step(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    static const char *const names[] = {"x", "out_p", "out_g", "work"};
    static const int positions[] = {0, 3, 4, 5};
    Py_buffer views[4];
    Py_ssize_t j = 0, k = 0;
    double excess = 0.0;
    if (nargs != 6) {
        PyErr_Format(PyExc_TypeError, "step takes 6 arguments (%zd given)", nargs);
        return NULL;
    }
    double delta = PyFloat_AsDouble(args[1]);
    if (delta == -1.0 && PyErr_Occurred())
        return NULL;
    int trapezoid = PyObject_IsTrue(args[2]);
    if (trapezoid < 0)
        return NULL;
    Py_ssize_t m = get_views("step", args, positions, names, 4, views);
    if (m < 0)
        return NULL;
    if (m > 0) {
        const double *x = views[0].buf;
        double *out_p = views[1].buf, *out_g = views[2].buf, *work = views[3].buf;
        Py_BEGIN_ALLOW_THREADS
        uint64_t run_bits;
        k = head_pass(x, m, delta, trapezoid, out_p, out_g, work, &j, &run_bits);
        int bad = exp_pass(work + k, m - k, out_p + k, out_g + k);
        if (bad || k == 0 || (run_bits & SIGN_BIT))
            excess = rescan(out_p, out_g, k, m);
        Py_END_ALLOW_THREADS
    }
    for (int a = 0; a < 4; a++)
        PyBuffer_Release(&views[a]);
    if (m == 0)  /* no node, no excess: the numpy step raises too */
        return PyErr_Format(PyExc_ValueError, "step: x holds no node");
    return Py_BuildValue("(dnn)", excess, j, k);
}

static PyObject *
exp_pair(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    static const char *const names[] = {"t", "out_p", "out_g"};
    static const int positions[] = {0, 1, 2};
    Py_buffer views[3];
    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError, "exp_pair takes 3 arguments (%zd given)", nargs);
        return NULL;
    }
    Py_ssize_t m = get_views("exp_pair", args, positions, names, 3, views);
    if (m < 0)
        return NULL;
    Py_BEGIN_ALLOW_THREADS
    exp_pass(views[0].buf, m, views[1].buf, views[2].buf);
    Py_END_ALLOW_THREADS
    for (int a = 0; a < 3; a++)
        PyBuffer_Release(&views[a]);
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"step", (PyCFunction)(void (*)(void))step, METH_FASTCALL,
     "step(x, delta, trapezoid, out_p, out_g, work) -> (excess, j, k)\n--\n\n"
     "One recursion step: the compensated prefix sums of x and Q in one pass,\n"
     "P = 1 and g = Q on the linear run, which ends at k, and P = exp(-Q) and\n"
     "g = -expm1(-Q) by the owned routine after it, -Q left in work; the\n"
     "subnormal head x[:j], inside the run, is summed scaled.  excess is how\n"
     "far P and g left [0, 1], 0.0 when they did not."},
    {"exp_pair", (PyCFunction)(void (*)(void))exp_pair, METH_FASTCALL,
     "exp_pair(t, out_p, out_g)\n--\n\n"
     "P = exp(t) and g = -expm1(t) of each t by the owned routine."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_compensated",
    "A recursion step, its compensated prefix sum and its exp included, in one compiled call.",
    -1, methods,
};

PyMODINIT_FUNC
PyInit__compensated(void)
{
    return PyModule_Create(&module);
}
