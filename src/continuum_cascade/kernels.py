"""Inner loop of the height-distribution recursion.

The iterated state is the complement field g = 1 - P.  Writing the
recursion P_n(x) = exp[-x + integral P_{n-1}] in terms of g gives

    Q_i = quadrature of g_{n-1} over [0, x_i]
    P_n(x_i) = exp(-Q_i),      g_n(x_i) = -expm1(-Q_i)

which is algebraically identical but numerically essential: stored as P,
the region behind the front saturates at 1 - 2^-53 and the unrepresentable
tail of g acts as a cutoff that freezes the front's logarithmic correction
near generation ~400 and biases the late-time velocity by ~+2e-3 (a
Brunet-Derrida cutoff effect; the magnitude matches pi^2/(2e)/ln^2(eps)).
In g form the tail stays resolved down to exp(-708) and the continuum
asymptotics survive to n ~ 10^4 and beyond.

Every state a step reads has g(0) exactly 0: init_p0 builds it,
recursion.iterate_step checks it of every band that recursion.bands
steps, and the head carries it to the next generation: Q(0) is the empty
sum, 0, which gives P(0) = 1 and g(0) = 0, and nothing writes over
them.  So Riemann mode, which sums g at indices 1..i (the
y = 0 endpoint omitted), is the plain prefix sum, and trapezoid mode
subtracts half of g(x_i) alone.  At delta = 0.001 a generation is a
~1e5-term prefix sum and the recursion runs for thousands of generations,
so the sum is compensated: a float64 cumulative sum plus the running total
of its rounding errors (cascaded summation, Ogita-Rump-Oishi 2005,
"Accurate sum and dot product").  Each error is recovered exactly by
Dekker's FastTwoSum (1971), which needs the larger operand first; every
term of g is >= 0, so max and min put them in that order.  That is as
accurate as summing in twice the working precision and rounding once, and
it uses float64 additions alone, each exactly rounded, so its bits do not
depend on numpy's SIMD dispatch level.  Nor do those of the exp and expm1
of a step: they are the package's own routine (_compensated.c has its
operations: a Cody-Waite reduction, a degree-13 polynomial and 2^k from
its bits), made of +, -, * and integer operations alone.  numpy's own exp
and expm1 loops differ between its AVX-512 and AVX2 levels (at 9.2 % and
4.8 % of 200,001 points spanning the kernel's range), so with them the
bits were fixed for one dispatch level only; with the owned routine they
are the same at every level, compiled or not.  P and g are within 1 ulp
of the exact values, and P, g in [0, 1] wherever Q >= 0.

A step is a head and a tail.  The head forms the sum and Q of every
node, writes P = 1 to out_p and Q to out_g on the leading linear run
(below), which ends at node k, and -Q to work[k:len(x)]; it returns (j, k).
j <= k counts the nodes at the run's start that the head summed in a
scaled domain (below); it tells the tests where the head ran.  The tail
forms P and g past the run with the owned routine, and the excess (below).
The step has two implementations that give the same bits.  The compiled
one, _compensated.step (built from _compensated.c by `pip install` when a
C compiler is there), is one call: one pass for the head, with both
running sums in registers, and one vectorised pass for the tail, with
the guard folded in.  The numpy one, _numpy_step (_numpy_head, then
_exp_pair), makes a few dozen passes; it runs when the module was not
built (a source tree on PYTHONPATH, or an install without a compiler),
and the tests compare the compiled step with it.  Both do the same
float64 operations in the same order; the C file is built with
floating-point contraction off, so no fused multiply-add enters.  _step is
the one that runs, and KERNEL_BACKEND in __init__ names it; init_p0 forms
generation 0 with exp_pair, the same routine, from the same module.

The compiled head's j nodes are the band's subnormal head, where g, the
sum's FastTwoSum errors or Q are subnormal and an addition or product
that meets one takes a microcode assist on x86.  The loop sums and forms Q
there in a domain scaled by 2^128, which changes no bit: the sums and the
trapezoid's difference are exact under the scaling, and a product whose
unscaled value is subnormal is rounded once, to the grid numpy rounds it
to, with the exact error deciding a tie.  It enters that domain only for
2^-76 <= delta < 2^841, where every scaled product is normal and every
head node lies inside the linear run (_compensated.c has the arguments).

The step fills the exposed probability array and the complement array
from the same exponent Q.  Behind the front the step is linear to the
last bit: for |Q| < 2^-56 the routine's reduction gives the exponent 0
and r = -Q, and r^2 times its polynomial is below half an ulp of r, so it
returns P = 1 and g = Q exactly.  So the leading run of such nodes (three quarters of
the band in a long front run) is written directly, with the routine's own
bits, and only the rest goes through it, at full relative precision; a
NaN ends the run.  The step returns k, and recursion carries it with the
band, so a reader of P can start at the run's end.  Nothing is repaired:
every term of g is >= 0, so Q >= 0, and the routine keeps P <= 1 and g >=
0 there.  The step returns how far P and g left [0, 1], 0.0 on every valid
band (NaN on a NaN), and recursion.iterate_step fails the run on any other
value.  The compiled step tests the bits of P and g as it writes them and
computes the excess exactly only when a test fails (_compensated.c).

The compiled step allocates no array: the caller passes the outputs, as
long as the band, and a scratch array at least that long (recursion.bands
keeps one set for a whole run).  In the numpy head the outputs double as
the sum's FastTwoSum temporaries and then as the linear-run mask; Q is
formed in place in the g output, and the scratch holds the prefix sums
and then -Q.  The compiled head writes P = 1 and Q on the run, the
subnormal head included, and -Q past it to the same places; the numpy
tail uses that -Q as scratch and allocates one temporary as long as it.  Nothing is read before it is
written, so a step gives the same bits whatever its buffers held.  A band
that is not contiguous float64 is stepped as its contiguous float64 copy,
by either implementation.
"""

import math

import numpy as np


def _prefix_sum(x: np.ndarray, out: np.ndarray, err: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Compensated prefix sums of `x` >= 0, written to and returned as out[:len(x)].

    `err` and `tmp` hold at least len(x) - 1 values each and are overwritten.
    FastTwoSum recovers the exact rounding error of each addition in the
    float64 running sum; this relies on np.add.accumulate (the loop behind
    np.cumsum, without its dispatch) adding strictly left to right, and on
    no term being negative, so that the larger of the two operands is the
    larger in magnitude.
    """
    m = len(x)
    s = np.add.accumulate(x, out=out[:m])
    t, a, b = s[1:], s[:-1], x[1:]
    big = np.maximum(a, b, out=tmp[: m - 1])
    np.subtract(t, big, out=big)
    e = np.minimum(a, b, out=err[: m - 1])
    np.subtract(e, big, out=e)  # e[i] = exact rounding error of t[i] = a[i] + x[i + 1]
    np.add(t, np.add.accumulate(e, out=e), out=t)
    return s


# |Q| below this: the owned routine gives P = 1 and g = Q (module docstring)
LINEAR_TAIL = 2.0**-56
# the step's constant operands as 0-d arrays: a ufunc converts a Python float
# operand on every call, at about a third of a microsecond
_TAIL, _HALF = np.array(LINEAR_TAIL), np.array(0.5)

# the owned exp's constants, the doubles and bit patterns of _compensated.c
_SIGN_BIT = np.uint64(1 << 63)
_INF_BITS = np.uint64(0x7FF0000000000000)
_CLAMP_BITS = np.uint64(0x4087500000000000)  # 746.0
_INVLN2 = float.fromhex("0x1.71547652b82fep0")
_SHIFTER = float.fromhex("0x1.8p52")
_SHIFTER_BIAS = np.uint64(0x4338000000000000 - 2048)  # bits(SHIFTER + k) less it: k + 2048
_LN2HI = float.fromhex("0x1.62e42fee00000p-1")
_LN2LO = float.fromhex("0x1.a39ef35793c76p-33")
# 1/i! for i = 13 down to 2, correctly rounded, in Horner order
_EXP_TERMS = tuple(1.0 / math.factorial(i) for i in range(13, 1, -1))


def _exp_pair(t: np.ndarray, out_p: np.ndarray, out_g: np.ndarray) -> None:
    """P = exp(t) and g = -expm1(t) by the owned routine, in numpy.

    The float64 and integer operations of _compensated.c's exp_pass, in
    its order, each exactly rounded, so the bits are the compiled loop's at
    every numpy dispatch level.  Writes out_p[:len(t)] and out_g[:len(t)];
    they and `t` double as scratch, so `t` is overwritten, and one
    temporary as long as `t` is allocated.
    """
    n = len(t)
    big_p, g = out_p[:n], out_g[:n]
    bits, g_bits = t.view(np.uint64), g.view(np.uint64)
    np.bitwise_and(bits, _SIGN_BIT, out=g_bits)
    bits &= ~_SIGN_BIT
    np.minimum(bits, _CLAMP_BITS, out=bits, where=bits <= _INF_BITS)  # a NaN kept
    bits |= g_bits  # |t| clamped at 746
    kd = np.multiply(t, _INVLN2, out=big_p)
    kd += _SHIFTER
    k = np.subtract(kd.view(np.uint64), _SHIFTER_BIAS, out=g_bits)  # k + 2048
    kd -= _SHIFTER
    tmp = kd * _LN2HI
    r = np.subtract(t, tmp, out=t)
    r -= np.multiply(kd, _LN2LO, out=tmp)
    s = tmp
    s.fill(_EXP_TERMS[0])
    for term in _EXP_TERMS[1:]:
        s *= r
        s += term
    p = np.multiply(r, r, out=big_p)
    p *= s
    p += r  # e^r - 1
    h = np.right_shift(k, np.uint64(1), out=s.view(np.uint64))  # floor(k / 2) + 1024
    b = np.subtract(k, h, out=g_bits)
    b -= np.uint64(1)
    b <<= np.uint64(52)  # 2^(k - h)
    a = np.subtract(h, np.uint64(1), out=h)
    a <<= np.uint64(52)  # 2^h
    a, b = a.view(np.float64), b.view(np.float64)
    ep = np.multiply(a, b, out=r)
    ep *= p  # 2^k p
    p += 1.0
    p *= a
    p *= b  # P = ((1 + p) 2^h) 2^(k - h)
    e = np.multiply(a, b, out=a)  # 2^k
    np.subtract(1.0, e, out=g)
    g -= ep


def _linear_run(out_p: np.ndarray, out_g: np.ndarray, tmp: np.ndarray) -> int:
    """The end of the leading run of |Q| < LINEAR_TAIL in the Q that `out_g` holds.

    P = 1 is written on the run, where g = Q already, and -Q to `tmp` past
    it; `tmp` holds at least len(out_g) values, and the bytes of `out_p`
    hold the run's mask until P is written over it.
    """
    n = len(out_g)
    linear = np.less(np.abs(out_g, out=tmp[:n]), _TAIL, out=out_p.view(np.bool_)[:n])
    k = int(linear.argmin())  # first node outside the linear run
    if linear[k]:
        k = n
    out_p[:k] = 1.0
    np.negative(out_g[k:], out=tmp[k:n])
    return k


def _numpy_head(x: np.ndarray, delta: float, trapezoid: bool,
                out_p: np.ndarray, out_g: np.ndarray, work: np.ndarray) -> tuple[int, int]:
    """The step's head in numpy, as the compiled head with j = 0 (module docstring)."""
    s = _prefix_sum(x, work, out_g, out_p)
    if trapezoid:
        q = np.multiply(x, _HALF, out=out_g)
        np.subtract(s, q, out=q)
        q *= delta
    else:
        np.multiply(s, delta, out=out_g)
    return 0, _linear_run(out_p, out_g, work)


def _tail(out_p: np.ndarray, out_g: np.ndarray, neg_q: np.ndarray, k: int) -> float:
    """P = exp(-Q) and g = -expm1(-Q) past the linear run, which ends at k.

    neg_q[k:len(out_g)] holds -Q and is overwritten; P and g are written
    on the run already, so every node, node 0 included, holds what the
    head and the tail computed.  Returns the excess max(max P - 1, -min g)
    over every node (module docstring).
    """
    n = len(out_g)
    _exp_pair(neg_q[k:n], out_p[k:n], out_g[k:n])
    # P is exactly 1 on the run, so one of its nodes stands for all of them
    # in the maximum's scan; argmax and argmin find an extreme (or the first
    # NaN) with less dispatch than max and min
    p = out_p[max(k - 1, 0):n]
    return max(p.item(p.argmax()) - 1.0, -out_g.item(out_g.argmin()))


def _numpy_step(x: np.ndarray, delta: float, trapezoid: bool,
                out_p: np.ndarray, out_g: np.ndarray, work: np.ndarray) -> tuple[float, int, int]:
    """The step in numpy, as _compensated.step: (excess, j, k), with j = 0."""
    j, k = _numpy_head(x, delta, trapezoid, out_p, out_g, work)
    return _tail(out_p, out_g, work, k), j, k


try:
    from ._compensated import exp_pair, step as _step
except ImportError:  # not built: the numpy step runs
    exp_pair, _step = _exp_pair, _numpy_step


def step(x: np.ndarray, delta: float, trapezoid: bool,
         out_p: np.ndarray, out_g: np.ndarray, work: np.ndarray) -> tuple[float, int]:
    """P and g of the next generation from the complement `x`: (excess, k).

    Trapezoid quadrature when `trapezoid`, else Riemann.  out_p and out_g
    are as long as `x`, `work` at least as long; all three are overwritten.
    excess is how far P and g left [0, 1], 0.0 on every valid band; k is
    the end of the linear run, on whose nodes P is exactly 1.  Node 0 is
    computed and guarded like every other node: an x[0] of 0 gives Q(0) =
    0, so P = 1 and g = 0 there, and nothing overwrites them.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    excess, _, k = _step(x, delta, trapezoid, out_p, out_g, work)
    return excess, k
