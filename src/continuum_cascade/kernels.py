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

Riemann mode sums g at indices 1..i (the y = 0 endpoint is omitted; g(0)
is 0 anyway).  Trapezoid mode subtracts half the endpoint values.  At
delta = 0.001 a generation is a ~1e5-term prefix sum and the recursion
runs for thousands of generations, so the sum is compensated: a float64
cumulative sum plus the running total of its TwoSum rounding errors
(cascaded summation, Ogita-Rump-Oishi 2005, "Accurate sum and dot
product").  That is as accurate as summing in twice the working precision
and rounding once, and it uses float64 alone, so it gives the same bits on
every platform.

Both steps fill the exposed probability array and the complement array
from the same exponent Q.  Behind the front the step is linear to the
last bit: where |Q| < 2^-56 the correctly rounded values are exp(-Q) = 1
and -expm1(-Q) = Q, so the leading run of such nodes (three quarters of
the band in a long front run) is written directly and only the rest goes
through libm, at full relative precision; a NaN ends the run.  The
threshold sits two binades below 2^-54, where rounding to 1 starts,
because numpy's SIMD exp is not correctly rounded near there: it returns
1 - 2^-53 for some Q in [2^-54.3, 2^-54), and 1 for every Q below 2^-55
checked (x86-64, numpy 2.4).  So the run gets the bits numpy's exp and
expm1 give it.  The return value is the largest clamp applied to keep P
and g in [0, 1], so the caller can tell last-ulp jitter from a real
invariant violation.
"""

import numpy as np


def _prefix_sum(x: np.ndarray) -> np.ndarray:
    """Compensated prefix sums of `x`.

    TwoSum recovers the exact rounding error of each addition in the
    float64 cumsum; this relies on np.cumsum adding strictly left to right.
    """
    s = np.cumsum(x)
    t, a = s[1:], s[:-1]
    bp = t - a
    e = t - bp
    np.subtract(a, e, out=e)
    np.subtract(x[1:], bp, out=bp)
    e += bp  # e[i] = exact rounding error of t[i] = a[i] + x[i + 1]
    np.cumsum(e, out=e)
    t += e
    return s


# |Q| below this: exp(-Q) rounds to 1 and -expm1(-Q) to Q (module docstring)
LINEAR_TAIL = 2.0**-56


def _finish(q: np.ndarray, out_p: np.ndarray, out_g: np.ndarray) -> float:
    linear = np.abs(q) < LINEAR_TAIL
    k = int(np.argmin(linear))  # first node outside the linear run
    if linear[k]:
        k = len(q)
    out_p[:k] = 1.0
    out_g[:k] = q[:k]
    neg_q = np.negative(q[k:])
    np.exp(neg_q, out=out_p[k:])
    np.expm1(neg_q, out=out_g[k:])
    np.negative(out_g[k:], out=out_g[k:])
    out_p[0] = 1.0
    out_g[0] = 0.0
    excess = max(float(out_p.max()) - 1.0, float(-out_g.min()))
    if excess > 0.0:
        np.minimum(out_p, 1.0, out=out_p)
        np.maximum(out_g, 0.0, out=out_g)
    return max(excess, 0.0)


def step_riemann(prev_g: np.ndarray, delta: float,
                 out_p: np.ndarray, out_g: np.ndarray) -> float:
    s = _prefix_sum(prev_g)
    s -= s[0]  # drop the y = 0 term: sum runs over indices 1..i
    return _finish(delta * s, out_p, out_g)


def step_trapezoid(prev_g: np.ndarray, delta: float,
                   out_p: np.ndarray, out_g: np.ndarray) -> float:
    s = _prefix_sum(prev_g)
    q = delta * (s - 0.5 * (prev_g[0] + prev_g))
    return _finish(q, out_p, out_g)
