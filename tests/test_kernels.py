"""The recursion kernel against exact rational arithmetic."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from continuum_cascade import kernels
from continuum_cascade.recursion import (
    Quadrature,
    RecursionConfig,
    bands,
    front_clearance_xmax,
    snapshots,
)


# kernels.step's two quadratures, under the ids of the per-quadrature step
# functions it replaced
QUADRATURES = pytest.mark.parametrize(
    "trapezoid", [False, True], ids=["step_riemann", "step_trapezoid"])


def random_complement(m: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    g = np.maximum.accumulate(np.sort(rng.random(m)))
    g[0] = 0.0
    return g


def exact_prefix_sums(x: np.ndarray) -> list[Fraction]:
    return list(itertools.accumulate(map(Fraction, x.tolist())))


def prefix_inputs() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(11)
    return {
        # a g = 1 - P profile as long as a front run's grid: a plain float64
        # cumsum misses its prefix sums by up to 310 ulps
        "g_like": -np.expm1(-0.001 * np.arange(81177)),
        "sorted_uniform": np.sort(rng.random(20000)),
        # terms spanning 1e-300..1, so small ones sit far below an ulp of the sum
        "tail": np.sort(10.0 ** rng.uniform(-300.0, 0.0, 5000)),
    }


@pytest.mark.parametrize("name", sorted(prefix_inputs()))
def test_prefix_sum_is_within_one_ulp_of_exact(name):
    x = prefix_inputs()[name]
    # the TwoSum error terms are exact only for a strictly sequential running
    # sum, which the kernel takes from np.add.accumulate
    assert np.array_equal(np.add.accumulate(x), list(itertools.accumulate(x.tolist())))
    exact = np.array([float(q) for q in exact_prefix_sums(x)])
    m = len(x)
    got = kernels._prefix_sum(x, np.empty(m), np.empty(m - 1), np.empty(m - 1))
    assert np.all(np.abs(got - exact) <= np.spacing(exact))


def two_sum_prefix(x: np.ndarray) -> np.ndarray:
    """Cascaded prefix sums with Knuth's TwoSum error terms, valid for any signs."""
    s = np.cumsum(x)
    t, a, b = s[1:], s[:-1], x[1:]
    bp = t - a
    e = (a - (t - bp)) + (b - bp)
    s[1:] += np.cumsum(e)
    return s


def edge_inputs() -> dict[str, np.ndarray]:
    return {
        # g behind the front: a run of exact zeros, then the profile
        "zeros": np.concatenate((np.zeros(3000), -np.expm1(-0.01 * np.arange(2000)))),
        # subnormal terms, under any ulp of the running sum, then normal ones
        "subnormal_tail": np.concatenate((
            [0.0], np.sort(10.0 ** np.random.default_rng(5).uniform(-323.0, -308.0, 3000)),
            np.linspace(1e-300, 1.0, 3000),
        )),
        # the shortest sums: no addition, and one
        "one": np.array([0.3]),
        "two": np.array([0.1, 0.2]),
    }


@pytest.mark.parametrize("name", sorted(prefix_inputs()) + sorted(edge_inputs()))
def test_prefix_sum_matches_two_sum_bit_for_bit(name):
    # FastTwoSum's error term is exact for terms >= 0, so it must equal TwoSum's
    x = {**prefix_inputs(), **edge_inputs()}[name]
    m = len(x)
    got = kernels._prefix_sum(x, np.empty(m), np.empty(m - 1), np.empty(m - 1))
    assert np.array_equal(got, two_sum_prefix(x))


@QUADRATURES
def test_all_ones_fixed_point(trapezoid):
    g = np.zeros(64)
    out_p = np.empty(64)
    out_g = np.empty(64)
    excess, k = kernels.step(g, 0.01, trapezoid, out_p, out_g, np.empty(64))
    assert (excess, k) == (0.0, 64)
    assert np.all(out_p == 1.0)
    assert np.all(out_g == 0.0)


@QUADRATURES
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_step_matches_exact_quadrature(trapezoid, seed):
    g = random_complement(5000, seed)
    delta = 0.003
    sums = exact_prefix_sums(g)
    if not trapezoid:
        q = [Fraction(delta) * (s - sums[0]) for s in sums]
    else:
        ends = map(Fraction, g.tolist())
        q = [Fraction(delta) * (s - (sums[0] + e) / 2) for s, e in zip(sums, ends)]
    q = np.array([float(v) for v in q])
    out_p = np.empty_like(g)
    out_g = np.empty_like(g)
    kernels.step(g, delta, trapezoid, out_p, out_g, np.empty_like(g))
    np.testing.assert_allclose(out_p, np.exp(-q), rtol=0.0, atol=5e-15)
    np.testing.assert_allclose(out_g, -np.expm1(-q), rtol=5e-13, atol=0.0)


def routine_values(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P = exp(-q) and g = -expm1(-q) from the owned routine at every node, node 0 included."""
    p, g = np.empty_like(q), np.empty_like(q)
    with np.errstate(invalid="ignore", over="ignore"):
        kernels._exp_pair(-q, p, g)
    return p, g


def finish(out_p: np.ndarray, out_g: np.ndarray, tmp: np.ndarray) -> float:
    """The step past its head, from the Q that `out_g` holds: the numpy linear run, then _tail."""
    return kernels._tail(out_p, out_g, tmp, kernels._linear_run(out_p, out_g, tmp))


def test_linear_tail_matches_libm_across_the_threshold():
    # the linear run writes what the owned routine gives on it, P = 1 and
    # g = Q, and the nodes past it go through the routine, including the
    # Q in [2^-54.3, 2^-54) where numpy's SIMD exp is not correctly rounded
    t = kernels.LINEAR_TAIL
    tiny = np.finfo(np.float64).smallest_normal
    q = np.concatenate((
        [0.0, 5e-324, 1e-310, tiny, 1e-300, 1e-30],
        [np.nextafter(t, 0.0), t, np.nextafter(t, 1.0), 2.0**-55],
        # numpy's SIMD exp returns 1 - 2^-53 for some q in here
        2.0 ** np.linspace(-54.3, -54.0, 4000, endpoint=False),
        [2.0**-54, 1e-10, 1e-3, 1.0, 30.0, 700.0],
    ))
    out_p, out_g = np.empty_like(q), q.copy()
    assert finish(out_p, out_g, np.empty_like(q)) == 0.0
    p, g = routine_values(q)
    assert np.array_equal(out_p, p)
    assert np.array_equal(out_g, g)
    assert np.all(out_g[1:6] == q[1:6])  # subnormal and tiny g stay exact


def test_routine_is_linear_below_the_threshold(compiled):
    # for |Q| < 2^-56 the routine itself gives P = 1 and g = Q exactly, in
    # numpy and compiled: the linear run is its value, not a shortcut past it
    # (a zero Q of either sign gives g = +0.0)
    rng = np.random.default_rng(18)
    t = kernels.LINEAR_TAIL
    q = np.concatenate((
        2.0 ** rng.uniform(-1074.0, -56.0, 100_000),
        subnormals(rng.integers(1, 2**52, 1000)),
        [np.nextafter(t, 0.0), 5e-324, 2.0**-1022, 0.0],
    ))
    q = np.concatenate((q, -q))
    for exp_pair in (kernels._exp_pair, compiled.exp_pair):
        p, g = np.empty_like(q), np.empty_like(q)
        exp_pair(-q, p, g)
        assert np.all(p == 1.0) and np.all(g == q)
        assert g[q != 0.0].tobytes() == q[q != 0.0].tobytes()


def routine_points() -> np.ndarray:
    """t = -Q at 720,000 magnitudes log-uniform over 2^-56..746, and the range's ends.

    Past -746 the routine clamps t; past about -745.13 P rounds to 0, and
    past about -708.4 it is subnormal.
    """
    rng = np.random.default_rng(35)
    t = -np.exp(rng.uniform(math.log(2.0**-56), math.log(746.0), 720_000))
    ends = [2.0**-56, np.nextafter(2.0**-56, 1.0), math.log(2.0) / 2, 708.3, 708.4, 745.1, 745.2, 746.0]
    return np.concatenate((t, -np.array(ends)))


def test_compiled_routine_matches_its_numpy_transcription(compiled):
    # the same bits from the compiled loop, at the clone the machine runs,
    # and from numpy's ufuncs, over the step's range and past it: NaN, the
    # infinities, signed zeros, subnormals and the positive t of a negative
    # Q (P > 1, overflowing to inf past t = 709.78)
    specials = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.0**-1022,
                1e-300, 0.5, 30.0, 709.7, 709.8, 745.9, 746.0, 746.1, 800.0, 1e300, -1e300]
    t = np.concatenate((routine_points(), specials))
    got = [np.full_like(t, np.nan) for _ in range(2)]
    compiled.exp_pair(t, *got)
    want = [np.zeros_like(t) for _ in range(2)]
    with np.errstate(over="ignore", invalid="ignore"):
        kernels._exp_pair(t.copy(), *want)
    for label, a, b in zip(("P", "g"), got, want):
        same = (a.view(np.uint64) == b.view(np.uint64)) | (np.isnan(a) & np.isnan(b))
        assert same.all(), f"{label} differs at t = {t[~same][:5]}"
    p, g = (v[-len(specials):] for v in got)
    assert np.isnan(p[:2]).all() and np.isnan(g[:2]).all()
    assert (p[2], g[2], p[3], g[3]) == (np.inf, -np.inf, 0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=64))
def test_compiled_routine_matches_numpy_on_any_doubles(compiled, values):
    t = np.array(values)
    got = [np.empty_like(t) for _ in range(2)]
    compiled.exp_pair(t, *got)
    want = [np.empty_like(t) for _ in range(2)]
    with np.errstate(over="ignore", invalid="ignore"):
        kernels._exp_pair(t.copy(), *want)
    for a, b in zip(got, want):
        assert ((a.view(np.uint64) == b.view(np.uint64)) | (np.isnan(a) & np.isnan(b))).all()


def test_routine_is_within_one_ulp_of_a_longdouble_reference():
    # exp and expm1 in 80-bit long double, rounded to double: P and g are
    # the nearest double or one of its neighbours (a subnormal P within one
    # step of 2^-1074), and both lie in [0, 1] wherever Q >= 0
    if np.finfo(np.longdouble).nmant < 63:
        pytest.skip("long double is not the 80-bit extended format here")
    t = routine_points()
    p, g = np.empty_like(t), np.empty_like(t)
    kernels._exp_pair(t.copy(), p, g)
    wide = t.astype(np.longdouble)
    for label, got, want in (("P", p, np.exp(wide)), ("g", g, -np.expm1(wide))):
        nearest = want.astype(np.float64)
        ulps = np.abs(got.view(np.int64) - nearest.view(np.int64))
        assert ulps.max() <= 1, f"{label} is {ulps.max()} ulps off at t = {t[ulps.argmax()]}"
        assert np.all((0.0 <= got) & (got <= 1.0)), label


def test_linear_tail_run_ends_at_the_first_node_outside_it():
    # a NaN or a large |q| ends the run; a later tiny q goes through the routine
    t = kernels.LINEAR_TAIL
    for q in ([0.0, -1e-20, -1e-13, 1e-20], [0.0, 1e-20, np.nan, 1e-20],
              [0.0, 1e-20, 1.0, t / 2, 1e-300]):
        q = np.array(q)
        out_p, out_g = np.empty_like(q), q.copy()
        excess = finish(out_p, out_g, np.empty_like(q))
        p, g = routine_values(q)
        expected = max(float(p.max()) - 1.0, float(-g.min()))
        np.testing.assert_equal(excess, expected)  # NaN when q holds one
        assert np.array_equal(out_p, p, equal_nan=True)  # nothing is repaired
        assert np.array_equal(out_g, g, equal_nan=True)


def reference_finish(out_p: np.ndarray, out_g: np.ndarray, tmp: np.ndarray) -> float:
    """The kernel's finish with its scans not narrowed, kept as the reference.

    It scans the whole band for P's maximum and g's minimum with max and
    min; the kernel scans P only past the linear run and finds both
    extremes by argmax and argmin.  Neither repairs P or g.
    """
    q = out_g
    n = len(q)
    neg_q = tmp[:n]
    linear = np.less(np.abs(q, out=neg_q), kernels.LINEAR_TAIL, out=out_p.view(np.bool_)[:n])
    k = int(np.argmin(linear))  # first node outside the linear run
    if linear[k]:
        k = n
    out_p[:k] = 1.0  # g = q there already
    neg_q = np.negative(q[k:], out=neg_q[k:])
    kernels._exp_pair(neg_q, out_p[k:], out_g[k:])
    return max(float(out_p.max()) - 1.0, float(-out_g.min()))


def finish_both(q: np.ndarray):
    """(excess, P, g) from the kernel's finish and from the reference, on one Q."""
    results = []
    for kernel_finish in (finish, reference_finish):
        out_p, out_g = np.full_like(q, np.nan), q.copy()
        excess = kernel_finish(out_p, out_g, np.full(len(q) + 3, np.nan))
        results.append((np.float64(excess).tobytes(), out_p.tobytes(), out_g.tobytes()))
    return results


T = kernels.LINEAR_TAIL


@pytest.mark.parametrize("q", [
    # the linear run covers no node, or one
    [2.0, 0.5, 1e-20, 3.0],
    [np.nan, 1e-20, 0.5],
    [0.0, 1.0, T / 2, 700.0, 800.0],
    # every node, up to the threshold; and negative Q, for which P exceeds 1
    [0.0, 5e-324, 1e-300, 1e-20, np.nextafter(T, 0.0)],
    [0.0, -1e-20, 1e-25, -np.nextafter(T, 0.0)],
    [-1e-20, 1e-20],
    [0.0],
    # a NaN ends the run, of either sign, and may follow a negative node
    [0.0, 1e-20, np.nan, 1e-20, 0.5],
    [0.0, 1e-20, -np.nan, 2.0, np.nan],
    [0.0, -1e-13, 1e-20, np.nan],
    # negatives past the run: the excess the caller rejects
    [0.0, 1e-20, -0.5, -3.0, 1.0],
    [0.0, -1e-3, 1e-3, -2e-3],
], ids=lambda q: ",".join(f"{v:.3g}" for v in q))
def test_finish_matches_the_reference_bit_for_bit(q):
    got, want = finish_both(np.array(q, dtype=np.float64))
    assert got[1:] == want[1:]  # P and g
    # a NaN excess may differ in sign: the reference's max returns a NaN of
    # its own at some SIMD dispatch levels, and iterate_step rejects any NaN
    excess = [np.frombuffer(r[0], np.float64)[0] for r in (got, want)]
    assert got[0] == want[0] or np.isnan(excess).all()


def front_bands() -> tuple[np.ndarray, np.ndarray]:
    """A band as a front run steps it, and the same band with one negative node.

    The band holds exact zeros, a tail far below an ulp of 1, the front and
    the trailing exact 1s; the negative node drives P past 1 at every later
    node.
    """
    g = np.concatenate((
        np.zeros(5),
        10.0 ** np.linspace(-320.0, -17.0, 3000),
        random_complement(2000, 7)[1:],
        np.ones(100),
    ))
    bad = g.copy()
    bad[2500] = -1e-3
    return g, bad


@QUADRATURES
@pytest.mark.parametrize("delta", [0.001, 0.1, 2.0])
def test_step_matches_the_reference_finish_bit_for_bit(monkeypatch, compiled, trapezoid, delta):
    # the reference replaces the step past the numpy head: the linear run the
    # head wrote and the owned routine, from the Q the head formed, with the
    # excess scanned over the whole band; the numpy step and the compiled
    # one, whose guard is folded into its exp pass, give its bytes
    def reference_step(x, delta, trapezoid, out_p, out_g, work):
        _, k = kernels._numpy_head(x, delta, trapezoid, out_p, out_g, work)
        np.negative(work[k:len(out_g)], out=out_g[k:])  # Q past the run, where the head wrote -Q
        return reference_finish(out_p, out_g, work), 0, k

    g, bad = front_bands()
    for band in (g, bad):
        results = []
        for step in (reference_step, kernels._numpy_step, compiled.step):
            monkeypatch.setattr(kernels, "_step", step)
            out_p, out_g = np.empty_like(band), np.empty_like(band)
            excess, k = kernels.step(band, delta, trapezoid, out_p, out_g, np.empty(len(band) + 5))
            results.append((np.float64(excess).tobytes(), k, out_p.tobytes(), out_g.tobytes()))
        assert results[1] == results[0] and results[2] == results[0]
        # iterate_step raises NumericError on any excess but 0.0
        assert (excess != 0.0) == (band is bad)


@QUADRATURES
@pytest.mark.parametrize("x0", [-1e-3, -1e-20, -1e-310])
def test_step_reports_a_negative_node_0(monkeypatch, compiled, trapezoid, x0):
    # nothing overwrites node 0: a negative g there gives Q(0) < 0, so P(0) > 1
    # or g(0) < 0, and the step reports that excess under either head; the
    # second node brings the sum back to 0, so node 0 alone leaves [0, 1]
    # (-1e-310 starts the compiled head's scaled domain)
    band = np.concatenate(([x0, -2.0 * x0], random_complement(500, 9)[1:], np.ones(50)))
    delta = 0.01
    q0 = np.float64((x0 - x0 * 0.5) * delta if trapezoid else x0 * delta)
    p0, g0 = (x[0] for x in routine_values(np.array([q0])))
    for step in (kernels._numpy_step, compiled.step):
        monkeypatch.setattr(kernels, "_step", step)
        out_p, out_g = np.empty_like(band), np.empty_like(band)
        excess, _ = kernels.step(band, delta, trapezoid, out_p, out_g, np.empty_like(band))
        assert (out_p[0], out_g[0]) == (p0, g0)
        assert np.all((out_p[1:] <= 1.0) & (out_g[1:] >= 0.0))
        assert excess == max(p0 - 1.0, -g0) > 0.0
    # _tail alone, on a Q that is negative at node 0 only
    q = np.array([q0, -q0, 0.5])
    out_p, out_g = np.empty_like(q), q.copy()
    assert finish(out_p, out_g, np.empty_like(q)) == max(p0 - 1.0, -g0)


@QUADRATURES
def test_step_ignores_what_its_buffers_held(trapezoid):
    # bands reuses its buffers: a step must give the same bits whatever the
    # outputs and the scratch held before, and a scratch longer than the
    # band must not change the result
    g = np.concatenate((
        [0.0],
        10.0 ** np.linspace(-300.0, -20.0, 1000),  # a linear tail behind the front
        random_complement(3000, 4)[1:],
        np.ones(200),  # the band's trailing exact 1s
    ))
    fresh = np.zeros_like(g), np.zeros_like(g)
    assert kernels.step(g, 0.003, trapezoid, *fresh, np.zeros_like(g))[0] == 0.0
    assert np.all(fresh[0][:900] == 1.0) and np.all(fresh[1][1:900] > 0.0)
    work = np.full(2 * len(g) + 7, np.nan)
    stale = np.full_like(g, np.nan), np.full_like(g, np.nan)
    assert kernels.step(g, 0.003, trapezoid, *stale, work)[0] == 0.0
    assert np.array_equal(stale[0], fresh[0])
    assert np.array_equal(stale[1], fresh[1])


def test_complement_resolves_saturated_tail():
    # the point of iterating g: behind the front, 1 - P underflows in the
    # exposed probabilities but stays resolved in the complement
    config = RecursionConfig(delta=0.01, x_max=60.0, n_max=120)
    [final] = snapshots(config, [120])
    g = final.complement
    saturated = final.values == 1.0
    assert saturated.any()
    assert np.all(g[saturated][1:] > 0.0)  # still positive, just < 2^-53
    assert g[saturated][1:].min() < 1e-17


# The compiled step (the `compiled` fixture, in conftest.py): the tests call
# its step directly or hand it to kernels.step as _step, and compare it
# with the numpy step.


def compiled_sums(compiled, x: np.ndarray) -> np.ndarray:
    """The compensated prefix sums the compiled head forms of `x`.

    At delta 1 a Riemann Q is the sum itself, so the sums are Q on the
    linear run, the subnormal head included, and minus the -Q past the run.
    P is 1 on the whole run.
    """
    m = len(x)
    out_p, out_g, work = (np.full(m + 3, np.nan) for _ in range(3))
    _, j, k = compiled.step(x, 1.0, False, out_p, out_g, work)
    assert 0 <= j <= k <= m
    for out in (out_p, out_g, work):
        assert np.isnan(out[m:]).all()  # nothing past len(x) is written
    assert np.isnan(work[:k]).all()  # the run, head included, is written to out_g alone
    assert np.all(out_p[:k] == 1.0)
    return np.concatenate((out_g[:k], -work[k:m]))


def both_sums(compiled, x: np.ndarray) -> tuple[bytes, bytes]:
    """The bytes of the compiled and of the numpy compensated prefix sums of `x`."""
    m = len(x)
    want = kernels._prefix_sum(x, np.empty(m), np.empty(m - 1), np.empty(m - 1))
    return compiled_sums(compiled, x).tobytes(), want.tobytes()


@pytest.mark.parametrize("name", sorted(prefix_inputs()) + sorted(edge_inputs()))
def test_compiled_prefix_sum_matches_numpy_bit_for_bit(compiled, name):
    x = {**prefix_inputs(), **edge_inputs()}[name]
    got, want = both_sums(compiled, x)
    assert got == want


@pytest.mark.parametrize("delta,n_max,quadrature", [
    (0.01, 2000, Quadrature.TRAPEZOID),
    (0.001, 200, Quadrature.RIEMANN),
])
def test_compiled_prefix_sum_matches_numpy_on_front_bands(compiled, delta, n_max, quadrature):
    # every 50th band a front run steps, as the next step reads it
    config = RecursionConfig(delta, front_clearance_xmax(n_max, 0.5), n_max, quadrature)
    checked = 0
    for n, (band, _) in enumerate(bands(config, p_floor=0.5)):
        if n % 50 == 0:
            got, want = both_sums(compiled, band.complement)
            assert got == want, f"generation {n}"
            checked += 1
    assert checked == n_max // 50 + 1


def step_bytes(step, trapezoid: bool, band: np.ndarray, delta: float, fill: float) -> list[np.ndarray]:
    """[excess, k, P, g] of one kernels.step run by `step`.

    The outputs and the scratch start filled with `fill`.
    """
    saved = kernels._step
    kernels._step = step
    try:
        out_p, out_g = np.full(len(band), fill), np.full(len(band), fill)
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, exp(inf)
            excess, k = kernels.step(band, delta, trapezoid, out_p, out_g, np.full(len(band) + 5, fill))
    finally:
        kernels._step = saved
    return [np.array([excess]), np.array([float(k)]), out_p, out_g]


def assert_same_step(compiled, trapezoid: bool, band: np.ndarray, delta: float) -> None:
    """The compiled and numpy steps give the same bytes, or NaN at the same nodes.

    The compiled step starts from NaN-filled buffers and the numpy one from
    zeros, so a node the compiled step leaves unwritten shows.
    """
    band = np.asarray(band, dtype=np.float64)
    got = step_bytes(compiled.step, trapezoid, band, delta, np.nan)
    want = step_bytes(kernels._numpy_step, trapezoid, band, delta, 0.0)
    for label, a, b in zip(("excess", "k", "P", "g"), got, want):
        same = (a.view(np.uint64) == b.view(np.uint64)) | (np.isnan(a) & np.isnan(b))
        assert same.all(), f"{label} differs at nodes {np.flatnonzero(~same)[:10]}"


# the scaled head's bounds on |delta| (_compensated.c): below the upper one
# the head lies inside the linear run (at 2^899 a head sum near 2^-900 gives
# Q near 1/2), and from the lower one up every scaled product is normal
HEAD_DELTA = 2.0**841
HEAD_DELTA_MIN = 2.0**-76
BOUND_DELTAS = [2.0**840, np.nextafter(HEAD_DELTA, 0.0), HEAD_DELTA, 2.0**842, 2.0**899, 1e300,
                HEAD_DELTA_MIN, np.nextafter(HEAD_DELTA_MIN, 0.0)]
DELTAS = [0.001, 0.1, 2.0, *BOUND_DELTAS]


@pytest.mark.parametrize("kind", ["float32", "strided", "big_endian"])
def test_compiled_prefix_sum_never_misreads_a_buffer(compiled, kind):
    # such a buffer gives the bytes of its contiguous float64 copy or a clean
    # exception, never its bytes read as doubles
    x = np.sort(np.random.default_rng(3).random(2001))
    given = {"float32": x.astype(np.float32), "strided": x[::2], "big_endian": x.astype(">f8")}[kind]
    copy = np.ascontiguousarray(given, dtype=np.float64)
    m = len(copy)
    outs = [np.full(m, np.nan) for _ in range(3)]
    try:
        compiled.step(given, 1.0, False, *outs)
    except (TypeError, ValueError, BufferError):
        assert all(np.isnan(out).all() for out in outs)  # refused before writing
    else:
        assert compiled_sums(compiled, given).tobytes() == compiled_sums(compiled, copy).tobytes()
    # kernels.step hands either step the contiguous float64 copy
    steps = compiled.step, kernels._numpy_step
    for trapezoid, step in itertools.product((False, True), steps):
        got = step_bytes(step, trapezoid, given, 0.01, np.nan)
        want = step_bytes(step, trapezoid, copy, 0.01, np.nan)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
        assert_same_step(compiled, trapezoid, copy, 0.01)


def test_compiled_prefix_sum_refuses_an_out_it_cannot_fill(compiled):
    memory = np.linspace(0.0, 1.0, 300)
    x = memory[:100]
    read_only = np.empty(100)
    read_only.setflags(write=False)
    for bad in (np.empty(99), np.empty(100, np.float32), np.empty(200)[::2], read_only,
                memory[50:150], x):
        for position in range(3):
            outs = [np.empty(100) for _ in range(3)]
            outs[position] = bad
            before = memory.copy()
            with pytest.raises((TypeError, ValueError, BufferError)):
                compiled.step(x, 0.01, True, *outs)
            assert np.array_equal(memory, before)
            if position < 2:
                with pytest.raises((TypeError, ValueError, BufferError)):
                    compiled.exp_pair(x, *outs[:2])
                assert np.array_equal(memory, before)
    shared = np.empty(100)  # two outputs in one buffer
    with pytest.raises(ValueError):
        compiled.step(x, 0.01, True, shared, np.empty(100), shared)
    with pytest.raises(ValueError):
        compiled.exp_pair(x, shared, shared)
    with pytest.raises(TypeError):
        compiled.step(x, 0.01, True, np.empty(100), np.empty(100))
    with pytest.raises(TypeError):
        compiled.exp_pair(x, np.empty(100))
    # a step of no node has no excess to report, in either build
    for step in (compiled.step, kernels._numpy_step):
        with pytest.raises(ValueError):
            step(np.empty(0), 0.01, True, np.empty(0), np.empty(0), np.empty(0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_compiled_prefix_sum_gives_nan_where_numpy_does(compiled, bad):
    x = np.linspace(0.0, 1.0, 50)
    x[20] = bad
    out = compiled_sums(compiled, x)
    with np.errstate(invalid="ignore"):  # inf - inf in the error term
        want = kernels._prefix_sum(x, np.empty(50), np.empty(49), np.empty(49))
    assert np.array_equal(np.isnan(out), np.isnan(want))
    assert np.isnan(out[20:]).all() and not np.isnan(out[:20]).any()


@QUADRATURES
@pytest.mark.parametrize("delta", DELTAS)
def test_compiled_step_matches_the_numpy_step_bit_for_bit(compiled, trapezoid, delta):
    for band in front_bands():
        assert_same_step(compiled, trapezoid, band, delta)


def subnormals(mantissas) -> np.ndarray:
    """The doubles mantissa * 2^-1074."""
    return np.asarray(mantissas, dtype=np.uint64).view(np.float64)


TINY = np.finfo(np.float64).smallest_normal
# the head sums below 2^-900 in a domain scaled by 2^128 (_compensated.c)
SWITCH = 2.0**-900


def head_inputs() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(29)
    odd = subnormals(2 * rng.integers(1, 2**50, 400) + 1)
    return {
        # inputs that leave the scaled head at and around 2^-900
        "input_at_switch": np.array([0.0, 5e-324, SWITCH / 2, np.nextafter(SWITCH, 0.0),
                                     SWITCH, np.nextafter(SWITCH, 1.0), 1e-200, 0.5]),
        # inputs below 2^-900 whose running sum passes it
        "sum_past_switch": np.concatenate(([0.0], np.full(300, SWITCH / 64), odd[:50])),
        # sums whose unscaled value crosses the subnormal range's top
        "sums_at_smallest_normal": np.concatenate((
            [0.0], subnormals([2**51, 2**51 - 1, 1, 3]), [np.nextafter(TINY, 0.0), TINY],
            np.sort(odd), [1e-300, SWITCH],
        )),
        # the whole band in the head
        "all_head": np.concatenate(([0.0], np.sort(odd))),
        "one_subnormal": subnormals([3]),
        # a subnormal g after a large running sum: after the head, the sum
        # cancels back to 0, and x * 0.5 rounds on the odd mantissas (a
        # fused multiply-add would not round it)
        "subnormal_after_large_sum": np.concatenate(([0.0, 0.5, -0.5], odd)),
        "subnormal_after_normal_sum": np.concatenate(([0.0, 1e-300], odd, [1e-20], odd)),
        # signed zeros, NaN and inf inside the head
        "signed_zeros": np.array([-0.0, 0.0, -0.0, 5e-324, -0.0, 1e-310, -5e-324, 0.0, 1e-305]),
        "negative_zero_first": np.array([-0.0, -0.0, 1e-310, 0.5]),
        "nan_in_head": np.concatenate(([0.0], odd[:20], [np.nan], odd[20:40], [0.5])),
        "inf_in_head": np.concatenate(([0.0], odd[:20], [np.inf], odd[20:40], [0.5])),
        "negative_inf_in_head": np.concatenate(([0.0], odd[:20], [-np.inf], odd[20:40])),
        "nan_first": np.concatenate(([np.nan], odd[:20])),
        "negative_head": -np.concatenate(([0.0], np.sort(odd), [1e-300, 1e-20])),
    }


@QUADRATURES
@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("case", sorted(head_inputs()))
def test_compiled_step_matches_numpy_in_the_head(compiled, case, delta, trapezoid):
    assert_same_step(compiled, trapezoid, head_inputs()[case], delta)


def compiled_head(compiled):
    """The compiled step as a head: its (j, k), as kernels._numpy_head returns them.

    The step writes P and g past the run, and leaves its head's -Q in the
    scratch there.
    """
    return lambda *args: compiled.step(*args)[1:]


def heads(compiled, x: np.ndarray, delta: float, trapezoid: bool):
    """(j, k, P, Q) of each head on `x`, the compiled one first.

    Q is out_g on the linear run and minus the -Q written to the scratch
    past it; the compiled head's buffers start as NaN, so a node it leaves
    unwritten shows.
    """
    m = len(x)
    results = []
    for head, fill in ((compiled_head(compiled), np.nan), (kernels._numpy_head, 0.0)):
        out_p, out_g, work = (np.full(m, fill) for _ in range(3))
        j, k = head(x, delta, trapezoid, out_p, out_g, work)
        if fill is np.nan:
            assert np.isnan(work[:k]).all()  # the run, head included, is written to out_g alone
        results.append((j, k, out_p[:k], np.concatenate((out_g[:k], -work[k:]))))
    return results


def assert_same_head(compiled, x: np.ndarray, delta: float, trapezoid: bool) -> tuple[int, np.ndarray]:
    """Both heads give the same run end and the same bytes of P and Q; (j, Q) of the compiled one."""
    (j, k, p, q), (_, want_k, want_p, want_q) = heads(compiled, x, delta, trapezoid)
    assert k == want_k
    assert np.all(p == 1.0) and p.tobytes() == want_p.tobytes()
    same = (q.view(np.uint64) == want_q.view(np.uint64)) | (np.isnan(q) & np.isnan(want_q))
    assert same.all(), f"Q differs at nodes {np.flatnonzero(~same)[:10]}"
    return j, q


def test_head_inputs_reach_the_scaled_head(compiled):
    # the cases above do leave the head where they say, and the head's Q is
    # the numpy head's
    inputs = head_inputs()
    m = len(inputs["all_head"])
    assert assert_same_head(compiled, inputs["all_head"], 0.01, True)[0] == m
    j, _ = assert_same_head(compiled, inputs["sum_past_switch"], 0.01, True)
    assert 60 < j < 301
    assert assert_same_head(compiled, inputs["input_at_switch"], 0.01, True)[0] == 4
    # from 2^-76 up the scaled head is entered, and below it it is not
    assert assert_same_head(compiled, inputs["all_head"], HEAD_DELTA_MIN, False)[0] == m
    below = np.nextafter(HEAD_DELTA_MIN, 0.0)
    assert assert_same_head(compiled, inputs["all_head"], below, False)[0] == 0
    # at delta 1e300 Q leaves the linear run at node 1, and the scaled head
    # is not entered
    _, _, p, _ = step_bytes(compiled.step, True, inputs["all_head"], 1e300, np.nan)
    assert (p[1:] < 1.0).all()


@QUADRATURES
@pytest.mark.parametrize(
    "delta", BOUND_DELTAS,
    ids=["2^840", "below_2^841", "2^841", "2^842", "2^899", "1e300", "2^-76", "below_2^-76"])
def test_compiled_head_lies_inside_the_linear_run(compiled, delta, trapezoid):
    for case in ("sum_past_switch", "all_head", "input_at_switch"):
        x = head_inputs()[case]
        (j, k, p, q), (_, want_k, _, want_q) = heads(compiled, x, delta, trapezoid)
        if HEAD_DELTA_MIN <= delta < HEAD_DELTA:
            assert 0 < j <= k, case
        else:
            assert j == 0, case
        assert np.all(p == 1.0), case  # the run counts from node 0, the head included
        assert k == want_k, case
        assert q[:k].tobytes() == want_q[:k].tobytes(), case  # out_g holds Q on the run


def exact_q(d: float, delta: float, trapezoid: bool) -> Fraction:
    """Q of node 1 of the band [0, d], exactly, from the rounded difference."""
    return Fraction(d - d * 0.5 if trapezoid else d) * Fraction(delta)


def rounded_to_subnormals(q: Fraction) -> float:
    """The double nearest q, for |q| <= 2^-1022: q rounded to even on the grid 2^-1074."""
    return math.copysign(float(Fraction(round(q * 2**1074), 2**1074)), q)


def tie_error_sign(d: float, delta: float, trapezoid: bool) -> int:
    """Q's exact error sign where its scaled product is an inexact tie of the grid 2^-946, else 0.

    There rounding the scaled product to that grid rounds twice, and to even
    would be wrong for one sign of the error.
    """
    diff = d - d * 0.5 if trapezoid else d
    p = Fraction(diff * 2.0**128 * delta) / 2**128  # the scaled product, unscaled
    exact = exact_q(d, delta, trapezoid)
    if (p * 2**1074).denominator != 2 or p == exact:
        return 0
    return 1 if exact > p else -1


@QUADRATURES
def test_compiled_head_rounds_subnormal_products_once(compiled, trapezoid):
    # bands [0, d] with d in [2^-1022, 2^-1021) and delta in [0.5, 1): Q on
    # node 1 is subnormal, and many scaled products land on a tie of the
    # subnormal grid with a nonzero error of either sign
    rng = np.random.default_rng(32)
    count = 2000
    ds = (np.uint64(1) << np.uint64(52) | rng.integers(0, 2**52, count).astype(np.uint64)).view(np.float64)
    ds[rng.random(count) < 0.5] *= -1.0
    deltas = (np.uint64(0x3FE0000000000000) | rng.integers(0, 2**52, count).astype(np.uint64)).view(np.float64)
    assert TINY <= np.abs(ds).min() and np.abs(ds).max() < 2 * TINY
    assert 0.5 <= deltas.min() and deltas.max() < 1.0
    ties = {-1: 0, 0: 0, 1: 0}
    for d, delta in zip(ds.tolist(), deltas.tolist()):
        ties[tie_error_sign(d, delta, trapezoid)] += 1
        band = np.array([0.0, d])
        _, q = assert_same_head(compiled, band, delta, trapezoid)
        want = rounded_to_subnormals(exact_q(d, delta, trapezoid))
        assert q[1].tobytes() == np.float64(want).tobytes(), (d, delta)
        assert_same_step(compiled, trapezoid, band, delta)
    assert ties[-1] >= 100 and ties[1] >= 100, ties


@QUADRATURES
def test_compiled_head_rounds_up_to_the_smallest_normal(compiled, trapezoid):
    # exact products in [2^-1022 - 2^-1074, 2^-1022): from the tie at
    # 2^-1022 - 2^-1075 up they round to 2^-1022, below it down; the scaled
    # products of some on either side lie on that tie
    cases = []
    for mantissa in range(2**52, 2**52 + 24):
        for k in range(1, 60):
            delta = 1.0 - k * 2.0**-53
            d = float(subnormals([mantissa])[0])
            if trapezoid:
                d *= 2.0  # halved exactly
            if 2**52 - 1 <= mantissa * Fraction(delta) < 2**52:
                cases.append((d, delta))
    results = {}
    for d, delta in cases:
        _, q = assert_same_head(compiled, np.array([0.0, d]), delta, trapezoid)
        want = rounded_to_subnormals(exact_q(d, delta, trapezoid))
        assert q[1] == want, (d, delta)
        results[want] = results.get(want, 0) + 1
        assert_same_step(compiled, trapezoid, np.array([0.0, d]), delta)
    assert results.get(TINY, 0) >= 20 and results.get(np.nextafter(TINY, 0.0), 0) >= 20, results
    assert sum(tie_error_sign(d, delta, trapezoid) != 0 for d, delta in cases) >= 10


@QUADRATURES
@pytest.mark.parametrize("delta", [HEAD_DELTA_MIN, 2.0**-10, 0.25, np.nextafter(0.5, 0.0), 0.5])
def test_compiled_head_keeps_negative_zeros(compiled, trapezoid, delta):
    # a negative head whose products all round to -0.0, at a tie of the
    # subnormal grid at delta 0.5: P = 1 and g = -0.0, with no clamp
    band = np.concatenate(([0.0], np.full(min(int(0.5 / delta), 200), -5e-324)))
    _, q = assert_same_head(compiled, band, delta, trapezoid)
    assert np.all(q[1:] == 0.0) and np.signbit(q[1:]).all()
    excess, _, p, g = step_bytes(compiled.step, trapezoid, band, delta, np.nan)
    assert excess[0] == 0.0 and np.all(p == 1.0)
    assert np.all(g[1:] == 0.0) and np.signbit(g[1:]).all()
    assert_same_step(compiled, trapezoid, band, delta)


band_values = st.one_of(
    st.floats(min_value=5e-324, max_value=1.0),
    st.floats(min_value=-323.3, max_value=0.0).map(lambda e: 10.0**e),
    st.integers(1, 2**52 - 1).map(lambda m: float(subnormals([m])[0])),
    st.just(0.0),
)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(band_values, min_size=1, max_size=300),
    monotone=st.booleans(),
    delta=st.sampled_from(DELTAS),
)
def test_compiled_step_matches_numpy_on_arrays_spanning_the_doubles(compiled, values, monotone, delta):
    band = np.array(values)
    if monotone:
        band = np.sort(band)
    for trapezoid in (False, True):
        assert_same_step(compiled, trapezoid, band, delta)


@pytest.mark.parametrize("delta,n_max,quadrature,every", [
    (0.001, 200, Quadrature.RIEMANN, 20),
    (0.01, 2000, Quadrature.TRAPEZOID, 100),
    (0.1, 3000, Quadrature.TRAPEZOID, 150),
])
def test_compiled_step_matches_numpy_on_front_bands(compiled, delta, n_max, quadrature, every):
    # bands as a front run steps them, every few generations, in both modes
    config = RecursionConfig(delta, front_clearance_xmax(n_max, 0.5), n_max, quadrature)
    checked = 0
    for n, (band, _) in enumerate(bands(config, p_floor=0.5)):
        if n % every == 0:
            g = band.complement.copy()  # bands reuses its buffers
            for trapezoid in (False, True):
                assert_same_step(compiled, trapezoid, g, delta)
            checked += 1
    assert checked == n_max // every + 1
