"""Grid recursion: initial condition, one-step oracle, invariants, quadrature order."""

import collections
import math
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from continuum_cascade import fronts, graphs, kernels, recursion
from continuum_cascade.errors import (
    ConfigurationError,
    ContractViolationError,
    DomainError,
    FrontNotFoundError,
    NumericError,
)
from continuum_cascade.fronts import front_position
from continuum_cascade.recursion import (
    GridFunction,
    Quadrature,
    RecursionConfig,
    closed_form_p1,
    front_clearance_xmax,
    bands,
    front_traces,
    init_p0,
    iterate_step,
    snapshots,
)


def test_p0_matches_exponential_exactly():
    p0 = init_p0(0.01, 5001)
    xs = p0.grid_x()
    assert p0.values[0] == 1.0
    np.testing.assert_allclose(p0.values, np.exp(-xs), rtol=4e-16, atol=0.0)
    assert math.isclose(p0.evaluate(1.0), math.exp(-1.0), rel_tol=1e-12)
    assert math.isclose(p0.evaluate(2.0), math.exp(-2.0), rel_tol=1e-12)


def test_closed_form_p1_is_the_symbolic_one_step_solution():
    # derive the one-step solution independently: exp(-x + integral of exp(-y))
    x = sympy.symbols("x", positive=True)
    integral = sympy.integrate(sympy.exp(-sympy.Symbol("y")), (sympy.Symbol("y"), 0, x))
    solution = sympy.exp(-x + integral)
    for xv in (0.25, 1.0, 2.0, 4.5):
        expected = float(solution.subs(x, xv))
        assert math.isclose(closed_form_p1(xv), expected, rel_tol=1e-14)
    assert closed_form_p1(0.0) == 1.0
    assert math.isclose(closed_form_p1(1.0), 0.69220063, abs_tol=5e-9)


def test_closed_form_p1_flat_at_origin():
    h = 1e-5
    slope = (closed_form_p1(h) - closed_form_p1(0.0)) / h
    assert abs(slope) < 1e-4  # derivative -1 + exp(-x) vanishes at 0


def test_one_step_trapezoid_matches_closed_form():
    p1 = iterate_step(init_p0(0.01, 501), Quadrature.TRAPEZOID)
    assert math.isclose(p1.evaluate(1.0), 0.6922006, abs_tol=1e-4)
    assert math.isclose(p1.evaluate(2.0), 0.3212995, abs_tol=1e-4)
    err = np.max(np.abs(p1.values - closed_form_p1(p1.grid_x())))
    assert err <= 5 * 0.01**2


def test_trapezoid_error_is_second_order():
    errs = {}
    for delta in (0.01, 0.005):
        p1 = iterate_step(init_p0(delta, round(5.0 / delta) + 1), Quadrature.TRAPEZOID)
        errs[delta] = np.max(np.abs(p1.values - closed_form_p1(p1.grid_x())))
        assert errs[delta] <= 5 * delta**2
    ratio = errs[0.01] / errs[0.005]
    assert 3.5 <= ratio <= 4.5


def test_one_step_riemann_is_first_order():
    errs = {}
    for delta in (0.02, 0.01):
        p1 = iterate_step(init_p0(delta, round(5.0 / delta) + 1), Quadrature.RIEMANN)
        errs[delta] = np.max(np.abs(p1.values - closed_form_p1(p1.grid_x())))
    assert errs[0.02] < 0.02  # O(delta), much looser than trapezoid
    assert 1.5 <= errs[0.02] / errs[0.01] <= 2.5


@pytest.mark.parametrize("quadrature", list(Quadrature))
def test_constant_one_is_a_fixed_point(quadrature):
    ones = GridFunction(delta=0.01, values=np.ones(301), generation=0, complement=np.zeros(301))
    out = iterate_step(ones, quadrature)
    assert np.all(out.values == 1.0)
    assert np.all(out.complement == 0.0)


def test_modes_converge_to_each_other():
    diffs = {}
    for delta in (0.01, 0.001):
        snaps = {}
        for quad in Quadrature:
            config = RecursionConfig(delta=delta, x_max=40.0, n_max=50, quadrature=quad)
            [snaps[quad]] = snapshots(config, [50])
        grid = np.arange(0.0, 40.0, 0.01)
        diffs[delta] = np.max(
            np.abs(snaps[Quadrature.RIEMANN].evaluate(grid)
                   - snaps[Quadrature.TRAPEZOID].evaluate(grid))
        )
    assert diffs[0.001] < diffs[0.01]


def test_run_invariants_hold_along_trajectory():
    config = RecursionConfig(delta=0.01, x_max=30.0, n_max=40)
    prev = None
    for snap in snapshots(config, range(0, 41, 5)):
        snap.check_invariants()
        assert snap.values[0] == 1.0
        if prev is not None:
            assert np.all(snap.values - prev.values >= -1e-12)  # monotone in n
        prev = snap


def test_config_validation():
    with pytest.raises(ConfigurationError):
        RecursionConfig(delta=0.0, x_max=1.0, n_max=1)
    with pytest.raises(ConfigurationError):
        RecursionConfig(delta=-0.1, x_max=1.0, n_max=1)
    with pytest.raises(ConfigurationError):
        RecursionConfig(delta=0.01, x_max=0.005, n_max=1)
    with pytest.raises(ConfigurationError):
        RecursionConfig(delta=0.01, x_max=1.0, n_max=-1)
    # one float64 array must be able to hold the grid's nodes (a config
    # allocates nothing, so the bound itself is checked here)
    for x_max in (float(recursion.MAX_ARRAY_ITEMS), 1e300):
        with pytest.raises(ConfigurationError):
            RecursionConfig(delta=1.0, x_max=x_max, n_max=1)
    with pytest.raises(ConfigurationError):  # x_max / delta overflows to inf
        RecursionConfig(delta=5e-324, x_max=1.0, n_max=1)
    assert RecursionConfig(delta=1.0, x_max=2.0**59, n_max=1).grid_size == 2**59


def test_snapshot_out_of_range_rejected():
    config = RecursionConfig(delta=0.01, x_max=1.0, n_max=5)
    with pytest.raises(ConfigurationError):
        snapshots(config, [6])


@pytest.mark.parametrize("call", [
    lambda: init_p0(0.0, 10),
    lambda: init_p0(-0.01, 10),
    lambda: init_p0(math.nan, 10),
    lambda: init_p0(math.inf, 10),
    lambda: init_p0(0.01, 0),
    lambda: init_p0(0.01, recursion.MAX_ARRAY_ITEMS + 1),
    lambda: iterate_step(init_p0(0.01, 10), "trapezoid"),
], ids=["delta_0", "delta_negative", "delta_nan", "delta_inf", "nodes_0", "nodes_past_bound",
        "quadrature_by_name"])
def test_step_inputs_are_refused(call):
    # a step and generation 0 take raw inputs, and refuse bad ones with exit 2
    with pytest.raises(ConfigurationError) as err:
        call()
    assert err.value.exit_code == 2


@pytest.mark.parametrize("delta", [0.01, 5.0])
def test_p0_on_fewer_nodes_is_the_head_of_p0(delta):
    # bands builds generation 0 only as far as it needs it
    whole = init_p0(delta, 1000)
    for k in (1, 2, 37, 999):
        head = init_p0(delta, k)
        assert head.values.tobytes() == whole.values[:k].tobytes()
        assert head.complement.tobytes() == whole.complement[:k].tobytes()


def test_full_grid_step_starts_where_g_is_zero():
    # a step over all of prev makes the same g(0) = 0 check as a shorter one
    g = np.full(201, -0.5)
    bad = GridFunction(delta=0.01, values=1.0 - g, generation=0, complement=g)
    with pytest.raises(ContractViolationError):
        iterate_step(bad, Quadrature.TRAPEZOID)


def test_nmax_zero_returns_p0():
    config = RecursionConfig(delta=0.01, x_max=2.0, n_max=0)
    [p0] = snapshots(config, [0])
    np.testing.assert_array_equal(p0.values, init_p0(0.01, 201).values)


def test_evaluate_interpolates_and_guards_domain():
    p0 = init_p0(0.01, 301)
    assert p0.evaluate(0.0) == 1.0
    mid = 0.5 * (math.exp(-1.00) + math.exp(-1.01))
    assert math.isclose(p0.evaluate(1.005), mid, rel_tol=1e-12)
    with pytest.raises(DomainError):
        p0.evaluate(-0.01)
    with pytest.raises(DomainError):
        p0.evaluate(3.5)
    with pytest.raises(DomainError):
        p0.evaluate(float("nan"))


def _first_past(trace, x_end: float) -> int:
    """The first generation whose crossing lies past x_end."""
    return int(np.argmax(trace.positions > x_end))


def test_front_grid_end_is_checked_by_the_crossing_read():
    # x_max = 5 is fine without front recording; with it, the run fails at
    # the first generation whose crossing lies past the grid end
    config = RecursionConfig(delta=0.01, x_max=5.0, n_max=1)
    [p1] = snapshots(config, [1])
    assert math.isclose(p1.evaluate(1.0), 0.6922, abs_tol=1e-3)
    [long] = front_traces(RecursionConfig(0.01, front_clearance_xmax(200), 200), (0.5,))
    for x_max, n_max in ((5.0, 100), (10.0, 200)):
        k = _first_past(long, x_max)
        assert 0 < k <= n_max
        with pytest.raises(FrontNotFoundError, match=(
            f"generation {k} does not drop below level 0.5 by the grid end x = {x_max:g}$"
        )):
            front_traces(RecursionConfig(0.01, x_max, n_max), (0.5,))
    # the crossing of 1e-300 lies near ln(1e300) = 690.8 at generation 0,
    # past a grid that ends at the front clearance of n = 100, 82.8
    with pytest.raises(FrontNotFoundError, match="generation 0 does not drop below level 1e-300"):
        front_traces(RecursionConfig(0.02, 83.0, 100), (1e-300,))


def test_every_grid_that_holds_the_crossings_gives_the_same_trace():
    # a node depends only on the nodes left of it: a grid ending at 42 holds
    # every crossing of level 0.5 to n = 100 (the last at 40.26), and gives
    # the front-clearance grid's (82.8) trace bit for bit
    [clearance] = front_traces(RecursionConfig(0.01, front_clearance_xmax(100), 100), (0.5,))
    [short] = front_traces(RecursionConfig(0.01, 42.0, 100), (0.5,))
    assert clearance.positions.max() < 42.0
    assert np.array_equal(short.positions, clearance.positions)
    assert np.array_equal(short.generations, clearance.generations)
    # one ending at 30 fails at the first generation whose crossing is past 30
    k = _first_past(clearance, 30.0)
    assert 0 < k < 100
    with pytest.raises(FrontNotFoundError, match=f"generation {k} does not"):
        front_traces(RecursionConfig(0.01, 30.0, 100), (0.5,))


def test_step_guard_fires_on_bad_input():
    # negative complement (P > 1) past x = 0 drives the exponent negative,
    # pushing the output probability past 1
    g = np.full(201, -0.5)
    g[0] = 0.0
    bad = GridFunction(delta=0.01, values=1.0 - g, generation=0, complement=g)
    with pytest.raises(NumericError):
        iterate_step(bad, Quadrature.TRAPEZOID)


def test_step_guard_fires_on_a_nan():
    # one NaN in a band's complement gives a NaN excess, which must not pass
    # the guard and spread to every later node
    g = init_p0(0.01, 50).complement.copy()
    g[10] = math.nan
    band = GridFunction(delta=0.01, values=1.0 - g, generation=0, complement=g)
    with pytest.raises(NumericError):
        iterate_step(band, Quadrature.TRAPEZOID, 50)


@pytest.mark.parametrize("quadrature,excess", [
    (Quadrature.TRAPEZOID, "5.000e-18"), (Quadrature.RIEMANN, "1.000e-17"),
])
def test_step_guard_has_no_tolerance(quadrature, excess):
    # g dips to -1e-15 at node 1 alone: Q there is delta/2 (trapezoid) or
    # delta (Riemann) times the dip, inside the linear run, so g comes out as
    # that Q, far below any last-ulp jitter, and the run still fails: nothing
    # clamps it to 0
    g = init_p0(0.01, 50).complement.copy()
    g[1] = -1e-15
    band = GridFunction(delta=0.01, values=1.0 - g, generation=0, complement=g)
    with pytest.raises(NumericError, match=rf"generation 1 left \[0, 1\]: excess={excess}$"):
        iterate_step(band, quadrature)


@pytest.mark.parametrize("head", ["numpy", "compiled"])
def test_steps_of_front_alpha_scan_and_compare_have_zero_excess(monkeypatch, request, head):
    # Q >= 0 and a faithful exp and expm1 keep P <= 1 and g >= 0 (kernels.py):
    # the excess is exactly 0.0 on every step of a long front run, of the
    # benchmark's alpha scan and of compare's continuum column
    monkeypatch.setattr(kernels, "_head", kernels._numpy_head if head == "numpy"
                        else request.getfixturevalue("compiled").step_head)
    step, excesses = kernels.step, []

    def recorded(*args):
        excesses.append(step(*args))
        return excesses[-1]

    monkeypatch.setattr(kernels, "step", recorded)
    front_traces(RecursionConfig(0.01, front_clearance_xmax(2000), 2000), (0.5,))
    fronts.alpha_scan([0.02, 0.01, 0.005, 0.001], n_max=200)
    graphs._continuum_cdf(2.0, 0)
    assert len(excesses) > 2000 + 4 * 199
    assert all(e == 0.0 for e in excesses)


def _as_curve(raw: np.ndarray) -> np.ndarray:
    values = np.minimum.accumulate(np.sort(raw)[::-1].copy())
    values[0] = 1.0
    return values


@settings(max_examples=40, deadline=None)
@given(
    arrays(
        np.float64,
        st.integers(min_value=2, max_value=120),
        elements=st.floats(min_value=0.0, max_value=1.0),
    ),
    st.randoms(use_true_random=False),
)
def test_step_is_a_monotone_map_on_probability_curves(raw, rnd):
    # probability-valued input -> probability-valued, non-increasing output,
    # and pointwise-larger input gives pointwise-larger output
    lower = _as_curve(raw)
    bumps = np.array([rnd.random() for _ in range(len(lower))])
    upper = np.maximum(lower, _as_curve(bumps))
    out_lo = iterate_step(
        GridFunction(delta=0.05, values=lower, generation=0, complement=1.0 - lower),
        Quadrature.TRAPEZOID,
    )
    out_hi = iterate_step(
        GridFunction(delta=0.05, values=upper, generation=0, complement=1.0 - upper),
        Quadrature.TRAPEZOID,
    )
    out_lo.check_invariants()
    out_hi.check_invariants()
    assert np.all(out_hi.values >= out_lo.values - 1e-12)


def _full_grid_loop(config, snapshot_generations, levels):
    """Reference run: a plain loop of iterate_step calls over the whole grid."""
    cur = init_p0(config.delta, config.grid_size + 1)
    snaps = {}
    fronts = [[] for _ in levels]
    for n in range(config.n_max + 1):
        if n:
            cur = iterate_step(cur, config.quadrature)
        if n in snapshot_generations:
            snaps[n] = cur
        for trace, lev in zip(fronts, levels):
            trace.append(front_position(cur, lev))
    return snaps, cur, [np.array(f) for f in fronts]


def _assert_matches_full_grid(config, snapshot_generations, levels):
    snaps, final, fronts = _full_grid_loop(config, snapshot_generations, levels)
    got = list(snapshots(config, snapshot_generations))
    assert [s.generation for s in got] == sorted(snapshot_generations)
    for snap in got:
        ref = snaps[snap.generation]
        assert np.array_equal(snap.values, ref.values)
        assert np.array_equal(snap.complement, ref.complement)
    for trace, ref in zip(front_traces(config, levels), fronts):
        assert np.array_equal(trace.positions, ref)
    return final


WINDOW_LEVELS = (0.25, 0.5, 0.75)


@pytest.mark.parametrize("quadrature", list(Quadrature))
@pytest.mark.parametrize("delta, n_max", [(0.01, 250), (0.001, 160)])
def test_window_is_bit_identical_to_full_grid_steps(quadrature, delta, n_max):
    # every generation is a band step; snapshot bands reach the grid end and
    # are padded below.  1 follows generation 0, which ends a little past
    # x = 40, not at the grid end; 151 follows a generation that reached the
    # grid end (150), 77 and 150 follow ordinary bands; 151 is odd and comes
    # after the lower edge has started moving, and ordinary bands follow it
    # up to n_max
    config = RecursionConfig(
        delta=delta, x_max=front_clearance_xmax(n_max), n_max=n_max,
        quadrature=quadrature,
    )
    final = _assert_matches_full_grid(config, {1, 77, 150, 151, n_max}, WINDOW_LEVELS)
    g = final.complement
    # both edges of the band moved: exact zeros behind it, exact ones ahead
    assert int(np.argmax(g != 0.0)) > 1
    assert g[-1] == 1.0 and g[-2] == 1.0


@pytest.mark.parametrize("quadrature", list(Quadrature))
@pytest.mark.parametrize("delta", [0.01, 0.001])
def test_window_reaching_the_grid_end_is_bit_identical(quadrature, delta):
    # the g = 1 edge (x ~ 37) lies past x_max, so every band ends at the grid end
    n_max = 6
    config = RecursionConfig(
        delta=delta, x_max=front_clearance_xmax(n_max), n_max=n_max,
        quadrature=quadrature,
    )
    final = _assert_matches_full_grid(config, {3, n_max}, WINDOW_LEVELS)
    assert final.complement[-1] < 1.0


def test_window_widens_for_a_low_front_level(monkeypatch):
    # P < 1e-30 lies ~32 units past the g = 1 edge, beyond the initial margin
    # of one unit, so steps are redone with a doubled margin
    config = RecursionConfig(delta=0.01, x_max=250.0, n_max=200)
    _assert_matches_full_grid(config, {120}, (1e-30, 0.5))
    steps = []

    def counted(prev, quadrature, nodes=None, work=None):
        steps.append(prev.generation)
        return iterate_step(prev, quadrature, nodes, work)

    monkeypatch.setattr(recursion, "iterate_step", counted)
    front_traces(config, (1e-30, 0.5))
    assert steps.count(0) > 1  # the first step was redone


@pytest.mark.parametrize("delta", [5.0, 2.5])
@pytest.mark.parametrize("snapshots", [{0}, set()])
def test_coarse_grid_bands_are_bit_identical(delta, snapshots):
    # a node every few units of x: generation 0 ends at its first node at
    # x >= 40 - ln 1e-20, where g is exactly 1 and P below the lower level
    # (the CLI's recurse --delta 5 --xmax 120 --nmax 4)
    config = RecursionConfig(delta=delta, x_max=120.0, n_max=4)
    _assert_matches_full_grid(config, snapshots, (1e-20, 0.5))


def test_front_run_steps_no_band_to_the_grid_end(monkeypatch):
    # no consumer reads the last generation past its band, so it is stepped
    # like every other: no step of a front run reaches the grid end
    n_max = 200
    config = RecursionConfig(delta=0.01, x_max=front_clearance_xmax(n_max), n_max=n_max)
    lows = [lo for _, lo in bands(config, p_floor=0.5)]
    stepped = {}

    def counted(prev, quadrature, nodes=None, work=None):
        stepped[prev.generation + 1] = nodes  # a redone step overwrites its first try
        return iterate_step(prev, quadrature, nodes, work)

    monkeypatch.setattr(recursion, "iterate_step", counted)
    front_traces(config, (0.5,))
    assert sorted(stepped) == list(range(1, n_max + 1))
    assert all(lows[n] + nodes < config.grid_size + 1 for n, nodes in stepped.items())


def test_bands_memory_follows_the_band_not_the_grid():
    # the grid grows like n_max / e while the band saturates: draining the
    # generator must not hold memory that grows with the grid
    peaks = {}
    for n_max in (1000, 4000):
        config = RecursionConfig(delta=0.05, x_max=front_clearance_xmax(n_max), n_max=n_max)
        tracemalloc.start()
        try:
            collections.deque(bands(config, p_floor=0.5), maxlen=0)
            peaks[n_max] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[4000] <= 1.25 * peaks[1000], peaks


@pytest.mark.parametrize("quadrature", list(Quadrature))
def test_bands_step_in_two_reused_buffers(quadrature):
    # generation 0 ends at its first node at x >= 40 unless reach(0) asks
    # for more.  Each step writes its P into one buffer and its g into the
    # buffer its input is not in.  The buffers start as long as generation 0
    # and are replaced by longer ones when a band outgrows them, at most
    # once per doubling up to the grid.  From the last growth on, a band's
    # P shares storage with the band before it, from the step after it its
    # g with the band two generations before it, and a copy taken while it
    # is current matches the full-grid step.  x_max leaves the g = 1 edge
    # (x ~ n/e + 38) far from the grid end; in the later passes the
    # generations in `ends` have their band reach it, and are views into
    # the same buffers all the same
    n_max = 60
    config = RecursionConfig(delta=0.01, x_max=150.0, n_max=n_max, quadrature=quadrature)
    n_nodes = config.grid_size + 1
    ref = list(snapshots(config, range(n_max + 1)))
    for ends in ((), (1, 10, 11, 30, 60), (0, 30)):
        held = []
        for n, (band, lo) in enumerate(bands(config, lambda n: n_nodes if n in ends else 0)):
            full = ref[n]
            # band 0 is init_p0's, and snapshots yields copies
            for f in (band, full):
                assert not f.values.flags.writeable and not f.complement.flags.writeable
            assert (lo + len(band.values) == n_nodes) == (n in ends)
            if n >= 1:
                assert not np.shares_memory(band.complement, held[n - 1].complement)
            assert np.array_equal(band.values, full.values[lo : lo + len(band.values)])
            assert np.array_equal(band.complement, full.complement[lo : lo + len(band.values)])
            held.append(band)
        first = len(held[0].values)
        if 0 not in ends:
            assert config.delta * (first - 2) < 40.0 <= config.delta * (first - 1)
            assert held[0].complement[-1] == 1.0
        grown = [n for n in range(1, n_max + 1)
                 if n == 1 or not np.shares_memory(held[n].values, held[n - 1].values)]
        assert len(grown) <= math.ceil(math.log2(n_nodes / first)) + 1
        for n in range(grown[-1] + 2, n_max + 1):
            assert np.shares_memory(held[n].complement, held[n - 2].complement)
        # the band outgrows generation 0 within the run, unless a band reached
        # the grid end at generation 0 or 1
        assert grown == [1] if ends else len(grown) > 1


def test_band_step_contract():
    p0 = init_p0(0.01, 201)
    trapezoid = Quadrature.TRAPEZOID

    def band(lo, hi):
        return GridFunction(delta=0.01, values=p0.values[lo:hi], generation=0,
                            complement=p0.complement[lo:hi])

    with pytest.raises(ContractViolationError):  # g is not 0 at the first node
        iterate_step(band(1, 50), trapezoid, 10)
    with pytest.raises(ContractViolationError):  # there is no first node
        iterate_step(band(0, 0), trapezoid, 10)
    with pytest.raises(ContractViolationError):  # g is not 1 at the last node
        iterate_step(band(0, 50), trapezoid, 60)
    with pytest.raises(ContractViolationError):  # longer than p0, whose g ends below 1
        iterate_step(p0, trapezoid, 202)
    with pytest.raises(ContractViolationError):
        iterate_step(p0, trapezoid, 0)
    assert np.array_equal(iterate_step(band(0, 50), trapezoid, 40).values,
                          iterate_step(p0, trapezoid).values[:40])
    # without a workspace, a band ending at g = 1 is continued by its exact 1s
    for quadrature in Quadrature:
        whole = init_p0(0.1, 451)
        head = GridFunction(delta=0.1, values=whole.values[:401], generation=0,
                            complement=whole.complement[:401])
        assert head.complement[-1] == 1.0
        step, full = iterate_step(head, quadrature, 450), iterate_step(whole, quadrature)
        assert np.array_equal(step.values, full.values[:450])
        assert np.array_equal(step.complement, full.complement[:450])


@pytest.mark.parametrize("quadrature", list(Quadrature))
def test_generations_hold_read_only_float64_arrays(quadrature):
    # GridFunction keeps the arrays it is given, so every builder of a
    # generation makes its arrays read-only float64 itself, however the
    # step was called
    config = RecursionConfig(delta=0.05, x_max=60.0, n_max=40, quadrature=quadrature)
    n_nodes = config.grid_size + 1

    def check(f, generation):
        assert f.generation == generation and f.delta == config.delta
        for a in (f.values, f.complement):
            assert a.dtype == np.float64 and not a.flags.writeable

    for ends in ((), (3, 40)):
        steps = bands(config, lambda n: n_nodes if n in ends else 0, p_floor=0.5)
        for n, (band, lo) in enumerate(steps):
            check(band, n)
    p0 = init_p0(config.delta, n_nodes)
    check(iterate_step(p0, quadrature), 1)
    head = GridFunction(delta=0.05, values=p0.values[:900], generation=7,
                        complement=p0.complement[:900])
    check(iterate_step(head, quadrature, 950), 8)
    g = np.concatenate((head.complement, np.ones(50)))
    check(iterate_step(head, quadrature, 950, (g, np.empty(950), np.empty(950), np.empty(950))), 8)
    # a workspace that would make the result anything but float64 is refused
    with pytest.raises(ContractViolationError):
        iterate_step(head, quadrature, 950,
                     (g, np.empty(950, np.float32), np.empty(950), np.empty(950)))


def test_hand_built_record_keeps_the_callers_arrays():
    # building a record freezes nobody else's array
    values, complement = np.ones(5), np.zeros(5)
    f = GridFunction(delta=0.1, values=values, generation=0, complement=complement)
    assert f.values is values and f.complement is complement
    assert values.flags.writeable and complement.flags.writeable


def _libm_tail(calls: list[int]):
    """kernels._tail with no linear run: exp and expm1 at every node.

    Both heads leave Q in out_g on the run they wrote, so -Q goes to the
    scratch there too and the tail starts at node 0; `calls` gets the run's
    end at each step.
    """
    tail = kernels._tail

    def libm_tail(out_p, out_g, neg_q, k):
        calls.append(k)
        np.negative(out_g[:k], out=neg_q[:k])
        return tail(out_p, out_g, neg_q, 0)

    return libm_tail


@pytest.mark.parametrize("quadrature", list(Quadrature))
@pytest.mark.parametrize("delta, n_max", [(0.01, 600), (0.001, 150)])
def test_linear_tail_is_bit_identical_to_libm_steps(monkeypatch, quadrature, delta, n_max):
    # most of a long run's band is linear tail (|Q| < 2^-56): the kernel's
    # shortcut there gives the bits of exp/expm1 at every node, whichever
    # head the build runs
    config = RecursionConfig(
        delta=delta, x_max=front_clearance_xmax(n_max), n_max=n_max,
        quadrature=quadrature,
    )
    snaps = (1, n_max // 3, n_max - 1, n_max)
    levels = (1e-6, 0.5)
    fast_snaps, fast_traces = list(snapshots(config, snaps)), front_traces(config, levels)
    calls = []
    monkeypatch.setattr(kernels, "_tail", _libm_tail(calls))
    ref_snaps = list(snapshots(config, snaps))
    assert len(calls) == n_max and max(calls) > 1000  # the reference stepped, past long runs
    for got, want in zip(fast_snaps, ref_snaps):
        assert got.generation == want.generation
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.complement, want.complement)
    for got, want in zip(fast_traces, front_traces(config, levels)):
        assert np.array_equal(got.positions, want.positions)
    # the run reached the regime the shortcut serves
    g = fast_snaps[-1].complement
    assert np.count_nonzero((g > 0.0) & (g < kernels.LINEAR_TAIL)) > 1000


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([0.0, 1.0]),
    st.integers(min_value=0, max_value=9 * recursion.EDGE_CHUNK),
    arrays(np.float64, st.integers(min_value=0, max_value=40),
           elements=st.sampled_from([0.0, -0.0, 1.0, 0.5, 5e-324, np.nan])),
)
@example(0.0, 9 * recursion.EDGE_CHUNK, np.array([]))  # all v, many chunks
@example(1.0, 1, np.array([]))  # length 1, all v
@example(0.0, 0, np.array([0.5]))  # length 1, no run
def test_edge_scan_matches_argmax(v, run, rest):
    a = np.concatenate((np.full(run, v), rest))
    assume(len(a) > 0)
    for x in (a, a[::-1]):
        assert recursion._first_not(x, v) == int(np.argmax(x != v))
