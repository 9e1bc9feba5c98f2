"""Grid recursion: initial condition, one-step oracle, invariants, quadrature order."""

import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from continuum_cascade import recursion
from continuum_cascade.errors import (
    ConfigurationError,
    ContractViolationError,
    DomainError,
    NumericError,
)
from continuum_cascade.fronts import front_position
from continuum_cascade.recursion import (
    GridFunction,
    Quadrature,
    RecursionConfig,
    closed_form_p1,
    front_clearance_xmax,
    init_p0,
    iterate_step,
    run_recursion,
)


def test_p0_matches_exponential_exactly():
    config = RecursionConfig(delta=0.01, x_max=50.0, n_max=0)
    p0 = init_p0(config)
    xs = config.grid_x()
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
    config = RecursionConfig(delta=0.01, x_max=5.0, n_max=1)
    p1 = iterate_step(init_p0(config), config)
    assert math.isclose(p1.evaluate(1.0), 0.6922006, abs_tol=1e-4)
    assert math.isclose(p1.evaluate(2.0), 0.3212995, abs_tol=1e-4)
    xs = config.grid_x()
    err = np.max(np.abs(p1.values - closed_form_p1(xs)))
    assert err <= 5 * config.delta**2


def test_trapezoid_error_is_second_order():
    errs = {}
    for delta in (0.01, 0.005):
        config = RecursionConfig(delta=delta, x_max=5.0, n_max=1)
        p1 = iterate_step(init_p0(config), config)
        xs = config.grid_x()
        errs[delta] = np.max(np.abs(p1.values - closed_form_p1(xs)))
        assert errs[delta] <= 5 * delta**2
    ratio = errs[0.01] / errs[0.005]
    assert 3.5 <= ratio <= 4.5


def test_one_step_riemann_is_first_order():
    errs = {}
    for delta in (0.02, 0.01):
        config = RecursionConfig(
            delta=delta, x_max=5.0, n_max=1, quadrature=Quadrature.RIEMANN
        )
        p1 = iterate_step(init_p0(config), config)
        xs = config.grid_x()
        errs[delta] = np.max(np.abs(p1.values - closed_form_p1(xs)))
    assert errs[0.02] < 0.02  # O(delta), much looser than trapezoid
    assert 1.5 <= errs[0.02] / errs[0.01] <= 2.5


@pytest.mark.parametrize("quadrature", list(Quadrature))
def test_constant_one_is_a_fixed_point(quadrature):
    config = RecursionConfig(delta=0.01, x_max=3.0, n_max=1, quadrature=quadrature)
    ones = GridFunction(
        delta=config.delta,
        values=np.ones(config.grid_size + 1),
        generation=0,
        complement=np.zeros(config.grid_size + 1),
    )
    out = iterate_step(ones, config)
    assert np.all(out.values == 1.0)
    assert np.all(out.complement == 0.0)


def test_modes_converge_to_each_other():
    diffs = {}
    for delta in (0.01, 0.001):
        snaps = {}
        for quad in Quadrature:
            config = RecursionConfig(delta=delta, x_max=40.0, n_max=50, quadrature=quad)
            snaps[quad] = run_recursion(config).final
        grid = np.arange(0.0, 40.0, 0.01)
        diffs[delta] = np.max(
            np.abs(snaps[Quadrature.RIEMANN].evaluate(grid)
                   - snaps[Quadrature.TRAPEZOID].evaluate(grid))
        )
    assert diffs[0.001] < diffs[0.01]


def test_run_invariants_hold_along_trajectory():
    config = RecursionConfig(delta=0.01, x_max=30.0, n_max=40)
    result = run_recursion(config, snapshot_generations=range(0, 41, 5))
    prev = None
    for snap in result.snapshots:
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


def test_snapshot_out_of_range_rejected():
    config = RecursionConfig(delta=0.01, x_max=1.0, n_max=5)
    with pytest.raises(ConfigurationError):
        run_recursion(config, snapshot_generations=[6])


def test_grid_mismatch_rejected():
    config_a = RecursionConfig(delta=0.01, x_max=2.0, n_max=1)
    config_b = RecursionConfig(delta=0.02, x_max=2.0, n_max=1)
    with pytest.raises(ContractViolationError):
        iterate_step(init_p0(config_a), config_b)
    short = GridFunction(delta=0.01, values=np.ones(7), generation=0)
    with pytest.raises(ContractViolationError):
        iterate_step(short, config_a)


def test_nmax_zero_returns_p0():
    config = RecursionConfig(delta=0.01, x_max=2.0, n_max=0)
    result = run_recursion(config)
    np.testing.assert_array_equal(result.final.values, init_p0(config).values)


def test_evaluate_interpolates_and_guards_domain():
    config = RecursionConfig(delta=0.01, x_max=3.0, n_max=0)
    p0 = init_p0(config)
    assert p0.evaluate(0.0) == 1.0
    mid = 0.5 * (math.exp(-1.00) + math.exp(-1.01))
    assert math.isclose(p0.evaluate(1.005), mid, rel_tol=1e-12)
    with pytest.raises(DomainError):
        p0.evaluate(-0.01)
    with pytest.raises(DomainError):
        p0.evaluate(3.5)


def test_front_clearance_enforced_only_for_front_runs():
    # x_max = 5 is fine without front recording, and too small with it
    config = RecursionConfig(delta=0.01, x_max=5.0, n_max=1)
    result = run_recursion(config, snapshot_generations=[1])
    assert math.isclose(result.final.evaluate(1.0), 0.6922, abs_tol=1e-3)
    small = RecursionConfig(delta=0.01, x_max=5.0, n_max=100)
    with pytest.raises(ConfigurationError):
        run_recursion(small, front_levels=(0.5,))
    assert front_clearance_xmax(100) > 5.0


def test_clamp_diagnostic_fires_on_bad_input():
    # negative complement (P > 1) drives the exponent negative, pushing the
    # output probability past 1 by more than the clamp tolerance
    config = RecursionConfig(delta=0.01, x_max=2.0, n_max=1)
    bad = GridFunction(
        delta=0.01,
        values=np.full(config.grid_size + 1, 1.5),
        generation=0,
        complement=np.full(config.grid_size + 1, -0.5),
    )
    with pytest.raises(NumericError):
        iterate_step(bad, config)


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
    config = RecursionConfig(delta=0.05, x_max=0.05 * (len(lower) - 1), n_max=1)
    out_lo = iterate_step(GridFunction(delta=0.05, values=lower, generation=0), config)
    out_hi = iterate_step(GridFunction(delta=0.05, values=upper, generation=0), config)
    out_lo.check_invariants()
    out_hi.check_invariants()
    assert np.all(out_hi.values >= out_lo.values - 1e-12)


def _full_grid_loop(config, snapshot_generations, levels):
    """Reference run: a plain loop of full-grid iterate_step calls."""
    cur = init_p0(config)
    snaps = {}
    fronts = [[] for _ in levels]
    for n in range(config.n_max + 1):
        if n:
            cur = iterate_step(cur, config)
        if n in snapshot_generations:
            snaps[n] = cur
        for trace, lev in zip(fronts, levels):
            trace.append(front_position(cur, lev))
    return snaps, cur, [np.array(f) for f in fronts]


def _assert_matches_full_grid(config, snapshot_generations, levels):
    snaps, final, fronts = _full_grid_loop(config, snapshot_generations, levels)
    result = run_recursion(config, snapshot_generations, front_levels=levels)
    assert [s.generation for s in result.snapshots] == sorted(snapshot_generations)
    for snap in result.snapshots + [result.final]:
        ref = final if snap is result.final else snaps[snap.generation]
        assert np.array_equal(snap.values, ref.values)
        assert np.array_equal(snap.complement, ref.complement)
    for trace, ref in zip(result.front_traces, fronts):
        assert np.array_equal(trace.positions, ref)
    return final


WINDOW_LEVELS = (0.25, 0.5, 0.75)


@pytest.mark.parametrize("quadrature", list(Quadrature))
@pytest.mark.parametrize("delta, n_max", [(0.01, 250), (0.001, 160)])
def test_window_is_bit_identical_to_full_grid_steps(quadrature, delta, n_max):
    # every generation is a band step; snapshot bands reach the grid end and
    # are padded below.  1 and 151 follow a generation that reached the grid
    # end too (0 and 150), 77 and 150 follow ordinary bands; 151 is odd and
    # comes after the lower edge has started moving, and ordinary bands
    # follow it
    config = RecursionConfig(
        delta=delta, x_max=front_clearance_xmax(n_max), n_max=n_max,
        quadrature=quadrature,
    )
    final = _assert_matches_full_grid(config, {1, 77, 150, 151}, WINDOW_LEVELS)
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
    final = _assert_matches_full_grid(config, {3}, WINDOW_LEVELS)
    assert final.complement[-1] < 1.0


def test_window_widens_for_a_low_front_level(monkeypatch):
    # P < 1e-30 lies ~32 units past the g = 1 edge, beyond the initial margin
    # of one unit, so steps are redone with a doubled margin
    config = RecursionConfig(delta=0.01, x_max=250.0, n_max=200)
    steps = []

    def counted(prev, cfg, nodes=None):
        steps.append(prev.generation)
        return iterate_step(prev, cfg, nodes)

    monkeypatch.setattr(recursion, "iterate_step", counted)
    _assert_matches_full_grid(config, {120}, (1e-30, 0.5))
    assert steps.count(0) > 1  # the first step was redone


def test_band_step_contract():
    config = RecursionConfig(delta=0.01, x_max=2.0, n_max=1)
    p0 = init_p0(config)

    def band(lo, hi):
        return GridFunction(delta=0.01, values=p0.values[lo:hi], generation=0,
                            complement=p0.complement[lo:hi])

    with pytest.raises(ContractViolationError):  # g is not 0 at the first node
        iterate_step(band(1, 50), config, 10)
    with pytest.raises(ContractViolationError):  # g is not 1 at the last node
        iterate_step(band(0, 50), config, 60)
    with pytest.raises(ContractViolationError):  # longer than the grid
        iterate_step(p0, config, config.grid_size + 2)
    assert np.array_equal(iterate_step(band(0, 50), config, 40).values,
                          iterate_step(p0, config).values[:40])
