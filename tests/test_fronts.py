"""Front extraction, velocity/log-correction fits, wave collapse, alpha probe."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from continuum_cascade.errors import (
    ConfigurationError,
    DomainError,
    FitError,
    FrontNotFoundError,
    ScanError,
)
from continuum_cascade.fronts import (
    LOG_COEFFICIENT,
    VELOCITY,
    FrontFit,
    alpha_scan,
    front_constancy_probe,
    front_position,
    log_correction_fit,
    probe_drift_rms,
    probe_positions,
    probe_slabs,
    richardson_velocity,
    velocity_estimate,
    wave_shape_collapse,
)
from continuum_cascade.recursion import (
    FrontTrace,
    GridFunction,
    Quadrature,
    RecursionConfig,
    bands,
    front_clearance_xmax,
    init_p0,
    iterate_step,
    run_recursion,
)

E = math.e


def make_trace(n_lo, n_hi, fn):
    gens = np.arange(n_lo, n_hi + 1)
    return FrontTrace(
        level=0.5, generations=gens, positions=fn(gens.astype(float))
    )


def test_front_of_p0_is_log_two():
    config = RecursionConfig(delta=0.01, x_max=5.0, n_max=0)
    front = front_position(init_p0(config), 0.5)
    assert abs(front - math.log(2.0)) < config.delta


def test_front_of_p1_matches_root_of_closed_form():
    # independent oracle: solve 1 - x - exp(-x) = -log 2 by bracketing
    root = brentq(lambda x: 1.0 - x - math.exp(-x) + math.log(2.0), 0.5, 3.0, xtol=1e-12)
    config = RecursionConfig(delta=0.005, x_max=6.0, n_max=1)
    p1 = iterate_step(init_p0(config), config)
    assert abs(front_position(p1, 0.5) - root) < 1e-4
    assert abs(root - 1.4611862) < 1e-6


def test_front_not_found_on_flat_curve():
    ones = GridFunction(delta=0.1, values=np.ones(20), generation=0)
    with pytest.raises(FrontNotFoundError):
        front_position(ones, 0.5)


def test_front_level_ordering():
    config = RecursionConfig(delta=0.01, x_max=8.0, n_max=0)
    p0 = init_p0(config)
    assert front_position(p0, 0.25) > front_position(p0, 0.75)


def test_front_position_stable_under_grid_refinement():
    fronts = {}
    for delta in (0.02, 0.01):
        config = RecursionConfig(delta=delta, x_max=20.0, n_max=20)
        fronts[delta] = front_position(run_recursion(config).final, 0.5)
    assert abs(fronts[0.02] - fronts[0.01]) < 2 * 0.02


def test_velocity_exact_on_linear_trace():
    trace = make_trace(10, 60, lambda n: 0.25 * n)
    fit = velocity_estimate(trace, (10, 60))
    assert abs(fit.v - 0.25) < 1e-12
    assert fit.b == 0.0
    assert fit.residual_rms < 1e-12


def test_velocity_exact_on_constant_gap_trace():
    d = 0.37
    trace = make_trace(0, 30, lambda n: 1.3 + d * n)
    fit = velocity_estimate(trace, (0, 30))
    assert abs(fit.v - d) < 1e-12


def test_velocity_window_too_small():
    trace = make_trace(0, 100, lambda n: n / E)
    with pytest.raises(FitError):
        velocity_estimate(trace, (10, 15))


def test_log_fit_round_trip():
    b_true = 3.0 / (2.0 * E)
    trace = make_trace(100, 400, lambda n: n / E + b_true * np.log(n) + 0.7)
    joint = log_correction_fit(trace, (100, 400))
    assert abs(joint.v - 1 / E) < 1e-9
    assert abs(joint.b - b_true) < 1e-9
    assert abs(joint.a - 0.7) < 1e-9
    fixed = log_correction_fit(trace, (100, 400), v_fixed=1 / E)
    assert abs(fixed.b - b_true) < 1e-9
    assert abs(fixed.a - 0.7) < 1e-9


def test_log_fit_zero_correction_round_trip():
    trace = make_trace(100, 400, lambda n: n / E)
    fit = log_correction_fit(trace, (100, 400), v_fixed=1 / E)
    assert abs(fit.b) < 1e-9


def test_richardson_velocity_eliminates_log_bias_exactly():
    b_true = 3.0 / (2.0 * E)
    trace = make_trace(100, 900, lambda n: n / E + b_true * np.log(n) - 2.1)
    v = richardson_velocity(trace, (100, 900))
    assert abs(v - 1 / E) < 1e-10


def test_log_fit_window_preconditions():
    trace = make_trace(100, 1000, lambda n: n / E)
    with pytest.raises(FitError):
        log_correction_fit(trace, (100, 140))  # too few entries
    with pytest.raises(FitError):
        log_correction_fit(trace, (400, 1000))  # spans less than factor 3


def test_fitted_b_is_level_independent(d01_n2000_run):
    bs = {}
    for trace in d01_n2000_run.front_traces:
        v = richardson_velocity(trace, (500, 2000))
        bs[trace.level] = log_correction_fit(trace, (500, 2000), v_fixed=v).b
    assert abs(bs[0.25] - bs[0.75]) < 0.05


def test_wave_collapse_identical_snapshots_is_zero(d01_n2000_run):
    snap = d01_n2000_run.snapshot(100)
    assert wave_shape_collapse([snap, snap]) == 0.0


def test_wave_collapse_tightens_with_n(d01_n2000_run):
    late = wave_shape_collapse(
        [d01_n2000_run.snapshot(80), d01_n2000_run.snapshot(100)]
    )
    early = wave_shape_collapse(
        [d01_n2000_run.snapshot(1), d01_n2000_run.snapshot(100)]
    )
    assert late < 0.02
    assert early > late


def test_probe_plateau_at_paper_alpha(d01_riemann_n100_slabs):
    ns, vals = front_constancy_probe(d01_riemann_n100_slabs, 0.9855)
    sel = (ns >= 60) & (ns <= 100)
    assert np.max(np.abs(vals[sel] - vals[-1])) < 0.05


def test_probe_drifts_monotonically_at_alpha_one(d01_riemann_n100_slabs):
    # the Riemann front lags the continuum positions, so the probe at
    # alpha = 1 walks into the tail: values fall steadily
    _, vals = front_constancy_probe(d01_riemann_n100_slabs, 1.0)
    half = vals[len(vals) // 2 :]
    assert np.all(np.diff(half) < 0.0)
    assert vals[-1] < vals[len(vals) // 2] - 0.02


def test_probe_domain_error_names_generation():
    config = RecursionConfig(delta=0.01, x_max=3.0, n_max=30)
    slabs = probe_slabs(config, (0.95, 1.01))
    with pytest.raises(DomainError, match=r"n=6"):
        front_constancy_probe(slabs, 1.0)
    negative = probe_slabs(config, (-1.0, 1.0))
    with pytest.raises(DomainError, match=r"n=2"):
        front_constancy_probe(negative, -0.5)


def test_probe_rejects_alpha_outside_its_slabs(d01_riemann_n100_slabs):
    for alpha in (0.9, 1.02, float("nan")):
        with pytest.raises(ConfigurationError):
            front_constancy_probe(d01_riemann_n100_slabs, alpha)


def _evaluate_on_snapshots(run, alpha):
    """The probe as a loop of GridFunction.evaluate calls on full snapshots."""
    ns = np.arange(2, run.config.n_max + 1)
    targets = probe_positions(ns, alpha)
    return np.array([run.snapshot(int(n) - 1).evaluate(x) for n, x in zip(ns, targets)])


@pytest.mark.parametrize("delta, n_max, alpha_range, alphas", [
    (0.01, 100, (0.95, 1.01), (0.95, 0.9855, 0.99731, 1.01)),
    (0.001, 60, (0.95, 1.01), (0.95, 0.9977, 1.01)),
    # slabs past the g = 1 edge: reach, not the margin, sizes the bands
    (0.01, 100, (0.5, 2.0), (0.5, 0.77, 1.0, 1.6, 2.0)),
    # slabs below the band's lower edge (x ~ 3.5 at n = 249) read exact 1s
    (0.01, 250, (0.0, 1.01), (0.0, 0.02, 0.5, 1.0)),
])
def test_probe_on_slabs_is_bit_identical_to_full_snapshots(delta, n_max, alpha_range, alphas):
    config = RecursionConfig(
        delta=delta, x_max=front_clearance_xmax(n_max), n_max=n_max,
        quadrature=Quadrature.RIEMANN,
    )
    run = run_recursion(config, range(1, n_max))
    slabs = probe_slabs(config, alpha_range)
    for alpha in alphas:
        ns, values = front_constancy_probe(slabs, alpha)
        assert np.array_equal(ns, np.arange(2, n_max + 1))
        assert np.array_equal(values, _evaluate_on_snapshots(run, alpha))
    if alpha_range[1] > 1.5:
        # some slabs end past the band a generation steps on its own, which
        # ends a margin past where g = 1 - P reaches exactly 1
        natural = [lo + len(band.values) for band, lo in bands(config)][1:n_max]
        assert np.any(slabs.first + np.diff(slabs.offsets) > natural)
    if alpha_range[0] == 0.0:
        lows = [lo for _, lo in bands(config)][1:n_max]
        assert np.any(slabs.first < lows)


def test_probe_slabs_hold_a_small_share_of_the_grid():
    config = RecursionConfig(
        delta=0.001, x_max=front_clearance_xmax(200), n_max=200,
        quadrature=Quadrature.RIEMANN,
    )
    slabs = probe_slabs(config, (0.95, 1.01))
    assert slabs.values.size < (config.n_max - 1) * (config.grid_size + 1) / 10


def test_alpha_scan_reproduces_reference_values(alpha_scan_results):
    by_delta = {r.delta: r.alpha_star for r in alpha_scan_results}
    assert abs(by_delta[0.01] - 0.9855) <= 0.005
    assert abs(by_delta[0.001] - 0.9977) <= 0.002
    stars = [by_delta[d] for d in (0.02, 0.01, 0.005, 0.001)]
    assert all(a < b for a, b in zip(stars, stars[1:]))
    assert all(0.9 < a < 1.1 for a in stars)


def test_alpha_scan_result_probe_is_flat(alpha_scan_results):
    for res in alpha_scan_results:
        assert probe_drift_rms(res.probe_values) < 0.01


def test_alpha_scan_error_when_no_interior_minimum():
    with pytest.raises(ScanError):
        alpha_scan([0.01], n_max=60, alpha_range=(0.5, 0.8))


def test_front_fit_dataclass_window_is_recorded():
    trace = make_trace(10, 120, lambda n: 0.3 * n)
    fit = velocity_estimate(trace, (20, 110))
    assert isinstance(fit, FrontFit)
    assert fit.fit_window == (20, 110)


def test_front_trace_increments_are_positive_and_subunit(d001_riemann_n400_trace):
    diffs = np.diff(d001_riemann_n400_trace.positions)
    assert np.all(diffs[2:] > 0.0)  # strictly advancing once n >= 2
    assert np.all(diffs < 1.0)      # velocity below 1


def test_snapshots_shift_right_with_generation(d01_n2000_run):
    fronts = [
        front_position(d01_n2000_run.snapshot(g), 0.5) for g in (20, 40, 60, 80, 100)
    ]
    assert all(b > a for a, b in zip(fronts, fronts[1:]))


def test_module_constants():
    assert math.isclose(VELOCITY, 1.0 / E, rel_tol=1e-15)
    assert math.isclose(LOG_COEFFICIENT, 3.0 / (2.0 * E), rel_tol=1e-15)
    assert math.isclose(LOG_COEFFICIENT, 0.551819, abs_tol=1e-6)
