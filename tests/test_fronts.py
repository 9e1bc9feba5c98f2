"""Front extraction, velocity/log-correction fits, wave collapse, alpha probe."""

import math
import re

import numpy as np
import pytest
from scipy.optimize import brentq

from continuum_cascade import fronts, recursion
from continuum_cascade.errors import (
    ConfigurationError,
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
    read_probe,
    scheme_velocity,
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
    snapshots,
)

E = math.e


def make_trace(n_lo, n_hi, fn):
    gens = np.arange(n_lo, n_hi + 1)
    return FrontTrace(
        level=0.5, generations=gens, positions=fn(gens.astype(float))
    )


def test_front_of_p0_is_log_two():
    front = front_position(init_p0(0.01, 501), 0.5)
    assert abs(front - math.log(2.0)) < 0.01


def test_front_of_p1_matches_root_of_closed_form():
    # independent oracle: solve 1 - x - exp(-x) = -log 2 by bracketing
    root = brentq(lambda x: 1.0 - x - math.exp(-x) + math.log(2.0), 0.5, 3.0, xtol=1e-12)
    p1 = iterate_step(init_p0(0.005, 1201), Quadrature.TRAPEZOID)
    assert abs(front_position(p1, 0.5) - root) < 1e-4
    assert abs(root - 1.4611862) < 1e-6


def test_front_not_found_on_flat_curve():
    ones = GridFunction(delta=0.1, values=np.ones(20), generation=0, complement=np.zeros(20))
    with pytest.raises(FrontNotFoundError):
        front_position(ones, 0.5)


def test_front_level_ordering():
    p0 = init_p0(0.01, 801)
    assert front_position(p0, 0.25) > front_position(p0, 0.75)


def test_front_position_stable_under_grid_refinement():
    fronts = {}
    for delta in (0.02, 0.01):
        config = RecursionConfig(delta=delta, x_max=20.0, n_max=20)
        [p20] = snapshots(config, [20])
        fronts[delta] = front_position(p20, 0.5)
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


def test_log_fit_window_preconditions():
    trace = make_trace(100, 1000, lambda n: n / E)
    with pytest.raises(FitError):
        log_correction_fit(trace, (100, 140))  # too few entries
    with pytest.raises(FitError):
        log_correction_fit(trace, (400, 1000))  # spans less than factor 3


def test_log_fits_reject_a_window_below_n_one():
    trace = make_trace(0, 300, lambda n: n / E)
    for window in ((-100, 300), (0, 300)):
        with pytest.raises(FitError, match="below n = 1"):
            log_correction_fit(trace, window)
        with pytest.raises(FitError, match="below n = 1"):
            log_correction_fit(trace, window, v_fixed=1 / E)


def test_fitted_b_is_level_independent(d01_n2000_traces):
    bs = {}
    v, _ = scheme_velocity(0.01, Quadrature.TRAPEZOID)
    for trace in d01_n2000_traces:
        bs[trace.level] = log_correction_fit(trace, (500, 2000), v_fixed=v).b
    assert abs(bs[0.25] - bs[0.75]) < 0.05


def test_scheme_velocity_reproduces_the_closed_forms():
    deltas = (0.02, 0.01, 0.005, 0.001)
    riemann = [scheme_velocity(d, Quadrature.RIEMANN)[0] for d in deltas]
    assert [round(E * v, 5) for v in riemann] == [0.97294, 0.98644, 0.99321, 0.99864]
    for delta in deltas:  # TRAPEZOID: 1/e - v_delta = e delta^2 / 12 + O(delta^4)
        v, _ = scheme_velocity(delta, Quadrature.TRAPEZOID)
        assert abs((1 / E - v) / (E * delta**2 / 12) - 1) < 0.01
    for quadrature in Quadrature:  # the decay rate tends to the continuum's e
        gaps = [abs(scheme_velocity(d, quadrature)[1] - E) for d in (0.1, 0.01, 0.001)]
        assert gaps[0] > gaps[1] > gaps[2] and gaps[2] < 1e-5
    # just inside either limit the speed is small but positive
    assert scheme_velocity(1.98, Quadrature.TRAPEZOID)[0] > 0.0
    assert scheme_velocity(0.99, Quadrature.RIEMANN)[0] > 0.0


@pytest.mark.parametrize("delta, quadrature", [
    (2.0, Quadrature.TRAPEZOID),
    (5.0, Quadrature.TRAPEZOID),
    (1.0, Quadrature.RIEMANN),
    (0.0, Quadrature.RIEMANN),
    (-0.01, Quadrature.TRAPEZOID),
    (math.nan, Quadrature.TRAPEZOID),
])
def test_scheme_velocity_rejects_a_grid_without_a_front_speed(delta, quadrature):
    with pytest.raises(ConfigurationError, match=re.escape(f"delta={delta}")):
        scheme_velocity(delta, quadrature)


def mp_speed(delta: float, quadrature: Quadrature, lam):
    """-ln K(lambda) / lambda of the scheme's symbol, in 50-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    d = mpmath.mpf(delta)
    if quadrature is Quadrature.TRAPEZOID:
        k = d / 2 * mpmath.coth(lam * d / 2)
    else:
        k = d / (1 - mpmath.exp(-lam * d))
    return -mpmath.log(k) / lam


@pytest.mark.parametrize("delta, quadrature", [
    (0.999, Quadrature.RIEMANN),
    (0.9995, Quadrature.RIEMANN),  # the maximiser lies just past 10
    (0.99995, Quadrature.RIEMANN),
    (1.999, Quadrature.TRAPEZOID),
    (1.99999999, Quadrature.TRAPEZOID),
])
def test_scheme_velocity_solves_near_the_spacing_limit(delta, quadrature):
    # close to the limit the maximiser moves past any fixed bracket: the
    # search grows its bracket and returns the maximum, not a bracket edge
    mpmath = pytest.importorskip("mpmath")
    v, lam = scheme_velocity(delta, quadrature)
    with mpmath.workdps(50):
        root = mpmath.findroot(lambda x: mpmath.diff(lambda y: mp_speed(delta, quadrature, y), x), lam)
        best = mp_speed(delta, quadrature, root)
        assert abs(lam - root) <= 1e-4 * root
        assert abs(v - best) <= 1e-9 * best
        assert v > 0.0


@pytest.mark.parametrize("quadrature", list(Quadrature))
@pytest.mark.parametrize("delta", [5e-324, 1e-320, 1e-310])
def test_scheme_velocity_at_a_subnormal_spacing_is_the_continuum_speed(delta, quadrature):
    # the symbol's ratio in u = lambda delta is 1 where u underflows, so
    # v and lambda are the continuum's 1/e and e (tolerances fixed before
    # the first run: the golden section finds lambda to about 1e-8 on a
    # maximum this flat, and v is second order in lambda's error)
    v, lam = scheme_velocity(delta, quadrature)
    assert abs(v - 1 / E) <= 1e-15
    assert abs(lam - E) <= 1e-6


@pytest.mark.parametrize("trace, delta", [
    ("d01_riemann_n400_trace", 0.01),
    ("d001_riemann_n400_trace", 0.001),
])
def test_joint_fit_finds_the_scheme_velocity(request, trace, delta):
    v_delta, _ = scheme_velocity(delta, Quadrature.RIEMANN)
    fit = log_correction_fit(request.getfixturevalue(trace), (100, 400))
    assert abs(fit.v - v_delta) < 0.1 * abs(1 / E - v_delta)


def test_alpha_star_sits_just_below_the_scheme_velocity():
    # the probe reads at alpha (n/e + ...), a point moving at alpha/e, so a
    # flat probe needs alpha close to e v_delta; its finite-n transient keeps
    # alpha* a little below
    for result in alpha_scan([0.02, 0.01, 0.005, 0.001], n_max=200):
        gap = E * scheme_velocity(result.delta, Quadrature.RIEMANN)[0] - result.alpha_star
        assert 0.0 < gap < 1e-3


def test_wave_collapse_identical_snapshots_is_zero(d01_n2000_snapshots):
    snap = d01_n2000_snapshots[100]
    assert wave_shape_collapse([snap, snap]) == 0.0


def test_wave_collapse_tightens_with_n(d01_n2000_snapshots):
    late = wave_shape_collapse(
        [d01_n2000_snapshots[80], d01_n2000_snapshots[100]]
    )
    early = wave_shape_collapse(
        [d01_n2000_snapshots[1], d01_n2000_snapshots[100]]
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


def _alpha_slabs(config, alpha_lo, alpha_hi):
    """Slabs at config's delta and quadrature for the probes of n = 2..n_max."""
    ns = np.arange(1, config.n_max + 1)  # the probe of n reads generation n - 1
    return probe_slabs(
        config.delta, probe_positions(ns, alpha_lo), probe_positions(ns, alpha_hi),
        config.quadrature,
    )


def test_probe_window_error_names_generation():
    ns = np.arange(1, 31)
    lo, hi = probe_positions(ns, 0.95), probe_positions(ns, 1.01)
    hi[5] = lo[5]  # generation 5, which the probe of n = 6 reads, keeps one point
    slabs = probe_slabs(0.01, lo, hi)
    with pytest.raises(ConfigurationError, match=r"of generation 5 lies outside the window"):
        front_constancy_probe(slabs, 1.0)
    # a window below 0 starts at 0: a point below it is outside the window
    negative = probe_slabs(0.01, probe_positions(ns, -1.0), probe_positions(ns, 1.0))
    assert np.all(negative.lo == 0.0) and negative.first[0] == 0
    with pytest.raises(ConfigurationError, match=r"of generation 1 lies outside"):
        front_constancy_probe(negative, -0.5)


def test_probe_slabs_reject_a_bad_window(monkeypatch):
    # every refusal comes before the recursion steps
    def no_stepping(*args):
        raise AssertionError("the recursion ran before the window was checked")

    monkeypatch.setattr(recursion, "iterate_step", no_stepping)
    lo = probe_positions(np.arange(1, 31), 0.95)
    inf, nan = np.full(30, np.inf), np.full(30, np.nan)
    for bad_lo, bad_hi in ((lo, lo[:-1]), (lo + 0.1, lo), (lo * np.nan, lo), (lo, nan),
                           (lo, inf), (-inf, lo), (lo[:0], lo[:0]), (lo[None], lo[None]),
                           (lo, lo + 1e300)):  # a top node no array can hold
        with pytest.raises(ConfigurationError):
            probe_slabs(0.01, bad_lo, bad_hi)
    for delta in (0.0, -0.01, np.inf, np.nan):
        with pytest.raises(ConfigurationError):
            probe_slabs(delta, lo, lo)
    # a window of G + 1 generations runs the recursion to generation G
    one = probe_slabs(0.01, lo[:1], lo[:1])
    assert one.config.n_max == 0 and len(one.offsets) == 2


def test_probe_slabs_refuse_a_total_no_array_can_hold(monkeypatch):
    # each slab fits one array, but 2000 of them sum past int64: refused by
    # the total, before anything steps or an array is sized by the sum
    def no_stepping(*args):
        raise AssertionError("the recursion ran before the slab total was checked")

    monkeypatch.setattr(recursion, "iterate_step", no_stepping)
    with pytest.raises(ConfigurationError, match=r"hold 200000000000000004000 nodes in all, "
                                                 r"more than one array can hold"):
        probe_slabs(0.001, np.zeros(2000), np.full(2000, 1e14))


def test_probe_rejects_alpha_outside_its_slabs(d01_riemann_n100_slabs):
    slabs = d01_riemann_n100_slabs
    for alpha in (0.9, 1.02, float("nan")):
        with pytest.raises(ConfigurationError):
            front_constancy_probe(slabs, alpha)
    # the slabs hold generations 0..99; a point inside generation 99's
    # window is still outside them when read as generation -1 or 100
    for generation in (-1, 100):
        with pytest.raises(ConfigurationError):
            read_probe(slabs, np.array([generation]), slabs.lo[-1:])


def _evaluate_on_snapshots(snaps, alpha):
    """The probe as a loop of GridFunction.evaluate calls on full snapshots 0..n_max - 1."""
    ns = np.arange(2, len(snaps) + 1)
    targets = probe_positions(ns, alpha)
    return np.array([snaps[int(n) - 1].evaluate(x) for n, x in zip(ns, targets)])


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
    # the snapshots' grid holds the window's top, the probe of n_max at alpha_range[1]
    assert probe_positions(np.array([n_max]), alpha_range[1])[0] < config.x_max
    run = list(snapshots(config, range(n_max)))
    slabs = _alpha_slabs(config, *alpha_range)
    for alpha in alphas:
        ns, values = front_constancy_probe(slabs, alpha)
        assert np.array_equal(ns, np.arange(2, n_max + 1))
        assert np.array_equal(values, _evaluate_on_snapshots(run, alpha))
    # the slabs hold generations 0..G, G = n_max - 1: the first, which the
    # probe never reads, and the last match the snapshots node by node
    for m in (0, n_max - 1):
        slab = slabs.values[slabs.offsets[m] : slabs.offsets[m + 1]]
        nodes = run[m].values[slabs.first[m] : slabs.first[m] + len(slab)]
        assert np.array_equal(slab, nodes)
    if alpha_range[1] > 1.5:
        # some slabs end past the band a generation steps on its own, which
        # ends a margin past where g = 1 - P reaches exactly 1
        natural = [lo + len(band.values) for band, lo in bands(config)][:n_max]
        assert np.any(slabs.first + np.diff(slabs.offsets) > natural)
    if alpha_range[0] == 0.0:
        lows = [lo for _, lo in bands(config)][:n_max]
        assert np.any(slabs.first < lows)


def test_probe_slabs_hold_a_small_share_of_the_grid():
    config = RecursionConfig(
        delta=0.001, x_max=front_clearance_xmax(200), n_max=200,
        quadrature=Quadrature.RIEMANN,
    )
    slabs = _alpha_slabs(config, 0.95, 1.01)
    assert slabs.values.size < (config.n_max - 1) * (config.grid_size + 1) / 10


def test_probe_slabs_step_no_node_past_the_last_slab_end(monkeypatch):
    # node i of a generation depends only on nodes 0..i of the one before,
    # so nothing past the last slab end can reach a slab: the recursion
    # runs on the grid cut there
    config = RecursionConfig(
        delta=0.001, x_max=front_clearance_xmax(200), n_max=200,
        quadrature=Quadrature.RIEMANN,
    )
    stepped = []

    def counted(prev, quadrature, nodes=None, work=None):
        stepped.append((prev.delta, quadrature, nodes))
        return iterate_step(prev, quadrature, nodes, work)

    monkeypatch.setattr(recursion, "iterate_step", counted)
    slabs = _alpha_slabs(config, 0.95, 1.01)
    end = int(np.max(slabs.first + np.diff(slabs.offsets)))  # exclusive
    assert end < (config.grid_size + 1) * 0.7  # x 77.3 of the grid's 126.6
    assert len(stepped) == config.n_max - 1  # generations 1..n_max-1
    run = slabs.config
    assert run.grid_size + 1 == end and run.delta == config.delta
    assert run.n_max == config.n_max - 1 and run.quadrature == config.quadrature
    for delta, quadrature, nodes in stepped:
        assert delta == config.delta and quadrature == config.quadrature and nodes <= end


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


@pytest.mark.parametrize("deltas", [[2.0], [1.0], [1e300], [0.02, 2.0]])
def test_alpha_scan_refuses_a_spacing_without_a_riemann_front(monkeypatch, deltas):
    # the probe measures the RIEMANN scheme's front, which exists for delta < 1
    # alone: every delta is refused by scheme_velocity's rule before any runs
    def no_stepping(*args):
        raise AssertionError("a delta ran before every delta was checked")

    monkeypatch.setattr(fronts, "probe_slabs", no_stepping)
    with pytest.raises(ConfigurationError, match=r"riemann scheme has a front speed only for "
                                                 r"0 < delta < 1"):
        alpha_scan(deltas, n_max=60)


@pytest.mark.parametrize("delta, n_max", [(0.05, 60), (0.01, 150)])
def test_closed_form_slab_count_bounds_the_slabs_kept(delta, n_max):
    # alpha_scan refuses an n_max by this count before building anything:
    # it must not exceed what probe_slabs keeps, and stays within 2 nodes
    # per generation of it
    reads = np.arange(1, n_max + 1)
    kept = probe_slabs(
        delta, probe_positions(reads, 0.95), probe_positions(reads, 1.01), Quadrature.RIEMANN
    )
    least = fronts._least_slab_nodes(delta, n_max, 1.01 - 0.95)
    assert least <= kept.offsets[-1] <= least + 2 * n_max


class _Handed(Exception):
    """Carries the config alpha_scan's probe_slabs handed bands."""


def _scan_grid(monkeypatch, delta, n_max):
    """The grid alpha_scan's slabs step on for one delta, and its window; nothing is stepped."""
    def record(config, reach):
        raise _Handed(config)

    monkeypatch.setattr(fronts, "bands", record)
    with pytest.raises(_Handed) as handed:
        alpha_scan([delta], n_max=n_max)
    reads = np.arange(1, n_max + 1)
    return handed.value.args[0], probe_positions(reads, 0.95), probe_positions(reads, 1.01)


README_DELTAS = (0.02, 0.01, 0.005, 0.001)


@pytest.mark.parametrize("delta, n_max", [(0.5, 30000)] + [(d, 100) for d in README_DELTAS])
def test_alpha_scan_grid_holds_its_probe_window(monkeypatch, delta, n_max):
    # probe_slabs ends the grid at the window's top before any array is
    # built; at n_max 30000 the top probe lies past the front-clearance grid
    config, lo, hi = _scan_grid(monkeypatch, delta, n_max)
    assert (config.delta, config.n_max, config.quadrature) == (delta, n_max - 1, Quadrature.RIEMANN)
    assert hi[-1] == hi.max()
    # the probe of hi[-1] interpolates between its node and the next, the grid end
    assert config.grid_size == math.floor(hi[-1] / delta) + 1
    pos, _ = recursion.grid_position(hi, delta, config.grid_size)
    assert np.array_equal(pos, hi / delta)  # no window point is clipped
    if n_max == 30000:
        assert config.x_max > front_clearance_xmax(n_max)


@pytest.mark.parametrize("delta", README_DELTAS)
def test_window_grid_probes_as_the_front_clearance_grid(delta):
    # a node depends only on the nodes left of it, so the slabs, stepped on
    # a grid cut at the window's top, hold the nodes of a longer grid
    reads = np.arange(1, 101)
    slabs = probe_slabs(
        delta, probe_positions(reads, 0.95), probe_positions(reads, 1.01), Quadrature.RIEMANN
    )
    longer = RecursionConfig(delta, front_clearance_xmax(100), 99, Quadrature.RIEMANN)
    assert longer.grid_size > slabs.config.grid_size
    n_nodes = longer.grid_size + 1
    for m, (band, lo) in enumerate(bands(longer, lambda n: n_nodes)):
        slab = slabs.values[slabs.offsets[m] : slabs.offsets[m + 1]]
        first = slabs.first[m] - lo
        if first < 0:  # nodes below the band hold exactly 1
            assert np.all(slab[:-first] == 1.0)
            slab, first = slab[-first:], 0
        assert np.array_equal(slab, band.values[first : first + len(slab)])


def test_front_fit_dataclass_window_is_recorded():
    trace = make_trace(10, 120, lambda n: 0.3 * n)
    fit = velocity_estimate(trace, (20, 110))
    assert isinstance(fit, FrontFit)
    assert fit.fit_window == (20, 110)


def test_front_trace_increments_are_positive_and_subunit(d001_riemann_n400_trace):
    diffs = np.diff(d001_riemann_n400_trace.positions)
    assert np.all(diffs[2:] > 0.0)  # strictly advancing once n >= 2
    assert np.all(diffs < 1.0)      # velocity below 1


def test_snapshots_shift_right_with_generation(d01_n2000_snapshots):
    fronts = [
        front_position(d01_n2000_snapshots[g], 0.5) for g in (20, 40, 60, 80, 100)
    ]
    assert all(b > a for a, b in zip(fronts, fronts[1:]))


def test_module_constants():
    assert math.isclose(VELOCITY, 1.0 / E, rel_tol=1e-15)
    assert math.isclose(LOG_COEFFICIENT, 3.0 / (2.0 * E), rel_tol=1e-15)
    assert math.isclose(LOG_COEFFICIENT, 0.551819, abs_tol=1e-6)
