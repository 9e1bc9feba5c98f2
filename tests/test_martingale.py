"""Boundary-case moments, offspring law, derivative martingale, limit-law probe."""

import math

import numpy as np
import pytest

from continuum_cascade import fronts, martingale, recursion
from continuum_cascade.errors import ConfigurationError, DomainError, NumericError
from continuum_cascade.fronts import LOG_COEFFICIENT, VELOCITY
from continuum_cascade.martingale import (
    DEFAULT_V_MAX,
    INTENSITY,
    SUPPORT_LO,
    derivative_weight,
    equivalence_check,
    simulate_Dn,
    verify_boundary_conditions,
)
from continuum_cascade.recursion import (
    MAX_ARRAY_ITEMS,
    Quadrature,
    RecursionConfig,
    front_clearance_xmax,
    snapshots,
)
from continuum_cascade.simulate import BRW_STREAM, DEFAULT_PARTICLE_CAP, trial_rng


def test_boundary_moment_residuals():
    report = verify_boundary_conditions()
    assert report.m1_residual < 1e-10
    assert report.m2_residual < 1e-10
    assert abs(report.m4_value - math.e) < 1e-10


def test_moment_rules_that_disagree_raise(monkeypatch):
    exact = martingale.laggauss

    def perturbed(nodes):
        t, w = exact(nodes)
        if nodes == max(martingale.MOMENT_RULE_NODES):
            w = w.copy()
            w[0] *= 1.0 + 1e-8
        return t, w

    monkeypatch.setattr(martingale, "laggauss", perturbed)
    with pytest.raises(NumericError, match="did not converge"):
        verify_boundary_conditions()


def test_second_moment_equals_e_by_antiderivative():
    # -(y^2 + 2y + 2) e^-y evaluated at -1 gives -e; the upper limit vanishes
    lower = -((-1.0) ** 2 + 2 * (-1.0) + 2.0) * math.exp(1.0)
    assert math.isclose(-lower, math.e, rel_tol=1e-15)


@pytest.mark.parametrize("v_max", [-2.0, math.nan, math.inf])
def test_simulate_Dn_rejects_a_bad_v_max(v_max):
    with pytest.raises(ConfigurationError, match="v_max"):
        simulate_Dn(2, np.random.default_rng(0), v_max=v_max)


@pytest.mark.parametrize("cap", [0, -5])
def test_simulate_Dn_rejects_a_particle_cap_below_one(cap):
    with pytest.raises(ConfigurationError, match="particle_cap"):
        simulate_Dn(3, np.random.default_rng(0), particle_cap=cap)


# The offspring law is checked on the draw `cascade brw` runs: one or two
# generations of simulate_Dn from a root at 0.


def test_offspring_empty_at_degenerate_support():
    rng = np.random.default_rng(0)
    for _ in range(100):
        traj = simulate_Dn(1, rng, v_max=-1.0, keep_positions=True)
        assert traj.positions[1].size == 0


def test_offspring_support_and_translation():
    # children land in [p - 1, p + v_max] of their parent p: generation 1
    # around the root, generation 2 inside the hull of generation 1 widened
    rng = np.random.default_rng(1)
    for _ in range(200):
        _, kids, grandkids = simulate_Dn(2, rng, v_max=5.0, keep_positions=True).positions
        assert np.all(kids >= -1.0) and np.all(kids <= 5.0)
        if grandkids.size:
            assert grandkids.min() >= kids.min() - 1.0
            assert grandkids.max() <= kids.max() + 5.0


def test_offspring_mean_count():
    rng = np.random.default_rng(2)
    draws = 20000
    counts = [
        simulate_Dn(1, rng, keep_positions=True).positions[1].size for _ in range(draws)
    ]
    mean = np.mean(counts)
    target = (DEFAULT_V_MAX + 1.0) / math.e
    assert math.isclose(target, 7.7255, abs_tol=1e-3)
    assert abs(mean - target) <= 3.0 * math.sqrt(target / draws)


def test_D0_is_zero():
    traj = simulate_Dn(0, np.random.default_rng(3))
    assert traj.values[0] == 0.0
    assert traj.generation_sizes[0] == 1


def test_hand_built_generation_weight():
    positions = np.array([-0.5, 1.0])
    expected = -0.5 * math.exp(0.5) + 1.0 * math.exp(-1.0)
    assert math.isclose(derivative_weight(positions), expected, rel_tol=1e-15)
    assert math.isclose(expected, -0.456481, abs_tol=1e-6)
    assert derivative_weight(np.empty(0)) == 0.0


def test_streaming_and_posthoc_sums_agree_exactly():
    traj = simulate_Dn(4, np.random.default_rng(4), keep_positions=True)
    for gen, pos in enumerate(traj.positions):
        assert derivative_weight(pos) == traj.values[gen]
        assert len(pos) == traj.generation_sizes[gen]


def test_martingale_has_zero_mean():
    # E[D_n] = D_0 = 0; checked on the exact process at small n
    trials = 3000
    d1 = np.empty(trials)
    d2 = np.empty(trials)
    for i in range(trials):
        traj = simulate_Dn(2, np.random.default_rng((5, i)))
        d1[i], d2[i] = traj.values[1], traj.values[2]
    for sample in (d1, d2):
        sem = sample.std() / math.sqrt(trials)
        assert abs(sample.mean()) <= 3.0 * sem


def test_survival_fraction_matches_galton_watson():
    # extinction probability of Poisson(21/e) offspring: q = exp(-m (1 - q))
    m = (DEFAULT_V_MAX + 1.0) / math.e
    q = 0.5
    for _ in range(200):
        q = math.exp(-m * (1.0 - q))
    trials = 2000
    dead = sum(
        not simulate_Dn(3, np.random.default_rng((6, i))).survived
        for i in range(trials)
    )
    assert abs(dead / trials - q) <= 3.0 * math.sqrt(q * (1 - q) / trials) + 1e-3


def test_displacement_cutoff_insensitivity():
    # doubling v_max leaves the D_3 law unchanged within Monte Carlo error
    # (the neglected intensity mass is e^-20 (20+2) < 1e-7)
    trials = 1200
    d20 = np.array([
        simulate_Dn(3, np.random.default_rng((9, 0, i)), v_max=20.0).values[3]
        for i in range(trials)
    ])
    d40 = np.array([
        simulate_Dn(3, np.random.default_rng((9, 1, i)), v_max=40.0).values[3]
        for i in range(trials)
    ])
    sem = math.sqrt(d20.var() / trials + d40.var() / trials)
    assert abs(d20.mean() - d40.mean()) <= 3.0 * sem
    assert math.exp(-20.0) * 22.0 < 1e-7


def test_truncation_flag_fires_with_small_cap():
    traj = simulate_Dn(6, np.random.default_rng(7), particle_cap=50)
    assert traj.truncated
    assert not traj.survived
    assert traj.values[-1] == 0.0


def _draw_then_filter(n, rng, v_max=DEFAULT_V_MAX, particle_cap=DEFAULT_PARTICLE_CAP):
    """simulate_Dn's generation loop as it was written before it called
    simulate.offspring: every parent's children are counted, then placed.
    Returns the generations and the truncation flag; the oracle for the
    walk's bits."""
    positions = np.zeros(1)
    generations = [positions]
    truncated = False
    for _ in range(n):
        if positions.size:
            counts = rng.poisson((v_max - SUPPORT_LO) * INTENSITY, size=positions.size)
            total = int(counts.sum())
            if total > particle_cap:
                truncated = True
                positions = np.empty(0)
            elif total == 0:
                positions = np.empty(0)
            else:
                parents = np.repeat(positions, counts)
                positions = parents + rng.uniform(SUPPORT_LO, v_max, size=total)
        generations.append(positions)
    return generations, truncated


@pytest.mark.parametrize("n, seed, cap", [
    (4, 0, DEFAULT_PARTICLE_CAP),
    (4, 1, DEFAULT_PARTICLE_CAP),
    (5, 2, DEFAULT_PARTICLE_CAP),
    (6, 7, 50),  # the cap is hit
])
def test_unpruned_walk_keeps_its_bits_through_the_shared_step(n, seed, cap):
    traj = simulate_Dn(n, np.random.default_rng(seed), particle_cap=cap, keep_positions=True)
    generations, truncated = _draw_then_filter(n, np.random.default_rng(seed), particle_cap=cap)
    assert traj.truncated == truncated == (cap == 50)
    assert len(traj.positions) == len(generations) == n + 1
    for k, (got, want) in enumerate(zip(traj.positions, generations)):
        np.testing.assert_array_equal(got, want)
        assert traj.values[k] == derivative_weight(want)
        assert traj.generation_sizes[k] == want.size


def test_leftmost_particle_has_the_law_of_the_recursion(check_binomial):
    # the paper's reformulation, exactly: with V = e d - 1 per generation,
    # P(min V_4 > e x - 4) = P_3(x).  Trials, seed, x set and level were
    # fixed before the first run
    walks = 4000
    minima = np.full(walks, math.inf)  # an extinct walk has no minimum
    for i in range(walks):
        last = simulate_Dn(4, trial_rng(11, BRW_STREAM, i), keep_positions=True).positions[4]
        if last.size:
            minima[i] = last.min()
    [p3] = snapshots(RecursionConfig(0.001, 3.5, 3), [3])
    for x in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
        survivors = int(np.count_nonzero(minima > math.e * x - 4))
        check_binomial(survivors, walks, float(p3.evaluate(x)), f"x={x}")


def test_extinct_trajectory_stays_zero():
    # a support of width 1e-6 has about 4e-7 children per particle: the
    # population dies at once
    traj = simulate_Dn(5, np.random.default_rng(9), v_max=-0.999999)
    assert not traj.survived
    assert np.all(traj.values[1:] == 0.0)
    assert np.all(traj.generation_sizes[1:] == 0)


def test_equivalence_check_preconditions(monkeypatch):
    # every precondition is checked before the recursion runs
    def no_stepping(*args):
        raise AssertionError("the recursion ran before the preconditions were checked")

    monkeypatch.setattr(fronts, "probe_slabs", no_stepping)
    cases = [
        (0.01, [0.0], (100, 200)),
        (0.0, [0.0], (100, 200)),
        (-0.001, [0.0], (100, 200)),
        (float("nan"), [0.0], (100, 200)),
        (0.001, [0.0], (100, 199)),
        (0.001, [0.0], (100,)),
        (0.001, [0.0], (200, 200)),
        (0.001, [0.0], (1, 200)),
        (0.001, [], (100, 200)),
        # a last generation too big for one array, refused before any is built
        (0.001, [0.0], [2, 2**62]),
        (0.001, [0.0], [2, 2**64]),
    ]
    for delta, z_grid, generations in cases:
        with pytest.raises(ConfigurationError):
            equivalence_check(delta, z_grid, generations)
    for huge in (2**62, 2**64):
        with pytest.raises(ConfigurationError, match=f"probe generation {huge} exceeds "):
            equivalence_check(0.001, [0.0], [2, huge])


def test_equivalence_check_refuses_slabs_no_array_can_hold(monkeypatch):
    # 1999 windows 1e14 wide sum to more nodes than int64 counts: refused by
    # the total, not as a negative array size, and before anything steps
    def no_stepping(*args):
        raise AssertionError("the recursion ran before the slab total was checked")

    monkeypatch.setattr(recursion, "iterate_step", no_stepping)
    with pytest.raises(ConfigurationError, match=r"nodes in all, more than one array can hold"):
        equivalence_check(0.001, [0.0, 1e14], [2, 2000])


def test_equivalence_check_slabs_run_to_the_last_generation_read(monkeypatch):
    # the probe of n reads generation n - 1: windows for n = 1..201 keep
    # generations 0..200, at the delta and quadrature given
    calls = []

    def record(*args):
        calls.append(args)
        raise AssertionError("recorded")

    monkeypatch.setattr(fronts, "probe_slabs", record)
    with pytest.raises(AssertionError, match="recorded"):
        equivalence_check(0.0005, [-1.0, 2.0], [201, 100], Quadrature.RIEMANN)
    (delta, lo, hi, quadrature), = calls
    assert delta == 0.0005 and quadrature is Quadrature.RIEMANN
    base = fronts.probe_positions(np.arange(1, 202), 1.0)
    assert np.array_equal(lo, base - 1.0) and np.array_equal(hi, base + 2.0)


def test_equivalence_check_finds_off_grid_points_before_stepping(monkeypatch):
    # the points read are known before the recursion runs, so one below
    # x = 0 fails at once; the slabs' grid is sized to their window, so a
    # point past the front clearance (126.56 at n = 200) is read as on a
    # grid that holds it
    ns = np.array([100, 200])
    # base + 55 is 131.5 at n = 200
    past = equivalence_check(0.001, [55.0], ns)
    run = snapshots(RecursionConfig(0.001, 140.0, 200), ns - 1)
    points = fronts.probe_positions(ns, 1.0) + 55.0
    want = [snap.evaluate(x) for snap, x in zip(run, points)]
    assert np.array_equal(past.values[0], want) and 0.0 < want[1] < want[0]

    def no_stepping(*args):
        raise AssertionError("the recursion ran")

    monkeypatch.setattr(fronts, "probe_slabs", no_stepping)
    # base + x is -95.5 at n = 100
    with pytest.raises(DomainError, match="lies below x = 0 at n=100"):
        equivalence_check(0.001, [-130.0, 0.0], [100, 200])


def test_limit_law_probe_values(d001_n200_limit_law_probe):
    probe = d001_n200_limit_law_probe
    assert probe.values.shape == (4, 3)
    # monotone in the offset x (P is non-increasing in its argument):
    # large negative offsets approach 1, large positive approach 0
    col_means = probe.values.mean(axis=1)
    assert np.all(np.diff(col_means) < 0.0)
    assert col_means[0] > 0.85
    assert col_means[-1] < 0.15
    # Cauchy-style spread across generations is small at x = 0
    i0 = list(probe.x_grid).index(0.0)
    assert probe.spread[i0] < 0.05
    assert 0.0 < probe.values[i0].min() and probe.values[i0].max() < 1.0


def test_limit_law_probe_is_bit_identical_to_full_snapshots(d001_n200_limit_law_probe):
    # the oracle is the snapshot path: retain generation n - 1 on the whole
    # front-clearance grid and interpolate it at x + n/e + (3/(2e)) ln n
    probe = d001_n200_limit_law_probe
    run = snapshots(
        RecursionConfig(delta=0.001, x_max=front_clearance_xmax(200), n_max=200),
        [int(n) - 1 for n in probe.generations],
    )
    assert list(probe.generations) == [100, 150, 200]
    for j, (n, snap) in enumerate(zip(probe.generations, run)):
        assert snap.generation == n - 1
        base = n * VELOCITY + LOG_COEFFICIENT * math.log(n)
        expected = snap.evaluate(probe.x_grid + base)
        assert np.array_equal(probe.values[:, j], expected)


def test_walk_values_must_fit_one_array():
    # D_0..D_n are n + 1 float64 values, whose size in bytes must fit np.intp
    top = MAX_ARRAY_ITEMS - 1
    assert (top + 1) * 8 <= np.iinfo(np.intp).max < (top + 2) * 8
    martingale.check_walk(top, martingale.DEFAULT_V_MAX, 1)
    with pytest.raises(ConfigurationError, match=f"--n\\) must be at most {top},"):
        martingale.check_walk(top + 1, martingale.DEFAULT_V_MAX, 1)
