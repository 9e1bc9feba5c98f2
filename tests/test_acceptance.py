"""Acceptance suite: every criterion at its stated tolerance.

 1. Initial condition exact: P_0 equals exp(-x) on the grid.
 2. One-step oracle: trapezoid P_1 within 5*delta^2 of the closed form on
    [0, 5] at delta 0.01 and 0.005, error ratio in [3.5, 4.5].
 3. Velocity: delta 0.001, window [200, 400] within 1% of 1/e; at
    delta 0.01 the fitted v lies in [0.355, 0.372].
 4. Logarithmic correction: with the scheme's exact velocity v_delta
    fixed, the ln(n) coefficient over [500, 2000] at delta 0.01 is within
    30% of 3/(2e); synthetic round trips recover coefficients to 1e-9.
 5. Wave collapse: snapshots {60, 80, 100} at delta 0.01 spread < 0.02
    over u in [-5, 5].
 6. Alpha scan: alpha*(0.01) = 0.9855 +/- 0.005, alpha*(0.001) =
    0.9977 +/- 0.002, increasing toward 1 across delta.
 7. MC vs recursion: at x in {1, 2, 3} with 1e5 trials, the count of
    trials with H <= n passes an exact two-sided binomial test against the
    recursion's P_n(x) at the 3-sigma level (0.27%) for all n in [0, 15];
    truncation below 0.1%.
 8. Discrete vs continuum: the one-sample KS of L_n against the
    recursion's P_k(2) below its 1% critical value at n_vertices = 2000,
    2e4 trials; KS at n_vertices = 10 larger.
 9. Boundary-case moments: residuals below 1e-10; second-moment integral
    equals e within 1e-10.
10. Limit-law probe: P_{n-1}(n/e + (3/(2e)) ln n) for n in {100, 150, 200}
    at delta 0.001 has spread < 0.05 and sits inside (0.05, 0.95).
11. Longest-path DP equals exhaustive enumeration on 1000 random graphs
    with up to 8 vertices.
12. Determinism: identical seed/config gives byte-identical artifacts,
    including under parallel trial execution.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import json
import math
from pathlib import Path

import numpy as np

from continuum_cascade.cli import main
from continuum_cascade.fronts import (
    log_correction_fit,
    scheme_velocity,
    velocity_estimate,
    wave_shape_collapse,
)
from continuum_cascade.graphs import (
    compare_discrete_continuum,
    ks_critical_value,
    longest_path_bruteforce,
    longest_path_dp,
    sample_adjacency,
)
from continuum_cascade.martingale import verify_boundary_conditions
from continuum_cascade.recursion import (
    FrontTrace,
    Quadrature,
    closed_form_p1,
    init_p0,
    iterate_step,
)
from continuum_cascade.simulate import SimConfig, empirical_cdf

E = math.e
B_TARGET = 3.0 / (2.0 * E)


def report(num: int, name: str, detail: str) -> None:
    print(f"[acceptance] criterion {num:2d} ({name}): PASS  {detail}")


def test_criterion_01_initial_condition():
    p0 = init_p0(0.01, 5001)
    reference = np.exp(-p0.grid_x())
    err = np.max(np.abs(p0.values - reference))
    assert np.allclose(p0.values, reference, rtol=4e-16, atol=0.0)
    report(1, "initial condition", f"max |P_0 - exp(-x)| = {err:.2e}")


def test_criterion_02_one_step_oracle():
    errs = {}
    for delta in (0.01, 0.005):
        p1 = iterate_step(init_p0(delta, round(12.0 / delta) + 1), Quadrature.TRAPEZOID)
        xs = np.arange(0.0, 5.0 + delta / 2, delta)
        errs[delta] = float(np.max(np.abs(p1.evaluate(xs) - closed_form_p1(xs))))
        assert errs[delta] <= 5.0 * delta**2
    ratio = errs[0.01] / errs[0.005]
    assert 3.5 <= ratio <= 4.5
    report(2, "one-step oracle",
           f"err(0.01)={errs[0.01]:.2e} err(0.005)={errs[0.005]:.2e} ratio={ratio:.2f}")


def test_criterion_03_velocity(d001_riemann_n400_trace, d01_riemann_n400_trace):
    fine = velocity_estimate(d001_riemann_n400_trace, (200, 400))
    rel = abs(fine.v - 1.0 / E) * E
    assert rel < 0.01
    coarse = velocity_estimate(d01_riemann_n400_trace, (200, 400))
    assert 0.355 <= coarse.v <= 0.372
    report(3, "front velocity",
           f"v(0.001)={fine.v:.6f} ({100*rel:.2f}% off 1/e), v(0.01)={coarse.v:.6f}")


def test_criterion_04_log_correction(d01_n2000_traces):
    trace = next(t for t in d01_n2000_traces if t.level == 0.5)
    v, _ = scheme_velocity(0.01, Quadrature.TRAPEZOID)
    fit = log_correction_fit(trace, (500, 2000), v_fixed=v)
    assert abs(fit.b - B_TARGET) <= 0.30 * B_TARGET

    gens = np.arange(100, 401)
    synth = FrontTrace(
        level=0.5,
        generations=gens,
        positions=gens / E + B_TARGET * np.log(gens) + 0.7,
    )
    round_trip = log_correction_fit(synth, (100, 400), v_fixed=1.0 / E)
    assert abs(round_trip.b - B_TARGET) < 1e-9
    assert abs(round_trip.a - 0.7) < 1e-9
    report(4, "log correction",
           f"v_fixed={v:.6f}, b={fit.b:.4f} (target {B_TARGET:.4f}, "
           f"off by {100*(fit.b/B_TARGET-1):+.1f}%)")


def test_criterion_05_wave_collapse(d01_n2000_snapshots):
    snaps = [d01_n2000_snapshots[g] for g in (60, 80, 100)]
    spread = wave_shape_collapse(snaps, level=0.5, u_range=(-5.0, 5.0))
    assert spread < 0.02
    report(5, "wave collapse", f"max spread over u in [-5,5] = {spread:.4f}")


def test_criterion_06_alpha_scan(alpha_scan_results):
    stars = {r.delta: r.alpha_star for r in alpha_scan_results}
    assert abs(stars[0.01] - 0.9855) <= 0.005
    assert abs(stars[0.001] - 0.9977) <= 0.002
    ordered = [stars[d] for d in (0.02, 0.01, 0.005, 0.001)]
    assert all(a < b for a, b in zip(ordered, ordered[1:]))
    assert all(a < 1.0 for a in ordered)
    report(6, "alpha scan",
           " ".join(f"a*({d})={stars[d]:.4f}" for d in (0.02, 0.01, 0.005, 0.001)))


def test_criterion_07_mc_recursion_agreement(recursion_oracle_x3, check_binomial):
    # exact binomial tails, not a normal z: where under one trial is
    # expected above n, a single such trial reads as a 6-sigma miss
    trials = 100_000
    smallest = 1.0
    for x in (1.0, 2.0, 3.0):
        cdf = empirical_cdf(SimConfig(x=x, trials=trials, n_cap=15, seed=20260810))
        cdf.check_accounting()
        assert cdf.truncated_trials / trials < 0.001
        for n in range(16):
            p = recursion_oracle_x3[n].evaluate(x)
            p_value = check_binomial(int(cdf.counts[n]), trials, p, f"x={x} n={n}")
            smallest = min(smallest, p_value)
    report(7, "MC vs recursion",
           f"smallest two-sided p-value over x in {{1,2,3}}, n in [0,15]: {smallest:.3g}")


def test_criterion_08_discrete_continuum_ks():
    trials = 20_000
    big = compare_discrete_continuum(2000, 2.0, trials, seed=7)
    critical = ks_critical_value(trials, alpha=0.01)
    assert big.ks_statistic < critical
    small = compare_discrete_continuum(10, 2.0, trials, seed=7)
    assert small.ks_statistic > big.ks_statistic
    report(8, "discrete vs continuum",
           f"KS(2000)={big.ks_statistic:.4f} < crit={critical:.4f}; "
           f"KS(10)={small.ks_statistic:.4f}")


def test_criterion_09_boundary_moments():
    rep = verify_boundary_conditions()
    assert rep.m1_residual < 1e-10
    assert rep.m2_residual < 1e-10
    assert abs(rep.m4_value - E) < 1e-10
    report(9, "boundary-case moments",
           f"residuals {rep.m1_residual:.1e}, {rep.m2_residual:.1e}; "
           f"|m4 - e| = {abs(rep.m4_value - E):.1e}")


def test_criterion_10_limit_law_probe(d001_n200_limit_law_probe):
    probe = d001_n200_limit_law_probe
    assert list(probe.generations) == [100, 150, 200]
    i0 = list(probe.x_grid).index(0.0)
    spread = float(probe.spread[i0])
    values = probe.values[i0]
    assert spread < 0.05
    assert np.all(values > 0.05) and np.all(values < 0.95)
    report(10, "limit-law probe",
           f"values {np.array2string(values, precision=4)} spread={spread:.4f}")


def test_criterion_11_longest_path_oracle():
    rng = np.random.default_rng(2026)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        c = float(rng.random())
        adj = sample_adjacency(n, c, rng)
        assert longest_path_dp(adj) == longest_path_bruteforce(adj)
    report(11, "longest-path oracle", "1000/1000 exact matches (n <= 8)")


def test_criterion_12_determinism(tmp_path):
    sim = ["simulate", "--x", "1", "--trials", "10000", "--seed", "42", "--ncap", "12"]
    outs = {name: tmp_path / name for name in ("a", "b", "par", "r1", "r2")}
    assert main(sim + ["--out", str(outs["a"])]) == 0
    assert main(sim + ["--out", str(outs["b"])]) == 0
    assert main(sim + ["--out", str(outs["par"]), "--workers", "4"]) == 0

    def tree(out: Path) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    assert tree(outs["a"]) == tree(outs["b"])
    assert tree(outs["a"]) == tree(outs["par"])

    rec = ["recurse", "--delta", "0.01", "--xmax", "20", "--nmax", "30",
           "--snapshots", "10,30"]
    assert main(rec + ["--out", str(outs["r1"])]) == 0
    assert main(rec + ["--out", str(outs["r2"])]) == 0
    assert tree(outs["r1"]) == tree(outs["r2"])

    manifest = json.loads((outs["a"] / "manifest.json").read_text())
    assert manifest["seed"] == 42
    report(12, "determinism",
           "byte-identical across reruns and across 1 vs 4 workers")
