"""The recursion kernel against exact rational arithmetic."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from continuum_cascade import kernels


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
    # the TwoSum error terms are exact only for a strictly sequential cumsum
    assert np.array_equal(np.cumsum(x), list(itertools.accumulate(x.tolist())))
    exact = np.array([float(q) for q in exact_prefix_sums(x)])
    got = kernels._prefix_sum(x)
    assert np.all(np.abs(got - exact) <= np.spacing(exact))


@pytest.mark.parametrize("name", ["step_riemann", "step_trapezoid"])
def test_all_ones_fixed_point(name):
    g = np.zeros(64)
    out_p = np.empty(64)
    out_g = np.empty(64)
    excess = getattr(kernels, name)(g, 0.01, out_p, out_g)
    assert excess == 0.0
    assert np.all(out_p == 1.0)
    assert np.all(out_g == 0.0)


@pytest.mark.parametrize("name", ["step_riemann", "step_trapezoid"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_step_matches_exact_quadrature(name, seed):
    g = random_complement(5000, seed)
    delta = 0.003
    sums = exact_prefix_sums(g)
    if name == "step_riemann":
        q = [Fraction(delta) * (s - sums[0]) for s in sums]
    else:
        ends = map(Fraction, g.tolist())
        q = [Fraction(delta) * (s - (sums[0] + e) / 2) for s, e in zip(sums, ends)]
    q = np.array([float(v) for v in q])
    out_p = np.empty_like(g)
    out_g = np.empty_like(g)
    getattr(kernels, name)(g, delta, out_p, out_g)
    np.testing.assert_allclose(out_p, np.exp(-q), rtol=0.0, atol=5e-15)
    np.testing.assert_allclose(out_g, -np.expm1(-q), rtol=5e-13, atol=0.0)


def test_complement_resolves_saturated_tail():
    # the point of iterating g: behind the front, 1 - P underflows in the
    # exposed probabilities but stays resolved in the complement
    from continuum_cascade.recursion import RecursionConfig, run_recursion

    config = RecursionConfig(delta=0.01, x_max=60.0, n_max=120)
    final = run_recursion(config).final
    g = final.complement_values()
    saturated = final.values == 1.0
    assert saturated.any()
    assert np.all(g[saturated][1:] > 0.0)  # still positive, just < 2^-53
    assert g[saturated][1:].min() < 1e-17
