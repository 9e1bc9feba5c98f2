"""Shared fixtures: the expensive recursion runs are computed once per session."""

import math

import pytest
from scipy.stats import binom

from continuum_cascade.fronts import alpha_scan, probe_slabs
from continuum_cascade.recursion import (
    Quadrature,
    RecursionConfig,
    front_clearance_xmax,
    run_recursion,
)


# two-sided level of a 3-sigma normal band, about 0.27 %
THREE_SIGMA_LEVEL = math.erfc(3.0 / math.sqrt(2.0))


def _check_binomial(count: int, trials: int, p: float, label: str = "") -> float:
    """Exact two-sided binomial test of `count` successes in `trials` Bernoulli(p).

    Fails below THREE_SIGMA_LEVEL, which is the 3-sigma normal band wherever
    the normal approximation holds, and stays valid in tails with under one
    expected event.  Returns the p-value.
    """
    tail = min(binom.cdf(count, trials, p), binom.sf(count - 1, trials, p))
    p_value = float(min(1.0, 2.0 * tail))
    assert p_value >= THREE_SIGMA_LEVEL, (
        f"{label}: {count} of {trials} trials, expected p={p:.4e} "
        f"({trials * p:.2f}), two-sided p-value {p_value:.2e}"
    )
    return p_value


@pytest.fixture(scope="session")
def check_binomial():
    return _check_binomial


@pytest.fixture(scope="session")
def d01_n2000_run():
    """Trapezoid run at delta = 0.01 to n = 2000 with fronts at three levels."""
    config = RecursionConfig(delta=0.01, x_max=front_clearance_xmax(2000), n_max=2000)
    return run_recursion(
        config,
        snapshot_generations=(1, 20, 40, 60, 80, 100),
        front_levels=(0.25, 0.5, 0.75),
    )


@pytest.fixture(scope="session")
def d001_riemann_n400_trace():
    config = RecursionConfig(
        delta=0.001,
        x_max=front_clearance_xmax(400),
        n_max=400,
        quadrature=Quadrature.RIEMANN,
    )
    return run_recursion(config, front_levels=(0.5,)).front_traces[0]


@pytest.fixture(scope="session")
def d01_riemann_n400_trace():
    config = RecursionConfig(
        delta=0.01,
        x_max=front_clearance_xmax(400),
        n_max=400,
        quadrature=Quadrature.RIEMANN,
    )
    return run_recursion(config, front_levels=(0.5,)).front_traces[0]


@pytest.fixture(scope="session")
def d001_n200_probe_run():
    """Fine-grid run retaining the generations the limit-law probe needs."""
    config = RecursionConfig(delta=0.001, x_max=front_clearance_xmax(200), n_max=200)
    return run_recursion(config, snapshot_generations=(99, 149, 199))


@pytest.fixture(scope="session")
def recursion_oracle_x3():
    """P_n(x) for n = 0..15 on [0, 3] at delta = 0.001 (Monte Carlo oracle)."""
    config = RecursionConfig(delta=0.001, x_max=3.0, n_max=15)
    return run_recursion(config, snapshot_generations=range(16))


@pytest.fixture(scope="session")
def d01_riemann_n100_slabs():
    """Riemann run keeping the alpha probe's slabs of every generation."""
    config = RecursionConfig(
        delta=0.01,
        x_max=front_clearance_xmax(100),
        n_max=100,
        quadrature=Quadrature.RIEMANN,
    )
    return probe_slabs(config, (0.95, 1.01))


@pytest.fixture(scope="session")
def alpha_scan_results():
    return alpha_scan([0.02, 0.01, 0.005, 0.001], n_max=100)
