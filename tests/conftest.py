"""Shared fixtures: the expensive recursion runs are computed once per session."""

import importlib.util
import math
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binom

from continuum_cascade import graphs, simulate
from continuum_cascade.fronts import alpha_scan, probe_positions, probe_slabs
from continuum_cascade.martingale import equivalence_check
from continuum_cascade.recursion import (
    Quadrature,
    RecursionConfig,
    front_clearance_xmax,
    front_traces,
    snapshots,
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


D01_N2000 = RecursionConfig(delta=0.01, x_max=front_clearance_xmax(2000), n_max=2000)


@pytest.fixture(scope="session")
def d01_n2000_traces():
    """Trapezoid run at delta = 0.01 to n = 2000: fronts at three levels."""
    return front_traces(D01_N2000, (0.25, 0.5, 0.75))


@pytest.fixture(scope="session")
def d01_n2000_snapshots():
    """The same run's generations 1, 20, 40, 60, 80 and 100, by generation."""
    return {s.generation: s for s in snapshots(D01_N2000, (1, 20, 40, 60, 80, 100))}


@pytest.fixture(scope="session")
def d001_riemann_n400_trace():
    config = RecursionConfig(
        delta=0.001,
        x_max=front_clearance_xmax(400),
        n_max=400,
        quadrature=Quadrature.RIEMANN,
    )
    return front_traces(config, (0.5,))[0]


@pytest.fixture(scope="session")
def d01_riemann_n400_trace():
    config = RecursionConfig(
        delta=0.01,
        x_max=front_clearance_xmax(400),
        n_max=400,
        quadrature=Quadrature.RIEMANN,
    )
    return front_traces(config, (0.5,))[0]


@pytest.fixture(scope="session")
def d001_n200_limit_law_probe():
    """The limit-law probe on the fine grid at x = -1, 0, 1, 3 and n = 100, 150, 200."""
    return equivalence_check(0.001, [-1.0, 0.0, 1.0, 3.0], (100, 150, 200))


@pytest.fixture(scope="session")
def recursion_oracle_x3():
    """P_n(x) for n = 0..15 on [0, 3] at delta = 0.001 (Monte Carlo oracle), indexed by n."""
    config = RecursionConfig(delta=0.001, x_max=3.0, n_max=15)
    return list(snapshots(config, range(16)))


@pytest.fixture(scope="session")
def d01_riemann_n100_slabs():
    """Riemann run keeping the alpha probe's slabs of generations 0..99, for n = 2..100."""
    ns = np.arange(1, 101)  # the probe of n reads generation n - 1
    return probe_slabs(
        0.01, probe_positions(ns, 0.95), probe_positions(ns, 1.01), Quadrature.RIEMANN
    )


@pytest.fixture(scope="session")
def alpha_scan_results():
    return alpha_scan([0.02, 0.01, 0.005, 0.001], n_max=100)


ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The compiled step head's module, built once from setup.py.

    Tier-1 imports the package from src/, where the extension may not be
    built; tests call its step_head directly or hand it to kernels.step as
    _head, and compare it with the numpy head.
    """
    cc = sysconfig.get_config_var("CC") or "cc"
    if shutil.which(cc.split()[0]) is None:
        pytest.skip(f"no C compiler ({cc}) to build the extension with")
    out = tmp_path_factory.mktemp("compensated")
    build = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext",
         "--build-lib", str(out / "lib"), "--build-temp", str(out / "temp")],
        cwd=ROOT, capture_output=True, text=True,
    )
    # setup.py marks the extension optional, so a failed compile exits 0
    built = list((out / "lib" / "continuum_cascade").glob("_compensated.*"))
    assert build.returncode == 0 and len(built) == 1, build.stdout + build.stderr
    spec = importlib.util.spec_from_file_location("continuum_cascade._compensated", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def recorded_passes(monkeypatch):
    """Trials of each stream of every pass that sample_blocks hands a sampler."""
    passes = []
    sample_blocks = simulate.sample_blocks

    def spy(sample, *args):
        def recorded(streams):
            passes.append([k for _, k in streams])
            return sample(streams)
        return sample_blocks(recorded, *args)

    monkeypatch.setattr(simulate, "sample_blocks", spy)
    monkeypatch.setattr(graphs, "sample_blocks", spy)
    return passes
