"""Boundary-case branching random walk and its derivative martingale.

The killed branching Poisson process behind the height recursion is
normalized (intensity 1/e, displacements on [-1, inf)) so that

    E[sum exp(-V)] = 1   and   E[sum V exp(-V)] = 0.

This module verifies those moment conditions by closed form and
Gauss–Laguerre quadrature, simulates the derivative martingale
D_n = sum V exp(-V) over generation-n particles, and probes the limit
law through the recursion: P_{n-1} evaluated at x + n/e + (3/(2e)) ln n
should settle, for each x, to a constant strictly inside (0, 1).

The walk's leftmost particle is the recursion: a cascade displacement d
maps to V = e d - 1, so P(min V_n > e x - n) = P_{n-1}(x) for every
x < (v_max + 1)/e.  The walk is that process exactly, up to the particle
cap.  The offspring intensity on [-1, v_max] has mean (v_max + 1)/e per
particle (about 7.7 at v_max = 20), so generation k holds about 7.7^k
particles: at the default cap of 10^6 a walk is exact for n <= 6, and
generation 7 (about 1.6e6 expected particles) truncates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.laguerre import laggauss

from . import fronts
from .errors import ConfigurationError, DomainError, NumericError
from .recursion import MAX_ARRAY_ITEMS, Quadrature
from .simulate import DEFAULT_PARTICLE_CAP, check_particle_cap, check_poisson_mean, offspring

INTENSITY = 1.0 / math.e
SUPPORT_LO = -1.0
DEFAULT_V_MAX = 20.0
# Gauss–Laguerre rule sizes: each is exact for the degree <= 2 moment
# integrands, so the two may differ by rounding only
MOMENT_RULE_NODES = (10, 20)


def check_walk(n: int, v_max: float, particle_cap: int) -> None:
    """A walk needs 0 <= n < MAX_ARRAY_ITEMS, a support [-1, v_max] and a cap >= 1."""
    if n < 0:
        raise ConfigurationError(f"n must be >= 0, got {n}")
    if n > MAX_ARRAY_ITEMS - 1:
        raise ConfigurationError(
            f"n (--n) must be at most {MAX_ARRAY_ITEMS - 1}, so that its n + 1 values "
            f"fit one array, got {n}"
        )
    if not SUPPORT_LO <= v_max < math.inf:
        raise ConfigurationError(f"v_max must be finite and >= -1, got {v_max}")
    # a particle's children are Poisson, of mean at most (v_max + 1)/e
    check_poisson_mean(INTENSITY * (v_max - SUPPORT_LO), f"v_max (--vmax) = {v_max:g}")
    check_particle_cap(particle_cap)


@dataclass
class MomentReport:
    m1_residual: float
    m2_residual: float
    m4_value: float


@dataclass
class MartingaleTrajectory:
    values: np.ndarray          # D_0 .. D_n
    survived: bool
    generation_sizes: np.ndarray
    truncated: bool
    positions: list[np.ndarray] | None = field(default=None, repr=False)


def _boundary_moments(nodes: int) -> np.ndarray:
    """Integrals of (1/e, y/e, y^2) e^-y over [-1, inf) by an n-node rule.

    With t = y + 1 the weight e^-y becomes e * e^-t on [0, inf), so each
    integral is e * sum w_i f(t_i - 1) over the Gauss–Laguerre nodes; no
    cutoff of the infinite range is needed.
    """
    t, w = laggauss(nodes)
    y = t + SUPPORT_LO
    integrands = np.stack([np.full_like(y, INTENSITY), y * INTENSITY, y * y])
    return math.exp(-SUPPORT_LO) * (integrands @ w)


def verify_boundary_conditions() -> MomentReport:
    """Check the normalization integrals by quadrature against closed forms.

    First moment of exp(-V): integral of e^-y / e over [-1, inf) equals 1.
    First moment of V exp(-V): integral of y e^-y / e equals 0.
    Second moment integrand y^2 e^-y has antiderivative -(y^2+2y+2) e^-y,
    so over [-1, inf) it equals e (finite, which is all that is needed).
    The larger rule's values are reported; NumericError is raised when the
    two rule sizes disagree by more than 1e-10 (or give a NaN).
    """
    coarse, fine = (_boundary_moments(n) for n in MOMENT_RULE_NODES)
    if not np.all(np.abs(fine - coarse) <= 1e-10):
        raise NumericError("Gauss–Laguerre quadrature did not converge")
    m1, m2, m4 = fine.tolist()
    return MomentReport(
        m1_residual=abs(m1 - 1.0),
        m2_residual=abs(m2 - 0.0),
        m4_value=m4,
    )


def derivative_weight(positions: np.ndarray) -> float:
    """Sum of V exp(-V) over a particle configuration."""
    return float(np.sum(positions * np.exp(-positions)))


def simulate_Dn(
    n: int,
    rng: np.random.Generator,
    v_max: float = DEFAULT_V_MAX,
    particle_cap: int = DEFAULT_PARTICLE_CAP,
    keep_positions: bool = False,
) -> MartingaleTrajectory:
    """Grow the walk from a root at 0 and record D_k for k = 0..n.

    Each generation is one simulate.offspring step: every particle has
    Poisson((v_max + 1)/e) children uniform on [p - 1, p + v_max].  The
    population grows like ((v_max+1)/e)^k and the particle cap truncates
    any deep run.
    """
    check_walk(n, v_max, particle_cap)
    positions = np.zeros(1)
    owner = np.zeros(1, dtype=np.int64)
    values = np.zeros(n + 1)
    sizes = np.zeros(n + 1, dtype=np.int64)
    sizes[0] = 1
    stored = [positions] if keep_positions else None
    truncated = False
    for k in range(1, n + 1):
        width = np.full(positions.size, v_max - SUPPORT_LO)
        positions, owner, over = offspring(
            rng, positions, owner, 1, INTENSITY, SUPPORT_LO, width, particle_cap
        )
        truncated |= bool(over[0])
        values[k] = derivative_weight(positions)
        sizes[k] = positions.size
        if stored is not None:
            stored.append(positions)
    return MartingaleTrajectory(
        values=values,
        survived=bool(sizes[n] > 0),  # a truncated walk is empty from then on
        generation_sizes=sizes,
        truncated=truncated,
        positions=stored,
    )


@dataclass
class LimitLawProbe:
    x_grid: np.ndarray
    generations: np.ndarray            # the n in P_{n-1}(x + n/e + ...)
    values: np.ndarray                 # shape (len(x_grid), len(generations))
    spread: np.ndarray                 # per-x max minus min across generations


def equivalence_check(
    delta: float, z_grid, generations, quadrature: Quadrature = Quadrature.TRAPEZOID
) -> LimitLawProbe:
    """Tabulate P_{n-1}(x + n/e + (3/(2e)) ln n) for x in z_grid and n in generations.

    A Cauchy-style check of the limit law: for each x the values across n
    should agree to within their spread and sit strictly inside (0, 1).
    Requires a fine grid (delta <= 0.001) and at least two generations,
    the first >= 2 and the last >= 200 and at most MAX_ARRAY_ITEMS, checked
    before the recursion runs, and so is that no point read lies below
    x = 0.  The recursion, at `delta` and `quadrature`, runs to the last
    generation read and keeps only the probe's slabs (see
    fronts.probe_slabs), over [base + min x, base + max x] per generation
    with base = n/e + (3/(2e)) ln n.
    """
    if not 0.0 < delta <= 0.001 + 1e-15:
        raise ConfigurationError(f"probe needs 0 < delta <= 0.001, got {delta}")
    x_grid = np.atleast_1d(np.asarray(z_grid, dtype=np.float64))
    if x_grid.size == 0:
        raise ConfigurationError("probe needs at least one offset x")
    raw = np.asarray(generations)
    if raw.size and raw.max() > MAX_ARRAY_ITEMS:
        raise ConfigurationError(
            f"probe generation {raw.max()} exceeds {MAX_ARRAY_ITEMS}, the items one array can hold"
        )
    gens = np.unique(raw.astype(np.int64))
    if len(gens) < 2:
        raise ConfigurationError("probe needs at least two generations")
    if gens[0] < 2 or gens[-1] < 200:
        raise ConfigurationError(
            f"probe generations {gens.tolist()} need the first >= 2 and the last >= 200"
        )
    # base[m] is where the probe of n = m + 1 reads generation m
    base = fronts.probe_positions(np.arange(1, gens[-1] + 1), 1.0)
    targets = base[gens - 1] + x_grid[:, None]
    lowest = base[gens[0] - 1] + x_grid.min()  # base grows with n
    if lowest < 0.0:
        raise DomainError(f"probe point {lowest:.4f} lies below x = 0 at n={gens[0]}")
    slabs = fronts.probe_slabs(delta, base + x_grid.min(), base + x_grid.max(), quadrature)
    values = fronts.read_probe(slabs, gens - 1, targets)
    return LimitLawProbe(
        x_grid=x_grid,
        generations=gens,
        values=values,
        spread=values.max(axis=1) - values.min(axis=1),
    )
