"""Traveling-wave measurements on recursion output.

The height-distribution curves form a front advancing at velocity 1/e with
a logarithmic correction (3/(2e)) ln n.  This module extracts front
positions (level crossings), fits velocity and log-correction coefficients,
checks wave-shape collapse, and runs the discretization probe: evaluating
generation n-1 at alpha*(n/e + (3/(2e)) ln n) and tuning alpha until the
series stops drifting, which quantifies the first-order grid bias of the
RIEMANN scheme (alpha -> 1 as delta -> 0).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, FitError, ScanError
from .recursion import (
    FrontTrace,
    GridFunction,
    Quadrature,
    RecursionConfig,
    _bracketed_crossing,
    bands,
    front_clearance_xmax,
)

VELOCITY = 1.0 / math.e
LOG_COEFFICIENT = 3.0 / (2.0 * math.e)


@dataclass
class FrontFit:
    v: float
    b: float
    a: float
    fit_window: tuple[int, int]
    residual_rms: float


@dataclass
class AlphaScanResult:
    delta: float
    alpha_star: float
    probe_generations: np.ndarray
    probe_values: np.ndarray


def front_position(f: GridFunction, level: float = 0.5) -> float:
    """Interpolated x where the (non-increasing) curve crosses `level`."""
    if not 0.0 < level < 1.0:
        raise ConfigurationError(f"level must be in (0,1), got {level}")
    return _bracketed_crossing(f.values, f.delta, level)


def _window_slice(trace: FrontTrace, n_lo: int, n_hi: int) -> tuple[np.ndarray, np.ndarray]:
    mask = (trace.generations >= n_lo) & (trace.generations <= n_hi)
    return trace.generations[mask].astype(np.float64), trace.positions[mask]


def _slope(n: np.ndarray, x: np.ndarray) -> tuple[float, float, float]:
    """Least-squares slope/intercept/residual rms of x against n."""
    nc = n - n.mean()
    v = float(np.dot(nc, x) / np.dot(nc, nc))
    a = float(x.mean() - v * n.mean())
    resid = x - (v * n + a)
    return v, a, float(np.sqrt(np.mean(resid**2)))


def velocity_estimate(trace: FrontTrace, window: tuple[int, int]) -> FrontFit:
    """Pure linear fit x_f ~ v*n over the window (log term constrained to 0)."""
    n, x = _window_slice(trace, *window)
    if len(n) < 10:
        raise FitError(f"velocity window {window} holds {len(n)} entries, need >= 10")
    v, a, rms = _slope(n, x)
    return FrontFit(v=v, b=0.0, a=a, fit_window=tuple(window), residual_rms=rms)


def _lstsq(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise FitError("ill-conditioned design (window too narrow)")
    return coef

def log_correction_fit(
    trace: FrontTrace,
    window: tuple[int, int],
    v_fixed: float | None = None,
) -> FrontFit:
    """Fit x_f(n) = v*n + b*ln(n) + a over the window.

    With v_fixed only {ln n, 1} are regressed; otherwise all three terms are
    fit jointly (poorly conditioned on short windows, hence the choice).
    """
    n, x = _window_slice(trace, *window)
    if len(n) < 50:
        raise FitError(f"log-fit window {window} holds {len(n)} entries, need >= 50")
    if n[-1] < 3.0 * n[0]:
        raise FitError(f"log-fit window {window} spans less than a factor 3 in n")
    ln = np.log(n)
    if v_fixed is None:
        # centered regressors for conditioning; coefficients are unchanged
        design = np.column_stack([n - n.mean(), ln - ln.mean(), np.ones_like(n)])
        v, b, c = _lstsq(design, x)
        a = c - v * n.mean() - b * ln.mean()
    else:
        v = float(v_fixed)
        y = x - v * n
        design = np.column_stack([ln - ln.mean(), np.ones_like(n)])
        b, c = _lstsq(design, y)
        a = c - b * ln.mean()
    resid = x - (v * n + b * ln + a)
    return FrontFit(
        v=float(v), b=float(b), a=float(a),
        fit_window=tuple(window), residual_rms=float(np.sqrt(np.mean(resid**2))),
    )


def richardson_velocity(trace: FrontTrace, window: tuple[int, int]) -> float:
    """Velocity with the ln(n) bias eliminated between two sub-windows.

    A plain slope over [n1, n2] picks up b * Cov(n, ln n)/Var(n) from the
    logarithmic term.  Measuring the slope on two geometric sub-windows and
    solving the 2x2 system in (v, b) cancels that bias exactly for data
    following v*n + b*ln(n) + a.
    """
    n_lo, n_hi = window
    n_mid = int(round(math.sqrt(n_lo * n_hi)))
    if not (n_lo < n_mid < n_hi):
        raise FitError(f"window {window} too narrow to split for extrapolation")
    slopes = []
    coeffs = []
    for sub in ((n_lo, n_mid), (n_mid + 1, n_hi)):
        n, x = _window_slice(trace, *sub)
        if len(n) < 10:
            raise FitError(f"sub-window {sub} holds {len(n)} entries, need >= 10")
        v_hat, _, _ = _slope(n, x)
        nc = n - n.mean()
        c = float(np.dot(nc, np.log(n)) / np.dot(nc, nc))
        slopes.append(v_hat)
        coeffs.append(c)
    b = (slopes[0] - slopes[1]) / (coeffs[0] - coeffs[1])
    return slopes[0] - b * coeffs[0]


def wave_shape_collapse(
    snapshots: list[GridFunction],
    level: float = 0.5,
    u_range: tuple[float, float] = (-5.0, 5.0),
    n_points: int = 401,
) -> float:
    """Max pointwise spread across snapshots after aligning each by its front.

    Curves are resampled on a common relative grid u = x - x_f.  Points with
    x < 0 evaluate to 1 (an empty interval has height 0), which lets early
    transient snapshots participate.
    """
    if len(snapshots) < 2:
        raise ConfigurationError("need at least two snapshots to compare shapes")
    u = np.linspace(u_range[0], u_range[1], n_points)
    resampled = []
    for snap in snapshots:
        xf = front_position(snap, level)
        xs = xf + u
        vals = np.ones_like(xs)
        inside = xs >= 0.0
        if np.any(xs > snap.x_max):
            raise DomainError(
                f"collapse window exits the grid for generation {snap.generation}"
            )
        vals[inside] = snap.evaluate(xs[inside])
        resampled.append(vals)
    stacked = np.vstack(resampled)
    return float(np.max(stacked.max(axis=0) - stacked.min(axis=0)))


def probe_positions(generations: np.ndarray, alpha: float) -> np.ndarray:
    """alpha * (n/e + (3/(2e)) ln n) for each n."""
    n = generations.astype(np.float64)
    return alpha * (n * VELOCITY + LOG_COEFFICIENT * np.log(n))


@dataclass(frozen=True)
class ProbeSlabs:
    """The nodes of generations 1..n_max-1 that the probe can read.

    Generation m keeps the grid nodes from first[m-1] on that the probe of
    n = m + 1 interpolates between for any alpha in `alpha_range`, in
    values[offsets[m-1]:offsets[m]].
    """

    config: RecursionConfig
    alpha_range: tuple[float, float]
    first: np.ndarray
    offsets: np.ndarray
    values: np.ndarray

    @property
    def x_max(self) -> float:
        return self.config.delta * self.config.grid_size


def _probe_nodes(targets: np.ndarray, config: RecursionConfig) -> tuple[np.ndarray, np.ndarray]:
    """Grid position of each target and the node left of it, as GridFunction.evaluate."""
    m = config.grid_size
    pos = np.clip(targets / config.delta, 0.0, float(m))
    return pos, np.minimum(pos.astype(np.int64), m - 1)


def probe_slabs(config: RecursionConfig, alpha_range: tuple[float, float]) -> ProbeSlabs:
    """Run the recursion to generation n_max-1, keeping only the probe's slabs.

    Each generation's band is asked to reach its slab's end, so the slab
    comes from the band alone: nodes below the band read as exactly 1.
    Memory is the sum of the slabs, about (alpha_hi - alpha_lo) times the
    front position over delta nodes per generation, instead of a full grid
    per generation.
    """
    lo_alpha, hi_alpha = alpha_range
    if not lo_alpha <= hi_alpha:
        raise ConfigurationError(f"alpha range {alpha_range} is empty")
    n_max = config.n_max
    ns = np.arange(2, n_max + 1)
    first = _probe_nodes(probe_positions(ns, lo_alpha), config)[1]
    # the probe reads node i + 1, so a slab ends one node past the last i
    stop = _probe_nodes(probe_positions(ns, hi_alpha), config)[1] + 2
    offsets = np.concatenate(([0], np.cumsum(stop - first)))
    values = np.empty(int(offsets[-1]))
    steps = bands(config, lambda n: int(stop[n - 1]) if 0 < n < n_max else 0)
    for m, (band, lo) in enumerate(itertools.islice(steps, 1, n_max), start=1):
        at = np.arange(first[m - 1], stop[m - 1]) - lo  # slab nodes, from the band's start
        values[offsets[m - 1] : offsets[m]] = np.where(
            at < 0, 1.0, band.values[np.maximum(at, 0)]
        )
    values.flags.writeable = False
    return ProbeSlabs(config, (lo_alpha, hi_alpha), first, offsets, values)


def front_constancy_probe(slabs: ProbeSlabs, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate generation n-1 at alpha*(n/e + (3/(2e)) ln n) for n = 2..n_max.

    Linear interpolation between grid nodes, bit-identical to
    GridFunction.evaluate on the full generation.  Returns (n, values).
    """
    ns = np.arange(2, slabs.config.n_max + 1)
    targets = probe_positions(ns, alpha)
    outside = (targets < 0.0) | (targets > slabs.x_max)
    if outside.any():
        k = int(np.argmax(outside))
        raise DomainError(
            f"probe point {targets[k]:.4f} exits the grid at n={int(ns[k])} "
            f"(x_max={slabs.x_max:.4f})"
        )
    lo_alpha, hi_alpha = slabs.alpha_range
    if not lo_alpha <= alpha <= hi_alpha:
        raise ConfigurationError(
            f"alpha={alpha} outside the range {slabs.alpha_range} the slabs were kept for"
        )
    pos, i = _probe_nodes(targets, slabs.config)
    frac = pos - i
    at = slabs.offsets[:-1] + (i - slabs.first)
    values = (1.0 - frac) * slabs.values[at] + frac * slabs.values[at + 1]
    return ns, values


def probe_drift_rms(values: np.ndarray) -> float:
    """RMS of successive differences over the last half of the series."""
    half = values[len(values) // 2 :]
    return float(np.sqrt(np.mean(np.diff(half) ** 2)))


def _golden_section(f, lo: float, hi: float, tol: float = 1e-5) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def alpha_scan(
    deltas: list[float],
    n_max: int = 100,
    alpha_range: tuple[float, float] = (0.95, 1.01),
) -> list[AlphaScanResult]:
    """Find, per grid spacing, the alpha that flattens the probe series.

    Runs the RIEMANN-mode recursion once per delta (the probe quantifies
    exactly that scheme's bias), keeping only the probe's slabs, then
    golden-section minimizes the late-time drift of the probe over alpha.
    A coarse pre-scan must place the best point strictly inside the alpha
    range, otherwise no minimum is bracketed.
    """
    if not deltas:
        raise ConfigurationError("alpha scan needs at least one delta")
    if n_max < 4:
        # the drift needs two successive differences of the probe's last half
        raise ConfigurationError(f"alpha scan needs n_max >= 4, got {n_max}")
    configs = [
        RecursionConfig(
            delta=delta,
            x_max=front_clearance_xmax(n_max),
            n_max=n_max,
            quadrature=Quadrature.RIEMANN,
        )
        for delta in deltas
    ]
    results = []
    for config in configs:
        slabs = probe_slabs(config, alpha_range)

        def drift(alpha: float) -> float:
            _, vals = front_constancy_probe(slabs, alpha)
            return probe_drift_rms(vals)

        lo, hi = alpha_range
        grid = np.linspace(lo, hi, 13)
        objective = [drift(a) for a in grid]
        best = int(np.argmin(objective))
        if best in (0, len(grid) - 1):
            raise ScanError(
                f"drift minimum for delta={config.delta} sits at the alpha range boundary"
            )
        alpha_star = _golden_section(drift, grid[best - 1], grid[best + 1])
        ns, vals = front_constancy_probe(slabs, alpha_star)
        results.append(
            AlphaScanResult(
                delta=config.delta,
                alpha_star=float(alpha_star),
                probe_generations=ns,
                probe_values=vals,
            )
        )
    return results
