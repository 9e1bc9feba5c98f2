"""Traveling-wave measurements on recursion output.

The height-distribution curves form a front advancing at velocity 1/e with
a logarithmic correction (3/(2e)) ln n.  This module extracts front
positions (level crossings), gives the grid scheme's own front speed,
fits velocity and log-correction coefficients, checks wave-shape collapse,
and runs the discretization probe: evaluating generation n-1 at
alpha*(n/e + (3/(2e)) ln n) and tuning alpha until the series stops
drifting, which quantifies the first-order grid bias of the RIEMANN scheme
(alpha -> 1 as delta -> 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, FitError, ScanError
from .recursion import (
    MAX_ARRAY_ITEMS,
    FrontTrace,
    GridFunction,
    Quadrature,
    RecursionConfig,
    _bracketed_crossing,
    bands,
    check_delta,
    grid_position,
)

VELOCITY = 1.0 / math.e
LOG_COEFFICIENT = 3.0 / (2.0 * math.e)
# scheme_velocity's largest decay-rate bracket end: past it no double
# spacing below the limit has a measurable speed
SPEED_BRACKET_MAX = 2.0**60


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
    return _bracketed_crossing(f, level)


def _window_slice(trace: FrontTrace, n_lo: int, n_hi: int) -> tuple[np.ndarray, np.ndarray]:
    mask = (trace.generations >= n_lo) & (trace.generations <= n_hi)
    return trace.generations[mask].astype(np.float64), trace.positions[mask]


def velocity_estimate(trace: FrontTrace, window: tuple[int, int]) -> FrontFit:
    """Pure linear fit x_f ~ v*n over the window (log term constrained to 0)."""
    n, x = _window_slice(trace, *window)
    if len(n) < 10:
        raise FitError(f"velocity window {window} holds {len(n)} entries, need >= 10")
    nc = n - n.mean()
    v = float(np.dot(nc, x) / np.dot(nc, nc))
    a = float(x.mean() - v * n.mean())
    resid = x - (v * n + a)
    rms = float(np.sqrt(np.mean(resid**2)))
    return FrontFit(v=v, b=0.0, a=a, fit_window=tuple(window), residual_rms=rms)


def _lstsq(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise FitError("ill-conditioned design (window too narrow)")
    return coef


def log_window_shortfall(generations: Sequence[float]) -> str | None:
    """Why a log fit over `generations` (ascending) cannot be trusted, or None.

    The fit needs at least 50 of them, spanning a factor 3 in n.  The one
    rule of log_correction_fit, on a trace, and of cli.cmd_front, on the
    window its flags give before the recursion runs.
    """
    if len(generations) < 50:
        return f"holds {len(generations)} entries, need >= 50"
    if generations[-1] < 3.0 * generations[0]:
        return "spans less than a factor 3 in n"
    return None


def log_correction_fit(
    trace: FrontTrace,
    window: tuple[int, int],
    v_fixed: float | None = None,
) -> FrontFit:
    """Fit x_f(n) = v*n + b*ln(n) + a over the window.

    With v_fixed only {ln n, 1} are regressed; otherwise all three terms are
    fit jointly (poorly conditioned on short windows, hence the choice).
    """
    if window[0] < 1:
        raise FitError(f"fit window {tuple(window)} reaches below n = 1")
    n, x = _window_slice(trace, *window)
    shortfall = log_window_shortfall(n)
    if shortfall:
        raise FitError(f"log-fit window {window} {shortfall}")
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


def scheme_velocity(delta: float, quadrature: Quadrature) -> tuple[float, float]:
    """The pulled-front speed v_delta of the grid recursion and its decay rate lambda_delta.

    One step maps a tail g = e^{-lambda x} to K(lambda) e^{-lambda x}, with
    the quadrature's symbol K = (delta/2) coth(lambda delta/2) (TRAPEZOID) or
    delta / (1 - e^{-lambda delta}) (RIEMANN); both tend to 1/lambda as
    delta -> 0.  Velocity selection for a pulled front (Ebert-van Saarloos,
    Physica D 146, 2000) gives v_delta = max -ln K(lambda)/lambda, which is
    1/e at lambda = e in the continuum.  K(inf) is delta/2 or delta, so no
    positive speed exists for delta >= 2 (TRAPEZOID) or delta >= 1 (RIEMANN);
    below those limits there is one for every delta, its lambda growing
    without bound as delta nears the limit.

    For u = lambda delta < 1, K is formed as (1/lambda) times a ratio in u,
    (u/2) / tanh(u/2) or u / -expm1(-u), which is 1 where u underflows, so
    a subnormal delta gives the continuum's speed; from u = 1 on, ln K is
    the sum of the logs of its factors, accurate where K is close to 1.
    The maximiser is bracketed first: the bracket's upper end doubles while
    the speed still rises there.  A lambda that the search leaves at an
    edge of its bracket is refused, naming the spacing, as is a speed that
    rises past any bracket.
    """
    if quadrature is Quadrature.TRAPEZOID:
        limit = 2.0

        def ratio(u: float) -> float:
            half = 0.5 * u
            return half / math.tanh(half) if half else 1.0

        def log_symbol(u: float) -> float:  # ln((delta/2) coth(u/2))
            return math.log(0.5 * delta) + math.log1p(2.0 / math.expm1(u))
    else:
        limit = 1.0

        def ratio(u: float) -> float:  # u >= delta > 0
            return u / -math.expm1(-u)

        def log_symbol(u: float) -> float:  # ln(delta / (1 - e^-u))
            return math.log(delta) - math.log1p(-math.exp(-u))
    if not 0.0 < delta < limit:
        raise ConfigurationError(
            f"the {quadrature.value} scheme has a front speed only for "
            f"0 < delta < {limit:g}, got delta={delta}"
        )

    def minus_speed(lam: float) -> float:
        # ln K from the ratio while u < 1; past it, where K nears 1 as delta
        # nears the limit, from the logs of its factors, which keep ln K's
        # relative precision
        u = lam * delta
        ln_k = math.log(ratio(u) / lam) if u < 1.0 else log_symbol(u)
        return ln_k / lam

    # the speed falls past the maximiser, so one that still rises from
    # hi / 2 to hi has it above hi / 2
    lo, hi = 1.0, 10.0
    while minus_speed(hi) <= minus_speed(0.5 * hi):
        lo, hi = 0.5 * hi, 2.0 * hi
        if hi > SPEED_BRACKET_MAX:
            raise ConfigurationError(
                f"the {quadrature.value} scheme's front speed at delta={delta} still "
                f"rises at decay rate {hi:g}; the spacing is too close to {limit:g}"
            )
    tol = 1e-11 * hi
    lam = _golden_section(minus_speed, lo, hi, tol)
    if not lo + tol < lam < hi - tol:
        raise ConfigurationError(
            f"the {quadrature.value} scheme's front at delta={delta} has no decay rate "
            f"inside ({lo:g}, {hi:g}) that maximises its speed"
        )
    return -minus_speed(lam), lam


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
    """The nodes of generations 0..G that a probe can read.

    Generation m is read at points in [lo[m], hi[m]]; it keeps the grid
    nodes from first[m] on that those points interpolate between, in
    values[offsets[m]:offsets[m + 1]].  `config` is the grid the slabs
    were stepped on, which holds every window point.
    """

    config: RecursionConfig
    lo: np.ndarray
    hi: np.ndarray
    first: np.ndarray
    offsets: np.ndarray
    values: np.ndarray


def probe_slabs(
    delta: float, lo: np.ndarray, hi: np.ndarray, quadrature: Quadrature = Quadrature.TRAPEZOID
) -> ProbeSlabs:
    """Run the recursion to generation G = len(lo) - 1, keeping only the probe's slabs.

    `lo[m]` and `hi[m]` bound the points where generation m will be read,
    for m = 0..G; a window below 0 starts at 0.  Each generation's band is
    asked to reach its slab's end, so the slab comes from the band alone:
    nodes below the band read as exactly 1.  A node depends only on the
    nodes left of it, so the grid ends at the last slab end, one node past
    the node left of the highest hi: no node past it is stepped.  Memory is
    the sum of the slabs, about (hi - lo) over delta nodes per generation,
    instead of a full grid per generation.  A delta that is not positive
    and finite, and a window that is not finite, has lo > hi, whose top
    node no array can hold or whose slabs sum to more nodes than one array
    can hold, is refused before any array is built from it.
    """
    check_delta(delta)
    lo, hi = np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)
    # x of the last node one array can hold: hi / delta could overflow
    last = (MAX_ARRAY_ITEMS - 2) * delta
    if (lo.ndim != 1 or len(lo) == 0 or hi.shape != lo.shape
            or not np.all(np.isfinite(lo) & (lo <= hi) & (hi < last))):
        raise ConfigurationError(
            f"probe window needs finite lo <= hi < {last:.6g} (the last node one array "
            f"can hold at delta {delta:g}) for each generation m = 0..G"
        )
    lo, hi = np.maximum(lo, 0.0), np.maximum(hi, 0.0)
    # the probe reads node i + 1, so the grid ends one node past the top's i;
    # x_max half an interval past it, so no rounding of x_max / delta moves
    # grid_size
    end = math.floor(hi.max() / delta) + 1
    config = RecursionConfig(delta, (end + 0.5) * delta, len(lo) - 1, quadrature)
    first = grid_position(lo, delta, end)[1]
    stop = grid_position(hi, delta, end)[1] + 2  # a slab ends one node past its last i
    sizes = stop - first
    # summed as Python ints: an int64 sum of this many slabs can overflow
    if (total := sum(sizes.tolist())) > MAX_ARRAY_ITEMS:
        raise ConfigurationError(
            f"probe slabs at delta {delta:g} hold {total} nodes in all, more than one "
            f"array can hold ({MAX_ARRAY_ITEMS})"
        )
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    values = np.empty(int(offsets[-1]))
    # per-generation bounds as Python ints: numpy scalars cost more to index with
    starts, ends, at = first.tolist(), stop.tolist(), offsets.tolist()
    for m, (band, start) in enumerate(bands(config, lambda m: ends[m])):
        slab = values[at[m] : at[m + 1]]
        below = min(max(start - starts[m], 0), len(slab))  # slab nodes below the band
        slab[:below] = 1.0
        slab[below:] = band.values[starts[m] + below - start : ends[m] - start]
    values.flags.writeable = False
    return ProbeSlabs(config, lo, hi, first, offsets, values)


def read_probe(slabs: ProbeSlabs, generations: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Generation generations[k] at targets[..., k], read off the slabs.

    Linear interpolation between grid nodes, bit-identical to
    GridFunction.evaluate on the full generation.  Raises
    ConfigurationError, naming the generation, for a generation or target
    outside the window the slabs were kept for; the window lies on the
    slabs' grid, so every read it passes does.
    """
    if not np.all((0 <= generations) & (generations < len(slabs.lo))):
        raise ConfigurationError(f"slabs were kept for generations 0..{len(slabs.lo) - 1}")
    outside = ~((slabs.lo[generations] <= targets) & (targets <= slabs.hi[generations]))
    if outside.any():
        k = np.unravel_index(np.argmax(outside), outside.shape)
        raise ConfigurationError(
            f"probe point {targets[k]:.4f} of generation {int(generations[k[-1]])} lies "
            f"outside the window the slabs were kept for"
        )
    pos, i = grid_position(targets, slabs.config.delta, slabs.config.grid_size)
    frac = pos - i
    at = slabs.offsets[generations] + (i - slabs.first[generations])
    return (1.0 - frac) * slabs.values[at] + frac * slabs.values[at + 1]


def front_constancy_probe(
    slabs: ProbeSlabs, alpha: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate generation n-1 at alpha*(n/e + (3/(2e)) ln n) for n = 2..len(slabs.lo).

    Returns (n, values); see read_probe.  For a 1-D array of alphas, values
    has one row per alpha, read in one call.
    """
    ns = np.arange(2, len(slabs.lo) + 1)
    return ns, read_probe(slabs, ns - 1, probe_positions(ns, np.expand_dims(alpha, -1)))


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


def _least_slab_nodes(delta: float, n_max: int, width: float) -> float:
    """Fewest nodes probe_slabs keeps for alpha_scan's window, in closed form.

    The slab of the probe of n spans width * (n/e + (3/(2e)) ln n) over
    delta intervals and holds more than that over delta plus one nodes,
    unless the grid end cuts it; summed over n = 1..n_max.
    """
    spans = VELOCITY * n_max * (n_max + 1) / 2 + LOG_COEFFICIENT * math.lgamma(n_max + 1)
    return width * spans / delta + n_max


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
    lo, hi = alpha_range
    # refused before any array is built or any delta is run
    for delta in deltas:
        check_delta(delta)
        scheme_velocity(delta, Quadrature.RIEMANN)  # the probe needs the scheme's front
        if (nodes := _least_slab_nodes(delta, n_max, hi - lo)) > MAX_ARRAY_ITEMS:
            raise ConfigurationError(
                f"n_max (--nmax) = {n_max} at delta {delta:g} keeps at least {nodes:.3g} "
                f"probe nodes, more than one array can hold ({MAX_ARRAY_ITEMS})"
            )
    # the probe of n reads generation n - 1; the slabs hold it for n = 1..n_max
    reads = np.arange(1, n_max + 1)
    window = probe_positions(reads, lo), probe_positions(reads, hi)
    results = []
    for delta in deltas:
        slabs = probe_slabs(delta, *window, Quadrature.RIEMANN)

        def drift(alpha: float) -> float:
            _, vals = front_constancy_probe(slabs, alpha)
            return probe_drift_rms(vals)

        grid = np.linspace(lo, hi, 13)
        objective = [probe_drift_rms(vals) for vals in front_constancy_probe(slabs, grid)[1]]
        best = int(np.argmin(objective))
        if best in (0, len(grid) - 1):
            raise ScanError(
                f"drift minimum for delta={delta} sits at the alpha range boundary"
            )
        alpha_star = _golden_section(drift, grid[best - 1], grid[best + 1])
        ns, vals = front_constancy_probe(slabs, alpha_star)
        results.append(
            AlphaScanResult(
                delta=delta,
                alpha_star=float(alpha_star),
                probe_generations=ns,
                probe_values=vals,
            )
        )
    return results
