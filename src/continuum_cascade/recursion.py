"""Grid iteration of the height-distribution recursion.

The height H(x) of the continuum cascade tree on [0, x] satisfies

    P_0(x) = exp(-x),
    P_n(x) = exp[-x + integral_0^x P_{n-1}(y) dy],   n >= 1,

where P_n(x) = P(H(x) <= n).  This module iterates the recursion on a
uniform grid in two quadrature modes: RIEMANN reproduces the classic
first-order discretization (cumulative sum over grid indices 1..i, the
y = 0 endpoint omitted), TRAPEZOID is the second-order default used for
front measurements.

Every generation is stepped one way, by the `bands` generator: only the
live band of the complement g = 1 - P advances.  Behind it g is exactly 0
(the prefix sum there is exactly 0) and ahead of it g is exactly 1 (the
prefix sum adds exact 1s), so the band's nodes come out bit-identical to a
full-grid step.  Cost is O(band width) per generation, via a running
prefix sum; the band stays a few hundred units wide while the domain grows
like n/e.  A consumer that needs more of a generation asks the band to
reach further: run_recursion has snapshot generations and the final one
reach the grid end and pads them with the exact P = 1, g = 0 below the
band, and the alpha probe (fronts.probe_slabs) keeps one small slab per
generation.  Memory is O(grid) because only the requested snapshots and
the current band are kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import kernels
from .errors import (
    ConfigurationError,
    ContractViolationError,
    DomainError,
    FrontNotFoundError,
    NumericError,
)

# Clamp activity beyond this is treated as a real invariant violation,
# not floating-point jitter.
CLAMP_TOLERANCE = 1e-12


class Quadrature(Enum):
    RIEMANN = "riemann"
    TRAPEZOID = "trapezoid"


def front_clearance_xmax(n_max: int) -> float:
    """Smallest x_max that keeps the advancing front away from the grid end.

    The front sits near n/e + O(log n); the margin 10*max(1, ln n) leaves
    the measured crossing uncontaminated for every generation up to n_max.
    The recursion itself is exact for any x_max (the integral is one-sided),
    so this bound is enforced only for runs that measure fronts.
    """
    if n_max <= 0:
        return 0.0
    return n_max / math.e + 10.0 * max(1.0, math.log(n_max))


@dataclass(frozen=True)
class RecursionConfig:
    delta: float
    x_max: float
    n_max: int
    quadrature: Quadrature = Quadrature.TRAPEZOID

    def __post_init__(self) -> None:
        if not (self.delta > 0.0) or not math.isfinite(self.delta):
            raise ConfigurationError(f"delta must be positive, got {self.delta}")
        if not (self.x_max >= self.delta):
            raise ConfigurationError(
                f"x_max must be at least delta, got x_max={self.x_max} delta={self.delta}"
            )
        if self.n_max < 0:
            raise ConfigurationError(f"n_max must be >= 0, got {self.n_max}")
        if not isinstance(self.quadrature, Quadrature):
            raise ConfigurationError(f"unknown quadrature {self.quadrature!r}")

    @property
    def grid_size(self) -> int:
        """Number of grid intervals M; values live at x = 0, delta, ..., M*delta."""
        return int(math.floor(self.x_max / self.delta + 1e-9))

    def grid_x(self) -> np.ndarray:
        return self.delta * np.arange(self.grid_size + 1)


@dataclass
class GridFunction:
    """One generation of the recursion sampled on the uniform grid.

    `values` holds the probabilities P_n(x_i).  `complement` holds
    1 - P_n(x_i) at full relative precision; it is the state the iteration
    actually carries, because behind the front 1 - P drops below 2^-53 and
    would be lost if reconstructed from `values` (see kernels.py).  When
    a GridFunction is built by hand without a complement, 1 - values is
    used, which is fine for everything except very long front runs.
    """

    delta: float
    values: np.ndarray
    generation: int
    complement: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        self.values.flags.writeable = False  # snapshots are shared read-only
        if self.complement is not None:
            self.complement = np.asarray(self.complement, dtype=np.float64)
            self.complement.flags.writeable = False

    def complement_values(self) -> np.ndarray:
        if self.complement is not None:
            return self.complement
        return 1.0 - self.values

    @property
    def x_max(self) -> float:
        return self.delta * (len(self.values) - 1)

    def grid_x(self) -> np.ndarray:
        return self.delta * np.arange(len(self.values))

    def evaluate(self, x):
        """Linear interpolation between adjacent grid values.

        Accepts a scalar or an array; raises DomainError outside [0, x_max].
        """
        x_arr = np.asarray(x, dtype=np.float64)
        if np.any(x_arr < 0.0) or np.any(x_arr > self.x_max * (1 + 1e-12)):
            raise DomainError(
                f"evaluation point outside [0, {self.x_max:.6g}]: {x!r}"
            )
        pos = np.clip(x_arr / self.delta, 0.0, len(self.values) - 1.0)
        i = np.minimum(pos.astype(np.int64), len(self.values) - 2)
        frac = pos - i
        out = (1.0 - frac) * self.values[i] + frac * self.values[i + 1]
        return float(out) if np.isscalar(x) or x_arr.ndim == 0 else out

    def check_invariants(self) -> None:
        v = self.values
        if v[0] != 1.0:
            raise NumericError(f"values[0] = {v[0]!r}, expected 1.0")
        if np.any(v < 0.0) or np.any(v > 1.0):
            raise NumericError("values escaped [0, 1]")
        if np.any(np.diff(v) > 0.0):
            raise NumericError("values are not non-increasing in x")
        if self.complement is not None:
            g = self.complement
            if np.any(g < 0.0) or np.any(g > 1.0):
                raise NumericError("complement escaped [0, 1]")
            if np.any(np.diff(g) < 0.0):
                raise NumericError("complement is not non-decreasing in x")
            if np.max(np.abs((1.0 - v) - g)) > 1e-15:
                raise NumericError("values and complement disagree")


@dataclass
class RecursionResult:
    config: RecursionConfig
    snapshots: list[GridFunction]
    final: GridFunction
    front_traces: list["FrontTrace"] = field(default_factory=list)

    def snapshot(self, generation: int) -> GridFunction:
        for s in self.snapshots:
            if s.generation == generation:
                return s
        raise KeyError(f"no snapshot retained for generation {generation}")


@dataclass
class FrontTrace:
    """Per-generation front positions x_f(n) at one crossing level."""

    level: float
    generations: np.ndarray
    positions: np.ndarray


def closed_form_p1(x):
    """Exact one-step solution exp(1 - x - exp(-x)), the quadrature oracle."""
    x = np.asarray(x, dtype=np.float64)
    out = np.exp(1.0 - x - np.exp(-x))
    return float(out) if out.ndim == 0 else out


def init_p0(config: RecursionConfig) -> GridFunction:
    """Generation 0: exp(-x) sampled at the grid nodes."""
    xs = config.delta * np.arange(config.grid_size + 1)
    return GridFunction(
        delta=config.delta,
        values=np.exp(-xs),
        generation=0,
        complement=-np.expm1(-xs),
    )


_STEPPERS = {
    Quadrature.RIEMANN: kernels.step_riemann,
    Quadrature.TRAPEZOID: kernels.step_trapezoid,
}


def iterate_step(
    prev: GridFunction, config: RecursionConfig, nodes: int | None = None
) -> GridFunction:
    """Advance one generation.  O(nodes) via a running compensated prefix sum.

    By default `prev` spans the whole grid and so does the result.  With
    `nodes`, `prev` is a band of the grid instead: g = 1 - P is exactly 0
    at its first node (so the prefix sum up to there is exactly 0) and
    exactly 1 at every node past its end.  The result is the next
    generation on the band's first `nodes` nodes, bit-identical to those
    nodes of a full-grid step.
    """
    if prev.delta != config.delta:
        raise ContractViolationError(
            f"grid mismatch: prev.delta={prev.delta} config.delta={config.delta}"
        )
    prev_g = prev.complement_values()
    if nodes is None:
        if len(prev_g) != config.grid_size + 1:
            raise ContractViolationError(
                f"grid mismatch: prev has {len(prev_g)} nodes, "
                f"config wants {config.grid_size + 1}"
            )
        nodes = len(prev_g)
    else:
        if not 1 <= nodes <= config.grid_size + 1:
            raise ContractViolationError(
                f"band of {nodes} nodes does not fit a grid of {config.grid_size + 1}"
            )
        if prev_g[0] != 0.0:
            raise ContractViolationError("band must start where g = 1 - P is exactly 0")
        if nodes > len(prev_g):
            if prev_g[-1] != 1.0:
                raise ContractViolationError(
                    "band can only be extended past a node where g = 1 - P is exactly 1"
                )
            prev_g = np.concatenate((prev_g, np.ones(nodes - len(prev_g))))
        else:
            prev_g = prev_g[:nodes]
    out_p = np.empty(nodes)
    out_g = np.empty(nodes)
    excess = _STEPPERS[config.quadrature](prev_g, config.delta, out_p, out_g)
    if excess > CLAMP_TOLERANCE:
        raise NumericError(
            f"clamp exceeded tolerance at generation {prev.generation + 1}: "
            f"excess={excess:.3e}"
        )
    return GridFunction(
        delta=config.delta,
        values=out_p,
        generation=prev.generation + 1,
        complement=out_g,
    )


def _bracketed_crossing(
    values: np.ndarray, delta: float, level: float, offset: int = 0
) -> float:
    """Interpolated x where a non-increasing curve crosses `level`.

    `values` starts at grid node `offset`.  The node index is formed as an
    integer before the fraction is added, so a band and the full grid give
    the same bits.
    """
    below = values < level
    if not below.any():
        raise FrontNotFoundError(f"curve never drops below level {level}")
    idx = int(np.argmax(below))
    if idx == 0:
        raise FrontNotFoundError(f"curve starts below level {level}")
    hi, lo = values[idx - 1], values[idx]
    return delta * (offset + idx - 1 + (hi - level) / (hi - lo))


def _live_band(f: GridFunction, offset: int) -> tuple[GridFunction, int]:
    """Cut `f` (starting at node `offset`) down to its live band.

    The band runs from the last node of the leading run of exact g = 0 to
    the first node of the trailing run of exact g = 1.  Returns the band
    and the grid index of its first node.
    """
    g = f.complement
    start = int(np.argmax(g != 0.0)) - 1
    if start < 0:  # g[0] is 0, so argmax found no nonzero: g is 0 throughout
        start = len(g) - 1
    stop = len(g) + 1 - int(np.argmax(g[::-1] != 1.0))
    band = GridFunction(
        delta=f.delta,
        values=f.values[start:stop],
        generation=f.generation,
        complement=g[start:stop],
    )
    return band, offset + start


def bands(
    config: RecursionConfig,
    reach: Callable[[int], int] = lambda n: 0,
    p_floor: float = 1.0,
) -> Iterator[tuple[GridFunction, int]]:
    """Yield (band, lo) for generations 0..n_max: generation n from grid node lo on.

    Generation 0 is the whole grid.  Each later band is the live band of the
    one before (see _live_band) stepped over at least max(len + margin,
    reach(n) - lo) nodes, capped at the grid end: the margin, at least one
    unit of x, is more than the g = 1 edge moves in a generation, and
    reach(n) (an end node, exclusive) makes band n cover nodes a consumer
    needs; reach(n) = grid_size + 1 gives the whole grid from lo on.  When a
    step ends short of the grid end and either short of g = 1 or not below
    `p_floor`, the margin doubles and the step is redone.  Below lo, P is
    exactly 1 and g exactly 0; the band's nodes are bit-identical to a
    full-grid step.  The generator steps lazily, so a consumer that stops
    early saves the later steps.
    """
    n_nodes = config.grid_size + 1
    margin = math.ceil(1.0 / config.delta)
    band, lo = init_p0(config), 0
    yield band, lo
    for n in range(1, config.n_max + 1):
        band, lo = _live_band(band, lo)
        room = n_nodes - lo
        while True:
            nodes = min(room, max(len(band.values) + margin, reach(n) - lo))
            nxt = iterate_step(band, config, nodes)
            if nodes == room or (nxt.complement[-1] == 1.0 and nxt.values[-1] < p_floor):
                break
            margin *= 2
        band = nxt
        yield band, lo


def run_recursion(
    config: RecursionConfig,
    snapshot_generations: Iterable[int] = (),
    front_levels: Sequence[float] | None = None,
) -> RecursionResult:
    """Iterate from P_0 to generation n_max, retaining requested snapshots.

    Deterministic.  When `front_levels` is given the level crossings are
    recorded every generation and the config must satisfy the front
    clearance bound (see front_clearance_xmax) so the measurement never
    approaches the grid boundary.

    One consumer of `bands`: crossings are read off each band, and snapshot
    generations and the final one have their band reach the grid end and
    are padded with the exact P = 1, g = 0 below it.
    """
    wanted = {int(g) for g in snapshot_generations}
    if wanted and (min(wanted) < 0 or max(wanted) > config.n_max):
        raise ConfigurationError(
            f"snapshot generations {sorted(wanted)} outside [0, {config.n_max}]"
        )
    if front_levels is not None:
        need = front_clearance_xmax(config.n_max)
        if config.x_max < need:
            raise ConfigurationError(
                f"front measurement needs x_max >= {need:.3f}, got {config.x_max}"
            )
        for lev in front_levels:
            if not 0.0 < lev < 1.0:
                raise ConfigurationError(f"front level must be in (0,1), got {lev}")

    levels = tuple(front_levels or ())
    full = wanted | {config.n_max}
    n_nodes = config.grid_size + 1
    # a band must reach past every crossing recorded on it
    steps = bands(config, lambda n: n_nodes if n in full else 0, min(levels, default=1.0))
    snaps: list[GridFunction] = []
    fronts: list[list[float]] = [[] for _ in levels]
    for n, (band, lo) in enumerate(steps):
        for trace, lev in zip(fronts, levels):
            trace.append(_bracketed_crossing(band.values, config.delta, lev, lo))
        if n in full:
            whole = band if lo == 0 else GridFunction(
                delta=config.delta,
                values=np.concatenate((np.ones(lo), band.values)),
                generation=n,
                complement=np.concatenate((np.zeros(lo), band.complement)),
            )
            if n in wanted:
                snaps.append(whole)

    traces = []
    if front_levels is not None:
        gens = np.arange(config.n_max + 1)
        traces = [
            FrontTrace(level=lev, generations=gens, positions=np.asarray(fs))
            for lev, fs in zip(levels, fronts)
        ]
    return RecursionResult(config=config, snapshots=snaps, final=whole, front_traces=traces)
