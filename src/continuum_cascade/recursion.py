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
reach further.  Each consumer is its own loop over `bands`:
`front_traces` reads the level crossings off every band, `snapshots` has
each requested band reach the grid end and yields it as it is reached,
and fronts.probe_slabs has each band reach the end of the slab it keeps.

Steps allocate nothing: `bands` steps in one workspace that grows with
the band, not with the grid.  Every band after generation 0 is a
read-only view into it that is valid only until the generator advances:
a consumer copies what it keeps.  Memory is the workspace, the current
band and the copies a consumer keeps; `snapshots` keeps none, so a
caller that drops each snapshot holds at most one whole grid at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
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

# Most 8-byte items (float64 nodes and values, int64 counts) one array can
# hold: its size in bytes must fit np.intp.  The one bound on array sizes.
MAX_ARRAY_ITEMS = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize


class Quadrature(Enum):
    RIEMANN = "riemann"
    TRAPEZOID = "trapezoid"


def front_clearance_xmax(n_max: int, level: float = 1.0) -> float:
    """Grid end of a `front` run to n_max at `level`, and `recurse`'s default.

    The front sits near n/e + O(log n), and the margin 10*max(1, ln n)
    puts the grid end past it for every generation up to n_max.  Past the
    front the integral of P_{n-1} stops growing and P_n(x) falls like e^-x,
    so the crossing of a level L lies about ln(1/L) further out: a level in
    (0, 1) adds -ln L, which a level far below 1/2 needs at small n; any
    other level adds nothing (front_traces refuses it).  It is not an
    accuracy margin: a node depends only on the nodes left of it (the
    integral is one-sided), so every grid that holds the crossings gives
    the same bits on the nodes it keeps, and the same front trace, and
    front_traces raises FrontNotFoundError on one that does not.
    """
    ln_level = math.log(level) if 0.0 < level < 1.0 else 0.0
    if n_max <= 0:
        return 10.0 - ln_level  # the formula's limit at n = 0
    return n_max / math.e + 10.0 * max(1.0, math.log(n_max)) - ln_level


def check_delta(delta: float) -> None:
    """A grid spacing must be positive and finite."""
    if not 0.0 < delta < math.inf:
        raise ConfigurationError(f"delta must be positive, got {delta}")


def check_level(level: float) -> None:
    """A front level must lie in (0, 1)."""
    if not 0.0 < level < 1.0:
        raise ConfigurationError(f"front level must be in (0,1), got {level}")


@dataclass(frozen=True)
class RecursionConfig:
    delta: float
    x_max: float
    n_max: int
    quadrature: Quadrature = Quadrature.TRAPEZOID

    def __post_init__(self) -> None:
        check_delta(self.delta)
        if not self.delta <= self.x_max < math.inf:
            raise ConfigurationError(
                f"x_max must be finite and at least delta, "
                f"got x_max={self.x_max} delta={self.delta}"
            )
        if not self.x_max / self.delta < MAX_ARRAY_ITEMS or self.grid_size >= MAX_ARRAY_ITEMS:
            raise ConfigurationError(
                f"a grid of x_max/delta = {self.x_max / self.delta:.3g} intervals has more "
                f"nodes than one array can hold ({MAX_ARRAY_ITEMS})"
            )
        if self.n_max < 0:
            raise ConfigurationError(f"n_max must be >= 0, got {self.n_max}")
        if not isinstance(self.quadrature, Quadrature):
            raise ConfigurationError(f"unknown quadrature {self.quadrature!r}")

    @cached_property
    def grid_size(self) -> int:
        """Number of grid intervals M; values live at x = 0, delta, ..., M*delta."""
        return int(math.floor(self.x_max / self.delta + 1e-9))


def grid_position(x: np.ndarray, delta: float, grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid position x/delta, clipped to [0, grid_size], and the node i left of it.

    i is at most grid_size - 1, so a read interpolates between nodes i and
    i + 1.  The one position formula of GridFunction.evaluate and
    fronts.read_probe, which must agree bit for bit.
    """
    pos = np.clip(x / delta, 0.0, float(grid_size))
    return pos, np.minimum(pos.astype(np.int64), grid_size - 1)


@dataclass
class GridFunction:
    """One generation of the recursion sampled on the uniform grid.

    `values` holds the probabilities P_n(x_i).  `complement` holds
    1 - P_n(x_i) at full relative precision; it is the state the iteration
    actually carries, because behind the front 1 - P drops below 2^-53 and
    would be lost if reconstructed from `values` (see kernels.py).

    Both are float64 arrays, kept as given: this module's builders make
    theirs read-only where they create them, and a hand-built record leaves
    its caller's arrays as they are.
    """

    delta: float
    values: np.ndarray
    generation: int
    complement: np.ndarray

    @property
    def x_max(self) -> float:
        return self.delta * (len(self.values) - 1)

    def grid_x(self) -> np.ndarray:
        return self.delta * np.arange(len(self.values))

    def evaluate(self, x):
        """Linear interpolation between adjacent grid values.

        Accepts a scalar or an array; raises DomainError outside [0, x_max]
        and for NaN.
        """
        x_arr = np.asarray(x, dtype=np.float64)
        if not np.all((x_arr >= 0.0) & (x_arr <= self.x_max * (1 + 1e-12))):
            raise DomainError(
                f"evaluation point outside [0, {self.x_max:.6g}]: {x!r}"
            )
        pos, i = grid_position(x_arr, self.delta, len(self.values) - 1)
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
        g = self.complement
        if np.any(g < 0.0) or np.any(g > 1.0):
            raise NumericError("complement escaped [0, 1]")
        if np.any(np.diff(g) < 0.0):
            raise NumericError("complement is not non-decreasing in x")
        if np.max(np.abs((1.0 - v) - g)) > 1e-15:
            raise NumericError("values and complement disagree")


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


def init_p0(delta: float, nodes: int) -> GridFunction:
    """Generation 0: exp(-x) at the first `nodes` grid nodes, built in two arrays.

    Node i is at x = i * delta, so fewer nodes give the same bits as the
    head of more.
    """
    check_delta(delta)
    if not 1 <= nodes <= MAX_ARRAY_ITEMS:
        raise ConfigurationError(f"generation 0 needs 1 to {MAX_ARRAY_ITEMS} nodes, got {nodes}")
    neg_x = np.arange(nodes, dtype=np.float64)
    neg_x *= -delta
    values = np.exp(neg_x)
    complement = np.expm1(neg_x, out=neg_x)
    np.negative(complement, out=complement)
    values.setflags(write=False)
    complement.setflags(write=False)
    return GridFunction(delta=delta, values=values, generation=0, complement=complement)


def iterate_step(
    prev: GridFunction,
    quadrature: Quadrature,
    nodes: int | None = None,
    work: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> GridFunction:
    """Advance one generation.  O(nodes) via a running compensated prefix sum.

    `prev`'s g = 1 - P must be exactly 0 at its first node, as in every
    generation init_p0 and kernels.step build (the step relies on it, see
    kernels.py).  This check is the one place that value is enforced: the
    step computes node 0 like any other, from Q(0) = 0, and writes nothing
    over it.  The result is the next generation on the first `nodes`
    nodes, by default as many as `prev` has.  More nodes than `prev` has
    continue it by exact 1s of g, so `prev` must end where g is exactly 1.
    A node depends only on the nodes left of it, so the result's nodes are
    bit-identical to those of a step over any longer stretch of the grid.

    Without `work` the step allocates its result and temporaries.  With
    `work` = (g, p_out, g_out, scratch) it allocates nothing: g is prev's
    complement continued by its exact 1s to `nodes` nodes, the result is
    written to p_out and g_out (`nodes` long, not overlapping g) and
    returned as read-only views of them, and scratch (at least `nodes`
    long) is overwritten.

    Nothing is repaired: a result whose P or g leaves [0, 1] by any amount
    at any node, node 0 included, or holds a NaN, raises NumericError (a
    valid `prev` never gives one).
    """
    if not isinstance(quadrature, Quadrature):
        raise ConfigurationError(f"unknown quadrature {quadrature!r}")
    prev_g = prev.complement
    nodes = len(prev_g) if nodes is None else nodes
    if nodes < 1:
        raise ContractViolationError(f"a step needs at least one node, got {nodes}")
    if not len(prev_g) or prev_g[0] != 0.0:
        raise ContractViolationError("a step must start where g = 1 - P is exactly 0")
    if nodes > len(prev_g) and prev_g[-1] != 1.0:
        raise ContractViolationError(
            "band can only be extended past a node where g = 1 - P is exactly 1"
        )
    if work is None:
        if nodes > len(prev_g):
            prev_g = np.concatenate((prev_g, np.ones(nodes - len(prev_g))))
        work = prev_g[:nodes], np.empty(nodes), np.empty(nodes), np.empty(nodes)
    g, out_p, out_g, scratch = work
    if not len(g) == len(out_p) == len(out_g) == nodes <= len(scratch):
        raise ContractViolationError(f"step arrays do not fit a band of {nodes} nodes")
    if not out_p.dtype == out_g.dtype == np.float64:
        raise ContractViolationError("a step writes its result to float64 arrays")
    excess = kernels.step(g, prev.delta, quadrature is Quadrature.TRAPEZOID, out_p, out_g, scratch)
    if excess != 0.0:  # a NaN excess fails too
        raise NumericError(
            f"step to generation {prev.generation + 1} left [0, 1]: excess={excess:.3e}"
        )
    out_p.setflags(write=False)
    out_g.setflags(write=False)
    return GridFunction(prev.delta, out_p, prev.generation + 1, out_g)


def _bracketed_crossing(f: GridFunction, level: float, offset: int = 0) -> float:
    """Interpolated x where a non-increasing curve crosses `level`.

    `f` starts at grid node `offset`.  The node index is formed as an
    integer before the fraction is added, so a band and the full grid give
    the same bits.
    """
    values, delta = f.values, f.delta
    below = values < level
    idx = int(below.argmax())
    if not below[idx]:  # argmax of all False is 0
        raise FrontNotFoundError(
            f"generation {f.generation} does not drop below level {level} by the grid end "
            f"x = {delta * (offset + len(values) - 1):.6g}"
        )
    if idx == 0:
        raise FrontNotFoundError(f"curve starts below level {level}")
    hi, lo = values.item(idx - 1), values.item(idx)
    return delta * (offset + idx - 1 + (hi - level) / (hi - lo))


# first chunk of an edge scan, in nodes; each further chunk doubles
EDGE_CHUNK = 128


def _first_not(a: np.ndarray, v: float | np.ndarray) -> int:
    """np.argmax(a != v): the first index where `a` is not `v`, else 0.

    Scans chunks that double in length from the start, so it costs the run
    of `v`, not the whole array: the band's edge runs are short.
    """
    lo, size = 0, EDGE_CHUNK
    while lo < len(a):
        differs = a[lo:lo + size] != v
        k = int(differs.argmax())
        if differs[k]:
            return lo + k
        lo += size
        size *= 2
    return 0


# the edge values as 0-d arrays, which a comparison takes with less dispatch
# than Python floats
_ZERO, _ONE = np.array(0.0), np.array(1.0)


def _live_band(f: GridFunction) -> tuple[GridFunction, int]:
    """Cut `f` down to its live band.

    The band runs from the last node of the leading run of exact g = 0 to
    the first node of the trailing run of exact g = 1.  Returns the band
    and the index in `f` of its first node.
    """
    g = f.complement
    start = _first_not(g, _ZERO) - 1
    if start < 0:  # g[0] is 0, so no nonzero was found: g is 0 throughout
        start = len(g) - 1
    stop = len(g) + 1 - _first_not(g[::-1], _ONE)
    return GridFunction(f.delta, f.values[start:stop], f.generation, g[start:stop]), start


def bands(
    config: RecursionConfig,
    reach: Callable[[int], int] = lambda n: 0,
    p_floor: float = 1.0,
) -> Iterator[tuple[GridFunction, int]]:
    """Yield (band, lo) for generations 0..n_max: generation n from grid node lo on.

    Generation 0 is init_p0's on the nodes up to node reach(0) - 1 or, if
    later, up to its first node at x >= 40 - ln p_floor, where g is exactly 1
    (past 54 ln 2) and P is below `p_floor`; it stops at the grid end.  Each
    later band is the live band of the one before (see _live_band) stepped
    over at least max(len + margin, reach(n) - lo) nodes, capped at the grid
    end: the margin, at least one unit of x, is more than the g = 1 edge
    moves in a generation, and reach(n) (an end node, exclusive) makes band n
    cover nodes a consumer needs; reach(n) = grid_size + 1 gives the whole
    grid (`snapshots` asks so for each generation it yields).  When a step
    ends short of the grid end and either short of g = 1 or not below
    `p_floor` (`front_traces` passes its lowest level), the margin doubles
    and the step is redone.  Below lo, P is exactly 1 and g exactly 0; the
    band's nodes are bit-identical to a step of the whole grid.  The
    generator steps lazily, so a consumer that stops early saves the later
    steps.  A node depends only on the nodes left of it in the generation
    before, so a config with a smaller x_max gives the same bits on the
    nodes it keeps: a consumer that reads nothing past node k of any
    generation can run on a grid that ends there (fronts.probe_slabs builds
    its grid so, from the windows it is given).

    Steps allocate nothing: the first step allocates two ping-pong g
    buffers, one P buffer (a step reads only g) and the kernel's scratch, a
    step that outgrows them first doubles them, to at most the grid, and
    generation n is written at the start of the P buffer and of the g buffer
    its input is not in.  So every band after generation 0 is a read-only
    view that is valid only until the generator advances; a consumer that
    keeps any of it must copy it.
    """
    n_nodes = config.grid_size + 1
    margin = math.ceil(1.0 / config.delta)
    nodes = min(n_nodes, max(reach(0), math.ceil((40.0 - math.log(p_floor)) / config.delta) + 1))
    band, lo = init_p0(config.delta, nodes), 0
    # the storage of the band's g from grid node lo on, and how much of it
    # the band's generation filled
    held, filled = band.complement, nodes
    yield band, lo
    # The workspace is allocated on the first step, after generation 0 is
    # built, so that its build reuses memory malloc already holds, and as four
    # arrays rather than one block: freeing a block big enough to be mapped
    # raises malloc's mmap threshold for the rest of the process.  Either
    # choice, reversed, measurably raised the peak RSS or the later run times
    # of the front workload.
    p_buf = np.empty(0)
    for n in range(1, config.n_max + 1):
        band, start = _live_band(band)
        lo += start
        room = n_nodes - lo
        while True:
            nodes = min(room, max(len(band.values) + margin, reach(n) - lo))
            end = start + nodes
            if end > len(p_buf):  # the first step, or a band outgrew the workspace
                size = min(n_nodes, max(2 * len(p_buf), end, filled))
                p_buf, scratch, spare = np.empty(size), np.empty(size), np.empty(size)
                spare[:filled] = held[:filled]
                held, spare = spare, np.empty(size)
            if end > filled:  # continue the band by its exact 1s, in place
                held[filled:end] = 1.0
                filled = end
            work = held[start:end], p_buf[:nodes], spare[:nodes], scratch
            nxt = iterate_step(band, config.quadrature, nodes, work)
            if nodes == room or (nxt.complement[-1] == 1.0 and nxt.values[-1] < p_floor):
                break
            margin *= 2
        band, held, spare, filled = nxt, spare, held, nodes
        yield band, lo


def front_traces(config: RecursionConfig, levels: Sequence[float]) -> list[FrontTrace]:
    """The crossings of each level in (0, 1) by generations 0..n_max.

    Deterministic.  Every grid that holds the crossings gives the same
    bits (front_clearance_xmax(n_max, level) is one); a crossing past the
    grid end raises FrontNotFoundError naming the level, the generation
    and the grid end.  Levels are checked before any step.
    """
    levels = tuple(levels)
    for lev in levels:
        check_level(lev)
    crossings: list[list[float]] = [[] for _ in levels]
    # a band must reach past every crossing recorded on it
    for band, lo in bands(config, p_floor=min(levels, default=1.0)):
        for xs, lev in zip(crossings, levels):
            # a band that holds no crossing reaches the grid end (see bands)
            xs.append(_bracketed_crossing(band, lev, lo))
    gens = np.arange(config.n_max + 1)
    return [FrontTrace(lev, gens, np.asarray(xs)) for lev, xs in zip(levels, crossings)]


def snapshots(config: RecursionConfig, generations: Iterable[int]) -> Iterator[GridFunction]:
    """Yield the requested generations in order, each when the run reaches it.

    Each is a read-only copy on the whole grid: its band reaches the grid
    end, and P is exactly 1 and g exactly 0 below the band.  Generations
    outside [0, n_max] are refused here, before any step.  The run steps on
    to n_max after the last one, so a failing step past it still raises.
    Nothing is kept between yields: a caller that drops each snapshot holds
    one grid's copy at a time.
    """
    wanted = {int(g) for g in generations}
    if wanted and (min(wanted) < 0 or max(wanted) > config.n_max):
        raise ConfigurationError(
            f"snapshot generations {sorted(wanted)} outside [0, {config.n_max}]"
        )
    n_nodes = config.grid_size + 1
    steps = bands(config, lambda n: n_nodes if n in wanted else 0)
    return (_whole_grid(band, lo, n_nodes) for band, lo in steps if band.generation in wanted)


def _whole_grid(band: GridFunction, lo: int, n_nodes: int) -> GridFunction:
    """A read-only copy of a band that ends at the grid end, padded from node 0."""
    values, complement = np.ones(n_nodes), np.zeros(n_nodes)
    values[lo:], complement[lo:] = band.values, band.complement
    values.setflags(write=False)
    complement.setflags(write=False)
    return GridFunction(band.delta, values, band.generation, complement)
