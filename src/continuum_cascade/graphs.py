"""Discrete cascade random graph and its continuum comparison.

Vertices 1..n, directed edges (i, j) for i < j present independently with
probability c.  L_n is the length of the longest directed path starting at
vertex 1.  With c = x/n the out-degree law at vertex 1 converges to
Poisson(x), and L_n converges in distribution to the continuum height H(x);
compare_discrete_continuum measures the Kolmogorov-Smirnov distance between
the empirical law of L_n and the law of H(x) read off the recursion.  L_n
is sampled with no edge list, by an exact Markov chain on level counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError
from .fronts import probe_slabs, read_probe
from .simulate import (
    GRAPH_STREAM,
    EmpiricalCdf,
    check_tally,
    outcome_histogram,
    sample_blocks,
)

# Grid spacing of the recursion that gives compare its continuum law: its
# O(delta^2) error, about 1e-7, is far below the 1/sqrt(trials) of the sample.
CONTINUUM_DELTA = 0.001

# Generator.geometric(p) draws by search at p >= this (numpy's own literal)
# and below it by inversion: ceil(E / -log1p(-p)) of a standard exponential
# E, drawn as int64 max from 2^63 on, the first double past int64 max.
GEOMETRIC_SEARCH_MIN = 0.333333333333333333333333
_INT64_MAX = np.iinfo(np.int64).max
# A pass inverts its own exponentials (about 8 ns a draw, against numpy's
# 20) from this many draws on; below it the inversion's extra numpy calls
# cost more than they save.
INVERSION_MIN_DRAWS = 1024


@dataclass
class ComparisonReport:
    """The L_n table of one comparison and P_k(x) on the same rows k = 0..K."""

    discrete: EmpiricalCdf
    continuum: np.ndarray
    ks_statistic: float


def _check_graph(n_vertices: int, c: float) -> None:
    if not 0.0 <= c <= 1.0:
        raise ConfigurationError(f"edge probability must be in [0,1], got {c}")
    if n_vertices < 1:
        raise ConfigurationError(f"n_vertices must be >= 1, got {n_vertices}")
    if n_vertices > np.iinfo(np.int64).max:  # vertex gaps are drawn as int64
        raise ConfigurationError(f"n_vertices must be <= 2^63 - 1, got {n_vertices}")


def _longest_paths(
    n_vertices: int, c: float, streams: Sequence[tuple[np.random.Generator, int]]
) -> np.ndarray:
    """L for the graphs of every stream (rng, k) of a pass, grown together.

    A trial keeps N[k], how many of its reached vertices have level (longest
    path from vertex 1) >= k.  A later vertex's edges from them are fresh
    Bernoulli(c) draws, so whatever else the graph holds, it has one from a
    level >= k with probability hit_k = 1 - (1 - c)^N[k].  The next reached
    vertex is the last one plus Geometric(hit_0), and its level d has
    P(d > k) = hit_k / hit_0: d = 1 + #{k >= 1: N[k] > ln(1 - U hit_0) / ln(1 - c)}.
    Each step reaches one more vertex in every live trial of the pass; every
    stream draws the gaps, then the uniforms, of its own live trials from its
    own generator into its own slice of one buffer, so its draws do not
    depend on the streams beside it.
    """
    trials = sum(k for _, k in streams)
    if c == 0.0:
        return np.zeros(trials, dtype=np.int64)
    if c == 1.0:  # every vertex is reached, one level above the last
        return np.full(trials, n_vertices - 1, dtype=np.int64)
    log_miss = math.log1p(-c)
    lengths = np.empty(trials, dtype=np.int64)
    trial = np.arange(trials)
    room = np.full(trials, n_vertices - 1, dtype=np.int64)  # vertices after the last reached
    draws = np.empty(trials)  # a live trial's gap, then its uniform and cut
    count = np.min_scalar_type(n_vertices)
    # Row k holds N[k] of every live trial for k = 1..depth, and the rows
    # after it are 0 (the buffer always has one).  Row 0 holds n, more than
    # any cut, so that row k of `ahead` is d > k from k = 0 on.
    above = np.zeros((3, trials), dtype=count)
    above[0] = n_vertices
    depth = 0
    reached = 1  # N[0], the same in every live trial
    while True:
        hit = -math.expm1(reached * log_miss)
        # a gap past the last vertex ends the trial; counted down, as hit_0 < ~1e-19
        # draws int64 max, which added to the vertex index wraps it negative
        room -= _geometric_gaps(streams, hit, draws)
        if room.min() < 0:
            live = room >= 0
            ended = (~live).nonzero()[0]
            levels = above[1 : depth + 1].take(ended, axis=1)
            lengths[trial.take(ended)] = (levels != 0).sum(axis=0)  # L = #{k >= 1: N[k] > 0}
            kept = live.nonzero()[0]
            if not kept.size:
                break
            trial, room, draws = trial.take(kept), room.take(kept), draws[: kept.size]
            above = above[: depth + 2].take(kept, axis=1)  # rows 0..depth and a 0 row
            if len(streams) > 1:  # kept is sorted: each stream ends where its trials do
                ends = np.searchsorted(kept, list(accumulate(k for _, k in streams))).tolist()
                streams = [(rng, hi - lo) for (rng, _), lo, hi
                           in zip(streams, [0, *ends], ends) if hi > lo]
            else:
                streams = [(streams[0][0], kept.size)]
        bar = _fill(streams, draws, lambda rng, out: rng.random(out=out))
        np.divide(np.log1p(np.multiply(bar, -hit, out=bar), out=bar), log_miss, out=bar)
        # N[k] > bar iff N[k] > floor(bar), and N[k] <= N[1] < n - 1: compared as counts
        ahead = above[: depth + 1] > np.minimum(bar, n_vertices - 1, out=bar).astype(count)
        above[1 : depth + 2] += ahead  # the new vertex adds one to N[1..d]
        if ahead[-1].any():  # a level above every live trial's
            depth += 1
            if depth + 1 == above.shape[0]:
                above = np.concatenate([above, np.zeros_like(above)])
        reached += 1
    return lengths


def _fill(
    streams: Sequence[tuple[np.random.Generator, int]],
    out: np.ndarray,
    draw: Callable[[np.random.Generator, np.ndarray], object],
) -> np.ndarray:
    """`out` after draw(rng, its slice) of every stream (rng, k), in stream order."""
    if len(streams) == 1:
        draw(streams[0][0], out)
        return out
    lo = 0
    for rng, k in streams:
        draw(rng, out[lo : lo + k])
        lo += k
    return out


def _geometric_gaps(
    streams: Sequence[tuple[np.random.Generator, int]], p: float, out: np.ndarray
) -> np.ndarray:
    """rng.geometric(p, k) of every stream (rng, k), in stream order, bit for bit.

    Below GEOMETRIC_SEARCH_MIN numpy inverts one exponential per draw and
    recomputes log1p(-p) each time.  A pass of INVERSION_MIN_DRAWS or more
    draws its exponentials into `out` (float64, the streams' total long),
    one slice a stream, and inverts them in one go, into `out` itself: the
    gaps are then its int64 view.  A smaller pass keeps numpy's own call.
    """
    if p >= GEOMETRIC_SEARCH_MIN or out.size < INVERSION_MIN_DRAWS:
        if len(streams) == 1:
            return streams[0][0].geometric(p, out.size)
        return np.concatenate([rng.geometric(p, k) for rng, k in streams])
    exps = _fill(streams, out, lambda rng, out: rng.standard_exponential(out=out))
    gaps = out.view(np.int64)  # cast in place over the exponentials
    scale = -math.log1p(-p)
    # the largest quotient is max(E) / scale: below 2^63, so is every ceil
    if float(exps.max()) / scale < 2.0**63:
        np.copyto(gaps, np.ceil(np.divide(exps, scale, out=exps), out=exps), casting="unsafe")
        return gaps
    with np.errstate(over="ignore"):  # E / scale is inf for p near 5e-324
        np.divide(exps, scale, out=exps)
    past = np.ceil(exps, out=exps) >= 2.0**63
    exps[past] = 0.0  # so that the cast meets no value past int64
    np.copyto(gaps, exps, casting="unsafe")
    gaps[past] = _INT64_MAX
    return gaps


def sample_longest_paths(n_vertices: int, c: float, trials: int, seed: int = 0) -> np.ndarray:
    """L of trials 0..trials-1 on block-keyed substreams of `seed`."""
    _check_graph(n_vertices, c)
    return sample_blocks(
        lambda streams: _longest_paths(n_vertices, c, streams),
        trials, seed, GRAPH_STREAM,
        # a trial's levels: at most its reached vertices, mean <= min(n, (1 + c)^(n - 1))
        math.exp(min(math.log(n_vertices), (n_vertices - 1) * math.log1p(c))),
    )


def sample_adjacency(n_vertices: int, c: float, rng: np.random.Generator) -> np.ndarray:
    """Dense upper-triangular adjacency matrix (for small-graph oracles)."""
    adj = rng.random((n_vertices + 1, n_vertices + 1)) < c
    adj[np.tril_indices(n_vertices + 1)] = False
    adj[0, :] = False  # vertices are 1-based; row/col 0 unused
    adj[:, 0] = False
    return adj


def longest_path_dp(adj: np.ndarray) -> int:
    """Longest path from vertex 1 by forward DP in index order."""
    n = adj.shape[0] - 1
    dist = np.full(n + 1, -1, dtype=np.int64)
    dist[1] = 0
    for i in range(1, n + 1):
        if dist[i] < 0:
            continue
        targets = np.nonzero(adj[i])[0]
        np.maximum.at(dist, targets, dist[i] + 1)
    return int(dist.max())


def longest_path_bruteforce(adj: np.ndarray) -> int:
    """Exhaustive enumeration of all directed paths from vertex 1."""
    n = adj.shape[0] - 1

    def walk(v: int) -> int:
        best = 0
        for w in range(v + 1, n + 1):
            if adj[v, w]:
                best = max(best, 1 + walk(w))
        return best

    return walk(1)


def ks_critical_value(size: float, alpha: float = 0.01) -> float:
    """Asymptotic KS quantile c(alpha)/sqrt(size); size is m*n/(m+n) for two samples."""
    return math.sqrt(-math.log(alpha / 2.0) / 2.0) / math.sqrt(size)


def _continuum_cdf(x: float, k_min: int) -> np.ndarray:
    """P_k(x) for k = 0..K from the TRAPEZOID recursion at CONTINUUM_DELTA.

    K is the larger of k_min and the first k with P_k(x) == 1.0.  Each
    generation is read at x off probe slabs with the window lo = hi = x, as
    GridFunction.evaluate reads it.
    """
    # 1 - P_k(x) is at most x^(k+1)/(k+1)!, the expected size of generation
    # k + 1; where that is below 2^-56 the exact P_k(x) rounds to 1.  Near
    # x = 0 the grid's tail can lag the exact one; k is then doubled.
    k = k_min
    while x > 0.0 and (k + 1) * math.log(x) - math.lgamma(k + 2) >= -56.0 * math.log(2.0):
        k += 1
    while True:
        at = np.full(k + 1, x)
        p = read_probe(probe_slabs(CONTINUUM_DELTA, at, at), np.arange(k + 1), at)
        ones = np.flatnonzero(p == 1.0)
        if ones.size:
            return p[: max(k_min, int(ones[0])) + 1]
        k = 2 * k + 1


def compare_discrete_continuum(
    n_vertices: int, x: float, trials: int, seed: int = 0
) -> ComparisonReport:
    """Sample L_n (graph, c = x/n) and score it against the recursion's P_k(x).

    The KS statistic is one-sample, max_k |F_L(k) - P_k(x)|, over the rows
    k = 0..K of _continuum_cdf, with k_min = max L.
    """
    check_tally(trials)
    if n_vertices < 1:
        raise ConfigurationError(f"n_vertices must be >= 1, got {n_vertices}")
    if not 0.0 <= x < math.inf:
        raise ConfigurationError(f"x must be finite and >= 0, got {x}")
    if x > n_vertices:
        raise ConfigurationError(
            f"x={x} with n_vertices={n_vertices} needs edge probability > 1"
        )

    lengths = sample_longest_paths(n_vertices, x / n_vertices, trials, seed)
    continuum = _continuum_cdf(x, int(lengths.max()))
    hist = outcome_histogram(lengths, len(continuum) - 1)
    discrete = EmpiricalCdf.from_histogram(x, trials, hist)
    return ComparisonReport(
        discrete=discrete,
        continuum=continuum,
        ks_statistic=float(np.max(np.abs(discrete.p_hat - continuum))),
    )
