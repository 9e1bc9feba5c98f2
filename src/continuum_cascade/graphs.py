"""Discrete cascade random graph and its continuum comparison.

Vertices 1..n, directed edges (i, j) for i < j present independently with
probability c.  L_n is the length of the longest directed path starting at
vertex 1.  With c = x/n the out-degree law at vertex 1 converges to
Poisson(x), and L_n converges in distribution to the continuum height H(x);
compare_discrete_continuum measures the Kolmogorov-Smirnov distance between
the empirical law of L_n and the law of H(x) read off the recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .fronts import probe_slabs, read_probe
from .recursion import RecursionConfig
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


def _longest_paths(n_vertices: int, c: float, trials: int, rng: np.random.Generator) -> np.ndarray:
    """L for `trials` independent graphs grown together from one generator.

    Edges are instantiated lazily: only (trial, vertex) pairs reachable from
    vertex 1 are expanded, in breadth-first rounds, each exactly once.  A
    vertex's forward edges are a Bernoulli(c) sequence over the later
    vertices, drawn as Geometric(c) gaps between successive targets, which
    is distributionally identical to sampling the full edge set and costs
    draws in proportion to the out-degree.  The recorded edges are then
    relaxed in per-trial rank order (_relax_by_rank).
    """
    if c == 0.0:
        return np.zeros(trials, dtype=np.int64)
    stride = n_vertices + 1  # key of (trial t, vertex v) is t * stride + v
    frontier = np.arange(trials, dtype=np.int64) * stride + 1
    seen = frontier
    sources, targets = [], []
    while frontier.size:
        first = len(targets)
        source, vertex = frontier, frontier % stride
        while source.size:
            vertex = vertex + rng.geometric(c, size=vertex.size)
            keep = vertex <= n_vertices
            source, vertex = source[keep], vertex[keep]
            sources.append(source)
            targets.append(source + (vertex - source % stride))
        reached = np.sort(np.concatenate(targets[first:]))
        at = np.searchsorted(seen, reached)
        known = seen[np.minimum(at, seen.size - 1)] == reached
        known[1:] |= reached[1:] == reached[:-1]
        frontier = reached[~known]
        seen = np.sort(np.concatenate([seen, frontier]))
    del reached, at, known  # each as long as the last round's edges
    source, target = np.concatenate(sources), np.concatenate(targets)
    del sources, targets
    return _relax_by_rank(seen, source, target, stride, trials)


def _relax_by_rank(
    seen: np.ndarray, source: np.ndarray, target: np.ndarray, stride: int, trials: int
) -> np.ndarray:
    """Longest path from vertex 1 per trial, relaxing edges by source rank.

    `seen` holds the sorted keys t * stride + v of the vertices each trial
    reached, vertex 1 included; `source`/`target` hold the keys of every
    edge out of them once, in any order.  A source's rank is its position
    among its trial's reached vertices, and ranks are relaxed 0, 1, 2, ...:
    every edge points to a larger vertex, so a vertex's predecessors rank
    below it and its distance is final before it is read.
    """
    first = np.searchsorted(seen, np.arange(trials, dtype=np.int64) * stride + 1)
    src = np.searchsorted(seen, source)
    rank = src - first[source // stride]
    order = np.argsort(rank)
    bounds = np.cumsum(np.bincount(rank)).tolist()
    del rank
    src = src[order]
    dst = np.searchsorted(seen, target)[order]
    dist = np.zeros(seen.size, dtype=np.int64)
    for lo, hi in zip([0] + bounds, bounds):
        # A rank holds at most one source per trial, and each edge is
        # recorded once (a source's targets strictly increase), so the
        # targets here are distinct and a plain indexed assignment is an
        # exact scatter-max: no ufunc.at needed.
        d = dst[lo:hi]
        dist[d] = np.maximum(dist[d], dist[src[lo:hi]] + 1)
    return np.maximum.reduceat(dist, first)  # every trial holds vertex 1


def _expected_edges(n_vertices: int, c: float) -> float:
    """Bound on the mean edges per trial: reachable vertices times out-degree.

    The mean number of paths from vertex 1 is (1 + c)^(n - 1).
    """
    reachable = math.exp(min(math.log(n_vertices), (n_vertices - 1) * math.log1p(c)))
    return reachable * max(1.0, (n_vertices - 1) * c)


def sample_longest_paths(n_vertices: int, c: float, trials: int, seed: int = 0) -> np.ndarray:
    """L of trials 0..trials-1 on block-keyed substreams of `seed`."""
    _check_graph(n_vertices, c)
    return sample_blocks(
        lambda k, rng: _longest_paths(n_vertices, c, k, rng),
        trials, seed, GRAPH_STREAM, _expected_edges(n_vertices, c),
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


def ks_two_sample(counts_a: np.ndarray, counts_b: np.ndarray) -> float:
    """Max vertical distance between two integer-support empirical CDFs."""
    m = max(len(counts_a), len(counts_b))
    a = np.zeros(m)
    b = np.zeros(m)
    a[: len(counts_a)] = counts_a
    b[: len(counts_b)] = counts_b
    cdf_a = np.cumsum(a) / a.sum()
    cdf_b = np.cumsum(b) / b.sum()
    return float(np.max(np.abs(cdf_a - cdf_b)))


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
        config = RecursionConfig(CONTINUUM_DELTA, x + CONTINUUM_DELTA, k)
        p = read_probe(probe_slabs(config, at, at), np.arange(k + 1), at)
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
