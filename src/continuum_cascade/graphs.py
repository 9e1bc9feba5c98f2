"""Discrete cascade random graph and its continuum comparison.

Vertices 1..n, directed edges (i, j) for i < j present independently with
probability c.  L_n is the length of the longest directed path starting at
vertex 1.  With c = x/n the out-degree law at vertex 1 converges to
Poisson(x), and L_n converges in distribution to the continuum height H(x);
compare_discrete_continuum measures the Kolmogorov-Smirnov distance between
the two empirical laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericError
from .simulate import (
    GRAPH_STREAM,
    DEFAULT_PARTICLE_CAP,
    TRUNCATED,
    sample_blocks,
    sample_heights,
)


@dataclass
class CascadeGraphSample:
    n_vertices: int
    c: float
    longest_path_from_1: int


@dataclass
class ComparisonReport:
    n_vertices: int
    x: float
    trials: int
    cdf_discrete: np.ndarray
    cdf_continuum: np.ndarray
    ks_statistic: float
    truncated_continuum: int


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
    draws in proportion to the out-degree.  Every edge points to a larger
    index, so relaxing the recorded edges in increasing source-vertex order
    makes each distance final before it is used.
    """
    lengths = np.zeros(trials, dtype=np.int64)
    if c == 0.0:
        return lengths
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
    source, target = np.concatenate(sources), np.concatenate(targets)
    order = np.argsort(source % stride, kind="stable")
    source, target = source[order], target[order]
    starts = np.flatnonzero(np.diff(source % stride, prepend=-1)).tolist()
    src = np.searchsorted(seen, source)
    dst = np.searchsorted(seen, target)
    dist = np.zeros(seen.size, dtype=np.int64)
    for lo, hi in zip(starts, starts[1:] + [source.size]):
        np.maximum.at(dist, dst[lo:hi], dist[src[lo:hi]] + 1)
    np.maximum.at(lengths, seen // stride, dist)
    return lengths


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


def sample_cascade_graph(
    n_vertices: int, c: float, rng: np.random.Generator
) -> CascadeGraphSample:
    """Sample one graph and its L: the batch engine on a single trial."""
    _check_graph(n_vertices, c)
    length = int(_longest_paths(n_vertices, c, 1, rng)[0])
    return CascadeGraphSample(n_vertices=n_vertices, c=c, longest_path_from_1=length)


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


def ks_critical_value(m: int, n: int, alpha: float = 0.01) -> float:
    """Asymptotic two-sample KS quantile c(alpha)*sqrt((m+n)/(m*n))."""
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    return c * math.sqrt((m + n) / (m * n))


def compare_discrete_continuum(
    n_vertices: int,
    x: float,
    trials: int,
    seed: int = 0,
    particle_cap: int = DEFAULT_PARTICLE_CAP,
) -> ComparisonReport:
    """Sample L_n (graph, c = x/n) and H(x) (continuum) and report KS distance.

    Truncated continuum trials are excluded from the CDF and reported; at the
    x values of interest they do not occur.  When every continuum trial is
    truncated there is no continuum CDF, and NumericError is raised.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    if x > n_vertices:
        raise ConfigurationError(
            f"x={x} with n_vertices={n_vertices} needs edge probability > 1"
        )
    c = x / n_vertices

    lengths = sample_longest_paths(n_vertices, c, trials, seed)
    heights = sample_heights(x, trials, seed, None, particle_cap)
    resolved = heights[heights != TRUNCATED]
    truncated = trials - resolved.size
    if not resolved.size:
        raise NumericError(
            f"all {trials} continuum trials at x={x} exceeded particle_cap={particle_cap}"
        )

    top = int(max(lengths.max(), resolved.max(initial=0)))
    counts_g = np.bincount(lengths, minlength=top + 1)
    counts_c = np.bincount(resolved, minlength=top + 1)

    return ComparisonReport(
        n_vertices=n_vertices,
        x=x,
        trials=trials,
        cdf_discrete=np.cumsum(counts_g) / counts_g.sum(),
        cdf_continuum=np.cumsum(counts_c) / counts_c.sum(),
        ks_statistic=ks_two_sample(counts_g, counts_c),
        truncated_continuum=truncated,
    )
