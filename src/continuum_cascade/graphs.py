"""Discrete cascade random graph and its continuum comparison.

Vertices 1..n, directed edges (i, j) for i < j present independently with
probability c.  L_n is the length of the longest directed path starting at
vertex 1.  With c = x/n the out-degree law at vertex 1 converges to
Poisson(x), and L_n converges in distribution to the continuum height H(x);
compare_discrete_continuum measures the Kolmogorov-Smirnov distance between
the two empirical laws.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .simulate import (
    GRAPH_STREAM,
    HEIGHT_STREAM,
    DEFAULT_PARTICLE_CAP,
    sample_height,
    trial_rng,
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


def sample_cascade_graph(
    n_vertices: int, c: float, rng: np.random.Generator
) -> CascadeGraphSample:
    """Sample a graph and compute L via DP over vertices in index order.

    Edges are instantiated lazily: only vertices reachable from vertex 1 are
    expanded (their out-edges are Binomial(n - i, c) many, targets drawn
    uniformly without replacement), which is distributionally identical to
    sampling the full edge set and prunes the O(n^2) scan.  Vertices come off
    a min-heap in increasing index order, so each distance is final when the
    vertex is expanded.
    """
    if not 0.0 <= c <= 1.0:
        raise ConfigurationError(f"edge probability must be in [0,1], got {c}")
    if n_vertices < 1:
        raise ConfigurationError(f"n_vertices must be >= 1, got {n_vertices}")
    dist = {1: 0}
    heap = [1]
    done = set()
    best = 0
    while heap:
        i = heapq.heappop(heap)
        if i in done:
            continue
        done.add(i)
        best = max(best, dist[i])
        n_later = n_vertices - i
        if n_later == 0 or c == 0.0:
            continue
        k = int(rng.binomial(n_later, c))
        if k == 0:
            continue
        targets = i + 1 + rng.choice(n_later, size=k, replace=False)
        d = dist[i] + 1
        for t in targets:
            t = int(t)
            if dist.get(t, -1) < d:
                dist[t] = d
            if t not in done:
                heapq.heappush(heap, t)
    return CascadeGraphSample(n_vertices=n_vertices, c=c, longest_path_from_1=best)


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
    x values of interest they do not occur.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    if x > n_vertices:
        raise ConfigurationError(
            f"x={x} with n_vertices={n_vertices} needs edge probability > 1"
        )
    c = x / n_vertices

    graph_lengths = [
        sample_cascade_graph(n_vertices, c, trial_rng(seed, GRAPH_STREAM, i)).longest_path_from_1
        for i in range(trials)
    ]
    heights = [
        sample_height(x, trial_rng(seed, HEIGHT_STREAM, i), None, particle_cap)
        for i in range(trials)
    ]
    resolved = [h for h in heights if h is not None]
    truncated = trials - len(resolved)

    top = max(graph_lengths + resolved)
    counts_g = np.bincount(graph_lengths, minlength=top + 1)
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
