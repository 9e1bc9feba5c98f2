"""Monte Carlo ground truth for the height distribution.

Simulates the continuum cascade tree on [0, x] generation by generation:
a particle at position p spawns Poisson(x - p) children placed uniformly at
random on [p, x] (equivalently, a branching Poisson point process with unit
intensity to the right of the parent, killed beyond the barrier x).  The
height H(x) is the last generation containing a particle; the minimum
position per generation gives the left-most-particle trace.

Trial i draws from an independent substream derived from (seed, i), so
trials can run in any order or across processes with identical aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import get_context
from typing import Iterator

import numpy as np

from .errors import ConfigurationError

DEFAULT_PARTICLE_CAP = 1_000_000

# substream tags keep the continuum, graph and BRW samplers decorrelated
# when runs share one base seed
HEIGHT_STREAM = 0
GRAPH_STREAM = 1
BRW_STREAM = 2


def trial_rng(seed: int, stream: int, trial: int) -> np.random.Generator:
    """Independent generator for one trial, a pure function of its indices."""
    return np.random.default_rng(np.random.SeedSequence((seed, stream, trial)))


@dataclass(frozen=True)
class SimConfig:
    x: float
    trials: int
    n_cap: int = 40
    particle_cap: int = DEFAULT_PARTICLE_CAP
    seed: int = 0

    def __post_init__(self) -> None:
        if self.x < 0.0:
            raise ConfigurationError(f"x must be >= 0, got {self.x}")
        if self.trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {self.trials}")
        if self.n_cap < 0:
            raise ConfigurationError(f"n_cap must be >= 0, got {self.n_cap}")
        if self.particle_cap < 1:
            raise ConfigurationError(f"particle_cap must be >= 1, got {self.particle_cap}")


@dataclass
class EmpiricalCdf:
    """Aggregated height CDF: counts[n] = number of trials with H(x) <= n."""

    x: float
    trials: int
    counts: np.ndarray
    truncated_trials: int
    beyond_cap_trials: int

    @property
    def p_hat(self) -> np.ndarray:
        return self.counts / self.trials

    @property
    def stderr(self) -> np.ndarray:
        p = self.p_hat
        return np.sqrt(p * (1.0 - p) / self.trials)

    def check_accounting(self) -> None:
        resolved = int(self.counts[-1])
        if resolved + self.truncated_trials + self.beyond_cap_trials != self.trials:
            raise AssertionError("trial accounting broken")


def _generations(x: float, rng: np.random.Generator, particle_cap: int) -> Iterator[np.ndarray]:
    """Yield particle position arrays per generation until extinction.

    Stops (without yielding) when the next generation would exceed the cap;
    the caller distinguishes extinction from truncation by whether the last
    yielded generation is empty.
    """
    positions = np.zeros(1)
    yield positions
    while positions.size:
        counts = rng.poisson(x - positions)
        total = int(counts.sum())
        if total > particle_cap:
            return
        if total == 0:
            yield np.empty(0)
            return
        parents = np.repeat(positions, counts)
        positions = parents + rng.random(total) * (x - parents)
        yield positions


def sample_height(
    x: float,
    rng: np.random.Generator,
    n_cap: int | None = None,
    particle_cap: int = DEFAULT_PARTICLE_CAP,
) -> int | None:
    """Height of one simulated tree.

    Returns the exact height, or n_cap + 1 when the tree is still alive past
    n_cap (height resolved as "beyond the table"), or None when the particle
    cap was hit first (truncated, reported as data downstream).
    """
    last_alive = -1
    truncated = True
    for gen, positions in enumerate(_generations(x, rng, particle_cap)):
        if positions.size:
            last_alive = gen
        else:
            truncated = False
            break
        if n_cap is not None and gen > n_cap:
            return n_cap + 1
    return None if truncated else last_alive


def leftmost_trace(
    x: float,
    rng: np.random.Generator,
    n_cap: int | None = None,
    particle_cap: int = DEFAULT_PARTICLE_CAP,
) -> tuple[list[float], bool]:
    """Minimum particle position per generation (inf marks the empty one).

    Shares the generation mechanism with sample_height, so on a shared
    substream the two views of a trial agree exactly.
    """
    mins: list[float] = []
    truncated = True
    for gen, positions in enumerate(_generations(x, rng, particle_cap)):
        if positions.size:
            mins.append(float(positions.min()))
        else:
            mins.append(float("inf"))
            truncated = False
            break
        if n_cap is not None and gen > n_cap:
            truncated = False
            break
    return mins, truncated


def _height_counts_chunk(args) -> tuple[np.ndarray, int, int]:
    x, n_cap, particle_cap, seed, start, stop = args
    hist = np.zeros(n_cap + 2, dtype=np.int64)  # slot n_cap+1 collects overflow
    truncated = 0
    for i in range(start, stop):
        h = sample_height(x, trial_rng(seed, HEIGHT_STREAM, i), n_cap, particle_cap)
        if h is None:
            truncated += 1
        else:
            hist[min(h, n_cap + 1)] += 1
    beyond = int(hist[n_cap + 1])
    return hist[: n_cap + 1], truncated, beyond


def empirical_cdf(config: SimConfig, workers: int = 1) -> EmpiricalCdf:
    """Aggregate `trials` independent heights into a CDF table.

    The reduction is an order-independent sum of integer histograms, so the
    result is bit-identical for any worker count.
    """
    bounds = np.linspace(0, config.trials, max(1, workers) + 1).astype(int)
    jobs = [
        (config.x, config.n_cap, config.particle_cap, config.seed, lo, hi)
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    ]
    if workers > 1 and len(jobs) > 1:
        with get_context("spawn").Pool(processes=workers) as pool:
            parts = pool.map(_height_counts_chunk, jobs)
    else:
        parts = [_height_counts_chunk(job) for job in jobs]

    hist = np.sum([p[0] for p in parts], axis=0)
    truncated = sum(p[1] for p in parts)
    beyond = sum(p[2] for p in parts)
    return EmpiricalCdf(
        x=config.x,
        trials=config.trials,
        counts=np.cumsum(hist),
        truncated_trials=truncated,
        beyond_cap_trials=beyond,
    )
