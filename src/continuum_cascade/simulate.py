"""Monte Carlo ground truth for the height distribution.

Simulates the continuum cascade tree on [0, x] generation by generation:
a particle at position p spawns Poisson(x - p) children placed uniformly at
random on [p, x] (equivalently, a branching Poisson point process with unit
intensity to the right of the parent, killed beyond the barrier x).  The
height H(x) is the last generation containing a particle; the minimum
position per generation gives the left-most-particle trace.

Trials run in blocks of BLOCK, block b drawing from its own substream,
derived from (seed, stream, b).  sample_blocks hands a sampler whole blocks
a pass at a time, as many as the element budget PASS_ELEMENTS allows, and
the graph engine (graphs.py) grows a pass in one loop.  The height sampler
grows one block at a time: one population array holds the particles of
every trial of the block, with the trial that owns each, so a generation
costs a few numpy calls however many trials it advances.  Growing a pass's
blocks together measured slower (1e5 trials: 27 -> 37 ms at x = 1, 81 ->
103 ms at x = 2), as its cost is the Poisson and uniform draws, then made
block by block on slices of the population.  Workers split whole blocks,
so aggregates are identical for any worker count.  `leftmost_trace` is the
same engine run on a block of one trial.  `offspring` is the one
generation step, shared with martingale.simulate_Dn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError
from .recursion import MAX_ARRAY_ITEMS

DEFAULT_PARTICLE_CAP = 1_000_000

# substream tags keep the continuum, graph and BRW samplers decorrelated
# when runs share one base seed
HEIGHT_STREAM = 0
GRAPH_STREAM = 1
BRW_STREAM = 2

# Trials per substream.  Fixed, so that the trials a substream serves, and
# hence every result, do not depend on how blocks are spread over workers.
BLOCK = 4096
# A pass holds whole blocks while its trials are expected to hold at most
# about this many particles (or graph levels) at once.  A block that alone
# holds more is advanced in several passes of fewer trials, one after
# another on the block's generator, to bound memory.
PASS_ELEMENTS = 1 << 20

# Most worker processes empirical_cdf starts.  Each is a fresh interpreter
# that imports numpy, and the work is CPU-bound, so workers past the cores
# add memory and no speed; a larger count is refused before any pool starts.
MAX_WORKERS = 64

# height of a trial that hit the particle cap before it was resolved
TRUNCATED = -1

# Largest mean Generator.poisson draws from (numpy's own bound, same formula);
# it raises ValueError above it.
POISSON_MEAN_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


def trial_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    """Independent generator for substream `index` of `stream`.

    The Monte Carlo samplers key it by trial block, the BRW trajectories by
    trial.  It is a pure function of its arguments.
    """
    return np.random.default_rng(np.random.SeedSequence((seed, stream, index)))


def sample_blocks(
    sample: Callable[[Sequence[tuple[np.random.Generator, int]]], np.ndarray],
    trials: int,
    seed: int,
    stream: int,
    per_trial: float,
    blocks: Sequence[int] | None = None,
) -> np.ndarray:
    """Outcomes of trials 0..trials-1, in order, grown a pass at a time.

    Block b covers trials [b*BLOCK, (b+1)*BLOCK) and draws from
    trial_rng(seed, stream, b).  A pass holds up to PASS_ELEMENTS / per_trial
    trials, when each trial holds `per_trial` elements: whole blocks share a
    pass, and a larger block is cut into passes of that many trials, run in
    order on its generator.  `sample(streams)` returns the outcomes of one
    pass, k trials drawn from rng for each stream (rng, k), in stream order.
    No pass holds two parts of one block, so a block draws the same sequence
    whichever blocks share its passes.  `blocks` restricts the run to those
    blocks.
    """
    if blocks is None:
        blocks = range(-(-trials // BLOCK))
    budget = int(max(1.0, PASS_ELEMENTS / max(per_trial, 1.0)))
    step = min(BLOCK, budget)
    parts = [np.empty(0, dtype=np.int64)]
    streams: list[tuple[np.random.Generator, int]] = []
    held = 0
    for block in blocks:
        rng = trial_rng(seed, stream, block)
        lo, hi = block * BLOCK, min((block + 1) * BLOCK, trials)
        for start in range(lo, hi, step):
            k = min(step, hi - start)
            # a part cut from a block fills its pass, so the next part starts another
            if held + k > budget:
                parts.append(sample(streams))
                streams, held = [], 0
            streams.append((rng, k))
            held += k
    if streams:
        parts.append(sample(streams))
    return np.concatenate(parts)


def check_tally(trials: int, n_cap: int | None = None) -> None:
    """A CDF table needs a trial to count and, when capped, a row 0 and an address."""
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    if n_cap is not None and n_cap < 0:
        raise ConfigurationError(f"n_cap must be >= 0, got {n_cap}")
    # outcome_histogram's table holds n_cap + 3 int64 counts
    if n_cap is not None and n_cap > MAX_ARRAY_ITEMS - 3:
        raise ConfigurationError(
            f"n_cap (--ncap) must be at most {MAX_ARRAY_ITEMS - 3}, so that its table of "
            f"n_cap + 3 counts fits one array, got {n_cap}"
        )


def check_poisson_mean(mean: float, source: str) -> None:
    """Raise unless numpy can draw Poisson counts of `mean`, the largest `source` sets."""
    if mean > POISSON_MEAN_MAX:
        raise ConfigurationError(
            f"{source} sets a Poisson mean of {mean:.6g}, above the largest numpy "
            f"draws from ({POISSON_MEAN_MAX:.6g})"
        )


def check_particle_cap(particle_cap: int) -> None:
    """A trial must be allowed at least its root particle."""
    if particle_cap < 1:
        raise ConfigurationError(f"particle_cap must be >= 1, got {particle_cap}")


def outcome_histogram(outcomes: np.ndarray, n_cap: int) -> np.ndarray:
    """Tally of trial outcomes, the one histogram behind every CDF table.

    Slot 0 counts TRUNCATED outcomes, slot k + 1 outcome k for k = 0..n_cap,
    and the last slot every outcome past n_cap.
    """
    return np.bincount(np.minimum(outcomes, n_cap + 1) + 1, minlength=n_cap + 3)


@dataclass(frozen=True)
class SimConfig:
    x: float
    trials: int
    n_cap: int = 40
    particle_cap: int = DEFAULT_PARTICLE_CAP
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.x < math.inf:
            raise ConfigurationError(f"x must be finite and >= 0, got {self.x}")
        check_poisson_mean(self.x, f"x (--x) = {self.x:g}")  # the root's mean
        check_tally(self.trials, self.n_cap)
        check_particle_cap(self.particle_cap)


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

    @classmethod
    def from_histogram(cls, x: float, trials: int, hist: np.ndarray) -> EmpiricalCdf:
        """Table of an outcome_histogram; raises unless it counts every trial."""
        cdf = cls(x=x, trials=trials, counts=np.cumsum(hist[1:-1]),
                  truncated_trials=int(hist[0]), beyond_cap_trials=int(hist[-1]))
        cdf.check_accounting()
        return cdf

    def check_accounting(self) -> None:
        resolved = int(self.counts[-1])
        if resolved + self.truncated_trials + self.beyond_cap_trials != self.trials:
            raise AssertionError("trial accounting broken")


def offspring(
    rng: np.random.Generator, positions: np.ndarray, owner: np.ndarray, trials: int,
    intensity: float, offset: float, width: np.ndarray, particle_cap: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One generation of a branching Poisson point process, every trial at once.

    A parent at p of trial owner(p) has Poisson(intensity * width(p)) children
    uniform on [p + offset, p + offset + width(p)], or none when its trial's
    children would exceed particle_cap.  Returns the children, their owners
    and the mask of the trials that went over the cap.
    """
    counts = rng.poisson(intensity * width)
    # float64 totals: a cap past 2^53 is never reached, and as a float may overflow
    over = np.bincount(owner, counts, minlength=trials) > min(particle_cap, 2**53)
    counts[over[owner]] = 0
    parents = np.repeat(positions, counts)
    spread = rng.random(parents.size) * np.repeat(width, counts)
    return parents + (offset + spread), np.repeat(owner, counts), over


def _grow(
    x: float,
    trials: int,
    rng: np.random.Generator,
    n_cap: int | None,
    particle_cap: int,
    minima: list[float] | None = None,
) -> np.ndarray:
    """Heights of `trials` trees grown together, one generation per step.

    A trial's height is its last generation with a particle, n_cap + 1 when
    it is still alive past n_cap, or TRUNCATED when one of its generations
    would exceed particle_cap particles; those particles are dropped before
    their children are placed.  With `minima`, the minimum position of each
    generation is appended to it (a left-most trace when trials == 1).
    """
    heights = np.zeros(trials, dtype=np.int64)
    positions = np.zeros(trials)
    owner = np.arange(trials)
    gen = 0
    while positions.size:
        heights[owner] = gen
        if minima is not None:
            minima.append(float(positions.min()))
        if n_cap is not None and gen > n_cap:
            break
        positions, owner, over = offspring(
            rng, positions, owner, trials, 1.0, 0.0, x - positions, particle_cap
        )
        heights[over] = TRUNCATED  # a trial over the cap has no particles left
        gen += 1
    return heights


def _peak_generation(x: float, particle_cap: int) -> float:
    """Expected size of the largest generation, x^k/k! at k = floor(x), capped.

    Compared with the cap in log space: x^k/k! overflows a float from x = 714 on.
    """
    k = math.floor(x)
    log_peak = k * math.log(x) - math.lgamma(k + 1) if x > 0.0 else 0.0
    return min(math.exp(min(log_peak, math.log(particle_cap))), particle_cap)


def sample_heights(
    x: float,
    trials: int,
    seed: int = 0,
    n_cap: int | None = None,
    particle_cap: int = DEFAULT_PARTICLE_CAP,
    blocks: Sequence[int] | None = None,
) -> np.ndarray:
    """Heights of trials 0..trials-1 on block-keyed substreams of `seed`.

    Each is the exact height, n_cap + 1 when the tree is still alive past
    n_cap, or TRUNCATED when the particle cap was hit first.
    """
    return sample_blocks(
        lambda streams: np.concatenate(
            [_grow(x, k, rng, n_cap, particle_cap) for rng, k in streams]
        ),
        trials, seed, HEIGHT_STREAM, _peak_generation(x, particle_cap), blocks,
    )


def leftmost_trace(
    x: float,
    rng: np.random.Generator,
    n_cap: int | None = None,
    particle_cap: int = DEFAULT_PARTICLE_CAP,
) -> tuple[list[float], bool]:
    """Minimum particle position per generation (inf marks the empty one).

    Shares the generation mechanism with sample_heights, so on a shared
    substream (block 0 of a one-trial run) the two views of a trial agree
    exactly.
    """
    mins: list[float] = []
    height = int(_grow(x, 1, rng, n_cap, particle_cap, mins)[0])
    if height == TRUNCATED:
        return mins, True
    if n_cap is None or height <= n_cap:
        mins.append(float("inf"))
    return mins, False


def _height_histogram(args) -> np.ndarray:
    x, n_cap, particle_cap, seed, trials, blocks = args
    heights = sample_heights(x, trials, seed, n_cap, particle_cap, blocks)
    return outcome_histogram(heights, n_cap)


def empirical_cdf(config: SimConfig, workers: int = 1) -> EmpiricalCdf:
    """Aggregate `trials` independent heights into a CDF table.

    Workers take whole blocks and the reduction is an order-independent sum
    of integer histograms, so the result is bit-identical for any worker
    count.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if workers > MAX_WORKERS:
        raise ConfigurationError(
            f"workers (--workers) must be at most {MAX_WORKERS}, got {workers}"
        )
    n_blocks = -(-config.trials // BLOCK)
    jobs = [
        (config.x, config.n_cap, config.particle_cap, config.seed, config.trials, part.tolist())
        for part in np.array_split(np.arange(n_blocks), min(workers, n_blocks))
    ]
    if len(jobs) > 1:
        # imported only here: loading it adds ~7 ms to the start of every command
        from multiprocessing import get_context
        with get_context("spawn").Pool(processes=len(jobs)) as pool:
            parts = pool.map(_height_histogram, jobs)
    else:
        parts = [_height_histogram(job) for job in jobs]
    return EmpiricalCdf.from_histogram(config.x, config.trials, np.sum(parts, axis=0))
