"""Fixed pieces of work that measure how fast the machine runs right now.

The measuring machine is a shared VM whose speed drifts by tens of percent
over minutes.  Each child runs `calibrate()` just before and just after the
command.  It times two phases, one of each kind of work the workloads do:
`kernel`, prefix sums and exponentials over an 80,000-cell array (the
recursion kernel's pattern and size), and `trials`, an interpreter loop
seeding generators and drawing small Poisson and uniform batches (the Monte
Carlo trials' and the probe's pattern).  The benchmark scales each child's
times by the REFERENCE_S of its workload's phases over their mean time in
that child's two calibrations, that is, to seconds of a machine on which
the phases take REFERENCE_S.  This is the benchmark's own code, so a change
to the program never changes it.
"""

from __future__ import annotations

import time

import numpy as np

# Phase times on the machine where the bounds were set: a 2-vCPU Intel
# Xeon VM, Python 3.11.7, numpy 2.4.6, in a quiet period.
REFERENCE_S = {"kernel": 0.25, "trials": 0.25}
CELLS = 80_000
KERNEL_REPS = 75
TRIALS = 3_000


def _kernel() -> float:
    g = np.linspace(1.0, 0.0, CELLS)
    p = np.empty(CELLS)
    total = 0.0
    for _ in range(KERNEL_REPS):
        q = 0.01 * np.cumsum(g, dtype=np.longdouble).astype(np.float64)
        np.exp(-q, out=p)
        g = -np.expm1(-q)
        g /= g[-1]
        total += p[-1]
    return total


def _trials() -> int:
    drawn = 0
    for trial in range(TRIALS):
        rng = np.random.default_rng(np.random.SeedSequence((7, 1, trial)))
        positions = np.zeros(1)
        for _ in range(4):
            counts = rng.poisson(2.0 - positions)
            total = int(counts.sum())
            if total == 0:
                break
            parents = np.repeat(positions, counts)[:16]
            positions = parents + rng.random(parents.size) * (2.0 - parents) * 0.5
            drawn += total
    return drawn


def calibrate() -> dict[str, float]:
    """Seconds each phase took."""
    times = {}
    for name, work in (("kernel", _kernel), ("trials", _trials)):
        t0 = time.perf_counter()
        work()
        times[name] = time.perf_counter() - t0
    return times
