#!/usr/bin/env python3
"""Benchmark the compiled recursion kernel against the numpy fallback.

Times a single generation update at several grid sizes, then n_max
full-grid steps per backend and the windowed front-measurement run
(run_recursion, which advances only the live band of the grid), and
reports the numerical deviation between the two backends.  Run after
`pip install -e . --no-build-isolation`:

    python3 benchmarks/bench_kernels.py
    python3 benchmarks/bench_kernels.py --delta 0.001 --nmax 400
"""

import argparse
import importlib
import time

import numpy as np

from continuum_cascade import _kernels_py
from continuum_cascade import kernels
from continuum_cascade.recursion import (
    RecursionConfig,
    front_clearance_xmax,
    init_p0,
    run_recursion,
)


def bench_step(step, g, delta, repeats=5):
    out_p = np.empty_like(g)
    out_g = np.empty_like(g)
    step(g, delta, out_p, out_g)  # warm up
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        step(g, delta, out_p, out_g)
        best = min(best, time.perf_counter() - t0)
    return best, out_p.copy(), out_g.copy()


def backend_steppers():
    table = {"python": (_kernels_py.step_riemann, _kernels_py.step_trapezoid)}
    try:
        compiled = importlib.import_module("continuum_cascade._kernels")
        table["compiled"] = (compiled.step_riemann, compiled.step_trapezoid)
    except ImportError:
        pass
    return table


def full_run(stepper, config):
    """n_max full-grid trapezoid steps with `stepper`, on bare arrays."""
    g = init_p0(config).complement.copy()
    out_p = np.empty_like(g)
    out_g = np.empty_like(g)
    t0 = time.perf_counter()
    for _ in range(config.n_max):
        stepper(g, config.delta, out_p, out_g)
        g, out_g = out_g, g
    return time.perf_counter() - t0, out_p


def windowed_run(config):
    """run_recursion with one front level, on the active backend."""
    t0 = time.perf_counter()
    run_recursion(config, front_levels=(0.5,))
    return time.perf_counter() - t0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--delta", type=float, default=0.01)
    parser.add_argument("--nmax", type=int, default=1000)
    args = parser.parse_args()

    table = backend_steppers()
    if "compiled" not in table:
        print("note: compiled extension not built; benchmarking fallback only")
    print(f"active backend at import: {kernels.BACKEND}\n")

    print("single trapezoid step (best of 5):")
    print(f"{'grid M':>10} " + " ".join(f"{k:>12}" for k in table))
    for m in (10_000, 100_000, 1_000_000):
        g = -np.expm1(-0.001 * np.arange(m))
        times = {}
        outputs = {}
        for name, (_, trap) in table.items():
            times[name], p, _ = bench_step(trap, g, 0.001)
            outputs[name] = p
        row = " ".join(f"{times[k]*1e3:>10.2f}ms" for k in table)
        print(f"{m:>10} {row}")
        if len(outputs) == 2:
            dev = np.max(np.abs(outputs["compiled"] - outputs["python"]))
            print(f"{'':>10} max |P diff| between backends: {dev:.2e}")

    config = RecursionConfig(
        delta=args.delta, x_max=front_clearance_xmax(args.nmax), n_max=args.nmax
    )
    print(f"\nfull trapezoid run: delta={args.delta} n_max={args.nmax} "
          f"(M={config.grid_size})")
    finals = {}
    for name, (_, trap) in table.items():
        elapsed, finals[name] = full_run(trap, config)
        print(f"  {name:>9}: {elapsed:6.2f}s "
              f"({elapsed / args.nmax * 1e3:.2f} ms/generation)")
    if len(finals) == 2:
        dev = np.max(np.abs(finals["compiled"] - finals["python"]))
        print(f"  max |P diff| after {args.nmax} generations: {dev:.2e}")
    elapsed = windowed_run(config)
    print(f"  {'window':>9}: {elapsed:6.2f}s "
          f"({elapsed / args.nmax * 1e3:.2f} ms/generation, run_recursion "
          f"on the {kernels.BACKEND} backend)")


if __name__ == "__main__":
    main()
