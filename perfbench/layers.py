"""Per-layer metrics from the spans of one traced run (see spans.py).

Each span is [name, start, end, parent, count].  Times are sums of span
durations; a layer's self time is its spans' durations minus the part
covered by their direct child spans.  Percentiles are nearest-rank.
"""

from __future__ import annotations

import math
from collections import defaultdict

# Nominal traffic of one grid cell in a generation step: read g, write p and
# g, 8 bytes each.  recursion.gbps_nominal is computed from it, not measured.
BYTES_PER_CELL = 24


def percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    durations: dict[str, list[float]] = defaultdict(list)
    counts: dict[str, list[float]] = defaultdict(list)
    child_time = [0.0] * len(spans)
    for name, start, end, parent, count in spans:
        durations[name].append(end - start)
        if count is not None:
            counts[name].append(count)
        if parent >= 0:
            child_time[parent] += end - start

    def total(name: str) -> float:
        return sum(durations[name])

    def self_time(name: str) -> float:
        return sum(end - start - child_time[i]
                   for i, (n, start, end, _, _) in enumerate(spans) if n == name)

    steps = durations["recursion.iterate_step"]
    cells = sum(counts["recursion.iterate_step"])
    step_s = total("recursion.iterate_step")
    heights = durations["simulate.sample_height"]
    truncated = sum(counts["simulate.sample_height"])
    graph_trials = durations["graphs.sample_cascade_graph"]
    writes = ("output.RunWriter.write_csv", "output.RunWriter.write_manifest")
    return {
        "recursion.steps": len(steps),
        "recursion.cells": cells,
        "recursion.step_s": step_s,
        "recursion.ns_per_cell": step_s / cells * 1e9 if cells else 0.0,
        "recursion.step_ms_p50": percentile(steps, 0.50) * 1e3,
        "recursion.step_ms_p99": percentile(steps, 0.99) * 1e3,
        "recursion.gbps_nominal": BYTES_PER_CELL * cells / step_s / 1e9 if step_s else 0.0,
        "recursion.self_s": self_time("recursion.run_recursion"),
        # largest snapshot set one run_recursion call returned
        "recursion.retained_mb": max(counts["recursion.run_recursion"], default=0) / 2**20,
        "fronts.probe_calls": len(durations["fronts.front_constancy_probe"]),
        "fronts.probe_s": total("fronts.front_constancy_probe"),
        "simulate.trials": len(heights),
        "simulate.trial_s": sum(heights),
        "simulate.trial_us_p50": percentile(heights, 0.50) * 1e6,
        "simulate.trial_us_p999": percentile(heights, 0.999) * 1e6,
        "simulate.seed_calls": len(durations["simulate.trial_rng"]),
        "simulate.seed_s": total("simulate.trial_rng"),
        "simulate.truncated": truncated,
        "simulate.resolved_ratio": (len(heights) - truncated) / len(heights) if heights else 0.0,
        "graphs.trials": len(graph_trials),
        "graphs.trial_s": sum(graph_trials),
        "graphs.trial_us_p50": percentile(graph_trials, 0.50) * 1e6,
        "graphs.trial_us_p999": percentile(graph_trials, 0.999) * 1e6,
        "output.write_s": sum(total(w) for w in writes),
        "output.bytes": sum(sum(counts[w]) for w in writes),
        "cli.main_s": total("cli.main"),
    }
