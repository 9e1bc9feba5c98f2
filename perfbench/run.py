#!/usr/bin/env python3
"""Benchmark of the cascade command line, end to end and layer by layer.

    python3 perfbench/run.py --workload front --seed 1 --seconds 40 --trace 0

Builds the package from the checkout's sources into .bench_build/, then runs
the workload's `cascade` command over and over, each time in a fresh child
process (child.py), one child at a time, while another run fits in
--seconds (at least three runs).  Every run's artifacts go through the workload's
correctness gate (workloads.py) and must be byte-identical across the runs.

--trace 0 reports the end-to-end metrics of BENCHMARK.json as medians over
the runs.  The times (wall_s, setup_s, cpu_s) are scaled to the reference
speed of calibrate.py's fixed work, which every child runs just before and
after the command, so that the shared machine's drift cancels; the raw
medians are printed beside them.  --trace 1 alternates untraced runs with
traced ones, whose spans (spans.py) give the per-layer metrics
(layers.py); trace.overhead compares the traced cli.main_s with the
untraced wall_s.  Human-readable lines come first; the last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"}.
The environment, every run's raw numbers and the metrics are also written
to .bench_build/perfbench/results/.  Exit code 0 when every run passed its
gate, 1 when one failed, 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from calibrate import REFERENCE_S
from layers import layer_metrics
from workloads import WORKLOADS, Workload, check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
END_TO_END = ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")
TIMES = ("wall_s", "setup_s", "cpu_s")
MIN_RUNS = 3
CHILD_TIMEOUT_S = 120
# single-threaded BLAS/OpenMP (at most nproc) keeps runs steady and comparable
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark itself cannot run (no sources, build failed)."""


def _source_digest() -> str:
    digest = hashlib.sha256()
    files = [p for p in (ROOT / "src").rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    for path in sorted(files) + [ROOT / "setup.py", ROOT / "pyproject.toml"]:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def build() -> Path:
    """Build the package from source; reuse the build while sources are unchanged.

    `setup.py build` compiles the optional kernel extension when the build
    can, so the benchmark measures whatever backend the sources produce.
    """
    if not (ROOT / "setup.py").is_file() or not (ROOT / "src" / "continuum_cascade").is_dir():
        raise BenchError(f"no continuum_cascade sources under {ROOT}")
    base = WORK / "build"
    lib = base / "lib"
    stamp = base / "source.sha256"
    digest = _source_digest()
    if stamp.is_file() and stamp.read_text() == digest:
        return lib
    shutil.rmtree(base, ignore_errors=True)
    (base / "egg").mkdir(parents=True)
    for cmd in (
        [sys.executable, "setup.py", "-q", "egg_info", "--egg-base", str(base / "egg"),
         "build", "--build-base", str(base), "--build-lib", str(lib)],
        [sys.executable, "-m", "compileall", "-q", str(lib)],
    ):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}\n{proc.stdout}{proc.stderr}")
    stamp.write_text(digest)
    return lib


def child_env(lib: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(lib), PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(workload: Workload, seed: int, index: int, env: dict,
              traced: bool = False, import_only: bool = False) -> dict:
    """One fresh process running the workload's command; returns its sample."""
    run_dir = WORK / "runs" / f"{workload.name}-{index}"
    shutil.rmtree(run_dir, ignore_errors=True)
    out = run_dir / "out"
    out.mkdir(parents=True)
    result_path, spans_path, log_path = (run_dir / n for n in ("result.json", "spans.json", "child.log"))
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path)]
    if traced:
        cmd += ["--spans", str(spans_path)]
    if import_only:
        cmd.append("--import-only")
    cmd += ["--", *workload.argv(seed), "--out", str(out)]
    with open(log_path, "w") as log:
        try:
            rc = subprocess.run(cmd, cwd=run_dir, env=env, stdout=log, stderr=subprocess.STDOUT,
                                timeout=CHILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            rc = "timeout"
    if rc != 0:
        return {"traced": traced, "errors": [f"child exited {rc}, see {log_path}"]}
    sample = json.loads(result_path.read_text())
    sample["traced"] = traced
    if import_only:
        return sample
    if sample["exit_code"] != 0:
        sample["errors"] = [f"cascade exited {sample['exit_code']}, see {log_path}"]
        return sample
    sample["errors"] = check(workload, out)
    sample["manifest"] = hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest()
    if traced:
        sample["layers"] = layer_metrics(json.loads(spans_path.read_text()))
    return sample


def measure(workload: Workload, seed: int, seconds: float, trace: bool, env: dict) -> list[dict]:
    """Fresh-process runs, one at a time, while another fits in `seconds`.

    At least MIN_RUNS run.  With `trace`, every second run is traced.  All
    runs share one argv, so they must write byte-identical artifacts.
    """
    shutil.rmtree(WORK / "runs", ignore_errors=True)
    samples: list[dict] = []
    durations: list[float] = []
    start = time.perf_counter()
    while len(samples) < MIN_RUNS or (
            time.perf_counter() - start + statistics.median(durations) <= seconds):
        t0 = time.perf_counter()
        sample = run_child(workload, seed, len(samples), env, traced=trace and len(samples) % 2 == 1)
        durations.append(time.perf_counter() - t0)
        first = samples[0].get("manifest") if samples else None
        if first and sample.get("manifest") not in (None, first):
            sample["errors"].append("artifacts differ from the first run's")
        samples.append(sample)
    return samples


def calibration_s(sample: dict, phases: tuple[str, ...]) -> float:
    """Time of the calibration `phases`, mean of the child's two calibrations."""
    return statistics.mean(sum(cal[p] for p in phases) for cal in sample["cal_s"])


def scale(sample: dict, value: float, phases: tuple[str, ...]) -> float:
    """A time of this child in seconds at the calibration's reference speed."""
    return value * sum(REFERENCE_S[p] for p in phases) / calibration_s(sample, phases)


def summarize(samples: list[dict], trace: bool, phases: tuple[str, ...]) -> dict[str, list[float]]:
    """Metric name -> the values it takes over the runs that passed."""
    ok = [s for s in samples if not s["errors"]]
    plain = [s for s in ok if not s["traced"]]
    if not trace:
        if not plain:
            return {}
        return {name: [scale(s, s[name], phases) if name in TIMES else s[name] for s in plain]
                for name in END_TO_END}
    traced = [s for s in ok if s["traced"]]
    if not plain or not traced:
        return {}
    values = {name: [s["layers"][name] for s in traced] for name in traced[0]["layers"]}
    wall = statistics.median(scale(s, s["wall_s"], phases) for s in plain)
    values["trace.overhead"] = [scale(s, s["layers"]["cli.main_s"], phases) / wall - 1.0
                                for s in traced]
    return values


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(backend: str) -> dict:
    """Results from different kernel backends must never be compared."""
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "kernel_backend": backend,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "threads": {var: "1" for var in THREAD_VARS},
    }


def run_workload(workload: Workload, args, spec: dict, lib: Path) -> tuple[dict, int, int]:
    """Measure one workload, print its lines, save its record; returns
    (metrics, attempted, failed)."""
    trace = bool(args.trace)
    env = child_env(lib)
    warmup = run_child(workload, args.seed, -1, env, import_only=True)  # page cache, not counted
    if warmup.get("errors"):
        raise BenchError(f"cannot import the package: {warmup['errors'][0]}")

    samples = measure(workload, args.seed, args.seconds, trace, env)
    values = summarize(samples, trace, workload.calibration)
    failed = sum(1 for s in samples if s["errors"])
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": statistics.median(values[m["name"]]), "unit": m["unit"]}
               for m in wanted if values}

    env_record = environment(warmup["kernel_backend"])
    print("environment " + json.dumps(env_record, sort_keys=True))
    print(f"workload {workload.name}: cascade {' '.join(workload.argv(args.seed))}")
    for s in samples:
        for error in s["errors"]:
            print(f"FAILED: {error}")
    plain = [s for s in samples if not s["errors"] and not s["traced"]]
    for name, m in metrics.items():
        vals = values[name]
        raw = (f"  raw median {statistics.median(s[name] for s in plain):.6g}"
               if name in TIMES and not trace else "")
        print(f"{workload.name:10} {name:24} {m['value']:14.6g} {m['unit']:6} "
              f"median of n={len(vals)}  min {min(vals):.6g}  max {max(vals):.6g}{raw}")
    if not trace and plain:
        phases = workload.calibration
        cal = [calibration_s(s, phases) for s in plain]
        print(f"{workload.name:10} {'calibration':24} {statistics.median(cal):14.6g} {'s':6} "
              f"median of n={len(cal)}, phases {'+'.join(phases)}, "
              f"reference {sum(REFERENCE_S[p] for p in phases):g}")
    print(f"{workload.name:10} {'fail_rate':24} {failed / len(samples):14.6g} {'ratio':6} "
          f"{failed} of {len(samples)} runs failed")

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed, "trace": trace,
              "argv": workload.argv(args.seed), "environment": env_record,
              "samples": samples, "metrics": metrics}
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    return metrics, len(samples), failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    metrics: dict[str, dict] = {}
    attempted = failed = 0
    complete = True
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        lib = build()
        for name in names:
            got, n_runs, n_failed = run_workload(WORKLOADS[name], args, spec, lib)
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in got.items()})
            complete = complete and bool(got)
            attempted += n_runs
            failed += n_failed
    except (OSError, ValueError, BenchError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    correct = failed == 0 and complete
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
