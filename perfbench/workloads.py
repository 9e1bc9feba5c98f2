"""The benchmarked CLI invocations and the correctness gate for each.

A workload turns the benchmark seed into the argv of one `cascade` command
and checks the artifacts that command wrote.  A gate returns a list of
failure messages; an empty list means the artifacts are correct.  The
references under reference/ were recorded from the seed commit of this
repository with the numpy kernel backend.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE = Path(__file__).resolve().parent / "reference"

# Criterion 04: the fitted ln(n) coefficient lies within 30 % of 3/(2e).
B_TARGET = 3.0 / (2.0 * math.e)
B_REL_TOL = 0.30
# front_trace.csv may differ from the reference by this much in x.  The
# grid spacing is 0.01, so this allows summation-order changes (a few ulps
# per generation) and nothing a change to the numerics would produce.
FRONT_X_TOL = 1e-6
# alpha_star is a golden-section minimum found to 1e-5; rounding-level
# changes to the probe move it by at most that.
ALPHA_TOL = 1e-4
# P(H(2) <= n) from the continuum sampler against the recursion (delta 0.001,
# trapezoid) within this many binomial standard deviations.  Only n with at
# least MIN_TAIL_TRIALS expected trials on each side are checked, where the
# normal approximation holds; there a correct sampler exceeds 5 sigma at one
# of the (at most 16) points with probability below 1e-5 per seed.
N_SIGMA = 5.0
MIN_TAIL_TRIALS = 100
DELTAS = (0.02, 0.01, 0.005, 0.001)
MC_TRIALS = 20000


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_manifest(out: Path, expected: frozenset[str]) -> list[str]:
    """manifest.json lists exactly the expected files, with their checksums."""
    try:
        files = json.loads((out / "manifest.json").read_text())["files"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"manifest.json unreadable: {exc}"]
    if set(files) != expected:
        return [f"manifest lists {sorted(files)}, expected {sorted(expected)}"]
    return [f"{name}: checksum differs from manifest"
            for name, digest in files.items() if _sha256(out / name) != digest]


def gate_front(out: Path) -> list[str]:
    errors = []
    ref = _rows(REFERENCE / "front_trace.csv")
    got = _rows(out / "front_trace.csv")
    if [r[0] for r in got] != [r[0] for r in ref]:
        errors.append("front_trace.csv generations differ from the reference")
    else:
        worst = max(abs(float(a[1]) - float(b[1])) for a, b in zip(got, ref))
        if not worst <= FRONT_X_TOL:
            errors.append(f"front_trace.csv off the reference by {worst:.3e} > {FRONT_X_TOL}")
    b = float(_rows(out / "front_fit.csv")[0][1])
    if not abs(b - B_TARGET) <= B_REL_TOL * B_TARGET:
        errors.append(f"fitted b={b:.4f} not within 30% of 3/(2e)={B_TARGET:.4f}")
    return errors


def gate_alpha_scan(out: Path) -> list[str]:
    errors = []
    ref = {float(d): float(a) for d, a in _rows(REFERENCE / "alpha_scan.csv")}
    got = {float(d): float(a) for d, a in _rows(out / "alpha_scan.csv")}
    if sorted(got) != sorted(DELTAS):
        return [f"alpha_scan.csv has deltas {sorted(got)}, expected {sorted(DELTAS)}"]
    stars = [got[d] for d in DELTAS]  # coarse to fine
    if not all(a < b for a, b in zip(stars, stars[1:])):
        errors.append(f"alpha* does not increase as delta shrinks: {stars}")
    if not all(a < 1.0 for a in stars):
        errors.append(f"alpha* not below 1: {stars}")
    for d in DELTAS:
        if not abs(got[d] - ref[d]) <= ALPHA_TOL:
            errors.append(f"alpha*({d}) = {got[d]:.6f}, reference {ref[d]:.6f}")
    for d in DELTAS:
        values = [float(v) for _, v in _rows(out / f"probe_{d:g}.csv")]
        if len(values) != 199 or not all(0.0 <= v <= 1.0 for v in values):
            errors.append(f"probe_{d:g}.csv: expected 199 values in [0, 1]")
    return errors


def gate_montecarlo(out: Path) -> list[str]:
    errors = []
    rows = _rows(out / "compare.csv")
    ks_row, cdf_rows = rows[-1], rows[:-1]
    statistic = float(ks_row[1])
    critical = math.sqrt(-math.log(0.01 / 2.0) / 2.0) * math.sqrt(2.0 / MC_TRIALS)
    if ks_row[0] != "KS" or not statistic < critical:
        errors.append(f"KS statistic {statistic:.5f} not below its 1% critical value {critical:.5f}")
    discrete = [float(r[1]) for r in cdf_rows]
    continuum = [float(r[2]) for r in cdf_rows]
    for name, cdf in (("discrete", discrete), ("continuum", continuum)):
        if abs(cdf[-1] - 1.0) > 1e-12:
            errors.append(f"{name} CDF ends at {cdf[-1]!r}, not 1")
        if any(a > b for a, b in zip(cdf, cdf[1:])):
            errors.append(f"{name} CDF decreases")
    for n, p in _rows(REFERENCE / "pn_x2.csv"):
        n, p = int(n), float(p)
        if MC_TRIALS * min(p, 1.0 - p) < MIN_TAIL_TRIALS:
            continue
        p_hat = continuum[n] if n < len(continuum) else 1.0
        sigma = math.sqrt(p * (1.0 - p) / MC_TRIALS)
        if abs(p_hat - p) > N_SIGMA * sigma:
            errors.append(f"P(H(2)<={n}) = {p_hat:.5f}, recursion {p:.5f}: "
                          f"{abs(p_hat - p) / sigma:.1f} sigma")
    return errors


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int], list[str]]
    files: frozenset[str]
    gate: Callable[[Path], list[str]]
    # calibrate.py phases doing the same kind of work as the command
    calibration: tuple[str, ...]


WORKLOADS = {w.name: w for w in (
    Workload(
        "front",
        lambda seed: ["front", "--delta", "0.01", "--nmax", "2000",
                      "--fit-lo", "500", "--fit-hi", "2000"],
        frozenset({"front_trace.csv", "front_fit.csv"}),
        gate_front,
        ("kernel",),
    ),
    Workload(
        "alpha_scan",
        lambda seed: ["alpha-scan", "--deltas", ",".join(map(str, DELTAS)),
                      "--nmax", "200", "--emit-probe"],
        frozenset({"alpha_scan.csv"} | {f"probe_{d:g}.csv" for d in DELTAS}),
        gate_alpha_scan,
        ("kernel", "trials"),
    ),
    Workload(
        "montecarlo",
        lambda seed: ["compare", "--n-vertices", "2000", "--x", "2",
                      "--trials", str(MC_TRIALS), "--seed", str(seed)],
        frozenset({"compare.csv"}),
        gate_montecarlo,
        ("trials",),
    ),
)}


def check(workload: Workload, out: Path) -> list[str]:
    """Every gate of one run; missing or malformed artifacts are failures."""
    errors = check_manifest(out, workload.files)
    if errors:
        return errors
    try:
        return workload.gate(out)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [f"artifacts malformed: {exc!r}"]
