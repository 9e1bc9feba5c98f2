"""Command-line surface tying the modules together.

Seven subcommands: recurse, front, simulate, graph, brw, compare,
alpha-scan.  Parameters may come from a flat key=value config file
(--config); explicit flags win over the file, the file wins over builtin
defaults.  Every run writes its CSV artifacts plus a manifest.json with
checksums into --out (default: $CONTINUUM_CASCADE_OUTDIR or the current
directory).

Exit codes: 0 success, 2 configuration error or out of memory,
3 numeric/fit error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Collection

from . import fronts, graphs, martingale, recursion, simulate
from .errors import CascadeError, ConfigurationError
from .output import RunWriter

ENV_OUTDIR = "CONTINUUM_CASCADE_OUTDIR"


def parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def parse_ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def parse_bool(text: str) -> bool:
    """A config-file switch: 1/0, true/false or yes/no, in any case (a flag takes none)."""
    if text.lower() not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected 1/0, true/false or yes/no, got '{text}'")
    return text.lower() in ("1", "true", "yes")


@dataclass(frozen=True)
class Option:
    name: str
    cast: Callable
    default: object
    help: str


COMMON = [
    Option("out", str, None, "output directory (default: $%s or '.')" % ENV_OUTDIR),
    Option("config", str, None, "key=value config file; explicit flags win"),
]

COMMANDS: dict[str, list[Option]] = {
    "recurse": [
        Option("delta", float, 0.01, "grid spacing"),
        Option("xmax", float, None, "domain upper bound (default: front clearance)"),
        Option("nmax", int, 100, "number of generations"),
        Option("snapshots", parse_ints, [], "comma-separated generations to emit"),
        Option("mode", str, "trapezoid", "quadrature: trapezoid or riemann"),
    ],
    "front": [
        Option("delta", float, 0.01, "grid spacing"),
        Option("nmax", int, 400, "number of generations"),
        Option("level", float, 0.5, "front crossing level"),
        Option("mode", str, "trapezoid", "quadrature: trapezoid or riemann"),
        Option("fit-lo", int, None, "fit window lower generation"),
        Option("fit-hi", int, None, "fit window upper generation"),
        Option("fit", str, "fixed", "log fit flavor: fixed (the scheme's exact v) or joint"),
    ],
    "simulate": [
        Option("x", float, 1.0, "interval length / barrier"),
        Option("trials", int, 100000, "Monte Carlo trials"),
        Option("seed", int, 0, "base RNG seed"),
        Option("ncap", int, 40, "largest height tracked in the CDF table"),
        Option("pcap", int, simulate.DEFAULT_PARTICLE_CAP, "particle cap per trial"),
        Option("workers", int, 1, "worker processes (result is worker-independent)"),
    ],
    "graph": [
        Option("n-vertices", int, 2000, "number of vertices"),
        Option("c", float, 0.001, "edge probability"),
        Option("trials", int, 10000, "Monte Carlo trials"),
        Option("seed", int, 0, "base RNG seed"),
        Option("ncap", int, 40, "largest path length tracked"),
    ],
    "brw": [
        Option("trials", int, 0, "martingale trajectories to simulate"),
        Option("n", int, 40, "generations per trajectory"),
        Option("vmax", float, martingale.DEFAULT_V_MAX, "displacement support cutoff"),
        Option("pcap", int, simulate.DEFAULT_PARTICLE_CAP, "particle cap per trajectory"),
        Option("seed", int, 0, "base RNG seed"),
    ],
    "compare": [
        Option("n-vertices", int, 2000, "number of vertices"),
        Option("x", float, 2.0, "interval length; edge probability is x/n"),
        Option("trials", int, 20000, "graph trials (samples of L_n)"),
        Option("seed", int, 0, "base RNG seed"),
    ],
    "alpha-scan": [
        Option("deltas", parse_floats, [0.01], "comma-separated grid spacings"),
        Option("nmax", int, 100, "generations per recursion run"),
        Option("emit-probe", parse_bool, False, "also write the probe series per delta"),
    ],
}


def build_parser(commands: Collection[str] = COMMANDS.keys()) -> argparse.ArgumentParser:
    """The `cascade` parser, with the subparsers of `commands` only (all by default).

    A parser of fewer commands still lists all seven in its usage line, so
    it prints the same usage, help and errors as the full one for a run of
    a command it holds.  main builds the parser of argv[0] alone when that
    names a command, and the full one for any other argv.
    """
    parser = argparse.ArgumentParser(
        prog="cascade",
        description="continuum cascade model: recursion, fronts, Monte Carlo",
    )
    # fewer commands list all seven as the metavar; the full parser keeps
    # argparse's own, so that its "required" error still names `command`
    listed = None if len(commands) == len(COMMANDS) else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=listed)
    for command in commands:
        p = sub.add_parser(command)
        for opt in COMMANDS[command] + COMMON:
            flag = "--" + opt.name
            if opt.cast is parse_bool:
                p.add_argument(flag, action="store_const", const=True, default=None,
                               help=opt.help)
            else:
                p.add_argument(flag, type=opt.cast, default=None, help=opt.help)
    return parser


def resolve_params(command: str, args: argparse.Namespace) -> dict:
    """Merge builtin defaults, config file values, and explicit flags."""
    options = {opt.name: opt for opt in COMMANDS[command] + COMMON}
    params = {name: opt.default for name, opt in options.items()}

    config_path = getattr(args, "config")
    if config_path is not None:
        try:
            with open(config_path) as fh:
                lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"{config_path}: not a text file ({exc})") from exc
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigurationError(f"{config_path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip().replace("_", "-")
            if key not in options or key == "config":
                raise ConfigurationError(f"{config_path}:{lineno}: unknown key '{key}'")
            try:
                params[key] = options[key].cast(value.strip())
            except ValueError as exc:
                raise ConfigurationError(f"{config_path}:{lineno}: {exc}") from exc

    for name in options:
        if name == "config":
            continue
        cli_value = getattr(args, name.replace("-", "_"))
        if cli_value is not None:
            params[name] = cli_value

    if params["out"] is None:
        params["out"] = os.environ.get(ENV_OUTDIR) or "."
    # numpy seeds only from non-negative integers; reject before any write
    if params.get("seed", 0) < 0:
        raise ConfigurationError(f"seed must be >= 0, got {params['seed']}")
    return params


def _quadrature(mode: str) -> recursion.Quadrature:
    try:
        return recursion.Quadrature(mode)
    except ValueError:
        raise ConfigurationError(f"unknown quadrature mode '{mode}'") from None


def _recursion_config(params: dict) -> recursion.RecursionConfig:
    """The grid of a `recurse` or `front` run; a refused grid is named by the user's flags.

    Without --xmax (`front` has none) the grid end is the front clearance
    of --nmax, and of `front`'s --level.
    """
    delta, n_max, x_max = params["delta"], params["nmax"], params.get("xmax")
    recursion.check_delta(delta)
    if x_max is None:
        x_max = recursion.front_clearance_xmax(n_max, params.get("level", 1.0))
        given = (f"--nmax {n_max} and --level {params['level']:g} give" if "level" in params
                 else f"--nmax {n_max} gives")
        grid_end = f"the grid end {x_max:.6g} that {given}"
    elif not x_max < math.inf:
        raise ConfigurationError(f"the grid end (--xmax) must be finite, got {x_max:g}")
    else:
        grid_end = f"the grid end (--xmax) {x_max:g}"
    if not delta <= x_max:
        raise ConfigurationError(f"delta (--delta) = {delta:g} must be at most {grid_end}")
    if not x_max / delta < recursion.MAX_ARRAY_ITEMS:
        raise ConfigurationError(
            f"delta (--delta) = {delta:g} cuts {grid_end} into {x_max / delta:.3g} intervals, "
            f"more nodes than one array can hold ({recursion.MAX_ARRAY_ITEMS})"
        )
    return recursion.RecursionConfig(
        delta=delta, x_max=x_max, n_max=n_max, quadrature=_quadrature(params["mode"]),
    )


def cmd_recurse(params: dict, writer: RunWriter) -> None:
    config = _recursion_config(params)
    # each snapshot is written when its generation is reached, and dropped
    for snap in recursion.snapshots(config, params["snapshots"] or [params["nmax"]]):
        writer.write_csv(
            f"pn_{snap.generation}.csv", "x,p",
            zip(snap.grid_x().tolist(), snap.values.tolist()),
        )


def cmd_front(params: dict, writer: RunWriter) -> None:
    recursion.check_level(params["level"])  # before the grid that --level sizes
    config = _recursion_config(params)
    if params["fit"] not in ("joint", "fixed"):
        raise ConfigurationError(f"unknown fit flavor '{params['fit']}'")
    lo, hi = params["fit-lo"], params["fit-hi"]
    if (lo is None) != (hi is None):
        raise ConfigurationError("--fit-lo and --fit-hi must be given together")
    v_fixed = None
    if lo is not None:
        if not 1 <= lo < hi <= config.n_max:
            raise ConfigurationError(
                f"fit window needs 1 <= fit-lo < fit-hi <= nmax, "
                f"got fit-lo={lo} fit-hi={hi} nmax={config.n_max}"
            )
        if params["fit"] == "fixed":
            v_fixed = fronts.scheme_velocity(config.delta, config.quadrature)[0]
        # the trace holds every generation 0..nmax, so the window holds lo..hi
        shortfall = fronts.log_window_shortfall(range(lo, hi + 1))
        if shortfall:
            raise ConfigurationError(
                f"--fit-lo {lo} --fit-hi {hi}: the log-fit window {shortfall}"
            )
    [trace] = recursion.front_traces(config, (params["level"],))
    writer.write_csv(
        "front_trace.csv", "n,x_front",
        zip(trace.generations.tolist(), trace.positions.tolist()),
    )
    if lo is not None:
        fit = fronts.log_correction_fit(trace, (lo, hi), v_fixed=v_fixed)
        writer.write_csv(
            "front_fit.csv", "v,b,a,residual_rms,n_lo,n_hi",
            [(fit.v, fit.b, fit.a, fit.residual_rms, fit.fit_window[0], fit.fit_window[1])],
        )


def _write_cdf(writer: RunWriter, name: str, cdf: simulate.EmpiricalCdf) -> None:
    rows = zip(
        range(len(cdf.counts)),
        cdf.counts.tolist(),
        cdf.p_hat.tolist(),
        cdf.stderr.tolist(),
    )
    writer.write_csv(name, "n,count,p_hat,stderr", rows)


def cmd_simulate(params: dict, writer: RunWriter) -> None:
    config = simulate.SimConfig(
        x=params["x"], trials=params["trials"], n_cap=params["ncap"],
        particle_cap=params["pcap"], seed=params["seed"],
    )
    _write_cdf(writer, "height_cdf.csv", simulate.empirical_cdf(config, workers=params["workers"]))


def cmd_graph(params: dict, writer: RunWriter) -> None:
    n, c = params["n-vertices"], params["c"]
    trials, n_cap = params["trials"], params["ncap"]
    simulate.check_tally(trials, n_cap)
    lengths = graphs.sample_longest_paths(n, c, trials, params["seed"])
    hist = simulate.outcome_histogram(lengths, n_cap)
    _write_cdf(writer, "ln_cdf.csv", simulate.EmpiricalCdf.from_histogram(n * c, trials, hist))


def cmd_brw(params: dict, writer: RunWriter) -> None:
    if params["trials"] < 0:
        raise ConfigurationError(f"trials must be >= 0, got {params['trials']}")
    martingale.check_walk(params["n"], params["vmax"], params["pcap"])
    report = martingale.verify_boundary_conditions()
    writer.write_csv(
        "moments.csv", "m1_residual,m2_residual,m4_value",
        [(report.m1_residual, report.m2_residual, report.m4_value)],
    )
    if params["trials"] > 0:
        rows = []
        for i in range(params["trials"]):
            rng = simulate.trial_rng(params["seed"], simulate.BRW_STREAM, i)
            traj = martingale.simulate_Dn(
                params["n"], rng, v_max=params["vmax"], particle_cap=params["pcap"]
            )
            for gen in range(len(traj.values)):
                rows.append((i, gen, float(traj.values[gen]),
                             int(traj.generation_sizes[gen]), int(traj.truncated)))
        writer.write_csv("trajectories.csv", "trial,generation,D,alive_count,truncated", rows)


def cmd_compare(params: dict, writer: RunWriter) -> None:
    report = graphs.compare_discrete_continuum(
        params["n-vertices"], params["x"], params["trials"], seed=params["seed"],
    )
    rows = list(zip(range(len(report.continuum)), report.discrete.p_hat, report.continuum))
    critical = graphs.ks_critical_value(report.discrete.trials, alpha=0.01)
    rows.append(("KS", report.ks_statistic, critical))
    writer.write_csv("compare.csv", "n,p_discrete,p_continuum", rows)


def cmd_alpha_scan(params: dict, writer: RunWriter) -> None:
    # probe_<delta>.csv names a delta to 6 significant digits: deltas that
    # share a name would share a file, and equal ones would repeat a row
    names = [f"{d:g}" for d in params["deltas"]]
    if len(set(names)) < len(names):
        raise ConfigurationError(
            f"deltas must differ in their first 6 significant digits, got {','.join(names)}"
        )
    results = fronts.alpha_scan(params["deltas"], n_max=params["nmax"])
    writer.write_csv(
        "alpha_scan.csv", "delta,alpha_star",
        [(r.delta, r.alpha_star) for r in results],
    )
    if params["emit-probe"]:
        for r in results:
            writer.write_csv(
                f"probe_{r.delta:g}.csv", "n,value",
                zip(r.probe_generations.tolist(), r.probe_values.tolist()),
            )


HANDLERS = {
    "recurse": cmd_recurse,
    "front": cmd_front,
    "simulate": cmd_simulate,
    "graph": cmd_graph,
    "brw": cmd_brw,
    "compare": cmd_compare,
    "alpha-scan": cmd_alpha_scan,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[:1] if argv and argv[0] in COMMANDS else COMMANDS).parse_args(argv)
    try:
        params = resolve_params(args.command, args)
        writer = RunWriter(params["out"])
        HANDLERS[args.command](params, writer)
        # workers is an execution detail: results are worker-independent
        manifest_params = {
            k: v for k, v in params.items() if k not in ("out", "config", "workers")
        }
        writer.write_manifest(args.command, manifest_params, params.get("seed"))
    except CascadeError as exc:
        print(f"cascade: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"cascade: i/o error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:  # an addressable size that cannot be allocated
        print(f"cascade: error: out of memory: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
