"""Command-line surface: artifacts, manifests, config merging, exit codes."""

import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from continuum_cascade import fronts, graphs, kernels, recursion, simulate
from continuum_cascade.cli import (
    COMMANDS,
    COMMON,
    build_parser,
    main,
    parse_bool,
    parse_floats,
    parse_ints,
    resolve_params,
)
from continuum_cascade.output import RunWriter, fmt
from continuum_cascade.recursion import (
    RecursionConfig,
    front_clearance_xmax,
    front_traces,
    init_p0,
    snapshots,
)


def read_csv(path: Path) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(fh))


def tree_bytes(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_recurse_writes_snapshots_and_manifest(tmp_path):
    rc = main([
        "recurse", "--delta", "0.01", "--xmax", "10", "--nmax", "5",
        "--snapshots", "2,5", "--out", str(tmp_path),
    ])
    assert rc == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"pn_2.csv", "pn_5.csv", "manifest.json"}

    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "recurse"
    for name, digest in manifest["files"].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    rows = read_csv(tmp_path / "pn_5.csv")
    config = RecursionConfig(delta=0.01, x_max=10.0, n_max=5)
    [expected] = snapshots(config, [5])
    assert len(rows) == config.grid_size + 1
    k = 150
    assert float(rows[k]["x"]) == 0.01 * k
    assert float(rows[k]["p"]) == expected.values[k]  # 17 digits round-trip


def _peak_traced_bytes(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_snapshots_bound_memory(tmp_path):
    # each snapshot is dropped once it is read or written, so asking for all
    # 61 generations peaks at most two snapshots above asking for the last
    # alone (the next one is built while the last is still held).  The
    # margin was fixed before the test was first run
    n_max = 60
    config = RecursionConfig(delta=0.05, x_max=front_clearance_xmax(n_max), n_max=n_max)
    margin = 2 * 2 * 8 * (config.grid_size + 1)  # two snapshots: P and g in float64

    def drain(generations):
        for _ in snapshots(config, generations):
            pass

    def recurse(generations, out):
        assert main(["recurse", "--delta", "0.05", "--nmax", str(n_max),
                     "--snapshots", ",".join(map(str, generations)),
                     "--out", str(tmp_path / out)]) == 0

    drain([n_max])  # one-time allocations (caches, imports) are not the run's
    one = _peak_traced_bytes(lambda: drain([n_max]))
    every = _peak_traced_bytes(lambda: drain(range(n_max + 1)))
    assert every <= one + margin, (one, every, margin)
    recurse([n_max], "warm")
    one = _peak_traced_bytes(lambda: recurse([n_max], "one"))
    every = _peak_traced_bytes(lambda: recurse(range(n_max + 1), "every"))
    assert every <= one + margin, (one, every, margin)
    assert len(list((tmp_path / "every").glob("pn_*.csv"))) == n_max + 1


def test_interrupted_streamed_run_leaves_no_manifest(tmp_path, monkeypatch, capsys):
    # a snapshot is written when its generation is reached and the manifest
    # only when the run ends: a step that fails after the first snapshot
    # leaves that snapshot's file, and no manifest vouching for it
    args = ["recurse", "--delta", "0.05", "--nmax", "8", "--snapshots", "2,5", "--out"]
    assert main([*args, str(tmp_path / "whole")]) == 0
    step, steps = kernels.step, []

    def nan_after_generation_2(*args):
        steps.append(args)
        excess, k = step(*args)
        return (math.nan if len(steps) > 2 else excess), k

    monkeypatch.setattr(kernels, "step", nan_after_generation_2)
    assert main([*args, str(tmp_path / "cut")]) == 3
    assert "step to generation 3 left [0, 1]: excess=nan" in capsys.readouterr().err
    assert [p.name for p in (tmp_path / "cut").iterdir()] == ["pn_2.csv"]
    assert (tmp_path / "cut" / "pn_2.csv").read_bytes() == \
        (tmp_path / "whole" / "pn_2.csv").read_bytes()


def test_recurse_nmax_zero_writes_p0(tmp_path):
    # the default x_max of n_max = 0 is the clearance formula's 10, a valid grid
    assert main(["recurse", "--nmax", "0", "--out", str(tmp_path)]) == 0
    assert {p.name for p in tmp_path.iterdir()} == {"pn_0.csv", "manifest.json"}
    rows = read_csv(tmp_path / "pn_0.csv")
    p0 = init_p0(0.01, 1001)
    assert np.array_equal([float(r["x"]) for r in rows], p0.grid_x())
    assert np.array_equal([float(r["p"]) for r in rows], p0.values)


def test_full_float_precision_in_csv(tmp_path):
    rc = main(["recurse", "--delta", "0.01", "--xmax", "2", "--nmax", "1",
               "--snapshots", "1", "--out", str(tmp_path)])
    assert rc == 0
    rows = read_csv(tmp_path / "pn_1.csv")
    values = [float(r["p"]) for r in rows]
    config = RecursionConfig(delta=0.01, x_max=2.0, n_max=1)
    [expected] = snapshots(config, [1])
    np.testing.assert_array_equal(np.array(values), expected.values)


def test_csv_writer_keeps_the_per_value_bytes(tmp_path):
    # the writer formats a line at a time and hashes as it writes; its bytes
    # are those of joining fmt of each value, and its checksum the file's
    floats = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, 0.1, 1.0, 2.0**53]
    ints = [0, -7, 10**17, 10**17 + 1, 2**63, -(10**30)]
    values = floats + ints + [np.float64(v) for v in floats] + ["KS", np.int64(10**18)]
    rng = np.random.default_rng(5)
    rows = [tuple(values[i] for i in rng.integers(0, len(values), rng.integers(0, 5)))
            for _ in range(9000)]
    rows += [(n, float(p), np.float64(p)) for n, p in enumerate(rng.random(5000))]
    rows += [("KS", 0.25, np.float64(-0.0)), [1, 2.5], ()]
    writer = RunWriter(tmp_path)
    path = writer.write_csv("mixed.csv", "a,b,c", iter(rows))
    want = "".join(",".join(fmt(v) for v in row) + "\n" for row in rows)
    assert path.read_bytes() == ("a,b,c\n" + want).encode()
    assert writer.checksums == {"mixed.csv": hashlib.sha256(path.read_bytes()).hexdigest()}


def test_simulate_determinism_and_worker_independence(tmp_path):
    args = ["simulate", "--x", "1", "--trials", "4000", "--seed", "42", "--ncap", "10"]
    outs = [tmp_path / f"run{i}" for i in range(3)]
    assert main(args + ["--out", str(outs[0])]) == 0
    assert main(args + ["--out", str(outs[1])]) == 0
    assert main(args + ["--out", str(outs[2]), "--workers", "2"]) == 0
    assert tree_bytes(outs[0]) == tree_bytes(outs[1])
    assert tree_bytes(outs[0]) == tree_bytes(outs[2])


def test_simulate_workers_split_whole_blocks(tmp_path):
    # three blocks, the last one partial: any split gives the same bytes
    args = ["simulate", "--x", "1", "--trials", str(2 * simulate.BLOCK + 17),
            "--seed", "8", "--ncap", "10"]
    outs = [tmp_path / f"w{workers}" for workers in (1, 2, 3)]
    for workers, out in zip((1, 2, 3), outs):
        assert main(args + ["--workers", str(workers), "--out", str(out)]) == 0
    assert tree_bytes(outs[0]) == tree_bytes(outs[1]) == tree_bytes(outs[2])


def test_simulate_cdf_schema(tmp_path):
    assert main(["simulate", "--x", "1", "--trials", "500", "--seed", "1",
                 "--ncap", "8", "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "height_cdf.csv")
    assert [c for c in rows[0]] == ["n", "count", "p_hat", "stderr"]
    assert len(rows) == 9
    counts = [int(r["count"]) for r in rows]
    assert counts == sorted(counts)
    p0 = float(rows[0]["p_hat"])
    assert abs(p0 - math.exp(-1)) < 0.1


def test_simulate_at_large_x_counts_every_trial_as_truncated(tmp_path):
    # the expected peak generation x^k/k! overflows a float at x = 720; the
    # particle cap bounds it first, and the root's children exceed the cap
    assert main(["simulate", "--x", "720", "--trials", "1", "--pcap", "10",
                 "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "height_cdf.csv")
    assert len(rows) == 41 and all(int(r["count"]) == 0 for r in rows)
    cdf = simulate.empirical_cdf(simulate.SimConfig(x=720.0, trials=1, particle_cap=10))
    assert cdf.truncated_trials == 1 and cdf.beyond_cap_trials == 0


@pytest.mark.parametrize("argv, artifacts", [
    (["simulate", "--x", "1", "--trials", "50"], ["height_cdf.csv"]),
    (["brw", "--trials", "1", "--n", "3"], ["moments.csv", "trajectories.csv"]),
])
def test_a_particle_cap_past_any_float_is_no_cap(tmp_path, argv, artifacts):
    # 10^400 overflows a float; no trial comes near either cap
    huge, plain = tmp_path / "huge", tmp_path / "plain"
    assert main([*argv, "--pcap", str(10**400), "--out", str(huge)]) == 0
    assert main([*argv, "--pcap", "1000000", "--out", str(plain)]) == 0
    for name in artifacts:
        assert (huge / name).read_bytes() == (plain / name).read_bytes()


def test_graph_command_schema(tmp_path):
    assert main(["graph", "--n-vertices", "50", "--c", "0.02", "--trials", "400",
                 "--seed", "2", "--ncap", "10", "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "ln_cdf.csv")
    assert [c for c in rows[0]] == ["n", "count", "p_hat", "stderr"]
    assert float(rows[-1]["p_hat"]) <= 1.0


def test_front_command_trace_and_fit(tmp_path):
    assert main(["front", "--delta", "0.02", "--nmax", "300", "--fit-lo", "100",
                 "--fit-hi", "300", "--out", str(tmp_path)]) == 0
    trace = read_csv(tmp_path / "front_trace.csv")
    assert [c for c in trace[0]] == ["n", "x_front"]
    assert len(trace) == 301
    xs = [float(r["x_front"]) for r in trace]
    assert all(b > a for a, b in zip(xs[2:], xs[3:]))  # strictly increasing
    fit = read_csv(tmp_path / "front_fit.csv")[0]
    assert abs(float(fit["v"]) - 1 / math.e) < 0.01
    assert fit["n_lo"] == "100" and fit["n_hi"] == "300"


@pytest.mark.parametrize("level", ["1e-10", "1e-30", "1e-100"])
@pytest.mark.parametrize("nmax", [0, 1, 5, 12])
def test_front_default_grid_holds_a_low_level_crossing(tmp_path, level, nmax):
    # front's grid end, front_clearance_xmax(nmax, level), adds ln(1/level),
    # the distance from the front to the crossing; a grid 4x as long gives
    # the same trace
    assert main(["front", "--delta", "0.01", "--level", level, "--nmax", str(nmax),
                 "--out", str(tmp_path)]) == 0
    longer = RecursionConfig(0.01, 4 * front_clearance_xmax(nmax, float(level)), nmax)
    [want] = front_traces(longer, (float(level),))
    rows = read_csv(tmp_path / "front_trace.csv")
    assert [int(r["n"]) for r in rows] == want.generations.tolist() == list(range(nmax + 1))
    assert [float(r["x_front"]) for r in rows] == want.positions.tolist()


def test_front_has_no_xmax(tmp_path, capsys):
    # front sizes its own grid: the flag is unknown, and the run stops in
    # the parser, before its out dir is made
    out = tmp_path / "front"
    with pytest.raises(SystemExit) as exc:
        main(["front", "--delta", "0.05", "--nmax", "10", "--xmax", "100", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    assert "unrecognized arguments: --xmax 100" in capsys.readouterr().err
    # nor is it a key of front's config file
    cfg = tmp_path / "front.cfg"
    cfg.write_text("xmax = 100\n")
    assert main(["front", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert "unknown key 'xmax'" in capsys.readouterr().err


def test_compare_command_ks_summary(tmp_path):
    assert main(["compare", "--n-vertices", "200", "--x", "1", "--trials", "800",
                 "--seed", "3", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "compare.csv").read_text().strip().splitlines()
    assert lines[0] == "n,p_discrete,p_continuum"
    assert lines[-1].startswith("KS,")
    ks = float(lines[-1].split(",")[1])
    assert 0.0 <= ks <= 1.0


def test_brw_command_outputs(tmp_path):
    assert main(["brw", "--trials", "2", "--n", "4", "--seed", "4",
                 "--out", str(tmp_path)]) == 0
    moments = read_csv(tmp_path / "moments.csv")[0]
    assert float(moments["m1_residual"]) < 1e-10
    assert abs(float(moments["m4_value"]) - math.e) < 1e-10
    rows = read_csv(tmp_path / "trajectories.csv")
    assert [c for c in rows[0]] == ["trial", "generation", "D", "alive_count", "truncated"]
    assert len(rows) == 2 * 5


def test_brw_has_no_prune_window(tmp_path, capsys):
    # the walk is exact or it is not run: the flag is unknown, and the run
    # stops in the parser, before its out dir is made
    out = tmp_path / "brw"
    with pytest.raises(SystemExit) as exc:
        main(["brw", "--trials", "1", "--n", "3", "--prune-window", "8", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    assert "unrecognized arguments: --prune-window 8" in capsys.readouterr().err


def test_alpha_scan_command(tmp_path):
    assert main(["alpha-scan", "--deltas", "0.02", "--nmax", "80",
                 "--emit-probe", "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "alpha_scan.csv")
    assert [c for c in rows[0]] == ["delta", "alpha_star"]
    assert 0.9 < float(rows[0]["alpha_star"]) < 1.1
    probe = read_csv(tmp_path / "probe_0.02.csv")
    assert [c for c in probe[0]] == ["n", "value"]


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("x = 2\ntrials = 300\nseed = 9\nncap = 6\n# comment\n")
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["parameters"]["x"] == 2.0
    assert manifest["parameters"]["trials"] == 300
    # explicit flag wins over the file
    assert main(["simulate", "--config", str(cfg), "--trials", "100",
                 "--out", str(out2)]) == 0
    manifest2 = json.loads((out2 / "manifest.json").read_text())
    assert manifest2["parameters"]["trials"] == 100


def test_config_file_unknown_key_is_a_configuration_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert "unknown key" in capsys.readouterr().err


def test_env_var_default_outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("CONTINUUM_CASCADE_OUTDIR", str(tmp_path / "envout"))
    assert main(["recurse", "--delta", "0.1", "--xmax", "1", "--nmax", "1"]) == 0
    assert (tmp_path / "envout" / "pn_1.csv").exists()


def test_exit_codes(tmp_path, capsys, monkeypatch):
    # configuration error, found before the run: a fit window with too few points
    assert main(["front", "--delta", "0.02", "--nmax", "100", "--fit-lo", "96",
                 "--fit-hi", "99", "--out", str(tmp_path)]) == 2
    # numeric error: the curve never drops below the front level on a grid
    # that ends at the front clearance of n = 100, 82.8, short of
    # ln(1e300) = 690.8; front's own grid end adds that, so it is cut here
    monkeypatch.setattr(recursion, "front_clearance_xmax", lambda n_max, level: 83.0)
    assert main(["front", "--delta", "0.02", "--nmax", "100", "--level", "1e-300",
                 "--out", str(tmp_path)]) == 3
    assert "generation 0 does not drop below level 1e-300" in capsys.readouterr().err
    # i/o error: output directory path passes through a file
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main(["recurse", "--out", str(blocker / "sub")]) == 4
    capsys.readouterr()


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def _help(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_help_lists_every_command(capsys):
    usage = _help(capsys, [])
    assert "{" + ",".join(COMMANDS) + "}" in usage


@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_help_names_exactly_its_flags(capsys, command):
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", _help(capsys, [command])))
    assert flags == {"--help"} | {"--" + opt.name for opt in COMMANDS[command] + COMMON}


def test_a_flag_of_another_command_exits_two(capsys):
    # compare's parser knows only compare's flags, though --delta is another command's
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--delta", "0.01"])
    assert exc.value.code == 2
    assert "--delta" in capsys.readouterr().err


def _parse_outcome(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def _parse_cases(command):
    """Help, a foreign flag, a bad value, a missing value and a stray word."""
    own = ["--" + opt.name for opt in COMMANDS[command] + COMMON]
    # argparse takes a prefix of a flag for the flag: --delta is alpha-scan's --deltas
    foreign = next("--" + opt.name for other in COMMANDS if other != command
                   for opt in COMMANDS[other]
                   if not any(flag.startswith("--" + opt.name) for flag in own))
    typed = next(opt.name for opt in COMMANDS[command] if opt.cast not in (str, parse_bool))
    return [[command, "--help"], [command, foreign, "1"], [command, "--" + typed, "bogus"],
            [command, "--out"], [command, "stray"]]


@pytest.mark.parametrize("command", list(COMMANDS))
def test_a_run_parses_as_the_full_parser_does(capsys, command):
    # main builds the parser of the command it runs only; every help, usage
    # and error text, and every exit code, is the full parser's
    for argv in _parse_cases(command):
        assert (_parse_outcome(capsys, main, argv)
                == _parse_outcome(capsys, build_parser().parse_args, argv)), argv


@pytest.mark.parametrize("argv", [[], ["-h"], ["frnt"]])
def test_an_argv_without_a_command_parses_as_the_full_parser_does(capsys, argv):
    assert (_parse_outcome(capsys, main, argv)
            == _parse_outcome(capsys, build_parser().parse_args, argv))


@pytest.mark.parametrize("fit_args", [
    ["--fit", "bogus", "--fit-lo", "10", "--fit-hi", "40"],
    ["--fit-lo", "10"],
    ["--fit-lo", "-100", "--fit-hi", "50"],
    ["--fit-lo", "0", "--fit-hi", "50", "--fit", "joint"],
    ["--fit-lo", "10", "--fit-hi", "5000"],
    ["--fit-lo", "40", "--fit-hi", "10"],
    ["--fit-lo", "20", "--fit-hi", "20"],
    ["--delta", "2", "--fit-lo", "10", "--fit-hi", "40"],  # no front speed to fix
    ["--fit", "bogus"],  # checked on every run, not only a fitted one
])
def test_front_rejects_bad_fit_flags_before_computing(tmp_path, capsys, fit_args):
    assert main(["front", "--nmax", "50", *fit_args, "--out", str(tmp_path)]) == 2
    assert list(tmp_path.iterdir()) == []  # no front_trace.csv, nor anything else
    capsys.readouterr()


# a refused grid is named by the flags given, never by the x_max derived
# from them: --delta against --xmax, or against the grid end that --nmax
# (and front's --level) give
GRID_REFUSALS = {
    ("recurse", "--delta", "1e-300", "--nmax", "1"): ("(--delta)", "10.3679 that --nmax 1 gives"),
    ("recurse", "--delta", "1e-300", "--xmax", "1", "--nmax", "2"): ("(--delta)", "(--xmax) 1 "),
    ("recurse", "--delta", "100", "--nmax", "5"): ("(--delta)", "17.9338 that --nmax 5 gives"),
    ("recurse", "--delta", "1", "--xmax", "0.5", "--nmax", "2"): ("(--delta)", "(--xmax) 0.5"),
    ("recurse", "--xmax", "inf", "--nmax", "2"): ("(--xmax)", "finite"),
    ("front", "--delta", "1e-300", "--nmax", "5"): ("(--delta)", "--nmax 5 and --level 0.5 give"),
    ("front", "--delta", "1e-300", "--nmax", "2"): ("(--delta)", "--nmax 2 and --level 0.5 give"),
    ("front", "--delta", "100", "--nmax", "5"): ("(--delta)", "--nmax 5 and --level 0.5 give"),
}


@pytest.mark.parametrize("argv", [
    ["graph", "--n-vertices", "50", "--c", "0.02", "--trials", "0"],
    ["graph", "--n-vertices", "50", "--c", "0.02", "--trials", "5", "--ncap", "-1"],
    ["compare", "--n-vertices", "50", "--x", "1", "--trials", "0"],
    ["brw", "--trials", "-1"],
    ["brw", "--trials", "1", "--n", "-1"],
    ["compare", "--n-vertices", "0", "--x", "0"],
    ["brw", "--vmax", "-2"],
    ["brw", "--trials", "1", "--vmax", "-2"],
    ["brw", "--trials", "1", "--vmax", "inf"],
    ["simulate", "--x", "1", "--trials", "10", "--seed", "-1"],
    ["graph", "--n-vertices", "50", "--c", "0.02", "--trials", "5", "--seed", "-1"],
    ["compare", "--n-vertices", "50", "--x", "1", "--trials", "5", "--seed", "-1"],
    ["brw", "--trials", "1", "--n", "1", "--seed", "-1"],
    ["simulate", "--x", "nan", "--trials", "10"],
    ["simulate", "--x", "inf", "--trials", "10"],
    ["recurse", "--xmax", "inf", "--nmax", "2"],
    ["brw", "--trials", "1", "--n", "3", "--pcap", "0"],
    ["brw", "--trials", "1", "--n", "3", "--pcap", "-5"],
    # rejected before any worker process is started
    ["simulate", "--x", "1", "--trials", "10", "--workers", "0"],
    ["simulate", "--x", "1", "--trials", "10", "--workers", "-2"],
    # grids with more nodes than one float64 array can address: rejected
    # before anything is allocated
    ["recurse", "--delta", "1e-300", "--nmax", "1"],
    ["recurse", "--delta", "1e-300", "--xmax", "1", "--nmax", "2"],
    ["front", "--delta", "1e-300", "--nmax", "5"],
    ["front", "--delta", "1e-300", "--nmax", "2"],
    # a spacing wider than the grid end that --nmax (and --level) give, or than --xmax
    ["recurse", "--delta", "100", "--nmax", "5"],
    ["recurse", "--delta", "1", "--xmax", "0.5", "--nmax", "2"],
    ["front", "--delta", "100", "--nmax", "5"],
    ["alpha-scan", "--deltas", "1e-300", "--nmax", "50"],
    # deltas that would share a probe_<delta>.csv, or repeat an alpha_scan.csv row
    ["alpha-scan", "--deltas", "0.02,0.02000001", "--nmax", "60", "--emit-probe"],
    ["alpha-scan", "--deltas", "0.02,0.02", "--nmax", "60"],
    # named by the option given, not by the default x_max derived from it
    ["recurse", "--nmax", "-1"],
    # named by x, not by the edge probability x / n derived from it
    ["compare", "--n-vertices", "5", "--x", "-1", "--trials", "10"],
    ["compare", "--n-vertices", "5", "--x", "nan", "--trials", "10"],
    ["compare", "--n-vertices", "5", "--x", "inf", "--trials", "10"],
    # vertex gaps are int64: a larger vertex count is refused, not mis-sampled
    ["graph", "--n-vertices", str(2**63), "--c", "1e-30", "--trials", "1"],
    # a log-fit window too small for the fit (too few entries, less than a
    # factor 3), refused before the recursion runs
    ["front", "--delta", "0.01", "--nmax", "50", "--fit-lo", "10", "--fit-hi", "40"],
    ["front", "--delta", "0.01", "--nmax", "300", "--fit-lo", "100", "--fit-hi", "200"],
    # a largest Poisson mean above numpy's: x itself, and (v_max + 1)/e
    ["simulate", "--x", "1e300", "--trials", "10"],
    ["brw", "--vmax", "1e300", "--trials", "1", "--n", "3"],
    # a CDF table that no array can hold
    ["simulate", "--x", "1", "--trials", "10", "--ncap", str(2**63 - 1)],
    ["graph", "--n-vertices", "50", "--c", "0.02", "--trials", "5", "--ncap", str(2**63 - 1)],
    # more walk values (n + 1) than one array can address
    ["brw", "--trials", "1", "--n", str(2**63 - 1)],
    # more probe-slab nodes than one array can address, found in closed form
    ["alpha-scan", "--nmax", str(2**31)],
    ["alpha-scan", "--nmax", str(2**63 - 1)],
    # more worker processes than simulate.MAX_WORKERS: refused, none started
    ["simulate", "--x", "1", "--trials", "10", "--workers", str(10**6)],
    # a spacing that sizes no grid, refused before alpha_scan divides by it
    ["alpha-scan", "--deltas", "0", "--nmax", "50"],
    ["alpha-scan", "--deltas", "nan", "--nmax", "50"],
    # refused before the first delta is run
    ["alpha-scan", "--deltas", "0.5,nan", "--nmax", "10"],
    # a spacing whose RIEMANN scheme has no front, which the probe measures
    ["alpha-scan", "--deltas", "2", "--nmax", "60"],
    ["alpha-scan", "--deltas", "0.02,1e300", "--nmax", "60"],
    # a level outside (0, 1), named before the grid it would size
    ["front", "--level", "2", "--delta", "100", "--nmax", "5"],
])
def test_bad_counts_exit_two(tmp_path, capsys, monkeypatch, argv):
    def no_stepping(*args):
        raise AssertionError("the recursion ran before the flags were checked")

    monkeypatch.setattr(fronts, "probe_slabs", no_stepping)
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert list(tmp_path.iterdir()) == []  # no manifest, and no artifact either
    err = capsys.readouterr().err
    if argv == ["recurse", "--nmax", "-1"]:
        assert "n_max" in err and "x_max" not in err
    if argv[0] == "compare" and argv[4] in ("-1", "nan", "inf"):
        assert "x must be finite and >= 0" in err and "edge probability" not in err
    # the error names the flag it rejects
    if argv[0] == "front" and "--fit-lo" in argv:
        assert "--fit-lo" in err and "--fit-hi" in err
    if argv[0] == "alpha-scan" and argv[2] in ("2", "0.02,1e300"):
        assert "front speed only for 0 < delta < 1" in err
    if "--level" in argv:
        assert "front level must be in (0,1), got 2.0" in err and "delta" not in err
    if tuple(argv) in GRID_REFUSALS:
        assert "x_max" not in err
        for part in GRID_REFUSALS[tuple(argv)]:
            assert part in err
    for flag, value in (("--x", "1e300"), ("--vmax", "1e300"), ("--ncap", str(2**63 - 1)),
                        ("--n", str(2**63 - 1)), ("--workers", str(10**6)),
                        ("--nmax", str(2**31)), ("--nmax", str(2**63 - 1))):
        if flag in argv and argv[argv.index(flag) + 1] == value:
            assert f"({flag})" in err


@pytest.mark.parametrize("argv, code", [
    (["alpha-scan", "--deltas", ",,"], 2),  # no delta
    (["alpha-scan", "--deltas", "0.02", "--nmax", "3"], 2),  # too few probe values
])
def test_runs_without_a_result_write_nothing(tmp_path, capsys, argv, code):
    assert main([*argv, "--out", str(tmp_path)]) == code
    assert list(tmp_path.iterdir()) == []
    capsys.readouterr()


# One flag at a time, on small base arguments: every numeric option of every
# command takes each of these values (a list option as its one element)
SWEEP_BASE = {
    "recurse": ["--delta", "0.05", "--nmax", "3"],
    "front": ["--delta", "0.05", "--nmax", "10"],
    "simulate": ["--x", "1", "--trials", "20"],
    "graph": ["--n-vertices", "50", "--c", "0.02", "--trials", "20"],
    "brw": ["--trials", "1", "--n", "3"],
    "compare": ["--n-vertices", "50", "--x", "1", "--trials", "20"],
    "alpha-scan": ["--deltas", "0.02", "--nmax", "60"],
}
SWEEP_FLOATS = ["0", "-1", "inf", "-inf", "nan", "1e-300", "5e-324", "1e300", "2"]
SWEEP_INTS = ["0", "-1", "1", "2"]  # so --workers is never above 2
SWEEP = [
    (command, opt.name, value)
    for command, options in COMMANDS.items()
    for opt in options
    for value in {float: SWEEP_FLOATS, parse_floats: SWEEP_FLOATS,
                  int: SWEEP_INTS, parse_ints: SWEEP_INTS}.get(opt.cast, [])
]


@pytest.mark.parametrize("command, flag, value", SWEEP,
                         ids=[f"{c}--{f}={v}" for c, f, v in SWEEP])
def test_one_flag_sweep_keeps_the_exit_code_contract(tmp_path, capsys, command, flag, value):
    # the value is attached with "=", so that "-inf" reaches the command
    # rather than parsing as a flag; an exception here is a traceback
    out = tmp_path / "out"
    try:
        rc = main([command, *SWEEP_BASE[command], f"--{flag}={value}", "--out", str(out)])
    except SystemExit as exc:  # a usage error, from argparse
        rc, usage = exc.code, True
    else:
        usage = False
    err = capsys.readouterr().err
    assert rc in (0, 2, 3, 4), err
    assert "Traceback" not in err
    if rc:
        assert not (out / "manifest.json").exists()
    if rc and not usage:
        assert len(err.splitlines()) == 1 and err.startswith("cascade: "), err


# A size that one array can address but no memory here can hold.  Each run
# has a 2 GiB address-space limit, so that it fails at once on any machine
OUT_OF_MEMORY = [
    ["alpha-scan", "--deltas", "0.5", "--nmax", str(2**31)],
    ["simulate", "--x", "1", "--trials", "10", "--ncap", str(2**31)],
    ["graph", "--n-vertices", "50", "--c", "0.02", "--trials", "5", "--ncap", str(2**31)],
    ["brw", "--trials", "1", "--n", str(2**31)],
]


@pytest.mark.parametrize("argv", OUT_OF_MEMORY, ids=[a[0] for a in OUT_OF_MEMORY])
def test_out_of_memory_exits_two_without_a_manifest(tmp_path, argv):
    resource = pytest.importorskip("resource")
    limit = 2 * 2**30

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = Path(graphs.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "continuum_cascade", *argv, "--out", str(tmp_path)],
        env=env, preexec_fn=limit_address_space, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("cascade: error: out of memory: ")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert not (tmp_path / "manifest.json").exists()


def test_commands_run_without_scipy(tmp_path):
    # scipy is a test dependency only: with every scipy import made to fail,
    # the package imports and runs, and no scipy module gets loaded
    script = f"""
import sys
sys.modules["scipy"] = None
from continuum_cascade.cli import main
assert main(["brw", "--trials", "1", "--n", "2", "--out", {str(tmp_path / "brw")!r}]) == 0
assert main(["front", "--delta", "0.05", "--nmax", "20",
             "--out", {str(tmp_path / "front")!r}]) == 0
loaded = [m for m in sys.modules if m.startswith("scipy.")]
assert loaded == [] and sys.modules["scipy"] is None, loaded
"""
    src = Path(graphs.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "brw" / "manifest.json").exists()
    assert (tmp_path / "front" / "front_trace.csv").exists()


def test_commands_do_not_load_multiprocessing(tmp_path):
    # only simulate with workers > 1 needs it; importing it costs every
    # command several milliseconds of start-up
    script = f"""
import sys
from continuum_cascade.cli import main
assert main(["compare", "--n-vertices", "50", "--x", "1", "--trials", "20",
             "--out", {str(tmp_path / "compare")!r}]) == 0
assert main(["alpha-scan", "--deltas", "0.02", "--nmax", "60", "--emit-probe",
             "--out", {str(tmp_path / "alpha-scan")!r}]) == 0
loaded = [m for m in sys.modules if m.split(".")[0] == "multiprocessing"]
assert loaded == [], loaded
"""
    src = Path(graphs.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "alpha-scan" / "probe_0.02.csv").exists()


def test_commands_do_not_load_numpy_polynomial(tmp_path):
    # only brw's boundary moments need laggauss; importing numpy.polynomial
    # costs every command a few milliseconds of start-up
    script = f"""
import sys
from continuum_cascade.cli import main
assert not any(m.startswith("numpy.polynomial") for m in sys.modules)
assert main(["front", "--delta", "0.05", "--nmax", "20", "--out", {str(tmp_path / "front")!r}]) == 0
assert main(["compare", "--n-vertices", "50", "--x", "1", "--trials", "20",
             "--out", {str(tmp_path / "compare")!r}]) == 0
loaded = [m for m in sys.modules if m.startswith("numpy.polynomial")]
assert loaded == [], loaded
assert main(["brw", "--trials", "1", "--n", "2", "--out", {str(tmp_path / "brw")!r}]) == 0
assert "numpy.polynomial.laguerre" in sys.modules
"""
    src = Path(graphs.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# numpy's AVX2 loops on a machine with AVX-512 (CI names the same set)
AVX2_DISPATCH = "AVX512_SPR AVX512_ICL X86_V4"
AVX512_PROBE = """
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__
print(int(__cpu_features__.get("AVX512_SKX", False)))
"""
RECURSION_COMMANDS = [
    ["recurse", "--delta", "0.05", "--nmax", "20", "--snapshots", "5,20"],
    ["front", "--delta", "0.05", "--nmax", "500"],
    ["compare", "--n-vertices", "200", "--x", "2", "--trials", "2000", "--seed", "1"],
    ["alpha-scan", "--deltas", "0.02,0.01", "--nmax", "100", "--emit-probe"],
]


def test_recursion_commands_write_the_same_bytes_at_every_dispatch_level(tmp_path):
    # the recursion's exp is the package's own routine, so its commands
    # write the same bytes at each numpy dispatch level the machine offers:
    # the default and, where numpy runs AVX-512 loops, its AVX2 ones
    src = Path(graphs.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = str(src)
    probe = subprocess.run([sys.executable, "-c", AVX512_PROBE], env=env,
                           capture_output=True, text=True, timeout=120)
    assert probe.returncode == 0, probe.stderr
    levels = {"default": env}
    if probe.stdout.strip() == "1":
        levels["avx2"] = {**env, "NPY_DISABLE_CPU_FEATURES": AVX2_DISPATCH}
    runs = {}
    for level, level_env in levels.items():
        for i, argv in enumerate(RECURSION_COMMANDS):
            out = tmp_path / f"{level}-{i}"
            proc = subprocess.run(
                [sys.executable, "-m", "continuum_cascade", *argv, "--out", str(out)],
                env=level_env, capture_output=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            runs[level, i] = proc.stdout, proc.stderr, tree_bytes(out)
    for (level, i), run in runs.items():
        assert run == runs["default", i], (level, RECURSION_COMMANDS[i])


def test_manifest_checksums_cover_all_artifacts(tmp_path):
    assert main(["alpha-scan", "--deltas", "0.02", "--nmax", "60",
                 "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    produced = {p.name for p in tmp_path.iterdir()} - {"manifest.json"}
    assert set(manifest["files"]) == produced
    for name, digest in manifest["files"].items():
        body = (tmp_path / name).read_bytes()
        assert hashlib.sha256(body).hexdigest() == digest


def test_graph_cdf_counts_every_trial_and_keeps_its_bytes(tmp_path):
    # with --ncap 1 some longest paths exceed the table; the CSV must match
    # the plain cumulative-count loop, and the counts must not pass trials
    n, c, trials, seed, n_cap = 60, 0.05, 300, 5, 1
    assert main(["graph", "--n-vertices", str(n), "--c", str(c), "--trials", str(trials),
                 "--seed", str(seed), "--ncap", str(n_cap), "--out", str(tmp_path)]) == 0
    lengths = graphs.sample_longest_paths(n, c, trials, seed).tolist()
    assert max(lengths) > n_cap
    lines = ["n,count,p_hat,stderr"]
    for k in range(n_cap + 1):
        cum = sum(1 for length in lengths if length <= k)
        p = cum / trials
        lines.append(",".join(fmt(v) for v in (k, cum, p, math.sqrt(p * (1.0 - p) / trials))))
    assert (tmp_path / "ln_cdf.csv").read_text() == "\n".join(lines) + "\n"


def test_compare_csv_keeps_its_bytes(tmp_path):
    # every row, the KS row too, recomputed by plain loops over the graph
    # sampler and full snapshots of the recursion; x sits between grid nodes
    n, x, trials, seed = 50, 1.2345, 5000, 3
    assert main(["compare", "--n-vertices", str(n), "--x", str(x), "--trials", str(trials),
                 "--seed", str(seed), "--out", str(tmp_path)]) == 0
    lengths = graphs.sample_longest_paths(n, x / n, trials, seed).tolist()
    law = snapshots(RecursionConfig(delta=0.001, x_max=2.0, n_max=40), range(41))
    p_continuum = [snap.evaluate(x) for snap in law]
    lines = ["n,p_discrete,p_continuum"]
    ks = 0.0
    for k in range(max(max(lengths), p_continuum.index(1.0)) + 1):
        p_d = sum(1 for length in lengths if length <= k) / len(lengths)
        ks = max(ks, abs(p_d - p_continuum[k]))
        lines.append(",".join(fmt(v) for v in (k, p_d, p_continuum[k])))
    critical = math.sqrt(-math.log(0.01 / 2.0) / 2.0) / math.sqrt(trials)
    lines.append(",".join(["KS", fmt(ks), fmt(critical)]))
    assert (tmp_path / "compare.csv").read_text() == "\n".join(lines) + "\n"


def test_compare_at_large_x_ends_at_exactly_one(tmp_path):
    # a tree at x = 25 peaks near 6e9 particles in one generation; the law
    # read off the recursion needs no particle cap and still ends at 1
    assert main(["compare", "--x", "25", "--n-vertices", "2000", "--trials", "2",
                 "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "compare.csv")
    assert rows[-1]["n"] == "KS"
    assert float(rows[-2]["p_continuum"]) == 1.0


def test_failed_rerun_leaves_no_stale_manifest(tmp_path):
    args = ["front", "--delta", "0.02", "--nmax", "100", "--fit-lo", "20", "--fit-hi", "100",
            "--out", str(tmp_path)]
    assert main(args) == 0
    assert (tmp_path / "manifest.json").exists()
    # the trace is rewritten, then the fit's file cannot be: no manifest may vouch
    # for the files
    (tmp_path / "front_fit.csv").unlink()
    (tmp_path / "front_fit.csv").mkdir()
    assert main(args) == 4
    assert (tmp_path / "front_trace.csv").exists()
    assert not (tmp_path / "manifest.json").exists()


GRAPH_VALUES = {
    "n-vertices": st.integers(min_value=1, max_value=10**9),
    "c": st.floats(allow_nan=False, allow_infinity=False),
    "trials": st.integers(min_value=1, max_value=10**9),
    "seed": st.integers(min_value=0, max_value=2**63),
    "ncap": st.integers(min_value=0, max_value=10**6),
}


@contextmanager
def config_file(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text(text, encoding="utf-8")
        yield path


@settings(max_examples=60, deadline=None)
@given(
    st.sets(st.sampled_from(sorted(GRAPH_VALUES)), min_size=1).flatmap(
        lambda keys: st.fixed_dictionaries({k: GRAPH_VALUES[k] for k in sorted(keys)})
    ),
    st.booleans(),
    st.sampled_from(["=", " = ", "\t=  "]),
)
def test_config_file_round_trips(values, underscores, sep):
    lines = ["# generated", ""]
    for key, value in values.items():
        name = key.replace("-", "_") if underscores else key
        lines.append(f"{name}{sep}{value!r}")
    with config_file("\n".join(lines) + "\n") as path:
        params = resolve_params("graph", build_parser().parse_args(["graph", "--config", str(path)]))
    for key, value in values.items():
        assert params[key] == value and type(params[key]) is type(value)
    for opt in COMMANDS["graph"]:
        if opt.name not in values:
            assert params[opt.name] == opt.default


def _exit_code(command: str, text: str) -> int:
    with config_file(text) as path:
        return main([command, "--config", str(path), "--out", str(path.parent)])


LINE_TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
    max_size=12,
)
GRAPH_KEYS = {opt.name for opt in COMMANDS["graph"]} | {"out"}


def _rejects(cast, text: str) -> bool:
    try:
        cast(text.strip())
    except ValueError:
        return True
    return False


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz_-", min_size=1, max_size=12), LINE_TEXT)
def test_config_file_unknown_key_exits_two(key, value):
    name = key.strip().replace("_", "-")
    if name in GRAPH_KEYS:
        name = "config"  # not allowed inside a config file either
    assert _exit_code("graph", f"{name}={value}\n") == 2


BAD_VALUE_KEYS = [*(("graph", key) for key in ("n-vertices", "c", "trials", "seed", "ncap")),
                  ("alpha-scan", "emit-probe")]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(BAD_VALUE_KEYS), LINE_TEXT)
@example(("alpha-scan", "emit-probe"), "ture")
def test_config_file_bad_value_exits_two(command_key, value):
    command, key = command_key
    cast = next(opt.cast for opt in COMMANDS[command] if opt.name == key)
    if not _rejects(cast, value):
        value = value + "x"  # still one line, and no int, float or switch parses it
    assert _rejects(cast, value)
    assert _exit_code(command, f"{key} = {value}\n") == 2


def test_config_file_not_text_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"trials = 1\xff\xfe\n")
    assert main(["graph", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "not a text file" in capsys.readouterr().err
