"""Command-line surface: artifacts, manifests, config merging, exit codes."""

import csv
import hashlib
import json
import math
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from continuum_cascade import graphs, simulate
from continuum_cascade.cli import COMMANDS, build_parser, main, resolve_params
from continuum_cascade.output import fmt, sha256_file
from continuum_cascade.recursion import RecursionConfig, run_recursion


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
        assert sha256_file(tmp_path / name) == digest

    rows = read_csv(tmp_path / "pn_5.csv")
    config = RecursionConfig(delta=0.01, x_max=10.0, n_max=5)
    expected = run_recursion(config, snapshot_generations=[5]).final
    assert len(rows) == config.grid_size + 1
    k = 150
    assert float(rows[k]["x"]) == 0.01 * k
    assert float(rows[k]["p"]) == expected.values[k]  # 17 digits round-trip


def test_full_float_precision_in_csv(tmp_path):
    rc = main(["recurse", "--delta", "0.01", "--xmax", "2", "--nmax", "1",
               "--snapshots", "1", "--out", str(tmp_path)])
    assert rc == 0
    rows = read_csv(tmp_path / "pn_1.csv")
    values = [float(r["p"]) for r in rows]
    config = RecursionConfig(delta=0.01, x_max=2.0, n_max=1)
    expected = run_recursion(config, snapshot_generations=[1]).final.values
    np.testing.assert_array_equal(np.array(values), expected)


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


def test_compare_command_ks_summary(tmp_path):
    assert main(["compare", "--n-vertices", "200", "--x", "1", "--trials", "800",
                 "--seed", "3", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "compare.csv").read_text().strip().splitlines()
    assert lines[0] == "n,p_discrete,p_continuum"
    assert lines[-1].startswith("KS,")
    ks = float(lines[-1].split(",")[1])
    assert 0.0 <= ks <= 1.0


def test_brw_command_outputs(tmp_path):
    assert main(["brw", "--trials", "2", "--n", "6", "--prune-window", "6",
                 "--seed", "4", "--out", str(tmp_path)]) == 0
    moments = read_csv(tmp_path / "moments.csv")[0]
    assert float(moments["m1_residual"]) < 1e-10
    assert abs(float(moments["m4_value"]) - math.e) < 1e-10
    rows = read_csv(tmp_path / "trajectories.csv")
    assert [c for c in rows[0]] == ["trial", "generation", "D", "alive_count", "truncated"]
    assert len(rows) == 2 * 7


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


def test_exit_codes(tmp_path, capsys):
    # configuration error: front run with too small a domain
    assert main(["front", "--delta", "0.01", "--nmax", "200", "--xmax", "10",
                 "--out", str(tmp_path)]) == 2
    # fit error: window with too few points
    assert main(["front", "--delta", "0.02", "--nmax", "100", "--fit-lo", "96",
                 "--fit-hi", "99", "--out", str(tmp_path)]) == 3
    # i/o error: output directory path passes through a file
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main(["recurse", "--out", str(blocker / "sub")]) == 4
    capsys.readouterr()


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("fit_args", [
    ["--fit", "bogus", "--fit-lo", "10", "--fit-hi", "40"],
    ["--fit-lo", "10"],
])
def test_front_rejects_bad_fit_flags_before_computing(tmp_path, capsys, fit_args):
    assert main(["front", "--nmax", "50", *fit_args, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "front_trace.csv").exists()
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["graph", "--n-vertices", "50", "--c", "0.02", "--trials", "0"],
    ["graph", "--n-vertices", "50", "--c", "0.02", "--trials", "5", "--ncap", "-1"],
    ["compare", "--n-vertices", "50", "--x", "1", "--trials", "0"],
    ["brw", "--trials", "-1"],
    ["brw", "--trials", "1", "--n", "-1"],
])
def test_bad_counts_exit_two(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert list(tmp_path.iterdir()) == []  # no manifest, and no artifact either
    capsys.readouterr()


@pytest.mark.parametrize("argv, code", [
    (["alpha-scan", "--deltas", ",,"], 2),  # no delta
    (["alpha-scan", "--deltas", "0.02", "--nmax", "3"], 2),  # too few probe values
    # every continuum trial exceeds the particle cap: no continuum CDF
    (["compare", "--x", "25", "--n-vertices", "2000", "--trials", "2"], 3),
])
def test_runs_without_a_result_write_nothing(tmp_path, capsys, argv, code):
    assert main([*argv, "--out", str(tmp_path)]) == code
    assert list(tmp_path.iterdir()) == []
    capsys.readouterr()


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


def test_failed_rerun_leaves_no_stale_manifest(tmp_path):
    args = ["front", "--delta", "0.02", "--nmax", "100", "--out", str(tmp_path)]
    assert main(args + ["--fit-lo", "20", "--fit-hi", "100"]) == 0
    assert (tmp_path / "manifest.json").exists()
    # the trace is rewritten, then the fit fails: no manifest may vouch for it
    assert main(args + ["--fit-lo", "96", "--fit-hi", "99"]) == 3
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


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["n-vertices", "c", "trials", "seed", "ncap"]), LINE_TEXT)
def test_config_file_bad_value_exits_two(key, value):
    cast = next(opt.cast for opt in COMMANDS["graph"] if opt.name == key)
    if not _rejects(cast, value):
        value = value + "x"  # still one line, and no int or float parses it
    assert _rejects(cast, value)
    assert _exit_code("graph", f"{key} = {value}\n") == 2


def test_config_file_not_text_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"trials = 1\xff\xfe\n")
    assert main(["graph", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "not a text file" in capsys.readouterr().err
