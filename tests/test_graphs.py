"""Cascade random graph: longest-path DP vs exhaustive oracle, KS machinery."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import continuum_cascade
from continuum_cascade import graphs, simulate
from continuum_cascade.errors import ConfigurationError
from continuum_cascade.graphs import (
    GEOMETRIC_SEARCH_MIN,
    INVERSION_MIN_DRAWS,
    compare_discrete_continuum,
    ks_critical_value,
    longest_path_bruteforce,
    longest_path_dp,
    sample_adjacency,
    sample_longest_paths,
)
from continuum_cascade.simulate import BLOCK, GRAPH_STREAM, PASS_ELEMENTS


def test_forced_chain_has_full_length():
    assert sample_longest_paths(3, 1.0, 1, seed=0).tolist() == [2]


def test_empty_graph_has_length_zero():
    assert sample_longest_paths(50, 0.0, 1, seed=0).tolist() == [0]


def test_dp_matches_bruteforce_on_random_instances():
    rng = np.random.default_rng(101)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        c = float(rng.random())
        adj = sample_adjacency(n, c, rng)
        assert longest_path_dp(adj) == longest_path_bruteforce(adj)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10**6))
def test_dp_matches_bruteforce_property(n, seed):
    rng = np.random.default_rng(seed)
    adj = sample_adjacency(n, float(rng.random()), rng)
    assert longest_path_dp(adj) == longest_path_bruteforce(adj)


def test_hand_built_adjacency():
    adj = np.zeros((4, 4), dtype=bool)
    adj[1, 2] = adj[2, 3] = True
    assert longest_path_dp(adj) == 2
    assert longest_path_bruteforce(adj) == 2
    adj[1, 3] = True  # shortcut does not shorten the longest path
    assert longest_path_dp(adj) == 2


def test_lazy_sampler_agrees_with_dense_distribution():
    # same law, different rngs: compare mean longest path at 3 sigma
    trials = 3000
    n, c = 30, 0.1
    lazy = sample_longest_paths(n, c, trials, seed=1)
    dense = np.array([
        longest_path_dp(sample_adjacency(n, c, np.random.default_rng((2, i))))
        for i in range(trials)
    ])
    sem = math.sqrt(lazy.var() / trials + dense.var() / trials)
    assert abs(lazy.mean() - dense.mean()) <= 3.0 * sem


def enumerated_law(n, c):
    """P(L = k) summed over all 2^(n(n-1)/2) graphs on n vertices."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    law = np.zeros(n)
    for mask in range(1 << len(pairs)):
        dist = [-1] * (n + 1)
        dist[1] = 0
        present = 0
        for bit, (i, j) in enumerate(pairs):  # pairs come in increasing i
            if mask >> bit & 1:
                present += 1
                if dist[i] >= 0:
                    dist[j] = max(dist[j], dist[i] + 1)
        law[max(dist)] += c**present * (1.0 - c) ** (len(pairs) - present)
    return law


@pytest.mark.parametrize("n, c", [(5, 0.3), (6, 0.6), (4, 1.0), (5, 0.95)])
def test_block_engine_matches_enumerated_law(n, c, check_binomial):
    law = enumerated_law(n, c)
    assert math.isclose(law.sum(), 1.0)
    trials = 2 * BLOCK + 17
    lengths = sample_longest_paths(n, c, trials, seed=31)
    counts = np.bincount(lengths, minlength=n)
    assert counts.size == n
    for k in range(n):
        check_binomial(int(counts[: k + 1].sum()), trials, min(1.0, law[: k + 1].sum()),
                       f"P(L <= {k}), n={n}, c={c}")


def test_block_engine_edge_cases():
    assert not sample_longest_paths(40, 0.0, BLOCK + 1, seed=1).any()
    assert sample_longest_paths(7, 1.0, 3, seed=1).tolist() == [6, 6, 6]


def test_block_engine_output_is_pinned():
    # exact output at one seed (numpy 2.4.6): a change to the draw order or
    # to the level update shows here even when the law still holds
    lengths = sample_longest_paths(2000, 0.001, 2 * BLOCK + 17, seed=7)
    assert np.bincount(lengths).tolist() == [
        1147, 1555, 1741, 1565, 1186, 627, 280, 81, 16, 8, 2, 1,
    ]


def test_passes_that_split_and_merge_blocks_are_pinned(recorded_passes):
    # 300 levels a trial: block 0 runs as passes of 3495 and 601 trials, and
    # block 1's 600 trials share the second one, each on its own substream
    lengths = sample_longest_paths(300, 0.02, BLOCK + 600, seed=2)
    assert recorded_passes == [[3495], [601, 600]]
    assert np.bincount(lengths).tolist() == [
        11, 16, 44, 60, 92, 140, 234, 371, 499, 634, 642,
        635, 524, 374, 225, 99, 61, 22, 8, 2, 2, 1,
    ]


def test_compare_default_shape_is_pinned(recorded_passes):
    # the graph side of compare's defaults (n 2000, x 2, 20000 trials): five
    # streams in one pass, with trials ending at nearly every step
    lengths = sample_longest_paths(2000, 0.001, 20000, seed=1)
    assert recorded_passes == [[BLOCK] * 4 + [20000 - 4 * BLOCK]]
    assert np.bincount(lengths).tolist() == [
        2740, 3642, 4316, 3917, 2827, 1591, 668, 225, 55, 16, 2, 1,
    ]


def test_tiny_edge_probability_reaches_nothing():
    # below c ~ 1e-19 a geometric gap is int64 max; unclipped, it wrapped the
    # vertex index negative and the trial never ended, and so did a gap
    # clipped to n = 2^63 - 1.  A subprocess with a timeout fails a hang here
    # instead of stalling the suite.
    script = ("from continuum_cascade.graphs import sample_longest_paths\n"
              "print([sample_longest_paths(n, 1e-300, 3).tolist() for n in (2, 50, 2**63 - 1)])")
    src = Path(continuum_cascade.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[[0, 0, 0], [0, 0, 0], [0, 0, 0]]\n"


# p log-uniform over numpy's inversion range, its ends (5e-324 draws only
# int64 max, the clamp), the largest double below 1/3, and the search branch
GAP_PROBABILITIES = [
    *np.exp(np.random.default_rng(5).uniform(math.log(5e-324), math.log(1 / 3), 40)).tolist(),
    5e-324, 1e-300, 1e-19, 1e-17, math.nextafter(1 / 3, 0.0), 1 / 3, 0.5, 0.999, 1.0,
]


@pytest.mark.parametrize("size", [INVERSION_MIN_DRAWS, INVERSION_MIN_DRAWS - 1])
def test_geometric_gaps_are_numpys_bit_for_bit(size):
    assert GEOMETRIC_SEARCH_MIN == 1 / 3
    for i, p in enumerate(GAP_PROBABILITIES):
        expected = np.random.default_rng(i).geometric(p, size)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # not even the overflow of E / -log1p(-p)
            gaps = graphs._geometric_gaps([(np.random.default_rng(i), size)], p, np.empty(size))
        assert gaps.dtype == np.int64
        assert np.array_equal(gaps, expected), p
    clamped = graphs._geometric_gaps([(np.random.default_rng(0), size)], 5e-324, np.empty(size))
    assert (clamped == np.iinfo(np.int64).max).all()


def test_geometric_gaps_of_a_pass_are_each_streams_own():
    sizes = [700, INVERSION_MIN_DRAWS, 3, 1500]
    for p in GAP_PROBABILITIES:
        streams = [(np.random.default_rng((9, b)), k) for b, k in enumerate(sizes)]
        gaps = graphs._geometric_gaps(streams, p, np.full(sum(sizes), np.nan))
        alone = [np.random.default_rng((9, b)).geometric(p, k) for b, k in enumerate(sizes)]
        assert np.array_equal(gaps, np.concatenate(alone)), p


def _gaps_by_block(monkeypatch, trials, blocks, per_trial):
    """The gaps each block drew, in order, over a run of sample_blocks."""
    drawn = {}  # keyed by generator: a block's, in block order
    real = graphs._geometric_gaps

    def spy(streams, p, out):
        gaps = real(streams, p, out)
        lo = 0
        for rng, k in streams:
            drawn.setdefault(rng, []).extend(gaps[lo : lo + k].tolist())
            lo += k
        return gaps

    monkeypatch.setattr(graphs, "_geometric_gaps", spy)
    n, c = 300, 0.02
    simulate.sample_blocks(lambda streams: graphs._longest_paths(n, c, streams),
                           trials, 4, GRAPH_STREAM, per_trial, blocks)
    return list(drawn.values())


def test_a_block_draws_the_same_gaps_whatever_shares_its_pass(monkeypatch, recorded_passes):
    # passes of at most 2500 trials: blocks 0 and 1 are each cut in two, and
    # block 1's second part shares its pass with block 2, which alone is a
    # pass below INVERSION_MIN_DRAWS: its gaps come from numpy's own call
    # there and from the pass's inversion beside block 1
    trials, per_trial = 2 * BLOCK + 700, PASS_ELEMENTS / 2500
    together = _gaps_by_block(monkeypatch, trials, None, per_trial)
    assert recorded_passes == [[2500], [BLOCK - 2500], [2500], [BLOCK - 2500, 700]]
    assert BLOCK - 2500 + 700 >= INVERSION_MIN_DRAWS > 700
    assert len(together) == 3
    for block in range(3):
        alone = _gaps_by_block(monkeypatch, trials, [block], per_trial)
        assert alone == [together[block]]


@pytest.mark.parametrize("c", [0.999, 0.5])
def test_dense_trial_memory_is_its_level_counts(c):
    # a trial keeps one count per level (at most n), not its ~n^2 c / 2 edges
    tracemalloc.start()
    try:
        lengths = sample_longest_paths(2000, c, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert lengths.shape == (2,) and lengths.min() > 0


def test_ks_critical_value_formula():
    # c(0.01) = sqrt(-ln(0.005)/2) ~ 1.6276, over the root of the sample size
    got = ks_critical_value(20000, alpha=0.01)
    assert math.isclose(got, 1.6276 / math.sqrt(20000), rel_tol=1e-4)
    # two samples of 20000 have the effective size 20000 * 20000 / 40000
    got = ks_critical_value(20000 * 20000 / 40000, alpha=0.01)
    assert math.isclose(got, 1.6276 * math.sqrt(2 / 20000), rel_tol=1e-4)


def test_compare_zero_interval_is_degenerate():
    report = compare_discrete_continuum(50, 0.0, 200, seed=3)
    assert report.ks_statistic == 0.0
    assert report.discrete.p_hat[0] == 1.0
    assert report.continuum[0] == 1.0


def test_compare_rejects_infeasible_edge_probability():
    with pytest.raises(ConfigurationError):
        compare_discrete_continuum(5, 10.0, 10, seed=0)


def test_graph_sampler_validates_inputs():
    with pytest.raises(ConfigurationError):
        sample_longest_paths(0, 0.5, 1)
    with pytest.raises(ConfigurationError):
        sample_longest_paths(5, 1.5, 1)


def test_compare_report_shapes():
    report = compare_discrete_continuum(100, 1.0, 500, seed=4)
    assert len(report.discrete.p_hat) == len(report.continuum)
    assert report.discrete.p_hat[-1] == 1.0
    assert report.continuum[-1] == 1.0
    assert 0.0 <= report.ks_statistic <= 1.0


def continuum_reference_x2() -> Path:
    """The stored x = 2 column that numpy's exp and expm1 give at the dispatch level in use.

    The benchmark's file holds the bits of numpy's AVX-512 loops; its AVX2
    and baseline loops give 1 ulp more at n = 4, 5 and 11, recorded once
    beside this file.  numpy's AVX512_SKX feature separates the two.
    """
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    here = Path(__file__).resolve().parent
    if __cpu_features__.get("AVX512_SKX"):
        return here.parent / "perfbench/reference/pn_x2.csv"
    return here / "pn_x2_without_avx512.csv"


def test_compare_continuum_is_the_recursion_oracle(recursion_oracle_x3):
    # the column is criterion 07's full-snapshot oracle bit for bit, and at
    # x = 2 the stored reference of the dispatch level in use (the benchmark
    # checks against the AVX-512 one)
    for x in (1.0, 2.0, 3.0):
        column = compare_discrete_continuum(100, x, 50, seed=6).continuum
        assert [column[n] for n in range(16)] == [
            recursion_oracle_x3[n].evaluate(x) for n in range(16)
        ]
        if x == 2.0:
            rows = continuum_reference_x2().read_text().split()[1:]
            assert [column[n] for n in range(16)] == [float(r.split(",")[1]) for r in rows]


@pytest.mark.parametrize("x", [0.0, 0.001, 0.37, 1.2345, 2.0, 9.0, 25.0])
def test_compare_continuum_runs_to_its_first_exact_one(x):
    # 0.001 is the first grid node, where the grid's tail lags the exact
    # first-moment bound and more generations are needed; 1.2345 is off the nodes
    n, trials, seed = 200, 300, 8
    report = compare_discrete_continuum(n, x, trials, seed)
    column = report.continuum
    assert np.all(np.diff(column) >= 0.0)
    assert column[-1] == 1.0
    first_one = int(np.argmax(column == 1.0))
    assert first_one >= sample_longest_paths(n, x / n, trials, seed).max()
    assert len(column) == first_one + 1 == len(report.discrete.p_hat)
    assert report.discrete.p_hat[-1] == 1.0
