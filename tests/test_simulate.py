"""Monte Carlo height sampling: exact laws at small x, determinism, accounting."""

import math

import numpy as np
import pytest

from continuum_cascade import simulate
from continuum_cascade.errors import ConfigurationError
from continuum_cascade.graphs import ks_critical_value, sample_longest_paths
from continuum_cascade.recursion import closed_form_p1
from continuum_cascade.simulate import (
    BLOCK,
    DEFAULT_PARTICLE_CAP,
    HEIGHT_STREAM,
    EmpiricalCdf,
    SimConfig,
    empirical_cdf,
    TRUNCATED,
    leftmost_trace,
    outcome_histogram,
    sample_heights,
    trial_rng,
)


def three_sigma(p, trials):
    return 3.0 * math.sqrt(max(p * (1.0 - p), 1e-30) / trials)


def test_zero_interval_has_height_zero():
    for seed in range(50):
        assert sample_heights(0.0, 1, seed).tolist() == [0]


def test_height_zero_probability_matches_exponential():
    trials = 20000
    cdf = empirical_cdf(SimConfig(x=1.0, trials=trials, n_cap=10, seed=11))
    p0 = math.exp(-1.0)
    assert abs(cdf.p_hat[0] - p0) <= three_sigma(p0, trials)


def test_height_one_cdf_matches_closed_form():
    trials = 20000
    cdf = empirical_cdf(SimConfig(x=2.0, trials=trials, n_cap=10, seed=12))
    p1 = closed_form_p1(2.0)
    assert abs(cdf.p_hat[1] - p1) <= three_sigma(p1, trials)
    assert math.isclose(p1, 0.321314, abs_tol=1e-6)


def test_cdf_is_monotone_and_accounted():
    cdf = empirical_cdf(SimConfig(x=3.0, trials=5000, n_cap=8, seed=13))
    assert np.all(np.diff(cdf.counts) >= 0)
    cdf.check_accounting()
    assert cdf.beyond_cap_trials > 0  # heights above 8 do occur at x = 3
    assert np.all(cdf.p_hat >= 0.0) and np.all(cdf.p_hat <= 1.0)


def test_single_trial_is_a_step_function():
    cdf = empirical_cdf(SimConfig(x=1.0, trials=1, n_cap=6, seed=14))
    assert set(np.unique(cdf.counts)) <= {0, 1}
    assert np.all(np.diff(cdf.counts) >= 0)


def test_reproducibility_bitwise():
    config = SimConfig(x=2.0, trials=4000, n_cap=12, seed=15)
    a = empirical_cdf(config)
    b = empirical_cdf(config)
    np.testing.assert_array_equal(a.counts, b.counts)
    assert a.truncated_trials == b.truncated_trials
    assert a.beyond_cap_trials == b.beyond_cap_trials


def test_worker_count_is_bounded_before_any_pool_starts():
    # the acceptance suite runs 4 workers on a 2-CPU machine
    assert simulate.MAX_WORKERS >= 4
    config = SimConfig(x=1.0, trials=10, seed=0)
    with pytest.raises(ConfigurationError, match="--workers"):
        empirical_cdf(config, workers=10**6)


def test_worker_count_does_not_change_results():
    config = SimConfig(x=2.0, trials=3000, n_cap=12, seed=16)
    serial = empirical_cdf(config, workers=1)
    parallel = empirical_cdf(config, workers=3)
    np.testing.assert_array_equal(serial.counts, parallel.counts)
    assert serial.truncated_trials == parallel.truncated_trials


def test_stochastic_monotonicity_in_x():
    trials = 20000
    narrow = empirical_cdf(SimConfig(x=1.0, trials=trials, n_cap=6, seed=17))
    wide = empirical_cdf(SimConfig(x=1.5, trials=trials, n_cap=6, seed=18))
    for n in range(7):
        slack = three_sigma(narrow.p_hat[n], trials) + three_sigma(wide.p_hat[n], trials)
        assert narrow.p_hat[n] >= wide.p_hat[n] - slack


def test_truncation_reported_not_resolved():
    trials = 300
    cdf = empirical_cdf(SimConfig(x=3.0, trials=trials, n_cap=10, particle_cap=3, seed=19))
    assert 0 < cdf.truncated_trials < trials  # the cap is per trial, not per block
    cdf.check_accounting()


def test_particle_cap_cuts_the_trace_before_the_oversized_generation():
    # until a generation exceeds the cap the capped run draws exactly what
    # the uncapped one does; then the trial's particles are dropped
    cut = 0
    for seed in range(40):
        full, _ = leftmost_trace(5.0, np.random.default_rng(seed))
        capped, truncated = leftmost_trace(5.0, np.random.default_rng(seed), particle_cap=1)
        if truncated:
            cut += 1
            assert capped == full[: len(capped)]
            assert math.isfinite(full[len(capped)])
        else:
            assert capped == full
    assert cut > 0


def test_leftmost_trace_zero_interval():
    mins, truncated = leftmost_trace(0.0, np.random.default_rng(1))
    assert mins[0] == 0.0
    assert math.isinf(mins[1])
    assert not truncated


def test_leftmost_trace_consistent_with_height_on_shared_stream():
    # identical substream -> the two views describe the same tree:
    # {H <= n-1} is exactly {generation n is empty}
    for seed in range(200):
        (h,) = sample_heights(2.0, 1, seed)
        mins, _ = leftmost_trace(2.0, trial_rng(seed, HEIGHT_STREAM, 0))
        assert math.isinf(mins[-1])
        assert len(mins) - 2 == h  # generations 0..h alive, then the empty marker


def test_leftmost_positions_within_barrier():
    mins, _ = leftmost_trace(3.0, np.random.default_rng(21))
    finite = [m for m in mins if math.isfinite(m)]
    assert all(0.0 <= m <= 3.0 for m in finite)
    assert np.all(np.diff(finite) >= 0.0)  # children sit right of parents


def test_survival_to_generation_matches_recursion(recursion_oracle_x3):
    # P(generation 10 nonempty at x = 3) = 1 - P_9(3)
    trials = 4000
    p9 = recursion_oracle_x3[9].evaluate(3.0)
    alive = 0
    for trial in range(trials):
        mins, _ = leftmost_trace(3.0, trial_rng(22, HEIGHT_STREAM, trial), n_cap=10)
        if len(mins) >= 11 and math.isfinite(mins[10]):
            alive += 1
    p_alive = alive / trials
    assert abs(p_alive - (1.0 - p9)) <= three_sigma(1.0 - p9, trials)


def test_zero_interval_block_has_height_zero():
    assert not sample_heights(0.0, BLOCK + 3, seed=5).any()


def test_table_cap_only_stops_the_lockstep_early():
    # all trials of a block advance together, so stopping at n_cap + 1
    # leaves every draw before it, and each trial's capped height, unchanged
    trials = BLOCK + 500
    full = sample_heights(3.0, trials, seed=23)
    capped = sample_heights(3.0, trials, seed=23, n_cap=6)
    assert (full > 7).any()
    np.testing.assert_array_equal(capped, np.minimum(full, 7))


@pytest.mark.parametrize("run, per_trial, last", [
    (lambda: sample_longest_paths(2000, 0.001, 2 * BLOCK + 17, seed=7),
     math.exp(1999 * math.log1p(0.001)), 17),
    (lambda: sample_heights(2.0, 2 * BLOCK + 5, seed=3), 2.0, 5),
])
def test_pass_grouping_changes_no_draw(monkeypatch, recorded_passes, run, per_trial, last):
    # each block draws from its own substream, so one pass per block and one
    # pass for every block give the same trials
    monkeypatch.setattr(simulate, "PASS_ELEMENTS", (BLOCK + 2) * per_trial)
    alone = run()
    assert recorded_passes == [[BLOCK], [BLOCK], [last]]
    recorded_passes.clear()
    monkeypatch.setattr(simulate, "PASS_ELEMENTS", 1 << 40)
    together = run()
    assert recorded_passes == [[BLOCK, BLOCK, last]]
    np.testing.assert_array_equal(alone, together)


def test_a_block_run_alone_draws_its_trials_of_the_full_run():
    # a worker's passes group only its own blocks
    full = sample_heights(2.0, 2 * BLOCK + 5, seed=3)
    np.testing.assert_array_equal(
        sample_heights(2.0, 2 * BLOCK + 5, seed=3, blocks=[1]), full[BLOCK : 2 * BLOCK]
    )


def test_block_engine_agrees_in_law_with_one_trial_substreams():
    # one-trial runs on per-trial substreams against whole blocks: one law,
    # so the two-sample KS stays below its 1 % critical value.  A trace of
    # height h holds generations 0..h and then the empty marker
    trials = 4000
    single = [len(leftmost_trace(2.0, trial_rng(24, HEIGHT_STREAM, i))[0]) - 2
              for i in range(trials)]
    blocks = sample_heights(2.0, 2 * BLOCK, seed=25)
    support = max(max(single), int(blocks.max())) + 1
    cdf_single, cdf_blocks = (np.cumsum(np.bincount(sample, minlength=support)) / len(sample)
                              for sample in (single, blocks))
    ks = float(np.max(np.abs(cdf_single - cdf_blocks)))
    assert ks < ks_critical_value(trials * blocks.size / (trials + blocks.size), alpha=0.01)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SimConfig(x=-1.0, trials=10)
    with pytest.raises(ConfigurationError):
        SimConfig(x=1.0, trials=0)
    with pytest.raises(ConfigurationError):
        SimConfig(x=1.0, trials=10, n_cap=-1)
    with pytest.raises(ConfigurationError):
        SimConfig(x=1.0, trials=10, particle_cap=0)


def test_empirical_cdf_dataclass_fields():
    cdf = EmpiricalCdf(
        x=1.0, trials=10, counts=np.array([2, 5, 10]),
        truncated_trials=0, beyond_cap_trials=0,
    )
    assert cdf.p_hat[1] == 0.5
    assert math.isclose(cdf.stderr[1], math.sqrt(0.25 / 10))


def test_outcome_histogram_slots_and_table():
    # slot 0 truncated, slots 1..n_cap+1 outcomes 0..n_cap, last slot beyond
    outcomes = np.array([TRUNCATED, 0, 2, 5, 3, 2])
    hist = outcome_histogram(outcomes, 2)
    assert hist.tolist() == [1, 1, 0, 2, 2]
    cdf = EmpiricalCdf.from_histogram(1.0, outcomes.size, hist)
    assert cdf.counts.tolist() == [1, 1, 3]
    assert (cdf.truncated_trials, cdf.beyond_cap_trials) == (1, 2)
    with pytest.raises(AssertionError):  # a trial missing from the tally
        EmpiricalCdf.from_histogram(1.0, outcomes.size + 1, hist)


def _grow_before_offspring(x, trials, rng, n_cap, particle_cap, minima=None):
    """The height engine's generation loop as it was written before it called
    simulate.offspring: the oracle for the bits the shared step must keep."""
    heights = np.zeros(trials, dtype=np.int64)
    truncated = np.zeros(trials, dtype=bool)
    positions = np.zeros(trials)
    owner = np.arange(trials)
    gen = 0
    while positions.size:
        heights[owner] = gen
        if minima is not None:
            minima.append(float(positions.min()))
        if n_cap is not None and gen > n_cap:
            break
        counts = rng.poisson(x - positions)
        over = np.bincount(owner, counts, minlength=trials) > particle_cap
        if over.any():
            truncated |= over
            counts[over[owner]] = 0
        positions = np.repeat(positions, counts)
        owner = np.repeat(owner, counts)
        positions += rng.random(positions.size) * (x - positions)
        gen += 1
    heights[truncated] = TRUNCATED
    return heights


@pytest.mark.parametrize("x, trials, seed, n_cap, cap", [
    (1.0, 3000, 0, None, DEFAULT_PARTICLE_CAP),
    (2.0, 500, 1, 10, DEFAULT_PARTICLE_CAP),
    (3.0, 2000, 2, 6, 10),  # the cap is hit
])
def test_heights_keep_their_bits_through_the_shared_step(x, trials, seed, n_cap, cap):
    # every trial fits in one pass of block 0, so the oracle runs on its stream
    expected = _grow_before_offspring(x, trials, trial_rng(seed, HEIGHT_STREAM, 0), n_cap, cap)
    assert (expected == TRUNCATED).any() == (cap == 10)
    np.testing.assert_array_equal(sample_heights(x, trials, seed, n_cap, cap), expected)


def test_leftmost_trace_keeps_its_bits_through_the_shared_step():
    truncated_seeds = 0
    for seed in range(40):
        mins = []
        rng = trial_rng(seed, HEIGHT_STREAM, 0)
        (height,) = _grow_before_offspring(3.0, 1, rng, None, 10, mins)
        trace, truncated = leftmost_trace(3.0, trial_rng(seed, HEIGHT_STREAM, 0), particle_cap=10)
        assert truncated == (height == TRUNCATED)
        assert trace == mins + ([] if truncated else [math.inf])
        truncated_seeds += truncated
    assert 0 < truncated_seeds < 40
