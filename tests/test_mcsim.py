from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from helpers import (
    arrival_map,
    fast_completion_map,
    path_stream,
    reference_run_block,
    simulate_path,
    slow_completion_map,
    stationary_vector,
)
from twoproc import mcsim
from twoproc.matrices import build_A
from twoproc.mcsim import (
    DELTA,
    SimSettings,
    _candidate_budget,
    _path_draws,
    _run_block,
    compute_rate_bound,
    estimate_probs,
)
from twoproc.model import ModelSpec, RateFunction

TABLE_SPEC = ModelSpec(
    RateFunction.piecewise([(0.0, 3.0), (0.3, 1.0), (0.7, 5.0)]),
    RateFunction.trig(4.0, [(2.0, "cos", 2), (1.0, "sin", 1)]),
    RateFunction.trig(0.5, [(0.25, "cos", 2)]),
)
CONSTANT_SPEC = ModelSpec(RateFunction.fixed(2.0), RateFunction.fixed(1.5), RateFunction.fixed(1.0))


class TestTransitionMaps:
    def test_arrivals_follow_fastest_server_first(self):
        s = np.array([0, 1, 2, 3, 7])
        assert arrival_map(s).tolist() == [1, 3, 3, 4, 8]

    def test_main_completions(self):
        s = np.array([0, 1, 2, 3, 7])
        # idle main (states 0, 2) is a no-op; the backup job never migrates
        assert fast_completion_map(s).tolist() == [0, 0, 2, 2, 6]

    def test_backup_completions(self):
        s = np.array([0, 1, 2, 3, 7])
        assert slow_completion_map(s).tolist() == [0, 1, 0, 1, 6]

    def test_table_reproduces_the_maps(self):
        s = np.arange(10)
        step = s + DELTA[:, np.minimum(s, 4)]
        assert step[0].tolist() == arrival_map(s).tolist()
        assert step[1].tolist() == fast_completion_map(s).tolist()
        assert step[2].tolist() == slow_completion_map(s).tolist()
        assert step[3].tolist() == s.tolist()


class TestRateBound:
    def test_dominates_with_margin(self, ex3_spec):
        bound = compute_rate_bound(ex3_spec)
        grid = np.linspace(0.0, 1.0, 10_000, endpoint=False)
        total = ex3_spec.lam(grid) + ex3_spec.mu1(grid) + ex3_spec.mu2(grid)
        assert bound >= 1.009 * float(np.max(total))

    def test_high_harmonic_peak_is_dominated(self):
        # lambda = 10 + 10 sin(2 pi 1000 t) peaks between the points of a
        # 10^4-point grid; the total rate reaches 21 at t = 1/4000.
        spec = ModelSpec(RateFunction.trig(10.0, [(10.0, "sin", 1000)]), RateFunction.fixed(0.5),
                         RateFunction.fixed(0.5))
        assert compute_rate_bound(spec) >= 21.0

    def test_short_table_segment_is_dominated(self):
        # lambda = 100 on a 7e-5 segment between the points of the 10^4-point grid
        lam = RateFunction.piecewise([(0.0, 1.0), (0.50001, 100.0), (0.50008, 1.0)])
        spec = ModelSpec(lam, RateFunction.fixed(2.0), RateFunction.fixed(2.0))
        assert compute_rate_bound(spec) >= 104.0


class TestPaths:
    def test_no_arrivals_stays_empty(self):
        spec = ModelSpec(RateFunction.fixed(0.0), RateFunction.fixed(2.0), RateFunction.fixed(1.0))
        settings = SimSettings(n_paths=100, seed=3, sample_times=(0.5, 2.0, 10.0))
        for idx in (0, 5):
            assert simulate_path(spec, settings, idx).tolist() == [0, 0, 0]

    def test_deterministic_per_seed_and_path(self, ex1_spec):
        settings = SimSettings(n_paths=100, seed=11, sample_times=(1.0, 5.0))
        a = simulate_path(ex1_spec, settings, 42)
        b = simulate_path(ex1_spec, settings, 42)
        assert np.array_equal(a, b)

    def test_streams_are_split_by_seed_and_path(self):
        base = _path_draws(11, np.array([42]), 8)[0]
        assert np.array_equal(base, _path_draws(11, np.array([42]), 8)[0])
        assert not np.array_equal(base, _path_draws(12, np.array([42]), 8)[0])
        assert not np.array_equal(base, _path_draws(11, np.array([43]), 8)[0])

    @pytest.mark.parametrize("seed", [0, 11, 2**64 + 5, -1])
    def test_draws_match_fresh_generators(self, seed):
        idx = np.array([0, 7, 2**63 + 1])
        draws = _path_draws(seed, idx, 13)
        for row, i in enumerate(idx):
            assert np.array_equal(draws[row], path_stream(seed, int(i)).random(13))

    def test_batch_rows_equal_single_paths(self, ex1_spec):
        settings = SimSettings(n_paths=300, seed=5, sample_times=(1.0, 4.0, 9.0))
        est_states = np.stack([simulate_path(ex1_spec, settings, i) for i in (0, 17, 299)])
        bound = compute_rate_bound(ex1_spec)
        budget = _candidate_budget(bound, 9.0)
        block = _run_block(
            ex1_spec, bound, np.asarray(settings.sample_times), 0, settings.seed,
            np.arange(settings.n_paths), budget,
        )
        assert np.array_equal(block[[0, 17, 299]], est_states)


class TestColumnBlocks:
    """The column-block scan against the candidate-by-candidate reference."""

    @pytest.mark.parametrize("name", ["trig", "table", "constant"])
    @pytest.mark.parametrize("times", [(1.0, 5.0, 20.0), (0.0, 2.0, 2.0, 7.5)])
    def test_bit_identical_to_reference(self, ex3_spec, name, times):
        spec = {"trig": ex3_spec, "table": TABLE_SPEC, "constant": CONSTANT_SPEC}[name]
        bound = compute_rate_bound(spec)
        st = np.asarray(times)
        budget = _candidate_budget(bound, float(st.max()))
        idx = np.arange(5, 205)
        got = _run_block(spec, bound, st, 0, 3, idx, budget)
        assert np.array_equal(got, reference_run_block(spec, bound, st, 0, 3, idx, budget))

    @pytest.mark.parametrize("initial_state", [1, 2, 5])
    def test_nonzero_initial_state(self, ex3_spec, initial_state):
        bound = compute_rate_bound(ex3_spec)
        st = np.array([0.0, 0.5, 3.0])
        idx = np.arange(150)
        budget = _candidate_budget(bound, 3.0)
        got = _run_block(ex3_spec, bound, st, initial_state, 8, idx, budget)
        assert np.array_equal(got, reference_run_block(ex3_spec, bound, st, initial_state, 8, idx, budget))
        assert np.all(got[:, 0] == initial_state)

    @pytest.mark.parametrize("budget", [5, 40])
    def test_small_budget_reruns(self, ex3_spec, budget, monkeypatch):
        bound = compute_rate_bound(ex3_spec)
        st = np.array([1.0, 4.0])
        idx = np.arange(60)
        budgets = []
        run = mcsim._run_block

        def counted(*args):
            budgets.append(args[6])
            return run(*args)

        monkeypatch.setattr(mcsim, "_run_block", counted)
        got = mcsim._run_block(ex3_spec, bound, st, 0, 4, idx, budget)
        assert len(budgets) > 1  # the budget was too small and paths were rerun
        assert np.array_equal(got, reference_run_block(ex3_spec, bound, st, 0, 4, idx, budget))

    def test_counts_with_partial_last_block(self, ex3_spec, monkeypatch):
        settings = SimSettings(n_paths=103, seed=21, sample_times=(0.0, 1.5, 6.0))
        bound = compute_rate_bound(ex3_spec)
        budget = _candidate_budget(bound, 6.0)
        monkeypatch.setattr(mcsim, "_BLOCK_BYTES", 16 * budget * 10)  # blocks of 10 paths
        est = estimate_probs(ex3_spec, settings)
        rec = reference_run_block(ex3_spec, bound, np.asarray(settings.sample_times), 0, 21,
                                  np.arange(103), budget)
        for j in range(3):
            want = np.bincount(rec[:, j], minlength=est.counts.shape[1])
            assert np.array_equal(est.counts[j], want)

    def test_paths_stop_after_last_sample_time(self, ex3_spec, monkeypatch):
        bound = compute_rate_bound(ex3_spec)
        budget = _candidate_budget(bound, 20.0)
        shapes = []
        rates = ModelSpec.rates

        def recorded(self, t):
            shapes.append(t.shape)
            return rates(self, t)

        monkeypatch.setattr(ModelSpec, "rates", recorded)
        _run_block(ex3_spec, bound, np.array([2.0]), 0, 1, np.arange(50), budget)
        # one call per 64-candidate column block, on the paths still short of
        # t = 2, far fewer blocks than the t = 20 budget holds
        assert 0 < len(shapes) < budget / 64 / 4
        assert all(shape[0] == 64 for shape in shapes)
        assert [shape[1] for shape in shapes] == sorted((shape[1] for shape in shapes), reverse=True)
        assert shapes[0][1] == 50


class TestEstimates:
    @hyp_settings(max_examples=12, deadline=None, derandomize=True)
    @given(st.integers(1, 120))
    def test_counts_independent_of_block_size(self, ex1_spec, paths_per_block):
        settings = SimSettings(n_paths=120, seed=13, sample_times=(0.5, 3.0))
        budget = _candidate_budget(compute_rate_bound(ex1_spec), 3.0)
        whole = estimate_probs(ex1_spec, settings).counts  # 120 paths fit one default block
        with mock.patch.object(mcsim, "_BLOCK_BYTES", 16 * budget * paths_per_block):
            assert np.array_equal(estimate_probs(ex1_spec, settings).counts, whole)

    def test_requires_hundred_paths(self, ex1_spec):
        with pytest.raises(ValueError, match="100"):
            estimate_probs(ex1_spec, SimSettings(n_paths=99, seed=1, sample_times=(1.0,)))

    def test_stderr_bounded_at_hundred_paths(self, ex1_spec):
        est = estimate_probs(ex1_spec, SimSettings(n_paths=100, seed=2, sample_times=(1.0, 5.0)))
        assert float(np.max(est.stderrs)) <= 0.0501  # binomial bound sqrt(0.25/100)

    def test_bitwise_reproducible(self, ex1_spec):
        settings = SimSettings(n_paths=2000, seed=9, sample_times=(1.0, 5.0))
        a = estimate_probs(ex1_spec, settings)
        b = estimate_probs(ex1_spec, settings)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.estimates, b.estimates)

    def test_estimates_sum_to_one(self, ex1_spec):
        est = estimate_probs(ex1_spec, SimSettings(n_paths=5000, seed=4, sample_times=(2.0, 20.0)))
        assert np.allclose(est.estimates.sum(axis=1), 1.0, atol=1e-12)

    def test_constant_rate_distribution_matches_stationary_solve(self):
        spec = ModelSpec(RateFunction.fixed(1.0), RateFunction.fixed(2.0), RateFunction.fixed(2.0))
        pi = stationary_vector(build_A(spec, 0.0, 64, conservative=True))
        est = estimate_probs(spec, SimSettings(n_paths=100_000, seed=77, sample_times=(50.0,)))
        top = min(est.counts.shape[1], 10)
        for k in range(top):
            assert abs(est.estimates[0, k] - pi[k]) <= 3.0 * est.stderrs[0, k], f"state {k}"
