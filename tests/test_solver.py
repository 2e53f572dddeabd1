from dataclasses import replace

import numpy as np
import pytest

from helpers import expm_series, reference_rk4, stationary_vector
from twoproc.bounds import chain_constant
from twoproc.matrices import build_A, rate_parts
from twoproc.model import ModelSpec, RateFunction, job_counts
from twoproc import solver
from twoproc.solver import (
    RATE_CHUNK,
    FitWindowError,
    MixingHorizonError,
    SolveSettings,
    StepSizeError,
    choose_truncation,
    contraction_check,
    decay_fit,
    empty_start,
    far_initial_state,
    far_start,
    integrate,
    integrate_with_halving,
    limiting_regime,
    _truncation_search,
)


@pytest.fixture(scope="module")
def ex1_regime(ex1_spec):
    return limiting_regime(ex1_spec, SolveSettings(n=16, horizon=50.0))


class TestMeanOf:
    def test_empty_system(self):
        assert job_counts(8) @ empty_start(8) == 0.0

    def test_both_busy_state_counts_two_jobs(self):
        p = np.zeros(8)
        p[3] = 1.0
        assert job_counts(8) @ p == 2.0

    def test_uniform_low_states(self):
        p = np.zeros(8)
        p[:4] = 0.25
        assert job_counts(8) @ p == pytest.approx(1.0, abs=1e-15)


class TestRateParts:
    def test_recombination_matches_generator(self, ex3_spec):
        n = 10
        R = rate_parts(n, conservative=False)
        for t in (0.0, 0.3, 0.77):
            lam, m1, m2 = ex3_spec.rates(t)
            assert np.allclose(lam * R[0] + m1 * R[1] + m2 * R[2], build_A(ex3_spec, t, n), atol=1e-12)

    def test_conservative_columns_sum_to_zero(self):
        R = rate_parts(12, conservative=True)
        for part in R:
            assert np.max(np.abs(part.sum(axis=0))) == 0.0


class TestIntegrate:
    def test_no_arrivals_keeps_empty_state(self):
        spec = ModelSpec(RateFunction.fixed(0.0), RateFunction.fixed(2.0), RateFunction.fixed(1.0))
        traj = integrate(spec, SolveSettings(n=16, horizon=5.0), empty_start(16))
        assert np.max(np.abs(traj.probs - empty_start(16))) == 0.0
        assert np.all(traj.mean == 0.0)

    def test_long_run_reaches_stationary_vector(self, ex1_spec):
        spec = ex1_spec.averaged()
        n = 64
        pi = stationary_vector(build_A(spec, 0.0, n, conservative=True))
        traj = integrate(spec, SolveSettings(n=n, horizon=30.0), empty_start(n))
        assert np.sum(np.abs(traj.probs[-1] - pi)) < 1e-6

    def test_matches_series_matrix_exponential(self):
        spec = ModelSpec(RateFunction.fixed(1.0), RateFunction.fixed(2.0), RateFunction.fixed(2.0))
        n = 6
        A = build_A(spec, 0.0, n, conservative=True)
        traj = integrate(spec, SolveSettings(n=n, horizon=1.0), empty_start(n))
        ref = expm_series(A * 1.0) @ empty_start(n)
        assert np.sum(np.abs(traj.probs[-1] - ref)) < 1e-9

    def test_projection_keeps_vectors_stochastic(self, ex1_regime):
        for traj in (ex1_regime.from_empty, ex1_regime.from_far):
            assert np.min(traj.probs) >= 0.0
            assert np.max(traj.probs) <= 1.0
            assert np.max(np.abs(traj.probs.sum(axis=1) - 1.0)) <= 1e-15

    def test_conservation_defect_tiny(self, ex1_regime):
        for traj in (ex1_regime.from_empty, ex1_regime.from_far):
            assert traj.defect_per_unit_time < 1e-8
            assert traj.min_entry_pre >= -1e-9

    def test_fourth_order_convergence(self, ex1_spec):
        finals = {}
        for step in (4e-3, 2e-3, 1e-3, 5e-4):
            traj = integrate(ex1_spec, SolveSettings(n=16, step=step, horizon=2.0), empty_start(16))
            finals[step] = traj.prob_at(2.0).copy()
        d1 = np.max(np.abs(finals[4e-3] - finals[2e-3]))
        d2 = np.max(np.abs(finals[2e-3] - finals[1e-3]))
        d3 = np.max(np.abs(finals[1e-3] - finals[5e-4]))
        assert 8.0 < d1 / d2 < 32.0
        assert 8.0 < d2 / d3 < 32.0
        assert d2 < 1e-8  # halving the default step moves E(t) below 1e-8

    def test_sample_grid_hits_integer_times(self, ex1_regime):
        traj = ex1_regime.from_empty
        for t in (1.0, 5.0, 50.0):
            assert traj.prob_at(t) is not None
        with pytest.raises(ValueError):
            traj.prob_at(0.0101)

    def test_input_validation(self, ex1_spec):
        with pytest.raises(ValueError, match="choose_truncation"):
            integrate(ex1_spec, SolveSettings(horizon=1.0), empty_start(16))
        with pytest.raises(ValueError, match="length"):
            integrate(ex1_spec, SolveSettings(n=16, horizon=1.0), empty_start(8))
        bad = empty_start(16)
        bad[0] = 0.7
        with pytest.raises(ValueError, match="probability"):
            integrate(ex1_spec, SolveSettings(n=16, horizon=1.0), bad)

    def test_stiff_rates_trigger_step_failure_and_halving_recovers(self):
        spec = ModelSpec(RateFunction.fixed(100.0), RateFunction.fixed(50.0), RateFunction.fixed(50.0))
        st = SolveSettings(n=16, step=0.02, horizon=1.0)
        with pytest.raises(StepSizeError):
            integrate(spec, st, empty_start(16))
        traj = integrate_with_halving(spec, st, empty_start(16))
        assert traj.step < 0.02
        assert traj.defect_per_unit_time < 1e-8


class TestChunkedRates:
    SPECS = {
        "trig": ModelSpec(
            RateFunction.trig(8.0, [(8.0, "sin", 1)]),
            RateFunction.trig(7.0, [(6.0, "cos", 1), (0.5, "sin", 2)]),
            RateFunction.trig(5.0, [(5.0, "cos", 1)]),
        ),
        "table": ModelSpec(
            RateFunction.piecewise([(0.0, 0.5), (0.3, 2.5), (0.75, 1.0)]),
            RateFunction.fixed(2.0),
            RateFunction.piecewise([(0.0, 1.0), (0.5, 2.0)]),
        ),
        "constant": ModelSpec(RateFunction.fixed(1.0), RateFunction.fixed(2.0), RateFunction.fixed(2.0)),
    }

    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_bit_identical_to_scalar_stage_rates(self, kind):
        spec = self.SPECS[kind]
        n, step, horizon, t0 = 16, 1e-3, 5.0, 0.37
        assert round(horizon / step) > RATE_CHUNK
        traj = integrate(spec, SolveSettings(n=n, step=step, horizon=horizon), far_start(n), t0=t0)
        states, defects = reference_rk4(spec, n, step, horizon, far_start(n), t0=t0)
        idx = np.round((traj.times - t0) / step).astype(int)
        assert idx[-1] == len(states) - 1
        assert np.array_equal(traj.times, t0 + idx * step)
        assert np.array_equal(traj.probs, states[idx])
        assert np.array_equal(traj.l1_defect, defects[idx])
        assert traj.defect_total == sum(defects[1:].tolist())

    def test_rates_evaluated_in_bounded_chunks(self, ex3_spec, monkeypatch):
        sizes = []
        original = RateFunction.__call__

        def counting(self, t, waves=None):
            sizes.append(np.size(t))
            return original(self, t, waves)

        monkeypatch.setattr(RateFunction, "__call__", counting)
        n_steps = 2 * RATE_CHUNK + 100
        integrate(ex3_spec, SolveSettings(n=16, step=1e-3, horizon=n_steps * 1e-3), empty_start(16))
        assert sizes == [3 * RATE_CHUNK] * 6 + [3 * 100] * 3


class TestChooseTruncation:
    def test_no_arrivals_accepts_smallest(self):
        spec = ModelSpec(RateFunction.fixed(0.0), RateFunction.fixed(2.0), RateFunction.fixed(1.0))
        assert choose_truncation(spec, SolveSettings(horizon=5.0)) == 16

    def test_light_traffic_stays_small(self, ex1_spec):
        assert choose_truncation(ex1_spec, SolveSettings(horizon=50.0)) <= 64

    def test_heavier_traffic_needs_more_states(self, ex1_spec, ex2_spec):
        st = SolveSettings(horizon=20.0, tol_truncation=1e-4)
        n1 = choose_truncation(ex1_spec, st)
        n2 = choose_truncation(ex2_spec, st)
        assert n2 > n1

    def test_mean_difference_shrinks_with_doubling(self, ex1_spec):
        st = SolveSettings(horizon=20.0)
        gaps = []
        prev = None
        for n in (16, 32, 64):
            traj = integrate(ex1_spec, SolveSettings(n=n, horizon=20.0, step=st.step), empty_start(n))
            if prev is not None:
                gaps.append(float(np.max(np.abs(prev.mean - traj.mean))))
            prev = traj
        assert gaps[1] <= gaps[0]


    def test_search_halves_the_step(self):
        # stiff enough that step 0.02 overshoots at every level; the search
        # used to raise StepSizeError instead of halving
        spec = ModelSpec(RateFunction.fixed(60.0), RateFunction.fixed(50.0), RateFunction.fixed(50.0))
        st = SolveSettings(step=0.02, horizon=3.0)
        with pytest.raises(StepSizeError):
            integrate(spec, replace(st, n=16), empty_start(16))
        traj = _truncation_search(spec, st)
        assert traj.step == 0.005
        # the same search started at the halved step: same n, same trajectory
        direct = _truncation_search(spec, replace(st, step=traj.step))
        assert direct.n == traj.n == choose_truncation(spec, st)
        assert np.array_equal(direct.probs, traj.probs)

    def test_halving_at_a_later_level_reintegrates_the_previous_one(self, monkeypatch):
        spec = ModelSpec(RateFunction.fixed(1.0), RateFunction.fixed(2.0), RateFunction.fixed(2.0))
        st = SolveSettings(step=0.01, horizon=2.0, tol_truncation=1e-12)
        run = solver.integrate
        levels = []

        def fail_first_32(spec, settings, p0, t0=0.0):
            levels.append((settings.n, settings.step))
            if settings.n == 32 and settings.step == 0.01:
                raise StepSizeError("forced")
            return run(spec, settings, p0, t0=t0)

        monkeypatch.setattr(solver, "integrate", fail_first_32)
        traj = _truncation_search(spec, st)
        assert levels[:4] == [(16, 0.01), (32, 0.01), (32, 0.005), (16, 0.005)]
        assert all(step == 0.005 for _, step in levels[2:])
        assert traj.step == 0.005


class TestLimitingRegime:
    def test_light_traffic_merges_before_horizon(self, ex1_regime):
        assert ex1_regime.t_mix <= 50.0
        assert ex1_regime.l1_gap[0] == pytest.approx(2.0, abs=1e-12)

    def test_cycle_window_is_one_period(self, ex1_regime):
        cyc = ex1_regime.cycle
        assert cyc.times[0] == pytest.approx(np.ceil(ex1_regime.t_mix), abs=1e-9)
        assert cyc.times[-1] - cyc.times[0] == pytest.approx(1.0, abs=1e-9)

    def test_merged_mean_is_one_periodic(self, ex1_regime):
        traj = ex1_regime.from_empty
        window = (traj.times >= 48.0 - 1e-9) & (traj.times <= 49.0 + 1e-9)
        shifted = (traj.times >= 49.0 - 1e-9) & (traj.times <= 50.0 + 1e-9)
        assert np.max(np.abs(traj.mean[window] - traj.mean[shifted])) < 1e-4

    def test_constant_rates_give_constant_cycle(self, ex1_spec):
        reg = limiting_regime(ex1_spec.averaged(), SolveSettings(n=16, horizon=25.0))
        assert np.max(np.abs(reg.cycle.probs - reg.cycle.probs[0])) < 1e-8

    def test_short_horizon_raises_with_measured_rate(self, ex1_spec):
        with pytest.raises(MixingHorizonError):
            limiting_regime(ex1_spec, SolveSettings(n=16, horizon=5.0))

    def test_search_trajectory_reused(self, ex1_spec):
        st = SolveSettings(step=0.004, horizon=20.0)
        reg = limiting_regime(ex1_spec, st)
        n = choose_truncation(ex1_spec, st)
        assert reg.from_empty.n == reg.from_far.n == n
        ref = integrate(ex1_spec, replace(st, n=n), empty_start(n))
        assert np.array_equal(reg.from_empty.probs, ref.probs)
        assert np.array_equal(reg.from_empty.times, ref.times)

    def test_far_start_halving_halves_both_starts(self):
        # stiff service with 1/step not an integer: only the far start fails at
        # step 0.03, and the two sample grids used to differ (101 vs 201 rows)
        spec = ModelSpec(RateFunction.fixed(0.5), RateFunction.fixed(20.0), RateFunction.fixed(20.0))
        reg = limiting_regime(spec, SolveSettings(n=16, step=0.03, horizon=3.0))
        assert reg.from_empty.step == reg.from_far.step < 0.03
        assert np.array_equal(reg.from_empty.times, reg.from_far.times)
        ref = integrate(spec, SolveSettings(n=16, step=reg.from_far.step, horizon=3.0), empty_start(16))
        assert np.array_equal(reg.from_empty.probs, ref.probs)

    def test_far_initial_state_rule(self):
        assert far_initial_state(16) == 15
        assert far_initial_state(101) == 100
        assert far_initial_state(128) == 100
        assert far_start(128)[100] == 1.0


class TestDecayFit:
    def test_fit_matches_known_rate(self, ex1_regime, ex1_weights):
        fit = decay_fit(ex1_regime.from_empty, ex1_regime.from_far, ex1_weights)
        # spectral gap of the truncated system is near 1.07 at n=16
        assert fit.beta_hat == pytest.approx(1.07, abs=0.05)
        assert fit.n_points >= 10
        assert fit.prefactor_hat > 0.0

    def test_identical_trajectories_rejected(self, ex1_regime):
        with pytest.raises(FitWindowError):
            decay_fit(ex1_regime.from_empty, ex1_regime.from_empty)

    def test_mismatched_grids_rejected(self, ex1_spec, ex1_regime):
        other = integrate(ex1_spec, SolveSettings(n=16, horizon=2.0), empty_start(16))
        with pytest.raises(ValueError):
            decay_fit(ex1_regime.from_empty, other)


class TestContraction:
    def test_certified_envelope_holds(self, ex1_spec, ex1_weights, ex1_regime):
        check = contraction_check(
            ex1_regime.from_empty, ex1_regime.from_far, ex1_spec, ex1_weights, 0.99
        )
        assert check.ratio_certified_max <= 1.0 + 1e-9
        assert check.prefactor_measured >= 1.0  # ratio is 1 at t = 0
        assert np.all(check.ratio_avg <= 1.05 * check.prefactor_measured)
        assert check.p_chain_ratio_max <= chain_constant(ex1_weights)
