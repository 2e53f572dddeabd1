import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings as hyp_settings
from hypothesis import strategies as st

from helpers import expm_series, rate_parts, reference_band_step, reference_rk4, stationary_vector
from twoproc.matrices import TRUNCATION_CAP, _rate_bands, build_A
from twoproc.model import ModelSpec, RateFunction, job_counts
from twoproc import solver
from twoproc.solver import (
    BAND_MIN_N,
    BUILD_PERIODS_N2,
    MAX_STEPS,
    PROPAGATOR_BUDGET,
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
    limiting_regime,
)


@pytest.fixture(scope="module")
def ex1_regime(ex1_spec):
    return limiting_regime(ex1_spec, SolveSettings(n=16, horizon=50.0))


def record_trajectories(monkeypatch, fail_at=None):
    """List of (n, step, initial state), one per trajectory `solver._trajectory` runs.

    The first call at the (n, step) pair fail_at raises StepSizeError.
    """
    calls = []
    run = solver._trajectory

    def recording(spec, settings, start, operator=None, probe=None):
        calls.append((settings.n, settings.step, int(np.argmax(start))))
        if calls[-1][:2] == fail_at and [c[:2] for c in calls].count(fail_at) == 1:
            raise StepSizeError("forced")
        return run(spec, settings, start, operator, probe)

    monkeypatch.setattr(solver, "_trajectory", recording)
    return calls


def record_paths(monkeypatch):
    """Names of the paths `solver.integrate` takes, "steps", "periods" or "maps", one per trajectory."""
    taken = []
    for name in ("steps", "periods", "maps"):
        run = getattr(solver, f"_by_{name}")

        def recording(*args, _run=run, _name=name):
            *_, p, lo, _out = args
            if lo == 0 and p.ndim == 1:  # a trajectory's first block, not a propagator build
                taken.append(_name)
            return _run(*args)

        monkeypatch.setattr(solver, f"_by_{name}", recording)
    return taken


def record_generators(monkeypatch):
    """Set of the shapes of the constant parts `solver._generator` lays out, one per level an operator is built for."""
    shapes = set()
    run = solver._generator

    def recording(n):
        R = run(n)
        shapes.add(R.shape)
        return R

    monkeypatch.setattr(solver, "_generator", recording)
    return shapes


def record_maps(monkeypatch):
    """List of (layout shape, maps, full probe), one per `solver._step_maps` build; the full probe is
    `solver._probed_maps` on the layout the build was given."""
    built = []
    run, probe = solver._step_maps, solver._probed_maps  # full probes that `record_probes` does not count

    def recording(spec, R, h, *args):
        maps = run(spec, R, h, *args)
        built.append((R.shape, maps, probe(spec, R, h)))
        return maps

    monkeypatch.setattr(solver, "_step_maps", recording)
    return built


def record_probes(monkeypatch):
    """List of (layout shape, step), one per `solver._probed_maps` run."""
    probed = []
    run = solver._probed_maps

    def recording(spec, R, h):
        probed.append((R.shape, h))
        return run(spec, R, h)

    monkeypatch.setattr(solver, "_probed_maps", recording)
    return probed


def maps_are_probed(built) -> bool:
    """Whether each of the maps `record_maps` recorded is byte for byte the full probe on its own layout."""
    return all(maps.tobytes() == probed.tobytes() for _, maps, probed in built)


def record_builds(monkeypatch):
    """List of (n, step) per build of the period propagators or of the step maps."""
    builds = []
    for name in ("_interval_propagators", "_step_maps"):
        run = getattr(solver, name)

        def recording(spec, R, h, *args, _run=run):
            builds.append((R.shape[-1], h))
            return _run(spec, R, h, *args)

        monkeypatch.setattr(solver, name, recording)
    return builds


def take_steps(monkeypatch):
    """Send `solver.integrate` down the stage-by-stage step path whatever the budget."""
    monkeypatch.setattr(solver, "_path", lambda *args: "steps")


def vector_path(spec, n, step, horizon, p0):
    """Projected samples and means of `integrate`'s stage-by-stage step path."""
    with pytest.MonkeyPatch.context() as patch:
        take_steps(patch)
        traj = integrate(spec, SolveSettings(n=n, step=step, horizon=horizon), p0)
    return traj.probs, traj.mean


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
    @pytest.mark.parametrize("conservative", [False, True])
    def test_recombination_matches_generator(self, ex3_spec, conservative):
        # build_A combines the rates on the bands, in the dense order, so every entry is the same float
        for n in (10, 130):
            R = rate_parts(n, conservative)
            for t in (0.0, 0.3, 0.77):
                lam, m1, m2 = ex3_spec.rates(t)
                assert np.array_equal(lam * R[0] + m1 * R[1] + m2 * R[2], build_A(ex3_spec, t, n, conservative))

    def test_conservative_columns_sum_to_zero(self):
        # the solver's dense stack below BAND_MIN_N is the oracle's, entry for entry
        for n in (5, 12, BAND_MIN_N - 1):
            R = solver._generator(n)
            assert np.array_equal(R, rate_parts(n, conservative=True).reshape(3 * n, n))
            assert np.max(np.abs(R.reshape(3, n, n).sum(axis=1))) == 0.0


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

    @pytest.mark.parametrize("horizon,step,spacing", [
        (20.0, 1e-3, 0.004),
        (20.0, 5e-4, 0.0025),  # halving the step does not refine the 0.004 grid
        (3.0, 0.0015, 1 / 667),  # 0.0015 rounds down to 1/667: every step is a sample
        (40.5, 0.02, 0.02),  # the last sample is the horizon
    ])
    def test_sample_grid_is_what_integrate_records(self, ex1_spec, horizon, step, spacing):
        settings = SolveSettings(n=5, step=step, horizon=horizon)
        *_, grid = solver.sample_grid(horizon, settings.step)
        assert grid[1] == pytest.approx(spacing, rel=1e-12)
        assert grid[-1] == pytest.approx(horizon, rel=1e-12)
        traj = integrate(ex1_spec, settings, empty_start(5))
        assert np.array_equal(traj.times, grid)

    @hyp_settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(1e-5, 4.0), st.floats(1e-3, 2e3))
    def test_whole_steps_per_period(self, step, horizon):
        # every accepted step is the float 1/k, no larger than the given step to a relative 1e-9,
        # and its sample grid holds every integer time up to the horizon or lies whole periods apart
        try:
            settings = SolveSettings(step=step, horizon=horizon)
        except ValueError:
            assume(False)
        k = round(1.0 / settings.step)
        assert settings.step == 1.0 / k and settings.step <= step * (1 + 1e-9)
        n_steps, stride, grid = solver.sample_grid(settings.horizon, settings.step)
        if k % stride == 0:
            ints = np.arange(math.floor(horizon) + 1)
            assert np.all(np.abs(grid[ints * (k // stride)] - ints) <= 1e-12 * np.maximum(1.0, ints))
        else:
            assert stride % k == 0
            periods = grid[:-1] * k / stride
            assert np.all(np.abs(periods - np.arange(len(periods))) <= 1e-12 * np.maximum(1.0, periods))

    def test_sample_grid_past_int64_steps(self):
        # 1e20 steps would overflow int64 sample indices; compare builds this grid before any run
        n_steps, stride, grid = solver.sample_grid(1e17, 1e-3)
        assert (n_steps, len(grid), grid[-1]) == (10**20, 8001, 1e17)
        assert np.all(np.diff(grid) > 0)

    def test_truncation_range(self):
        for n in (4, solver.TRUNCATION_CAP + 1):
            with pytest.raises(ValueError, match="truncation must keep at"):
                SolveSettings(n=n)
        assert SolveSettings(n=solver.TRUNCATION_CAP).n == 4096

    def test_input_validation(self, ex1_spec):
        with pytest.raises(ValueError, match="choose_truncation"):
            integrate(ex1_spec, SolveSettings(horizon=1.0), empty_start(16))
        with pytest.raises(ValueError, match="length"):
            integrate(ex1_spec, SolveSettings(n=16, horizon=1.0), empty_start(8))
        bad = empty_start(16)
        bad[0] = 0.7
        with pytest.raises(ValueError, match="probability"):
            integrate(ex1_spec, SolveSettings(n=16, horizon=1.0), bad)

    @pytest.mark.parametrize("step", [0.003, 0.004])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_start_rejected(self, ex1_spec, step, value):
        # a NaN start gave an all-NaN trajectory on the step path and a conservation
        # defect of nan on the period path; the check now comes before any path
        bad = empty_start(16)
        bad[3] = value
        with pytest.raises(ValueError, match="probability"):
            integrate(ex1_spec, SolveSettings(n=16, step=step, horizon=10.0), bad)

    def test_nan_in_a_step_fails_it(self, ex1_spec, monkeypatch):
        run = solver._rk4_step
        steps = []

        def poisoned(R, stage, h, X):
            steps.append(None)
            out = run(R, stage, h, X)
            if len(steps) == 5:
                out[3] = np.nan
            return out

        monkeypatch.setattr(solver, "_rk4_step", poisoned)
        # 1,000 maps of 17 x 64 exceed the budget: the step path
        with pytest.raises(StepSizeError, match=r"^conservation defect nan / negative overshoot nan at t=0\.005 "):
            integrate(ex1_spec, SolveSettings(n=64, step=1e-3, horizon=1.0), empty_start(64))

    def test_failure_names_the_first_failing_sample(self, ex1_spec, monkeypatch):
        # at stride 5 the NaN of step 503 first shows in sample 101 (step 505), mid-block
        monkeypatch.setattr(solver, "SAMPLE_TARGET", 667)
        run = solver._rk4_step
        steps = []

        def poisoned(R, stage, h, X):
            steps.append(None)
            out = run(R, stage, h, X)
            if len(steps) == 503:
                out[3] = np.nan
            return out

        monkeypatch.setattr(solver, "_rk4_step", poisoned)
        # 1,000 maps of 17 x 64 exceed the budget: the step path
        with pytest.raises(StepSizeError, match=r"^conservation defect nan / negative overshoot nan at t=0\.505 "):
            integrate(ex1_spec, SolveSettings(n=64, step=1e-3, horizon=3.0), empty_start(64))

    @pytest.mark.parametrize("name", ["step", "horizon", "tol_truncation", "tol_mix"])
    @pytest.mark.parametrize("value", [0.0, -1e-6, float("nan"), float("inf")])
    def test_settings_must_be_finite_and_positive(self, name, value):
        # a zero or negative tol_truncation would double the truncation to
        # TRUNCATION_CAP, and a NaN horizon fail only in the step count
        with pytest.raises(ValueError, match=f"^{name} must be finite and positive, got {value:g}$"):
            SolveSettings(**{name: value})

    def test_step_count_capped(self):
        assert SolveSettings(step=0.5, horizon=MAX_STEPS * 0.5).horizon == MAX_STEPS * 0.5
        with pytest.raises(ValueError, match=r"^horizon / step must be at most 1e\+08 steps, got 1e\+20$"):
            SolveSettings(n=16, horizon=1e17)
        for step, horizon in ((0.5, (MAX_STEPS + 1) * 0.5), (5e-324, 1.0)):
            with pytest.raises(ValueError, match="^horizon / step must be at most"):
                SolveSettings(step=step, horizon=horizon)
        # one step to the horizon, but no whole number of steps per period
        with pytest.raises(ValueError, match=r"^1 / step must be finite, got step 4\.94066e-324$"):
            SolveSettings(step=5e-324, horizon=5e-324)

    def test_step_rounds_down_to_whole_steps_per_period(self):
        settings = SolveSettings(step=0.003)
        assert settings.step == 1 / 334 and replace(settings, step=settings.step / 2).step == 1 / 668
        assert SolveSettings(step=0.03).step == 1 / 34 and SolveSettings(step=8.0).step == 1.0
        # a step 1/k keeps its float, and so do 8 halvings of it
        for step in (1e-3, 0.004, 0.02, 0.125, 0.5):
            for _ in range(9):
                assert SolveSettings(step=step).step == step
                step /= 2

    def test_stiff_rates_trigger_step_failure(self):
        spec = ModelSpec(RateFunction.fixed(100.0), RateFunction.fixed(50.0), RateFunction.fixed(50.0))
        with pytest.raises(StepSizeError):
            integrate(spec, SolveSettings(n=16, step=0.02, horizon=1.0), empty_start(16))

    def test_stiff_rates_fail_on_period_propagators_and_halving_recovers(self, monkeypatch):
        spec = ModelSpec(RateFunction.fixed(100.0), RateFunction.fixed(50.0), RateFunction.fixed(50.0))
        st = SolveSettings(n=16, step=0.02, horizon=5.0)
        taken = record_paths(monkeypatch)
        with pytest.raises(StepSizeError, match="halve the step"):
            integrate(spec, st, empty_start(16))
        assert taken == ["periods"]
        taken.clear()
        reg = limiting_regime(spec, st)
        assert reg.from_empty.step == reg.from_far.step == 0.005
        assert taken[-2:] == ["periods", "periods"]
        assert reg.t_mix == pytest.approx(2.67, abs=0.01)


class TestStepBlocks:
    @pytest.mark.parametrize("target, horizon, stride", [
        (8000, 2.5, 1),
        (1000, 2.5, 3),  # 341 samples of 3 steps to a block: the stride does not divide RATE_CHUNK
        (1000, 2.499, 3),  # 2,999 steps: the last sample is step 2,999, two steps after the one before
    ], ids=["stride1", "stride3", "off-stride-horizon"])
    def test_projected_once_per_block(self, ex3_spec, monkeypatch, target, horizon, stride):
        monkeypatch.setattr(solver, "SAMPLE_TARGET", target)
        # 1,200 maps of 17 x 64 exceed the budget: the step path, with a period that 3 divides
        n, step = 64, 1 / 1200
        n_steps, got, _ = solver.sample_grid(horizon, step)
        assert got == stride and n_steps > RATE_CHUNK
        taken = record_paths(monkeypatch)
        traj = integrate(ex3_spec, SolveSettings(n=n, step=step, horizon=horizon), far_start(n))
        assert taken == ["steps"]
        states, _ = reference_rk4(ex3_spec, n, step, horizon, far_start(n), block=RATE_CHUNK // stride * stride)
        assert np.array_equal(traj.probs, states[np.minimum(np.arange(len(traj.times)) * stride, n_steps)])

    @pytest.mark.parametrize("step", [0.003, 0.02])  # the step path, then the propagator build
    def test_overflow_fails_the_step_without_a_warning(self, monkeypatch, step):
        # the suite turns numpy's overflow and invalid-value warnings into errors
        if step == 0.003:  # 1/334, whose propagators would fit the budget
            take_steps(monkeypatch)
        spec = ModelSpec(RateFunction.fixed(1000.0), RateFunction.fixed(1000.0), RateFunction.fixed(1000.0))
        with pytest.raises(StepSizeError, match="halve the step"):
            integrate(spec, SolveSettings(n=16, step=step, horizon=5.0), empty_start(16))

    def test_overflowing_solve_halves_to_a_stable_step(self):
        spec = ModelSpec(RateFunction.fixed(1000.0), RateFunction.fixed(1000.0), RateFunction.fixed(1000.0))
        reg = limiting_regime(spec, SolveSettings(n=16, step=0.02, horizon=5.0))
        assert reg.from_empty.step == reg.from_far.step == 0.0003125


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
    def test_bit_identical_to_scalar_stage_rates(self, kind, monkeypatch):
        spec = self.SPECS[kind]
        # 1,000 maps of 17 x 64 exceed the budget: the step path, over three periods
        n, step, horizon = 64, 1e-3, 3.0
        assert round(horizon / step) > RATE_CHUNK
        taken = record_paths(monkeypatch)
        traj = integrate(spec, SolveSettings(n=n, step=step, horizon=horizon), far_start(n))
        assert taken == ["steps"]
        states, defects = reference_rk4(spec, n, step, horizon, far_start(n))
        idx = np.round(traj.times / step).astype(int)
        assert idx[-1] == len(states) - 1
        assert np.array_equal(traj.times, idx * step)
        assert np.array_equal(traj.probs, states[idx])
        # summed block by block, as the step path checks the steps
        blocks = np.split(defects[1:], range(RATE_CHUNK, len(defects) - 1, RATE_CHUNK))
        assert traj.defect_per_unit_time == sum(float(np.sum(d)) for d in blocks) / horizon

    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_period_propagators_match_scalar_stage_rates(self, kind, monkeypatch):
        spec = self.SPECS[kind]
        n, step, horizon = 16, 1e-3, 5.0
        taken = record_paths(monkeypatch)
        traj = integrate(spec, SolveSettings(n=n, step=step, horizon=horizon), far_start(n))
        assert taken == ["periods"]
        # a table breakpoint that a stage time hits falls on the same side in every period
        states, _ = reference_rk4(spec, n, step, horizon, far_start(n))
        idx = np.round(traj.times / step).astype(int)
        assert idx[-1] == len(states) - 1
        assert np.array_equal(traj.times, idx * step)
        assert np.max(np.abs(traj.probs - states[idx])) <= 1e-12

    @pytest.mark.parametrize("path, n, step, per_period, periods", [
        ("steps", 64, 1e-3, None, None),
        ("periods", 8, 1e-4, 10_000, 4),
        ("maps", 16, 5e-4, 2_000, 1.5),
    ], ids=["steps", "periods", "maps"])
    def test_rates_evaluated_in_bounded_chunks(self, ex3_spec, monkeypatch, path, n, step, per_period, periods):
        sizes = []
        original = RateFunction.__call__

        def counting(self, t, waves=None):
            sizes.append(np.size(t))
            return original(self, t, waves)

        monkeypatch.setattr(RateFunction, "__call__", counting)
        taken = record_paths(monkeypatch)
        # the steps path evaluates every step's rates, the periods and maps paths one period's
        n_steps = 2 * RATE_CHUNK + 100 if per_period is None else round(periods * per_period)
        integrate(ex3_spec, SolveSettings(n=n, step=step, horizon=n_steps * step), empty_start(n))
        assert taken == [path]
        full, rest = divmod(n_steps if per_period is None else per_period, RATE_CHUNK)
        assert sizes == [3 * RATE_CHUNK] * (3 * full) + [3 * rest] * 3


class TestPeriodPropagators:
    @pytest.mark.parametrize("n, step, horizon, path", [
        (16, 0.003, 6.0, "periods"),  # 0.003 rounds down to 1/334
        (16, 1e-3, 1.5, "maps"),  # fewer than 16**2 / 160 = 1.6 periods do not pay for the propagators
        (16, 1e-3, 2.0, "periods"),
        (64, 0.02, 25.0, "maps"),  # 25.6 periods at n = 64
        (64, 0.02, 40.0, "periods"),
        (128, 0.02, 40.0, "maps"),  # truncate-heavy's n = 128 level: 102.4 periods at n = 128
        (128, 0.02, 110.0, "periods"),  # 50 propagators of 128 x 128 fit the budget
        (128, 0.004, 40.0, "maps"),  # 125 propagators of 128 x 128 exceed it, 250 maps of 17 x 128 do not
        (256, 0.02, 40.0, "maps"),
        (64, 1e-3, 10.0, "steps"),  # 1,000 maps of 17 x 64 exceed the budget too
        (256, 0.004, 40.0, "steps"),  # and 250 maps of 17 x 256
    ])
    def test_path_selection(self, ex1_spec, monkeypatch, n, step, horizon, path):
        assert BUILD_PERIODS_N2 == 160 and PROPAGATOR_BUDGET == 8 << 20
        taken = record_paths(monkeypatch)
        integrate(ex1_spec, SolveSettings(n=n, step=step, horizon=horizon), empty_start(n))
        assert taken == [path]

    def test_grid_off_the_period_takes_maps(self):
        # 50,500 steps are 6,312 sample intervals of 8 steps and 4 steps more
        assert solver._sample_stride(50_500, 1e-3) == 8
        assert solver._path(16, 1e-3, 50_500, 8) == "maps"
        assert solver._path(16, 1e-3, 50_000, 8) == "periods"
        # a stride of two periods does not divide the period
        assert solver._sample_stride(500_000, 0.02) == 100
        assert solver._path(16, 0.02, 500_000, 100) == "maps"

    @pytest.mark.parametrize("example, n, step, horizon", [
        ("ex1_spec", 16, 0.004, 10.0),
        ("ex3_spec", 64, 0.01, 30.0),
    ])
    @pytest.mark.parametrize("start", [empty_start, far_start])
    def test_matches_vector_path(self, request, monkeypatch, example, n, step, horizon, start):
        spec = request.getfixturevalue(example)
        taken = record_paths(monkeypatch)
        traj = integrate(spec, SolveSettings(n=n, step=step, horizon=horizon), start(n))
        assert taken == ["periods"]
        probs, mean = vector_path(spec, n, step, horizon, start(n))
        assert np.max(np.abs(traj.probs - probs)) <= 1e-12
        assert np.all(np.abs(traj.mean - mean) <= 1e-12 * np.maximum(1.0, np.abs(mean)))
        assert traj.defect_per_unit_time < 1e-8
        assert traj.min_entry_pre >= -1e-9


class TestStackedStarts:
    """With n given, the empty and the far start run on one build of the operator."""

    @pytest.mark.parametrize("n, step, horizon, path, shape", [
        (16, 0.004, 10.0, "periods", (48, 16)),
        (40, 0.003, 3.0, "steps", (120, 40)),
        (130, 0.003, 1.0, "steps", (3, 5, 130)),  # the band
        (40, 0.02, 3.0, "maps", (120, 40)),
        (130, 0.02, 3.0, "maps", (3, 5, 130)),
    ])
    def test_each_row_is_its_start_alone(self, ex3_spec, monkeypatch, n, step, horizon, path, shape):
        if path == "steps":  # the maps of 1/334 would fit the budget
            take_steps(monkeypatch)
        st = SolveSettings(n=n, step=step, horizon=horizon)
        taken = record_paths(monkeypatch)
        shapes = record_generators(monkeypatch)
        builds = record_builds(monkeypatch)
        maps = record_maps(monkeypatch)
        both = solver._both_starts(ex3_spec, st)
        assert taken == [path] * 2 and shapes == {shape}
        assert builds == ([(n, step)] if path != "steps" else [])
        assert [layout for layout, *_ in maps] == ([shape] if path == "maps" else []) and maps_are_probed(maps)
        for traj, start in zip(both, (empty_start(n), far_start(n))):
            alone = integrate(ex3_spec, st, start)
            assert np.array_equal(traj.times, alone.times)
            assert np.array_equal(traj.probs, alone.probs)
            assert np.array_equal(traj.mean, alone.mean)
            assert traj.defect_per_unit_time == alone.defect_per_unit_time
            assert traj.min_entry_pre == alone.min_entry_pre

    def test_stack_validation(self, ex1_spec):
        st = SolveSettings(n=16, step=0.004, horizon=10.0)
        with pytest.raises(ValueError, match="length n=16"):
            integrate(ex1_spec, st, np.stack([empty_start(16), far_start(16)]))  # one start at a time
        with pytest.raises(ValueError, match="length n=16"):
            integrate(ex1_spec, st, empty_start(8))
        start = far_start(16)
        start[0] = 0.5
        with pytest.raises(ValueError, match="probability"):
            integrate(ex1_spec, st, start)
        with pytest.raises(ValueError, match="probability"):
            integrate(ex1_spec, st, np.full(16, np.nan))


class TestBandedGenerator:
    # rho = 0.95: the doubling search runs to n = 256 on this model
    HEAVY = ModelSpec(RateFunction.trig(3.8, [(3.8, "sin", 1)]), RateFunction.fixed(2.0), RateFunction.fixed(2.0))

    def test_crossover(self):
        assert solver._generator(BAND_MIN_N - 1).shape == (3 * (BAND_MIN_N - 1), BAND_MIN_N - 1)
        assert solver._generator(BAND_MIN_N).shape == (3, 5, BAND_MIN_N)

    @pytest.mark.parametrize("n", [5, 16, BAND_MIN_N - 1, BAND_MIN_N, 300])
    @pytest.mark.parametrize("shape", [(), (7,), (64,)], ids=["vector", "block7", "block64"])
    def test_band_product_matches_dense(self, n, shape):
        rng = np.random.default_rng(n)
        parts = rate_parts(n, conservative=True)
        bands = _rate_bands(n, True)
        for _ in range(5):
            stage = rng.uniform(0.0, 10.0, (3, 3))
            X = rng.standard_normal((n,) + shape)
            rhs = solver._band_stages(bands, stage, X.shape)
            for i in range(3):
                dense = np.tensordot(stage[i], parts, 1) @ X
                banded = rhs(i, X)
                assert banded.shape == X.shape
                assert np.max(np.abs(banded - dense)) <= 1e-15 * np.max(np.abs(dense))

    @pytest.mark.parametrize("n", [BAND_MIN_N, 300, TRUNCATION_CAP])
    @pytest.mark.parametrize("shape", [(), (7,), (64,)], ids=["vector", "block7", "block64"])
    def test_fused_step_matches_four_band_products(self, n, shape):
        rng = np.random.default_rng(n)
        bands = _rate_bands(n, True)
        h = 0.02
        for _ in range(3):
            stage = rng.uniform(0.0, 10.0, (3, 3))
            X = rng.standard_normal((n,) + shape)
            want = reference_band_step(bands, stage, h, X)
            got = solver._rk4_step(bands, stage, h, X)
            assert got.shape == X.shape
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [128, 256])
    @pytest.mark.parametrize("start", [empty_start, far_start])
    @pytest.mark.parametrize("step, path", [(0.015, "steps"), (0.02, "maps")])
    def test_step_path_matches_dense_oracle(self, monkeypatch, n, start, step, path):
        horizon = 3.0
        if path == "steps":  # the maps of 1/67 would fit the budget
            take_steps(monkeypatch)
        taken = record_paths(monkeypatch)
        shapes = record_generators(monkeypatch)
        maps = record_maps(monkeypatch)
        traj = integrate(self.HEAVY, SolveSettings(n=n, step=step, horizon=horizon), start(n))
        assert taken == [path] and shapes == {(3, 5, n)}
        assert [layout for layout, *_ in maps] == ([(3, 5, n)] if path == "maps" else []) and maps_are_probed(maps)
        states, _ = reference_rk4(self.HEAVY, n, traj.step, horizon, start(n))
        idx = np.round(traj.times / traj.step).astype(int)
        assert idx[-1] == len(states) - 1
        assert np.max(np.abs(traj.probs - states[idx])) <= 1e-12

    def test_period_propagators_on_the_band(self, monkeypatch):
        # 10,000 steps at stride 2: 25 propagators of 128 x 128 fit the budget
        n, step, horizon = 128, 0.02, 200.0
        taken = record_paths(monkeypatch)
        shapes = record_generators(monkeypatch)
        traj = integrate(self.HEAVY, SolveSettings(n=n, step=step, horizon=horizon), far_start(n))
        assert taken == ["periods"] and shapes == {(3, 5, n)}
        states, _ = reference_rk4(self.HEAVY, n, step, horizon, far_start(n))
        idx = np.round(traj.times / step).astype(int)
        assert np.max(np.abs(traj.probs - states[idx])) <= 1e-12

    @pytest.mark.parametrize("start", [empty_start, far_start])
    def test_period_propagators_at_stride_one(self, monkeypatch, start):
        # 5,500 steps, a sample after every one
        n, step, horizon = 128, 0.02, 110.0
        assert solver.sample_grid(horizon, step)[1] == 1
        taken = record_paths(monkeypatch)
        traj = integrate(self.HEAVY, SolveSettings(n=n, step=step, horizon=horizon), start(n))
        assert taken == ["periods"]
        states, _ = reference_rk4(self.HEAVY, n, step, horizon, start(n))
        assert traj.probs.shape == states.shape
        assert np.max(np.abs(traj.probs - states)) <= 1e-12

    def test_search_accepts_128(self, monkeypatch):
        shapes = record_generators(monkeypatch)
        maps = record_maps(monkeypatch)
        probed = record_probes(monkeypatch)
        settings = SolveSettings(step=0.02, horizon=40.0)
        assert choose_truncation(self.HEAVY, settings) == 128
        assert {(3, 5, 128), (3, 5, 256)} <= shapes
        assert [layout for layout, *_ in maps] == [(3, 5, 128), (3, 5, 256)] and maps_are_probed(maps)
        # both band levels tile their maps from one probe on 18 states, run once per search
        assert probed == [((3, 5, 18), 0.02)]
        assert choose_truncation(self.HEAVY, settings) == 128
        assert probed == [((3, 5, 18), 0.02)] * 2

    def test_operator_and_one_step_take_linear_memory(self):
        n, step = TRUNCATION_CAP, 0.02
        stage = next(solver._step_rates(self.HEAVY, step, 0, 1))
        p = far_start(n)
        tracemalloc.start()
        try:
            R = solver._generator(n)
            q = solver._rk4_step(R, stage, step, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert R.shape == (3, 5, n)
        assert abs(q.sum() - 1.0) < 1e-12
        assert peak < 4e6  # the dense (3n, n) stack alone would take 403 MB


class TestStepMaps:
    HEAVY = TestBandedGenerator.HEAVY
    TABLE = TestChunkedRates.SPECS["table"]  # breakpoints 0.3, 0.5 and 0.75 on stage times at step 0.02

    @pytest.mark.parametrize("n", [5, 16, 130, 256])  # at n = 5 the 17-column probe is wider than n
    def test_maps_are_the_step_on_the_identity(self, n):
        step, per_unit = 0.02, 50
        R = solver._generator(n)
        maps = solver._step_maps(self.HEAVY, R, step)
        assert maps.shape == (per_unit, 17, n)
        offsets = np.subtract.outer(np.arange(n), np.arange(n))  # row - column
        for s, stage in enumerate(solver._step_rates(self.HEAVY, step, 0, per_unit)):
            M = solver._rk4_step(R, stage, step, np.eye(n))
            assert np.all(M[np.abs(offsets) > 8] == 0.0)
            for d in range(-8, 9):
                j = np.arange(max(0, -d), min(n, n - d))
                want = M[j + d, j]
                assert np.all(np.abs(maps[s, 8 + d, j] - want) <= 2 * np.spacing(np.abs(want)))
                assert np.all(np.delete(maps[s, 8 + d], j) == 0.0)

    @pytest.mark.parametrize("kind", sorted(TestChunkedRates.SPECS))
    @pytest.mark.parametrize("step", [0.02, 0.004])
    @pytest.mark.parametrize("n", [19, 128, 130, 256, 1024])
    def test_tiled_maps_are_the_full_probe(self, monkeypatch, kind, step, n):
        # on the band the maps are probed on 18 states and tiled: columns 0..9 and the last 7
        # read A's irregular columns, and column 10 repeats in between, the same floats bit for bit
        spec = TestChunkedRates.SPECS[kind]
        R = _rate_bands(n, conservative=True)
        probed = record_probes(monkeypatch)
        maps = solver._step_maps(spec, R, step)
        assert probed == [((3, 5, 18), step)]
        assert maps.shape == (round(1 / step), 17, n)
        assert maps.tobytes() == solver._probed_maps(spec, R, step).tobytes()

    @pytest.mark.parametrize("n, step, horizon", [(16, 0.01, 1.5), (40, 0.004, 9.0), (64, 0.02, 20.0), (130, 0.02, 20.0)])
    @pytest.mark.parametrize("start", [empty_start, far_start])
    def test_band_steps_match_stage_steps(self, ex3_spec, monkeypatch, n, step, horizon, start):
        taken = record_paths(monkeypatch)
        traj = integrate(ex3_spec, SolveSettings(n=n, step=step, horizon=horizon), start(n))
        assert taken == ["maps"]
        probs, mean = vector_path(ex3_spec, n, step, horizon, start(n))
        assert np.max(np.abs(traj.probs - probs)) <= 1e-13
        assert np.all(np.abs(traj.mean - mean) <= 1e-13 * np.maximum(1.0, np.abs(mean)))
        assert traj.defect_per_unit_time < 1e-8 and traj.min_entry_pre >= -1e-9

    @pytest.mark.parametrize("n", [64, 130])
    def test_table_breakpoint_on_a_stage_time(self, monkeypatch, n):
        # every path takes the first period's stage rates, so a breakpoint on a stage time
        # falls on the same side in every period and the three paths integrate one system
        step, horizon = 0.02, 10.0
        taken = record_paths(monkeypatch)
        traj = integrate(self.TABLE, SolveSettings(n=n, step=step, horizon=horizon), far_start(n))
        assert taken == ["maps"]
        states, _ = reference_rk4(self.TABLE, n, step, horizon, far_start(n))
        assert np.max(np.abs(traj.probs - states)) <= 1e-13
        for path in ("periods", "steps"):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(solver, "_path", lambda *args, path=path: path)
                other = integrate(self.TABLE, SolveSettings(n=n, step=step, horizon=horizon), far_start(n))
            assert np.max(np.abs(traj.probs - other.probs)) <= 1e-13

    def test_truncate_heavy_levels(self, monkeypatch):
        # the search at rho = 0.95 steps with the maps from n = 128 on and still accepts 128
        taken = record_paths(monkeypatch)
        builds = record_builds(monkeypatch)
        assert choose_truncation(self.HEAVY, SolveSettings(step=0.02, horizon=40.0)) == 128
        assert taken == ["periods"] * 3 + ["maps"] * 2
        assert builds == [(n, 0.02) for n in (16, 32, 64, 128, 256)]

    def test_unstable_step_halves_without_a_warning(self, ex3_spec, monkeypatch):
        # the suite turns numpy's overflow and invalid-value warnings into errors
        taken = record_paths(monkeypatch)
        reg = limiting_regime(ex3_spec, SolveSettings(step=0.125, horizon=80.0))
        assert "maps" in taken
        assert reg.from_empty.step == reg.from_far.step == 0.03125
        assert reg.from_empty.n == 64


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


class TestLimitingRegime:
    def test_light_traffic_merges_before_horizon(self, ex1_regime):
        assert ex1_regime.t_mix <= 50.0
        first_gap = np.sum(np.abs(ex1_regime.from_empty.probs[0] - ex1_regime.from_far.probs[0]))
        assert first_gap == pytest.approx(2.0, abs=1e-12)

    def test_cycle_window_is_one_period(self, ex1_regime):
        cyc = ex1_regime.cycle
        assert cyc.times[0] == pytest.approx(np.ceil(ex1_regime.t_mix), abs=1e-9)
        assert cyc.times[-1] - cyc.times[0] == pytest.approx(1.0, abs=1e-9)

    def test_merged_mean_is_one_periodic(self, ex1_regime):
        traj = ex1_regime.from_empty
        window = (traj.times >= 48.0 - 1e-9) & (traj.times <= 49.0 + 1e-9)
        shifted = (traj.times >= 49.0 - 1e-9) & (traj.times <= 50.0 + 1e-9)
        assert np.max(np.abs(traj.mean[window] - traj.mean[shifted])) < 1e-4

    def test_samples_whole_periods_apart_still_give_a_cycle(self, ex1_spec, monkeypatch):
        st = SolveSettings(n=16, step=0.004, horizon=20.0)
        default = limiting_regime(ex1_spec, st).cycle
        # 5,000 steps at a stride of 500 put the samples two periods apart
        monkeypatch.setattr(solver, "SAMPLE_TARGET", 10)
        assert solver.sample_grid(20.0, 0.004)[1] == 500
        reg = limiting_regime(ex1_spec, st)
        cyc = reg.cycle
        assert len(cyc.times) == 11 and cyc.times[0] == reg.t_mix
        assert np.allclose(np.diff(cyc.times), 0.1, rtol=0.0, atol=1e-12)
        # the same phases of the default run's cycle, one sample in 25
        assert len(default.times) == 251 and default.times[0] == round(default.times[0])
        assert np.max(np.abs(cyc.mean - default.mean[::25])) <= (16 - 1) * st.tol_mix

    def test_constant_rates_give_constant_cycle(self, ex1_spec):
        reg = limiting_regime(ex1_spec.averaged(), SolveSettings(n=16, horizon=25.0))
        assert np.max(np.abs(reg.cycle.probs - reg.cycle.probs[0])) < 1e-8

    def test_short_horizon_raises_with_the_gap_at_the_horizon(self, ex1_spec):
        with pytest.raises(MixingHorizonError, match=r"within horizon 5 \(l1 gap 0\.546 at t = 5\)$"):
            limiting_regime(ex1_spec, SolveSettings(n=16, horizon=5.0))

    def test_search_trajectory_reused(self, ex1_spec):
        st = SolveSettings(step=0.004, horizon=20.0)
        reg = limiting_regime(ex1_spec, st)
        n = choose_truncation(ex1_spec, st)
        assert reg.from_empty.n == reg.from_far.n == n
        for traj, start in ((reg.from_empty, empty_start), (reg.from_far, far_start)):
            ref = integrate(ex1_spec, replace(st, n=n), start(n))
            assert np.array_equal(traj.probs, ref.probs)
            assert np.array_equal(traj.times, ref.times)
            assert traj.defect_per_unit_time == ref.defect_per_unit_time
            assert traj.min_entry_pre == ref.min_entry_pre

    def test_search_reuse_keeps_three_integrations(self, ex1_spec, monkeypatch):
        # solve-light: n = 16 and 32 from empty, then n = 16 from far on the n = 16 propagators
        calls = record_trajectories(monkeypatch)
        builds = record_builds(monkeypatch)
        st = SolveSettings(step=0.004, horizon=20.0)
        limiting_regime(ex1_spec, st)
        assert calls == [(16, 0.004, 0), (32, 0.004, 0), (16, 0.004, 15)]
        assert builds == [(16, 0.004), (32, 0.004)]
        calls.clear()
        choose_truncation(ex1_spec, st)
        assert calls == [(16, 0.004, 0), (32, 0.004, 0)]

    def test_fixed_n_builds_the_propagators_once(self, ex1_spec, monkeypatch):
        st = SolveSettings(n=16, step=0.004, horizon=50.0)
        builds = record_builds(monkeypatch)
        reg = limiting_regime(ex1_spec, st)
        assert builds == [(16, 0.004)]
        for traj, start in ((reg.from_empty, empty_start), (reg.from_far, far_start)):
            alone = integrate(ex1_spec, st, start(16))
            assert np.array_equal(traj.times, alone.times)
            assert np.array_equal(traj.probs, alone.probs)
            assert traj.defect_per_unit_time == alone.defect_per_unit_time
            assert traj.min_entry_pre == alone.min_entry_pre
        assert builds == [(16, 0.004)] * 3

    def test_step_halving_builds_again(self, monkeypatch):
        spec = ModelSpec(RateFunction.fixed(100.0), RateFunction.fixed(50.0), RateFunction.fixed(50.0))
        builds = record_builds(monkeypatch)
        reg = limiting_regime(spec, SolveSettings(n=16, step=0.02, horizon=5.0))
        assert reg.from_empty.step == 0.005
        assert builds == [(16, 0.02), (16, 0.01), (16, 0.005)]

    def test_far_initial_state_rule(self):
        assert far_initial_state(16) == 15
        assert far_initial_state(101) == 100
        assert far_initial_state(128) == 100
        assert far_start(128)[100] == 1.0


class TestStepHalving:
    STIFF = ModelSpec(RateFunction.fixed(60.0), RateFunction.fixed(50.0), RateFunction.fixed(50.0))
    FAST_SERVICE = ModelSpec(RateFunction.fixed(0.5), RateFunction.fixed(20.0), RateFunction.fixed(20.0))
    LIGHT = ModelSpec(RateFunction.fixed(1.0), RateFunction.fixed(2.0), RateFunction.fixed(2.0))
    # spec, settings, the step the solve ends at, the accepted n
    CASES = {
        # steps 0.02 and 0.01 overshoot at the first search level
        "stiff-search": (STIFF, SolveSettings(step=0.02, horizon=8.0), 0.005, 64),
        # 0.03 rounds down to 1/34, and only the far start fails there
        "far-start-n16": (FAST_SERVICE, SolveSettings(n=16, step=0.03, horizon=3.0), 1 / 68, 16),
        "far-start-search": (FAST_SERVICE, SolveSettings(step=0.03, horizon=3.0), 1 / 68, 16),
        # a failure at the second search level, after the first one passed
        "forced-at-n32": (LIGHT, SolveSettings(step=0.01, horizon=20.0), 0.005, 16),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_halved_solve_equals_solve_started_at_final_step(self, case, monkeypatch):
        spec, st, final_step, n = self.CASES[case]
        calls = record_trajectories(monkeypatch, fail_at=(32, 0.01) if case == "forced-at-n32" else None)
        halved = limiting_regime(spec, st)
        if case == "forced-at-n32":
            assert calls == [(16, 0.01, 0), (32, 0.01, 0), (16, 0.005, 0), (32, 0.005, 0), (16, 0.005, 15)]
        direct = limiting_regime(spec, replace(st, step=final_step))
        assert np.array_equal(halved.from_empty.times, halved.from_far.times)
        for got, want in ((halved.from_empty, direct.from_empty), (halved.from_far, direct.from_far)):
            assert got.n == want.n == n
            assert got.step == final_step
            assert got.defect_per_unit_time < 1e-8
            assert np.array_equal(got.times, want.times)
            assert np.array_equal(got.probs, want.probs)
        if st.n is None:
            assert choose_truncation(spec, st) == n


class TestDecayFit:
    def test_fit_matches_known_rate(self, ex1_regime):
        fit = decay_fit(ex1_regime.from_empty, ex1_regime.from_far)
        # spectral gap of the truncated system is near 1.07 at n=16
        assert fit.beta_hat == pytest.approx(1.07, abs=0.05)
        assert fit.n_points >= 10

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
