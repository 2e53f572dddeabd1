import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings
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
from twoproc.model import ModelSpec, RateFunction, period_grid

TABLE_SPEC = ModelSpec(
    RateFunction.piecewise([(0.0, 3.0), (0.3, 1.0), (0.7, 5.0)]),
    RateFunction.trig(4.0, [(2.0, "cos", 2), (1.0, "sin", 1)]),
    RateFunction.trig(0.5, [(0.25, "cos", 2)]),
)
CONSTANT_SPEC = ModelSpec(RateFunction.fixed(2.0), RateFunction.fixed(1.5), RateFunction.fixed(1.0))
# the squeeze's edges: thresholds that move fastest within a cell, and a
# table whose zero segments and mu2 = 0 put bounds at u = 0 and pf = ps
HARMONIC_SPEC = ModelSpec(RateFunction.trig(10.0, [(10.0, "sin", 1000)]),
                          RateFunction.trig(3.0, [(2.0, "cos", 999)]), RateFunction.fixed(0.5))
ZERO_SEGMENT_SPEC = ModelSpec(RateFunction.piecewise([(0.0, 3.0), (0.25, 0.0), (0.6, 6.0)]),
                              RateFunction.piecewise([(0.0, 2.0), (0.5, 0.0), (0.8, 4.0)]), RateFunction.fixed(0.0))


def path_bytes(mass: float) -> int:
    """Bytes `estimate_probs` counts per path of a block up to the Lambda-mass `mass`."""
    window = mcsim._draw_window(mass, _candidate_budget(mass))
    return 16 * window + 8 * mcsim._SCAN_ARRAYS * mcsim._CHUNK


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


@st.composite
def rate_functions(draw, top: float) -> RateFunction:
    """A constant, a trigonometric rate with harmonics up to 1000, or a table with a 7e-5 segment."""
    kind = draw(st.sampled_from(("constant", "trig", "table")))
    if kind == "constant":
        return RateFunction.fixed(draw(st.floats(0.0, top)))
    if kind == "trig":
        terms = [(draw(st.floats(-top / 3, top / 3)), draw(st.sampled_from(("sin", "cos"))),
                  draw(st.integers(1, 1000))) for _ in range(draw(st.integers(1, 3)))]
        return RateFunction.trig(sum(abs(a) for a, _, _ in terms) + draw(st.floats(0.0, top / 4)), terms)
    spike = draw(st.floats(0.01, 0.98))
    breaks = sorted({0.0, spike, spike + 7e-5, *draw(st.lists(st.floats(0.001, 0.999), max_size=4))})
    return RateFunction.piecewise([(b, draw(st.floats(0.0, top))) for b in breaks])


@st.composite
def rate_models(draw) -> ModelSpec:
    """Mixed rate families; mu2 is zero or a pointwise fraction of mu1."""
    lam, mu1 = draw(rate_functions(100.0)), draw(rate_functions(50.0))
    f = draw(st.sampled_from((0.0, 0.5, 1.0)))
    if mu1.table is not None:
        mu2 = RateFunction.piecewise([(b, f * v) for b, v in mu1.table])
    else:
        mu2 = RateFunction.trig(f * mu1.constant, [(f * h.amplitude, h.kind, h.harmonic) for h in mu1.harmonics])
    return ModelSpec(lam, mu1, mu2)


def majorant_at(maj: mcsim.Majorant, t: np.ndarray) -> np.ndarray:
    """M(t)."""
    return maj.top[np.searchsorted(maj.start, t - np.floor(t), side="right") - 1]


class TestMajorant:
    @hyp_settings(max_examples=30, deadline=None, derandomize=True)
    @given(rate_models())
    # lambda = 10 + 10 sin(2 pi 1000 t) peaks between the points of a 10^4-point
    # grid; the total rate reaches 21 at t = 1/4000
    @example(ModelSpec(RateFunction.trig(10.0, [(10.0, "sin", 1000)]), RateFunction.fixed(0.5),
                       RateFunction.fixed(0.5)))
    # lambda = 100 on a 7e-5 segment between the points of the 10^4-point grid
    @example(ModelSpec(RateFunction.piecewise([(0.0, 1.0), (0.50001, 100.0), (0.50008, 1.0)]),
                       RateFunction.fixed(2.0), RateFunction.fixed(2.0)))
    def test_dominates_the_total_rate(self, spec):
        maj = mcsim.majorant(spec)
        breaks = [b for r in (spec.lam, spec.mu1, spec.mu2) for b, _ in r.table or ()]
        t = np.concatenate([np.random.default_rng(0).random(100_000) * 20.0, period_grid(spec.lam, spec.mu1, spec.mu2),
                            maj.start[:-1], np.arange(256) / 256, np.nextafter(np.array(breaks), 0.0)])
        lam, mu1, mu2 = spec.rates(t)
        assert np.all(majorant_at(maj, t) >= lam + mu1 + mu2)
        assert compute_rate_bound(spec) == np.max(maj.top)
        # every cell but the last has the same Lambda-mass, and the cells tile the period
        masses = maj.top * np.diff(maj.start)
        assert np.allclose(masses[:-1], maj.cell_mass, rtol=1e-12)
        assert masses[-1] <= maj.cell_mass * (1 + 1e-12)
        assert maj.period_mass == pytest.approx(float(np.sum(masses)), rel=1e-12)
        assert maj.start[0] == 0.0 and maj.start[-1] == 1.0

    @hyp_settings(max_examples=30, deadline=None, derandomize=True)
    @given(rate_models())
    @example(HARMONIC_SPEC)
    @example(ZERO_SEGMENT_SPEC)
    @example(ModelSpec(RateFunction.piecewise([(0.0, 1.0), (0.50001, 100.0), (0.50008, 1.0)]),
                       RateFunction.fixed(2.0), RateFunction.fixed(2.0)))
    def test_squeeze_bounds_hold(self, spec):
        maj = mcsim.majorant(spec)
        cells = len(maj.top)
        # phases by cell: dense inside it, at and beside its ends, and beside every breakpoint
        phases = [np.linspace(maj.start[g], maj.start[g + 1], 64) for g in range(cells)]
        for g in range(cells):
            ends = maj.start[[g, g + 1]]
            phases[g] = np.concatenate([phases[g], ends, np.nextafter(ends, -1.0), np.nextafter(ends, 2.0)])
        breaks = np.array([b for r in (spec.lam, spec.mu1, spec.mu2) for b, _ in r.table or ()])
        beside = np.concatenate([breaks, np.nextafter(breaks, -1.0), np.nextafter(breaks, 2.0)])
        holder = np.clip(np.searchsorted(maj.start, beside, side="right") - 1, 0, cells - 1)
        phases = [np.concatenate([phases[g], beside[holder == g]]) for g in range(cells)]
        # the production phases of masses a few units either side of each cell boundary
        bounds = np.arange(cells + 1) * maj.cell_mass
        bounds[-1] = maj.period_mass
        near = np.concatenate([bounds + k * maj.period_mass for k in (0, 1, 7, 1000)])
        masses = np.concatenate([near, *(np.nextafter(near, d) for d in (0.0, np.inf)),
                                 *(np.nextafter(np.nextafter(near, d), d) for d in (0.0, np.inf))])
        r, g_of = maj.cell(masses[masses >= 0.0])
        made, _ = maj.phase(r, g_of)
        phases = [np.concatenate([phases[g], made[g_of == g]]) for g in range(cells)]

        steps = np.arange(mcsim._BINS + 1) / mcsim._BINS
        u = np.concatenate([steps[:-1], np.nextafter(steps[1:], 0.0)])  # each bin's first and last u
        decided = maj.events.reshape(cells, mcsim._BINS)[:, (u * mcsim._BINS).astype(np.intp)]
        for g in range(cells):
            thresholds = np.array(mcsim._thresholds(*spec.rates(phases[g]), maj.inv[g]))
            assert np.all(maj.low[:, g, None] <= thresholds), g
            assert np.all(thresholds <= maj.high[:, g, None]), g
            # the event falls as any threshold rises, so a decided event that holds at the
            # thresholds' componentwise extremes over these phases holds at each of them
            for extreme in (thresholds.min(axis=1), thresholds.max(axis=1)):
                pa, pf, ps = extreme
                event = (u >= pa).astype(np.int64) + ((u >= pa) & (u >= pf)) + ((u >= pa) & (u >= pf) & (u >= ps))
                assert np.all((decided[g] < 0) | (decided[g] == event)), g

    def test_all_zero_rates_keep_paths_empty(self):
        zero = RateFunction.fixed(0.0)
        spec = ModelSpec(zero, zero, RateFunction.piecewise([(0.0, 0.0), (0.5, 0.0)]))
        assert compute_rate_bound(spec) > 0.0
        est = estimate_probs(spec, SimSettings(n_paths=200, seed=5, sample_times=(0.5, 3.0, 10.0)))
        assert est.counts[:, 0].tolist() == [200, 200, 200]


class TestTimeChange:
    """Lambda^-1 of unit-rate Poisson sums is a Poisson process of intensity M."""

    def test_counts_and_cells(self, ex3_spec):
        maj = mcsim.majorant(ex3_spec)
        n_paths, horizon = 10_000, 5.0
        target = maj.mass(horizon)
        draws = _path_draws(8, np.arange(n_paths), 2 * _candidate_budget(target))
        mass = np.cumsum(-np.log1p(-draws[:, ::2]), axis=1)
        assert np.all(mass[:, -1] > target)  # the budget covers [0, horizon]
        phase, inv = maj.phase(*maj.cell(mass))
        times = np.floor(mass / maj.period_mass) + phase
        inside = times < horizon
        counts = inside.sum(axis=1)
        mean_se = math.sqrt(target / n_paths)
        assert abs(counts.mean() - target) <= 4.0 * mean_se
        var_se = math.sqrt((target + 2.0 * target**2) / n_paths)
        assert abs(counts.var(ddof=1) - target) <= 4.0 * var_se
        # candidates per half cell against their Lambda-masses (horizon is whole periods)
        mids = (maj.start[:-1] + maj.start[1:]) / 2.0
        edges = np.sort(np.concatenate([maj.start, mids]))
        expected = n_paths * horizon * np.repeat(maj.top, 2) * np.diff(edges)
        got = np.bincount(np.searchsorted(edges, phase[inside], side="right") - 1, minlength=len(expected))
        assert np.sum(got) == np.sum(counts)
        assert np.array_equal(inv[inside], 1.0 / maj.top[np.searchsorted(maj.start, phase[inside], side="right") - 1])
        chi2 = float(np.sum((got - expected) ** 2 / expected))
        dof = len(expected) - 1
        wilson_hilferty = ((chi2 / dof) ** (1 / 3) - (1 - 2 / (9 * dof))) / math.sqrt(2 / (9 * dof))
        assert wilson_hilferty < 4.0


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
        # a stream continued from a multiple of 4 is the same slice of one long draw
        whole = _path_draws(seed, idx, 300)
        for start, count in ((4, 9), (12, 1), (128, 64), (256, 44)):
            assert np.array_equal(_path_draws(seed, idx, count, start=start), whole[:, start : start + count])

    def test_batch_rows_equal_single_paths(self, ex1_spec):
        settings = SimSettings(n_paths=300, seed=5, sample_times=(1.0, 4.0, 9.0))
        est_states = np.stack([simulate_path(ex1_spec, settings, i) for i in (0, 17, 299)])
        maj = mcsim.majorant(ex1_spec)
        budget = _candidate_budget(maj.mass(9.0))
        block = _run_block(
            ex1_spec, maj, np.asarray(settings.sample_times), settings.seed,
            np.arange(settings.n_paths), budget,
        )
        assert np.array_equal(block[[0, 17, 299]], est_states)


class TestColumnBlocks:
    """The column-block scan against the candidate-by-candidate reference."""

    @pytest.mark.parametrize("name", ["trig", "table", "constant", "harmonic-1000", "zero-segment"])
    @pytest.mark.parametrize("times", [(1.0, 5.0, 20.0), (0.0, 2.0, 2.0, 7.5)])
    def test_bit_identical_to_reference(self, ex3_spec, name, times):
        spec = {"trig": ex3_spec, "table": TABLE_SPEC, "constant": CONSTANT_SPEC,
                "harmonic-1000": HARMONIC_SPEC, "zero-segment": ZERO_SEGMENT_SPEC}[name]
        maj = mcsim.majorant(spec)
        st = np.asarray(times)
        budget = _candidate_budget(maj.mass(float(st.max())))
        idx = np.arange(5, 205)
        got = _run_block(spec, maj, st, 3, idx, budget)
        assert np.array_equal(got, reference_run_block(spec, maj, st, 3, idx, budget))

    @pytest.mark.parametrize("budget", [5, 40])
    def test_small_budget_reruns(self, ex3_spec, budget, monkeypatch):
        maj = mcsim.majorant(ex3_spec)
        st = np.array([1.0, 4.0])
        idx = np.arange(60)
        budgets = []
        run = mcsim._run_block

        def counted(*args, budget):
            budgets.append(budget)
            return run(*args, budget=budget)

        monkeypatch.setattr(mcsim, "_run_block", counted)
        got = mcsim._run_block(ex3_spec, maj, st, 4, idx, budget=budget)
        assert len(budgets) > 1  # the budget was too small and paths were rerun
        assert budgets == [budget << k for k in range(len(budgets))]
        assert np.array_equal(got, reference_run_block(ex3_spec, maj, st, 4, idx, budget))

    def test_draws_follow_the_scan(self, ex3_spec, monkeypatch):
        maj = mcsim.majorant(ex3_spec)
        st = np.array([1.0, 4.0])
        idx = np.arange(40)
        budget = _candidate_budget(maj.mass(4.0))
        calls = []
        draws = mcsim._path_draws

        def recorded(seed, paths, count, start=0):
            calls.append((len(paths), count, start))
            return draws(seed, paths, count, start)

        monkeypatch.setattr(mcsim, "_path_draws", recorded)
        monkeypatch.setattr(mcsim, "_draw_window", lambda mass, budget: mcsim._CHUNK)
        got = _run_block(ex3_spec, maj, st, 4, idx, budget)
        assert np.array_equal(got, reference_run_block(ex3_spec, maj, st, 4, idx, budget))
        # a first window of one column block for every path, then one column
        # block at a time for the paths still scanning, each from where its stream stopped
        assert len(calls) > 1 and calls[0] == (40, 2 * mcsim._CHUNK, 0)
        assert [start for _, _, start in calls] == [2 * mcsim._CHUNK * k for k in range(len(calls))]
        assert all(count == 2 * min(mcsim._CHUNK, budget - start // 2) for _, count, start in calls)
        live = [paths for paths, _, _ in calls]
        assert live == sorted(live, reverse=True) and live[-1] < 40

    @pytest.mark.parametrize("example", ["ex1_spec", "ex2_spec", "ex3_spec"])
    def test_draw_window_is_mostly_read(self, request, example, monkeypatch):
        # whole column blocks to Lambda(20) + 2.5 sqrt(Lambda(20)): 128 / 192 / 448 candidates
        spec = request.getfixturevalue(example)
        drawn, read = [], []
        draws, cell = mcsim._path_draws, mcsim.Majorant.cell

        def recorded(seed, paths, count, start=0):
            drawn.append((len(paths), count, start))
            return draws(seed, paths, count, start)

        def scanned(self, mass):
            read.append(mass.size)
            return cell(self, mass)

        monkeypatch.setattr(mcsim, "_path_draws", recorded)
        monkeypatch.setattr(mcsim.Majorant, "cell", scanned)
        estimate_probs(spec, SimSettings(n_paths=2000, seed=2, sample_times=(1.0, 5.0, 20.0)))
        window = drawn[0][1] // 2
        assert window % mcsim._CHUNK == 0
        assert sum(paths for paths, count, start in drawn if (count, start) == (2 * window, 0)) == 2000
        past = sum(paths for paths, _, start in drawn if start == 2 * window)
        assert past <= 20  # 1% of the paths scan past the window
        assert 1.0 - 2 * sum(read) / sum(paths * count for paths, count, _ in drawn) <= 0.06

    def test_counts_with_partial_last_block(self, ex3_spec, monkeypatch):
        settings = SimSettings(n_paths=103, seed=21, sample_times=(0.0, 1.5, 6.0))
        maj = mcsim.majorant(ex3_spec)
        budget = _candidate_budget(maj.mass(6.0))
        monkeypatch.setattr(mcsim, "_BLOCK_BYTES", path_bytes(maj.mass(6.0)) * 10)  # blocks of 10 paths
        est = estimate_probs(ex3_spec, settings)
        rec = reference_run_block(ex3_spec, maj, np.asarray(settings.sample_times), 21,
                                  np.arange(103), budget)
        for j in range(3):
            want = np.bincount(rec[:, j], minlength=est.counts.shape[1])
            assert np.array_equal(est.counts[j], want)

    def test_paths_stop_after_last_sample_time(self, ex3_spec, monkeypatch):
        maj = mcsim.majorant(ex3_spec)
        budget = _candidate_budget(maj.mass(20.0))
        shapes = []
        cell = mcsim.Majorant.cell

        def recorded(self, s):
            shapes.append(s.shape)
            return cell(self, s)

        monkeypatch.setattr(mcsim.Majorant, "cell", recorded)
        _run_block(ex3_spec, maj, np.array([2.0]), 1, np.arange(50), budget)
        # every candidate of a column block finds its cell, once per block: one
        # call per 64-candidate block, on the paths still short of t = 2, far
        # fewer blocks than the t = 20 budget holds
        assert 0 < len(shapes) < budget / 64 / 4
        assert all(shape[0] == 64 for shape in shapes)
        assert [shape[1] for shape in shapes] == sorted((shape[1] for shape in shapes), reverse=True)
        assert shapes[0][1] == 50


class TestEstimates:
    @hyp_settings(max_examples=12, deadline=None, derandomize=True)
    @given(st.integers(1, 120))
    def test_counts_independent_of_block_size(self, ex1_spec, paths_per_block):
        settings = SimSettings(n_paths=120, seed=13, sample_times=(0.5, 3.0))
        mass = mcsim.majorant(ex1_spec).mass(3.0)
        whole = estimate_probs(ex1_spec, settings).counts  # 120 paths fit one default block
        with mock.patch.object(mcsim, "_BLOCK_BYTES", path_bytes(mass) * paths_per_block):
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
