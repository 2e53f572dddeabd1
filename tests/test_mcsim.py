import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings
from hypothesis import strategies as st

from helpers import (
    arrival_map,
    fast_completion_map,
    group_stream,
    path_draws,
    path_uniforms,
    reference_run_block,
    simulate_path,
    slow_completion_map,
    stationary_vector,
    traced_peak,
)
from twoproc import mcsim
from twoproc.matrices import build_A
from twoproc.mcsim import (
    DELTA,
    SimSettings,
    _candidate_budget,
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


@pytest.fixture
def recorded_draws(monkeypatch):
    """The shape and first row of every `random` draw of the generators built while the test runs."""
    draws = []

    class Recorded(np.random.Generator):
        def random(self, size=None, dtype=np.float64, out=None):
            block = super().random(size, dtype, out)
            draws.append((block.shape, block[0].copy()))
            return block

    monkeypatch.setattr(np.random, "Generator", Recorded)
    return draws


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
        lo, hi = maj.start[:-1], maj.start[1:]
        # phases by cell: dense inside it, at and beside its ends, and beside every breakpoint
        phases = [np.concatenate([np.linspace(a, b, 16), *(np.nextafter([a, b], d) for d in (-1.0, 2.0))])
                  for a, b in zip(lo, hi)]
        breaks = np.array([b for r in (spec.lam, spec.mu1, spec.mu2) for b, _ in r.table or ()])
        beside = np.concatenate([breaks, np.nextafter(breaks, -1.0), np.nextafter(breaks, 2.0)])
        holder = np.clip(np.searchsorted(lo, beside, side="right") - 1, 0, cells - 1)
        # the production phases of masses a few units either side of each r = g cell_mass
        bounds = np.arange(cells + 1) * maj.cell_mass
        bounds = np.append(bounds[bounds < maj.period_mass], maj.period_mass)
        near = np.concatenate([bounds + k * maj.period_mass for k in (0, 1, 7, 1000)])
        masses = np.concatenate([near, *(np.nextafter(near, d) for d in (0.0, np.inf)),
                                 *(np.nextafter(np.nextafter(near, d), d) for d in (0.0, np.inf))])
        r, made_in = maj.cell(masses[masses >= 0.0])
        made, _ = maj.phase(r, made_in)
        phase = np.concatenate([*phases, beside, made])
        owner = np.concatenate([np.repeat(np.arange(cells), [len(p) for p in phases]), holder, made_in])

        thresholds = np.array(mcsim._thresholds(*spec.rates(phase), maj.inv[owner]))
        assert np.all(maj.low[:, owner] <= thresholds), np.unique(owner[np.any(maj.low[:, owner] > thresholds, axis=0)])
        assert np.all(thresholds <= maj.high[:, owner]), np.unique(owner[np.any(thresholds > maj.high[:, owner], axis=0)])
        # the event falls as any threshold rises, so a decided event that holds at the
        # thresholds' componentwise extremes over these phases holds at each of them
        rows = np.arange(3)[:, None]
        least, most = np.full((3, cells), np.inf), np.full((3, cells), -np.inf)
        np.minimum.at(least, (rows, owner), thresholds)
        np.maximum.at(most, (rows, owner), thresholds)
        steps = np.arange(mcsim._BINS + 1) / mcsim._BINS
        u = np.concatenate([steps[:-1], np.nextafter(steps[1:], 0.0)])  # each bin's first and last u
        decided = maj.events.reshape(cells, mcsim._BINS)[:, (u * mcsim._BINS).astype(np.intp)]
        for pa, pf, ps in (least[:, :, None], most[:, :, None]):
            event = (u >= pa).astype(np.int64) + ((u >= pa) & (u >= pf)) + ((u >= pa) & (u >= pf) & (u >= ps))
            wrong = (decided >= 0) & (decided != event)
            assert not wrong.any(), np.flatnonzero(wrong.any(axis=1))

    def test_cells_index_the_table(self, ex3_spec):
        maj = mcsim.majorant(ex3_spec)
        cells = len(maj.top)
        # masses at, and a few units either side of, every cell boundary, and at random
        bounds = np.arange(cells + 1) * maj.cell_mass
        near = np.concatenate([bounds + k * maj.period_mass for k in (0, 1, 7, 1000)])
        masses = np.concatenate([near, *(np.nextafter(near, d) for d in (0.0, np.inf)),
                                 np.random.default_rng(1).random(10_000) * 50.0 * maj.period_mass])
        r, g = maj.cell(masses)
        assert g.min() >= 0 and g.max() < cells
        # r lies in cell g up to rounding, and so does the phase it yields
        slack = 1e-12 * maj.period_mass
        assert np.all(r >= g * maj.cell_mass - slack)
        assert np.all(r <= np.minimum((g + 1) * maj.cell_mass, maj.period_mass) + slack)
        phase, _ = maj.phase(r, g)
        assert np.all((maj.start[g] - 1e-12 <= phase) & (phase <= maj.start[g + 1] + 1e-12))
        assert maj.events.shape == (cells * mcsim._BINS,) and maj.events.dtype == np.int8

    @pytest.mark.parametrize("name", ["ex1_spec", "ex2_spec", "ex3_spec"])
    def test_majorant_hugs_the_piece_bounds(self, name, request):
        # cells smaller than a piece take little more than the piece bounds' mass; cells
        # of two to four pieces took 1.006 / 1.014 / 1.027 times it on example1 / 2 / 3
        spec = request.getfixturevalue(name)
        assert mcsim.majorant(spec).period_mass <= 1.005 * float(np.mean(mcsim._piece_bounds(spec)[0]))

    def test_table_leaves_few_candidates_open(self, ex3_spec):
        # every (cell, bin) pair but the last cell's holds the same share of the candidates;
        # a table by 64 cells leaves 12.56% of its pairs open on example3
        maj = mcsim.majorant(ex3_spec)
        assert np.count_nonzero(maj.events < 0) / maj.events.size <= 0.1256 / 3

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
        draws = path_draws(8, np.arange(n_paths), 2 * _candidate_budget(target))  # (uniform, path)
        mass = np.cumsum(-np.log1p(-draws[::2]), axis=0)
        assert np.all(mass[-1] > target)  # the budget covers [0, horizon]
        phase, inv = maj.phase(*maj.cell(mass))
        times = np.floor(mass / maj.period_mass) + phase
        inside = times < horizon
        counts = inside.sum(axis=0)
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
        base = path_draws(11, np.array([42]), 8)[:, 0]
        assert np.array_equal(base, path_draws(11, np.array([42]), 8)[:, 0])
        assert not np.array_equal(base, path_draws(12, np.array([42]), 8)[:, 0])
        assert not np.array_equal(base, path_draws(11, np.array([43]), 8)[:, 0])  # the next member
        assert not np.array_equal(base, path_draws(11, np.array([42 + 1024]), 8)[:, 0])  # the next group
        # the same member of two groups, and of one group under two seeds, share no uniform
        group = path_draws(11, np.arange(1024), 64)
        for other in (path_draws(11, 1024 + np.arange(1024), 64), path_draws(12, np.arange(1024), 64)):
            assert not np.isin(group, other).any()

    @pytest.mark.parametrize("seed", [0, 11, 2**64 + 5, -1])
    def test_draws_match_fresh_generators(self, seed):
        idx = np.array([0, 7, 1023, 1024, 5000, 2**63 + 1], dtype=np.uint64)
        draws = path_draws(seed, idx, 13)
        for col, i in enumerate(idx):
            assert np.array_equal(draws[:, col], path_uniforms(seed, int(i), 13))
        # a group's stream advanced by start rows of 1024 continues the long draw
        whole = path_draws(seed, idx, 300)
        for start, count in ((4, 9), (12, 1), (128, 64), (256, 44)):
            assert np.array_equal(path_draws(seed, idx, count, start=start), whole[start : start + count])
        bits = group_stream(seed, 2**63 // 1024)
        bits.advance(128 * 1024)
        assert np.array_equal(np.random.Generator(bits).random((64, 1024))[:, 1], whole[128:192, -1])

    @pytest.mark.parametrize("seed", [3, 2**40 + 9])
    @pytest.mark.parametrize("group", [0, 977])
    def test_interleaved_streams_look_uniform(self, seed, group):
        # one column block of a group: 128 rows of 1024 members, 131,072 uniforms
        draws = path_draws(seed, group * 1024 + np.arange(1024), 2 * mcsim._CHUNK)
        got = np.bincount((draws.ravel() * 16).astype(np.intp), minlength=16)
        expected = draws.size / 16
        chi2 = float(np.sum((got - expected) ** 2 / expected))
        dof = 15
        wilson_hilferty = ((chi2 / dof) ** (1 / 3) - (1 - 2 / (9 * dof))) / math.sqrt(2 / (9 * dof))
        assert wilson_hilferty < 4.0
        # neighbouring members r and r + 1 sit next to each other in the stream
        left, right = draws[:, :-1].ravel(), draws[:, 1:].ravel()
        assert abs(np.corrcoef(left, right)[0, 1]) < 4.0 / math.sqrt(left.size)

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

    @pytest.mark.parametrize("name", ["shuffled", "two-groups"])
    def test_any_batch_gives_the_reference_rows(self, ex3_spec, name):
        maj = mcsim.majorant(ex3_spec)
        st = np.array([0.5, 3.0])
        budget = _candidate_budget(maj.mass(3.0))
        # part of a group in a shuffled order, or indices 1000-1100 across two groups, one call per group
        idx = {"shuffled": np.random.default_rng(3).permutation(3072 + np.arange(1024))[:300],
               "two-groups": np.arange(1000, 1101)}[name]
        groups = idx // mcsim._GROUP
        got = np.concatenate([_run_block(ex3_spec, maj, st, 7, idx[groups == g], budget=budget)
                              for g in np.unique(groups)])
        assert np.array_equal(got, reference_run_block(ex3_spec, maj, st, 7, idx, budget))

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

    def test_draws_follow_the_scan(self, ex3_spec, recorded_draws):
        maj = mcsim.majorant(ex3_spec)
        st = np.array([1.0, 4.0])
        idx = 2048 + np.arange(40)
        budget = _candidate_budget(maj.mass(4.0))
        got = _run_block(ex3_spec, maj, st, 4, idx, budget)
        draws = list(recorded_draws)
        assert np.array_equal(got, reference_run_block(ex3_spec, maj, st, 4, idx, budget))
        # one (2 width, 1024) draw per column block, each the group's next rows,
        # until the last path has passed t = 4
        chunk = mcsim._CHUNK
        assert 1 < len(draws) < budget / chunk
        assert [shape for shape, _ in draws] == [(2 * chunk, mcsim._GROUP)] * len(draws)
        for k, (_, first_row) in enumerate(draws):
            assert np.array_equal(first_row, path_draws(4, 2048 + np.arange(1024), 1, start=2 * chunk * k)[0])

    def test_scan_memory_does_not_grow_with_the_horizon(self, ex1_spec, recorded_draws):
        maj = mcsim.majorant(ex1_spec)
        idx = np.arange(mcsim._GROUP)
        _run_block(ex1_spec, maj, np.array([1.0]), 6, idx[:100], budget=_candidate_budget(maj.mass(1.0)))  # warm-up
        peaks, shapes = [], []
        for horizon in (20.0, 200.0):
            budget = _candidate_budget(maj.mass(horizon))
            recorded_draws.clear()
            _, peak = traced_peak(lambda: _run_block(ex1_spec, maj, np.array([1.0, horizon]), 6, idx, budget))
            peaks.append(peak)
            shapes.append(max(shape for shape, _ in recorded_draws))
        # the largest draw is one column block at both horizons, and so is the scan's peak
        assert shapes == [(2 * mcsim._CHUNK, mcsim._GROUP)] * 2
        assert peaks[1] <= 1.02 * peaks[0]

    def test_counts_with_partial_last_block(self, ex3_spec):
        # one whole group and 6 paths of the next
        settings = SimSettings(n_paths=1030, seed=21, sample_times=(0.0, 1.5, 6.0))
        maj = mcsim.majorant(ex3_spec)
        budget = _candidate_budget(maj.mass(6.0))
        est = estimate_probs(ex3_spec, settings)
        rec = reference_run_block(ex3_spec, maj, np.asarray(settings.sample_times), 21,
                                  np.arange(1030), budget)
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
    @given(st.lists(st.integers(1, 1199), max_size=4, unique=True))
    def test_counts_independent_of_block_size(self, ex1_spec, cuts):
        # 1,200 paths cut into blocks at any points and at the group boundary, as `_run_block`
        # scans one group, against estimate_probs' one group per block
        settings = SimSettings(n_paths=1200, seed=13, sample_times=(0.5, 3.0))
        maj = mcsim.majorant(ex1_spec)
        times = np.asarray(settings.sample_times)
        budget = _candidate_budget(maj.mass(3.0))
        blocks = np.split(np.arange(settings.n_paths), sorted(set(cuts) | {mcsim._GROUP}))
        rec = np.concatenate([_run_block(ex1_spec, maj, times, 13, idx, budget=budget) for idx in blocks])
        counts = estimate_probs(ex1_spec, settings).counts
        for j in range(len(times)):
            assert np.array_equal(np.bincount(rec[:, j], minlength=counts.shape[1]), counts[j])

    def test_requires_hundred_paths(self, ex1_spec):
        with pytest.raises(ValueError, match="100"):
            estimate_probs(ex1_spec, SimSettings(n_paths=99, seed=1, sample_times=(1.0,)))

    @pytest.mark.parametrize("last, mass", [(1e308, "inf"), (1e300, "5.01e+300"), (1e17, "5.01e+17")])
    def test_refuses_an_unscannable_horizon(self, ex1_spec, last, mass):
        # 100 paths x Lambda(last) is inf or more than 10^10 candidates: refused before any draw
        settings = SimSettings(n_paths=100, seed=1, sample_times=(1.0, last))
        with pytest.raises(ValueError, match="^" + re.escape(f"sample time {last:g} takes Lambda = {mass} candidates")):
            estimate_probs(ex1_spec, settings)

    @pytest.mark.parametrize("paths, admitted", [(100, True), (199, True), (200, False), (10**5, False)])
    def test_caps_the_paths_times_lambda(self, ex1_spec, monkeypatch, paths, admitted):
        # Lambda(10^7) = 5.01e7 on example1: 199 paths plan 9.98e9 candidates, 200 paths 1.0e10 and more
        class Admitted(Exception):
            pass

        def stop(*args, **kwargs):
            raise Admitted

        monkeypatch.setattr(mcsim, "_run_block", stop)
        settings = SimSettings(n_paths=paths, seed=1, sample_times=(1e7,))
        with pytest.raises(Admitted if admitted else ValueError):
            estimate_probs(ex1_spec, settings)

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
