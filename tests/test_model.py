import math

import numpy as np
import pytest

from helpers import job_count, simpson_mean
from twoproc import model
from twoproc.matrices import build_A
from twoproc.model import (
    Harmonic,
    ModelSpec,
    RateFunction,
    job_counts,
    state_label,
)


class TestRateEvaluation:
    def test_sinusoidal_arrivals_at_zero(self, ex1_spec):
        assert ex1_spec.rates(0.0) == (1.0, 2.0, 2.0)

    def test_sinusoidal_arrivals_at_quarter_period(self, ex1_spec):
        lam, m1, m2 = ex1_spec.rates(0.25)
        assert lam == pytest.approx(2.0, abs=1e-15)
        assert (m1, m2) == (2.0, 2.0)

    def test_heterogeneous_rates_vanish_at_half_period(self, ex3_spec):
        lam, m1, m2 = ex3_spec.rates(0.5)
        assert lam == pytest.approx(8.0, abs=1e-12)
        assert m1 == pytest.approx(0.0, abs=1e-12)
        assert m2 == pytest.approx(0.0, abs=1e-12)

    def test_rates_are_one_periodic(self, ex3_spec):
        rng = np.random.default_rng(5)
        ts = rng.uniform(0.0, 10.0, 200)
        for rate in (ex3_spec.lam, ex3_spec.mu1, ex3_spec.mu2):
            assert np.allclose(rate(ts), rate(ts + 1.0), atol=1e-12)

    def test_nonnegative_and_mu_additive_on_random_times(self, ex1_spec, ex2_spec, ex3_spec):
        rng = np.random.default_rng(0)
        ts = rng.uniform(0.0, 20.0, 1000)
        for spec in (ex1_spec, ex2_spec, ex3_spec):
            lam, m1, m2 = spec.rates(ts)
            assert min(lam.min(), m1.min(), m2.min()) >= 0.0
            for t in ts[:20]:
                # the completion rate above state 3 is the exact float mu1 + mu2
                _, a1, a2 = spec.rates(float(t))
                assert build_A(spec, float(t), 6)[4, 5] == a1 + a2


class TestSharedRates:
    SPECS = {
        "shared-harmonics": ModelSpec(
            RateFunction.trig(8.0, [(7.5, "sin", 1), (0.5, "cos", 2)]),
            RateFunction.trig(7.0, [(6.0, "cos", 1), (0.5, "sin", 2)]),
            RateFunction.trig(5.0, [(5.0, "cos", 1), (0.25, "cos", 2)]),
        ),
        "table": ModelSpec(
            RateFunction.piecewise([(0.0, 0.5), (0.3, 2.5)]),
            RateFunction.trig(2.0, [(1.0, "sin", 3)]),
            RateFunction.fixed(0.5),
        ),
        "constant": ModelSpec(RateFunction.fixed(1.0), RateFunction.fixed(2.0), RateFunction.fixed(2.0)),
    }

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_equal_to_separate_rate_calls(self, name):
        spec = self.SPECS[name]
        t = np.random.default_rng(3).uniform(0.0, 40.0, (64, 33))
        got = spec.rates(t)
        for value, rate in zip(got, (spec.lam, spec.mu1, spec.mu2)):
            assert value.shape == t.shape
            assert np.array_equal(value, rate(t))

    def test_each_term_evaluated_once(self, ex3_spec, monkeypatch):
        calls = []
        sin, cos = np.sin, np.cos
        monkeypatch.setattr(np, "sin", lambda x: calls.append("sin") or sin(x))
        monkeypatch.setattr(np, "cos", lambda x: calls.append("cos") or cos(x))
        ex3_spec.rates(np.linspace(0.0, 1.0, 7))
        assert sorted(calls) == ["cos", "sin"]


class TestMeans:
    def test_example_means(self, ex1_spec, ex2_spec, ex3_spec):
        assert ex1_spec.mean_rates() == (1.0, 2.0, 2.0, 4.0)
        assert ex2_spec.mean_rates() == (3.0, 2.0, 2.0, 4.0)
        assert ex3_spec.mean_rates() == (8.0, 6.0, 5.0, 11.0)

    def test_means_match_quadrature(self, ex1_spec, ex2_spec, ex3_spec):
        for spec in (ex1_spec, ex2_spec, ex3_spec):
            for rate in (spec.lam, spec.mu1, spec.mu2):
                ref = simpson_mean(rate)
                assert rate.mean() == pytest.approx(ref, rel=1e-8)

    def test_table_mean_is_exact_weighted_average(self):
        rate = RateFunction.piecewise([(0.0, 2.0), (0.25, 0.5), (0.75, 4.0)])
        assert rate.mean() == pytest.approx(2.0 * 0.25 + 0.5 * 0.5 + 4.0 * 0.25, abs=1e-15)
        assert rate.mean() == pytest.approx(simpson_mean(rate), rel=1e-3)

    def test_averaged_model_is_constant(self, ex3_spec):
        avg = ex3_spec.averaged()
        assert not avg.is_periodic
        assert avg.rates(0.123) == (8.0, 6.0, 5.0)


INTEGRAL_RATES = [
    RateFunction.fixed(2.5),
    RateFunction.trig(1.0, [(1.0, "sin", 1)]),
    RateFunction.trig(6.0, [(6.0, "cos", 1)]),
    RateFunction.trig(3.0, [(-0.7, "cos", 2), (0.4, "sin", 3), (0.2, "sin", 1000)]),
    RateFunction.piecewise([(0.0, 2.0), (0.25, 4.0), (0.75, 1.0)]),
    RateFunction.piecewise([(0.0, 2.965331), (0.448474, 2.494444)]),
]


class TestIntegrals:
    @pytest.mark.parametrize("rate", INTEGRAL_RATES)
    def test_one_period_is_the_mean(self, rate):
        assert rate.integral(1.0) == rate.mean()
        assert rate.integral(0.0) == 0.0

    @pytest.mark.parametrize("rate", INTEGRAL_RATES)
    def test_whole_periods_add_the_mean(self, rate):
        # dyadic fractions, so k + f splits back into k and f exactly
        for k in (1, 2, 7):
            for f in (0.0, 0.125, 0.375, 0.5, 0.8125):
                assert rate.integral(k + f) == k * rate.mean() + rate.integral(f)

    @pytest.mark.parametrize("rate", INTEGRAL_RATES[:4])
    def test_central_difference_is_the_rate(self, rate):
        h = 1e-7  # truncation error h^2 |rate''| / 6 and rounding eps |integral| / h stay below 1e-8
        ts = np.linspace(0.01, 2.99, 37)
        slope = (rate.integral(ts + h) - rate.integral(ts - h)) / (2.0 * h)
        scale = abs(rate.constant) + sum(abs(t.amplitude) * t.harmonic for t in rate.harmonics)
        assert np.allclose(slope, rate(ts), rtol=0.0, atol=1e-8 * scale)

    def test_table_values_at_breakpoints(self):
        rate = INTEGRAL_RATES[4]
        assert rate.integral(0.25) == 0.5
        assert rate.integral(0.75) == 2.5
        assert rate.integral(0.875) == 2.625
        assert rate.integral(3.25) == 3.0 * 2.75 + 0.5
        assert rate.mean() == 2.75

    def test_table_reduces_time_as_remainder(self):
        # the floor form gives the remainder t % 1 bit for bit at t >= 0, integers and large times included
        rate = INTEGRAL_RATES[4]
        breaks = np.array([b for b, _ in rate.table])
        edges = (np.arange(0.0, 1000.0)[:, None] + breaks).ravel()  # integers and the breakpoints
        rng = np.random.default_rng(3)
        ts = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
                             rng.uniform(0.0, 100.0, 10_000), rng.uniform(0.0, 1e15, 10_000)])
        values = np.array([v for _, v in rate.table])
        assert np.array_equal(rate(ts), values[np.searchsorted(breaks, ts % 1.0, side="right") - 1])

    def test_scalar_and_array_times(self):
        for rate in INTEGRAL_RATES:
            ts = np.array([0.0, 0.3, 1.0, 2.6])
            values = rate.integral(ts)
            assert isinstance(values, np.ndarray) and values.shape == ts.shape
            for t, v in zip(ts, values):
                scalar = rate.integral(float(t))
                assert isinstance(scalar, float) and scalar == v


class TestValidation:
    def test_negative_constant_rejected(self):
        with pytest.raises(ValueError):
            RateFunction.fixed(-1.0)

    def test_dipping_trig_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            RateFunction.trig(1.0, [(1.5, "sin", 1)])

    def test_high_harmonic_dip_rejected(self):
        # 1 + 1.04 sin(2 pi 1000 t) dips to -0.04 between the points of a
        # 10^4-point grid; the grid scales with the harmonic.
        with pytest.raises(ValueError, match="negative"):
            RateFunction.trig(1.0, [(1.04, "sin", 1000)])

    def test_harmonic_above_cap_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            RateFunction.trig(1.0, [(1.5, "sin", 10_000)])

    def test_dominant_constant_accepted_without_sampling(self, monkeypatch):
        monkeypatch.setattr(model, "period_grid", None)  # any sampling would fail
        rate = RateFunction.trig(2.0, [(1.5, "sin", 1000), (0.5, "cos", 3)])
        assert rate.constant == 2.0

    def test_rounding_dips_of_general_phases_accepted(self):
        # 1 + sin(2 pi (t + phi)) written with sin and cos coefficients dips a
        # rounding unit below 0 at some phases; a real dip is still refused
        rates = [RateFunction.trig(1.0, [(math.cos(2 * math.pi * k / 100), "sin", 1),
                                         (math.sin(2 * math.pi * k / 100), "cos", 1)]) for k in range(1, 100)]
        assert sum(float(np.min(r(model.period_grid(r)))) < 0.0 for r in rates) > 0
        with pytest.raises(ValueError, match="min value -0.001"):
            RateFunction.trig(1.0, [(1.001, "sin", 1)])

    def test_table_validation(self):
        with pytest.raises(ValueError):
            RateFunction.piecewise([(0.1, 1.0)])  # must start at 0
        with pytest.raises(ValueError):
            RateFunction.piecewise([(0.0, 1.0), (0.5, -2.0)])

    @pytest.mark.parametrize("build, message", [
        (lambda: RateFunction.fixed(math.nan), "rate constant must be finite, got nan"),
        (lambda: RateFunction.fixed(math.inf), "rate constant must be finite, got inf"),
        (lambda: RateFunction.trig(2.0, [(math.nan, "sin", 1)]), "harmonic amplitude must be finite, got nan"),
        (lambda: RateFunction.piecewise([(0.0, 1.0), (0.5, math.nan)]), "table values must be finite"),
        (lambda: RateFunction.piecewise([(0.0, 1.0), (math.nan, 2.0)]), r"table breakpoints must lie in \[0, 1\)"),
        (lambda: Harmonic(1.0, "sin", math.inf), "harmonic index inf exceeds"),
        (lambda: Harmonic(1.0, "sin", math.nan), "harmonic index must be a positive integer, got nan"),
    ], ids=["nan-constant", "inf-constant", "nan-amplitude", "nan-table-value", "nan-breakpoint",
            "inf-harmonic", "nan-harmonic"])
    def test_non_finite_numbers_rejected(self, build, message):
        # the CLI refuses them while parsing; these are the library's own checks
        with pytest.raises(ValueError, match=f"^{message}"):
            build()

    def test_bad_harmonic_kind_rejected(self):
        with pytest.raises(ValueError):
            Harmonic(1.0, "tan", 1)

    def test_slow_server_must_not_outpace_fast(self):
        with pytest.raises(ValueError, match="mu2"):
            ModelSpec(
                lam=RateFunction.fixed(1.0),
                mu1=RateFunction.fixed(1.0),
                mu2=RateFunction.fixed(2.0),
            )

    def test_short_table_segment_checked(self):
        # the 7e-5 segment falls between the points of the 10^4-point grid
        with pytest.raises(ValueError, match="mu2"):
            ModelSpec(RateFunction.fixed(1.0), RateFunction.fixed(2.0),
                      RateFunction.piecewise([(0.0, 1.0), (0.50001, 5.0), (0.50008, 1.0)]))

    def test_table_form_excludes_trig_form(self):
        with pytest.raises(ValueError):
            RateFunction(constant=1.0, table=((0.0, 1.0),))


class TestStateEnumeration:
    @pytest.mark.parametrize(
        "state,index,jobs",
        [((0, 0), 0, 0), ((1, 0), 1, 1), ((0, 1), 2, 1), ((1, 1), 3, 2), ((1, 5), 7, 6)],
    )
    def test_encoding_and_job_counts(self, state, index, jobs):
        assert state_label(index) == "p%d%d" % state
        assert job_counts(index + 1)[index] == job_count(index) == jobs

    def test_roundtrip_up_to_ten_thousand(self):
        # reading the state pair back from label pXY gives the index again
        for k in range(10_001):
            busy, rest = int(state_label(k)[1]), int(state_label(k)[2:])
            assert {(0, 0): 0, (1, 0): 1, (0, 1): 2}.get((busy, rest), rest + 2) == k

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            state_label(-1)

    def test_job_count_vector_matches_scalar(self):
        counts = job_counts(50)
        assert counts.tolist() == [job_count(k) for k in range(50)]

    def test_labels(self):
        assert [state_label(k) for k in range(5)] == ["p00", "p10", "p01", "p11", "p12"]
