import numpy as np
import pytest

from helpers import simpson_mean
from twoproc.model import (
    Harmonic,
    ModelSpec,
    RateFunction,
    job_count,
    job_counts,
    state_decode,
    state_encode,
    state_label,
)


class TestRateEvaluation:
    def test_sinusoidal_arrivals_at_zero(self, ex1_spec):
        assert ex1_spec.eval_rates(0.0) == (1.0, 2.0, 2.0, 4.0)

    def test_sinusoidal_arrivals_at_quarter_period(self, ex1_spec):
        lam, m1, m2, mu = ex1_spec.eval_rates(0.25)
        assert lam == pytest.approx(2.0, abs=1e-15)
        assert (m1, m2, mu) == (2.0, 2.0, 4.0)

    def test_heterogeneous_rates_vanish_at_half_period(self, ex3_spec):
        lam, m1, m2, mu = ex3_spec.eval_rates(0.5)
        assert lam == pytest.approx(8.0, abs=1e-12)
        assert m1 == pytest.approx(0.0, abs=1e-12)
        assert m2 == pytest.approx(0.0, abs=1e-12)
        assert mu == pytest.approx(0.0, abs=1e-12)

    def test_rates_are_one_periodic(self, ex3_spec):
        rng = np.random.default_rng(5)
        ts = rng.uniform(0.0, 10.0, 200)
        for rate in (ex3_spec.lam, ex3_spec.mu1, ex3_spec.mu2):
            assert np.allclose(rate(ts), rate(ts + 1.0), atol=1e-12)

    def test_nonnegative_and_mu_additive_on_random_times(self, ex1_spec, ex2_spec, ex3_spec):
        rng = np.random.default_rng(0)
        ts = rng.uniform(0.0, 20.0, 1000)
        for spec in (ex1_spec, ex2_spec, ex3_spec):
            for t in ts:
                lam, m1, m2, mu = spec.eval_rates(float(t))
                assert lam >= 0.0 and m1 >= 0.0 and m2 >= 0.0
                assert mu == m1 + m2  # exact float identity


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
        assert avg.eval_rates(0.123) == (8.0, 6.0, 5.0, 11.0)


class TestValidation:
    def test_negative_constant_rejected(self):
        with pytest.raises(ValueError):
            RateFunction.fixed(-1.0)

    def test_dipping_trig_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            RateFunction.trig(1.0, [(1.5, "sin", 1)])

    def test_table_validation(self):
        with pytest.raises(ValueError):
            RateFunction.piecewise([(0.1, 1.0)])  # must start at 0
        with pytest.raises(ValueError):
            RateFunction.piecewise([(0.0, 1.0), (0.5, -2.0)])

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

    def test_traffic_condition(self, ex1_spec):
        assert ex1_spec.traffic_ok()
        overloaded = ModelSpec(
            lam=RateFunction.fixed(5.0),
            mu1=RateFunction.fixed(1.0),
            mu2=RateFunction.fixed(1.0),
        )
        assert not overloaded.traffic_ok()

    def test_table_form_excludes_trig_form(self):
        with pytest.raises(ValueError):
            RateFunction(constant=1.0, table=((0.0, 1.0),))


class TestStateEnumeration:
    @pytest.mark.parametrize(
        "state,index,jobs",
        [((0, 0), 0, 0), ((1, 0), 1, 1), ((0, 1), 2, 1), ((1, 1), 3, 2), ((1, 5), 7, 6)],
    )
    def test_encoding_and_job_counts(self, state, index, jobs):
        assert state_encode(state) == index
        assert state_decode(index) == state
        assert job_count(index) == jobs

    def test_roundtrip_up_to_ten_thousand(self):
        for k in range(10_001):
            assert state_encode(state_decode(k)) == k

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            state_decode(-1)
        with pytest.raises(ValueError):
            job_count(-3)

    def test_invalid_states_rejected(self):
        with pytest.raises(ValueError):
            state_encode((0, 2))  # queue without a busy main server
        with pytest.raises(ValueError):
            state_encode((2, 0))

    def test_job_count_vector_matches_scalar(self):
        counts = job_counts(50)
        assert counts.tolist() == [job_count(k) for k in range(50)]

    def test_labels(self):
        assert [state_label(k) for k in range(5)] == ["p00", "p10", "p01", "p11", "p12"]
