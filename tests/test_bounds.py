import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    admissible_models,
    alphas_hetero,
    log_norm_columns,
    random_equal_mu_spec,
    random_general_spec,
    random_hetero_constants,
    random_weights,
    reference_alpha_table,
    reference_alphas,
    reference_tune_weights,
)
from twoproc.bounds import (
    ConvergenceCertificate,
    NotCertifiedError,
    alphas_averaged,
    certificate_report,
    chain_constant,
    fixed_alphas,
    make_certificate,
    pointwise_alphas,
    tune_weights,
)
from twoproc.matrices import WeightSequence, build_transformed, weighted_norm
from twoproc.model import ModelSpec, RateFunction

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)
PERIOD_GRID = np.linspace(0.0, 1.0, 2049)  # the certificate's period grid


def _tie_case(lam: RateFunction, m: float, eps: float):
    spec = ModelSpec(lam, RateFunction.fixed(m), RateFunction.fixed(m))
    delta = math.sqrt(2.0 * m / lam.mean())
    return spec, WeightSequence(epsilon=eps, delta1=delta * (1.0 + eps / 2.0), delta=delta)


TIE_CASES = [  # alpha_4 binds in the first, alpha_5 in the second
    _tie_case(RateFunction.trig(1.8, [(1.6, "sin", 1)]), 1.3, 0.2),
    _tie_case(RateFunction.trig(1.6, [(1.1, "sin", 1)]), 1.0, 0.05),
]


class TestAlphaFormulas:
    def test_light_traffic_averaged_alpha1(self, ex1_spec, ex1_weights):
        alphas = fixed_alphas(*ex1_spec.averaged().rates(0.0), ex1_weights.d(6))
        # (lambda + mu1) - eps*lambda - lambda = mu1 - eps*lambda = 2 - 0.01
        assert alphas[0] == pytest.approx(1.99, abs=1e-15)
        # cross-check with the equal-service closed form mu/2 - eps*lambda
        assert alphas[0] == pytest.approx(4.0 / 2.0 - 0.01 * 1.0, abs=1e-15)

    def test_equal_service_alpha2_has_no_epsilon_term(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            spec = random_equal_mu_spec(rng)
            w = random_weights(rng)
            t = float(rng.uniform(0.0, 2.0))
            lam, _, mu2 = spec.rates(t)
            assert fixed_alphas(*spec.rates(t), w.d(6))[1] == pytest.approx(lam + mu2, abs=1e-12)

    def test_pointwise_closed_form_at_quarter_period(self, ex1_spec):
        assert pointwise_alphas(*ex1_spec.rates(0.25), 0.01)[2] == pytest.approx(4.0 - 2.0 * SQ2, abs=1e-12)

    def test_pointwise_equals_general_with_local_ratio(self, ex1_spec):
        # At each time the pointwise form is the general form evaluated with
        # delta1 = delta = sqrt(mu(t)/lambda(t)).
        eps = 0.02
        for t in (0.1, 0.2, 0.3, 0.6):
            lam, mu1, mu2 = ex1_spec.rates(t)
            mu = mu1 + mu2
            local = WeightSequence(eps, math.sqrt(mu / lam), math.sqrt(mu / lam))
            a_pt = pointwise_alphas(lam, mu1, mu2, eps)
            a_gen = fixed_alphas(lam, mu1, mu2, local.d(6))
            assert np.allclose(a_pt, a_gen, atol=1e-12)

    def test_critical_load_tail_alpha_vanishes(self):
        spec = ModelSpec(RateFunction.fixed(4.0), RateFunction.fixed(2.0), RateFunction.fixed(2.0))
        assert pointwise_alphas(*spec.rates(0.0), 0.01)[4] == pytest.approx(0.0, abs=1e-14)

    def test_heterogeneous_averaged_values(self, ex3_weights):
        a1, a2, a3, a4, a5 = alphas_hetero(8.0, 5.0, 0.2, ex3_weights)
        assert a1 == pytest.approx(6.0 - 8.0 / 12.0, abs=1e-12)
        assert a2 == pytest.approx(1.0, abs=1e-12)  # 13 - 1/eps with eps = 1/12
        assert a3 == pytest.approx(1.0, abs=1e-12)  # 14 - 8 * 13/8
        assert a4 == pytest.approx(19.0 - math.sqrt(88.0) - (11.0 + 5.0 / 12.0) / (13.0 / 8.0), abs=1e-12)
        assert a4 > 1.0
        assert a5 == pytest.approx((math.sqrt(11.0) - math.sqrt(8.0)) ** 2, abs=1e-12)

    def test_heterogeneous_matches_general_on_constant_spec(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            lam, mu2, chi = random_hetero_constants(rng)
            w = random_weights(rng)
            spec = ModelSpec(
                RateFunction.fixed(lam),
                RateFunction.fixed((1.0 + chi) * mu2),
                RateFunction.fixed(mu2),
            )
            a_h = alphas_hetero(lam, mu2, chi, w)
            a_g = fixed_alphas(*spec.rates(0.0), w.d(6))
            assert np.allclose(a_h, a_g, atol=1e-12)

    def test_hetero_requires_positive_chi(self, ex3_weights):
        with pytest.raises(ValueError):
            alphas_hetero(1.0, 1.0, 0.0, ex3_weights)

    def test_equal_mu_specialization_of_general(self):
        # With delta1 = delta = sqrt(mu*/lambda*) on a constant equal-service
        # model, the general formulas reduce to the closed forms.
        rng = np.random.default_rng(41)
        for _ in range(15):
            lam = float(rng.uniform(0.3, 2.0))
            mu_half = float(rng.uniform(lam / 2 + 0.2, 3.0))
            spec = ModelSpec(RateFunction.fixed(lam), RateFunction.fixed(mu_half), RateFunction.fixed(mu_half))
            eps = float(rng.uniform(0.01, 0.5))
            mu = 2.0 * mu_half
            w = WeightSequence(eps, math.sqrt(mu / lam), math.sqrt(mu / lam))
            rates = spec.rates(0.0)
            assert np.allclose(fixed_alphas(*rates, w.d(6)), pointwise_alphas(*rates, eps), atol=1e-12)


weight_sequences = st.builds(
    WeightSequence,
    epsilon=st.floats(0.02, 0.9),
    delta1=st.floats(1.01, 3.0),
    delta=st.floats(1.01, 3.0),
)


class TestAlphaColumnDuality:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(admissible_models(), st.lists(weight_sequences, min_size=1, max_size=8), st.floats(0.0, 2.0))
    def test_broadcast_alphas_match_per_candidate(self, spec, ws, t):
        alphas = fixed_alphas(*spec.rates(t), np.stack([w.d(6) for w in ws], axis=1))
        assert alphas.shape == (5, len(ws))
        for k, w in enumerate(ws):
            assert np.array_equal(alphas[:, k], fixed_alphas(*spec.rates(t), w.d(6)))
            assert np.array_equal(alphas[:, k], reference_alphas(spec, w, t))
            interior = float(np.max(log_norm_columns(build_transformed(spec, w, t, 12))[:-2]))
            assert float(np.min(alphas[:, k])) == pytest.approx(-interior, abs=1e-12)

    def test_closed_forms_match_column_sums(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            spec = random_general_spec(rng)
            w = random_weights(rng)
            t = float(rng.uniform(0.0, 2.0))
            M = build_transformed(spec, w, t, 12)
            cols = -log_norm_columns(M)
            vals = fixed_alphas(*spec.rates(t), w.d(6))
            assert np.allclose(cols[:5], vals, atol=1e-12)
            # tail columns repeat alpha5
            assert cols[7] == pytest.approx(vals[4], abs=1e-12)


class TestBetaStar:
    def test_binding_index_reported(self, ex1_spec, ex1_weights):
        alphas = alphas_averaged(ex1_spec, ex1_weights)
        assert float(np.min(alphas)) == pytest.approx(0.99, abs=1e-14)
        assert make_certificate(ex1_spec, ex1_weights).binding_alpha == int(np.argmin(alphas)) + 1 == 4

    def test_light_traffic_periodic_floor(self, ex1_spec, ex1_weights):
        cert = make_certificate(ex1_spec, ex1_weights)
        pointwise = np.min(pointwise_alphas(*ex1_spec.rates(PERIOD_GRID), 0.01), axis=0)
        assert cert.beta_star_periodic == float(np.min(pointwise))
        assert cert.beta_star_periodic >= 0.3
        assert cert.beta_star_periodic == pytest.approx(6.0 - 4.0 * SQ2 - 0.01 * SQ2, abs=1e-12)

    def test_heavy_traffic_averaged_rate(self, ex2_spec, ex2_weights):
        beta0 = float(np.min(alphas_averaged(ex2_spec, ex2_weights)))
        assert 0.065 <= beta0 <= 0.075
        assert beta0 == pytest.approx(7.0 - 4.0 * SQ3 - 0.001 * SQ3, abs=1e-12)
        # the pointwise route fails here: the curve dips negative near peak load
        assert make_certificate(ex2_spec, ex2_weights).beta_star_periodic is None

    def test_heterogeneous_averaged_rate(self, ex3_spec, ex3_weights):
        alphas = alphas_averaged(ex3_spec, ex3_weights)
        assert float(np.min(alphas)) == pytest.approx((math.sqrt(11.0) - math.sqrt(8.0)) ** 2, abs=1e-12)
        assert int(np.argmin(alphas)) + 1 == 5
        # unequal service rates take the fixed-weight route
        cert = make_certificate(ex3_spec, ex3_weights)
        fixed = np.min(fixed_alphas(*ex3_spec.rates(PERIOD_GRID), ex3_weights.d(6)), axis=0)
        assert np.min(fixed) < 0.0
        assert cert.beta_star_periodic is None

    def test_fixed_route_period_average_is_averaged_rate(self, ex1_spec, ex1_weights):
        # fixed-weight alphas are linear and homogeneous in the rates, so alpha_i
        # at the period integrals of the rates is the averaged alpha_i, bit for bit.
        for spec, w in ((ex1_spec, ex1_weights), *TIE_CASES):
            integrals = [rate.integral(1.0) for rate in (spec.lam, spec.mu1, spec.mu2)]
            assert np.array_equal(fixed_alphas(*integrals, w.d(6)), alphas_averaged(spec, w))
        fixed = np.min(fixed_alphas(*ex1_spec.rates(PERIOD_GRID), ex1_weights.d(6)), axis=0)
        assert float(np.min(fixed)) == pytest.approx(-0.01, abs=1e-9)  # pointwise floor useless here


class TestTuning:
    def test_geometric_ratio_examples(self, ex1_spec, ex2_spec):
        assert tune_weights(ex1_spec).delta == pytest.approx(2.0, abs=1e-14)
        assert tune_weights(ex2_spec).delta == pytest.approx(2.0 / SQ3, abs=1e-14)

    def test_tuned_heterogeneous_at_least_hand_choice(self, ex3_spec, ex3_weights):
        tuned = tune_weights(ex3_spec)
        hand = float(np.min(alphas_averaged(ex3_spec, ex3_weights)))
        best = float(np.min(alphas_averaged(ex3_spec, tuned)))
        assert best >= hand - 1e-12
        assert best >= 0.2

    def test_overloaded_model_refused(self):
        spec = ModelSpec(RateFunction.fixed(5.0), RateFunction.fixed(1.0), RateFunction.fixed(1.0))
        with pytest.raises(NotCertifiedError, match="mean arrival rate 5 >= mean service rate 2"):
            tune_weights(spec)

    def test_deterministic(self, ex3_spec):
        assert tune_weights(ex3_spec) == tune_weights(ex3_spec)

    def test_matches_candidate_by_candidate_search(self, ex1_spec, ex2_spec, ex3_spec):
        rng = np.random.default_rng(8)
        specs = [ex1_spec, ex2_spec, ex3_spec]
        for _ in range(4):
            lam, mu2, chi = random_hetero_constants(rng)
            lam = min(lam, float(rng.uniform(0.3, 0.95)) * (2.0 + chi) * mu2)
            hetero = (RateFunction.fixed((1.0 + chi) * mu2), RateFunction.fixed(mu2))
            specs.append(ModelSpec(RateFunction.fixed(lam), *hetero))
            b = float(rng.uniform(0.2, 0.8))
            table = RateFunction.piecewise([(0.0, 1.5 * lam), (b, float(rng.uniform(0.0, 1.0)) * lam)])
            specs.append(ModelSpec(table, RateFunction.fixed(mu2), RateFunction.fixed(mu2)))
            specs.append(ModelSpec(table, *hetero))
            second = [(float(rng.uniform(0.1, 0.5)) * lam, "sin", 1), (float(rng.uniform(0.1, 0.4)) * lam, "cos", 2)]
            specs.append(ModelSpec(RateFunction.trig(lam, second), *hetero))
        for spec in specs:
            assert tune_weights(spec) == reference_tune_weights(spec)


class TestCertificates:
    def test_light_traffic_certificate(self, ex1_spec, ex1_weights):
        cert = make_certificate(ex1_spec, ex1_weights)
        assert isinstance(cert, ConvergenceCertificate)
        assert cert.regime == "periodic"
        assert cert.beta_star_avg == pytest.approx(0.99, abs=1e-14)
        assert cert.beta_star_periodic == pytest.approx(6.0 - 4.0 * SQ2 - 0.01 * SQ2, abs=1e-12)
        assert cert.norm_chain_constant == 200.0
        assert cert.prefactor_analytic == pytest.approx(math.exp(1.0 / math.pi), rel=1e-12)

    def test_heavy_traffic_certificate_has_no_pointwise_rate(self, ex2_spec, ex2_weights):
        cert = make_certificate(ex2_spec, ex2_weights)
        assert cert.beta_star_periodic is None
        assert cert.beta_star == cert.beta_star_avg
        assert cert.prefactor_analytic == pytest.approx(math.exp((2.0 * SQ3 - 3.0) / math.pi), rel=1e-12)

    def test_heterogeneous_certificate_mixed_binding(self, ex3_spec, ex3_weights):
        cert = make_certificate(ex3_spec, ex3_weights)
        assert cert.binding_alpha == 5
        # different alphas bind at different times, so no analytic prefactor;
        # the refusal names the first sample where another alpha undercuts alpha_5
        assert cert.prefactor_analytic is None
        assert certificate_report(cert, ex3_spec).splitlines()[7] == (
            "  bound: no bound at beta*_0 is proven for these weights (alpha2 = -6 < alpha5 = 1.85751 at t = 0)")
        lam, mu1, mu2 = ex3_spec.rates(0.0)
        assert fixed_alphas(lam, mu1, mu2, ex3_weights.d(6))[1] == lam + mu2 - 12.0 * (mu1 - mu2) == -6.0

    def test_table_prefactor_is_exact_at_the_breakpoint(self):
        # certify-sweep seed 1's `sweep-4-table`: alpha_5 = (delta - 1)(mu/delta - lambda)
        # binds over the whole period, so the deficit beta*_0 t - int_0^t alpha_5 is
        # (delta - 1)(Lambda(t) - lambda* t), largest at the breakpoint b, where it is
        # (delta - 1) b (lambda_1 - lambda*).
        lam1, lam2, b, m = 2.965331, 2.494444, 0.448474, 1.904266
        spec = ModelSpec(RateFunction.piecewise([(0.0, lam1), (b, lam2)]), RateFunction.fixed(m), RateFunction.fixed(m))
        cert = make_certificate(spec)
        assert cert.binding_alpha == 5
        delta, lam_mean = cert.weights.delta, spec.lam.mean()
        expected = math.exp((delta - 1.0) * b * (lam1 - lam_mean))
        assert cert.prefactor_analytic == pytest.approx(expected, rel=1e-12)
        # the period grid alone misses the breakpoint and reads P low
        grid = math.exp(max((delta - 1.0) * (spec.lam.integral(t) - lam_mean * t) for t in PERIOD_GRID))
        assert grid < expected * (1.0 - 1e-6)

    @pytest.mark.parametrize("spec,weights", TIE_CASES)
    def test_tied_binding_pair_still_proves_the_prefactor(self, spec, weights):
        # equal service rates with delta1 = delta (1 + eps/2) make alpha_4 and alpha_5 the
        # same function of the rates; they bind together, and at some samples rounding
        # puts the other one of the pair below the binding one
        table = fixed_alphas(*spec.rates(PERIOD_GRID), weights.d(6))
        assert np.allclose(table[3], table[4], rtol=0.0, atol=1e-14)
        assert np.all(np.min(table[:3], axis=0) > table[4] + 0.1)
        cert = make_certificate(spec, weights)
        assert cert.binding_alpha in (4, 5)
        assert np.max(table[cert.binding_alpha - 1] - np.min(table, axis=0)) > 0.0
        # the deficit (delta - 1)(Lambda(t) - lambda* t) peaks at t = 1/2 at (delta - 1) a / pi
        amplitude = spec.lam.harmonics[0].amplitude
        assert cert.prefactor_analytic == pytest.approx(math.exp((weights.delta - 1.0) * amplitude / math.pi), rel=1e-12)

    def test_samples_the_period_once_and_builds_no_model(self, ex1_spec, ex1_weights, monkeypatch):
        sizes, built = [], []
        rates, post_init = ModelSpec.rates, ModelSpec.__post_init__
        monkeypatch.setattr(ModelSpec, "rates", lambda self, t: sizes.append(np.size(t)) or rates(self, t))
        monkeypatch.setattr(ModelSpec, "__post_init__", lambda self: built.append(self) or post_init(self))
        for weights in (ex1_weights, None):  # given and tuned weights
            sizes.clear()
            assert isinstance(make_certificate(ex1_spec, weights), ConvergenceCertificate)
            assert sizes == [len(PERIOD_GRID)]
        assert built == []

    def test_overloaded_yields_no_certificate(self):
        spec = ModelSpec(RateFunction.fixed(5.0), RateFunction.fixed(1.0), RateFunction.fixed(1.0))
        with pytest.raises(NotCertifiedError,
                           match=r"^ergodicity not certified: mean arrival rate 5 >= mean service rate 2$"):
            make_certificate(spec)
        # given weights have delta > 1, so alpha_5 = (delta - 1)(mu/delta - lambda) < 0 refuses them
        with pytest.raises(NotCertifiedError, match=r"averaged decay rate -\d.* <= 0 for these weights$"):
            make_certificate(spec, WeightSequence(epsilon=0.1, delta1=2.0, delta=1.5))

    def test_critical_load_yields_no_certificate(self):
        spec = ModelSpec(RateFunction.fixed(4.0), RateFunction.fixed(2.0), RateFunction.fixed(2.0))
        with pytest.raises(NotCertifiedError, match="mean arrival rate 4 >= mean service rate 4"):
            make_certificate(spec)

    def test_ergodic_model_without_positive_rate_refused(self):
        # no arrivals with mu1 > mu2: alpha_2 = -(mu1 - mu2) / epsilon + mu2 < 0 for every
        # tuned epsilon < 1, so the weights certify nothing though the model is ergodic
        spec = ModelSpec(RateFunction.fixed(0.0), RateFunction.fixed(2.0), RateFunction.fixed(1.0))
        with pytest.raises(NotCertifiedError, match=r"averaged decay rate -1 <= 0 for these weights$"):
            make_certificate(spec)

    @pytest.mark.parametrize("mu1,line", [
        (2.0, "  beta* (pointwise):   0.599795769562"),
        (2.4, "  beta* (fixed weights): 0.761906968534"),  # unequal service: the fixed-weight infimum
    ])
    def test_report_names_the_route(self, mu1, line):
        spec = ModelSpec(RateFunction.fixed(1.5), RateFunction.fixed(mu1), RateFunction.fixed(2.0))
        assert certificate_report(make_certificate(spec), spec).splitlines()[4] == line

    @pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "table"])
    def test_alpha_table_matches_cell_by_cell_formatting(self, request, name):
        if name == "table":  # tuned weights, mixed binding alphas, rates that jump within the table
            spec = ModelSpec(RateFunction.piecewise([(0.0, 1.0), (0.3, 2.5), (0.7, 0.5)]),
                             RateFunction.piecewise([(0.0, 3.0), (0.5, 2.0)]), RateFunction.fixed(1.5))
            cert = make_certificate(spec)
        else:
            spec = request.getfixturevalue(f"{name}_spec")
            cert = make_certificate(spec, request.getfixturevalue(f"{name}_weights"))
        report = certificate_report(cert, spec)
        rows = reference_alpha_table(cert, spec)
        assert report.endswith("beta*(route)\n" + rows) and len(rows.splitlines()) == 101

    def test_chain_constant_is_dense_column_norm_maximum(self):
        # sup ||p' - p''||_1 / ||z' - z''||_1D is the largest column l1 norm of
        # [-1^T; I] (D T)^-1, and the point masses z' = p01, z'' = p10 attain it.
        rng = np.random.default_rng(12)
        for _ in range(20):
            w = random_weights(rng)
            n = int(rng.integers(5, 17))
            DT = np.diag(w.d(n)) @ np.triu(np.ones((n, n)))
            R = np.vstack([-np.ones((1, n)), np.eye(n)]) @ np.linalg.inv(DT)
            assert chain_constant(w) == pytest.approx(float(np.max(np.sum(np.abs(R), axis=0))), rel=1e-12)
            x = np.zeros(n)
            x[1], x[0] = 1.0, -1.0
            assert 2.0 / weighted_norm(x[None, :], w)[0] == chain_constant(w)
