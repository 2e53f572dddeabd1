import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    random_equal_mu_spec,
    random_general_spec,
    random_hetero_constants,
    random_weights,
    reference_alphas,
    reference_tune_weights,
)
from twoproc.bounds import (
    ConvergenceCertificate,
    NoCertificate,
    NotErgodicError,
    alphas_averaged,
    alphas_equal_mu,
    alphas_general,
    alphas_hetero,
    beta_star,
    beta_star_time,
    chain_constant,
    fixed_alphas,
    make_certificate,
    tune_weights,
)
from twoproc.matrices import WeightSequence, build_transformed, log_norm_columns, weighted_norm
from twoproc.model import ModelSpec, RateFunction

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)


class TestAlphaFormulas:
    def test_light_traffic_averaged_alpha1(self, ex1_spec, ex1_weights):
        prof = alphas_general(ex1_spec.averaged(), ex1_weights, 0.0)
        # (lambda + mu1) - eps*lambda - lambda = mu1 - eps*lambda = 2 - 0.01
        assert prof.values[0] == pytest.approx(1.99, abs=1e-15)
        # cross-check with the equal-service closed form mu/2 - eps*lambda
        assert prof.values[0] == pytest.approx(4.0 / 2.0 - 0.01 * 1.0, abs=1e-15)

    def test_equal_service_alpha2_has_no_epsilon_term(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            spec = random_equal_mu_spec(rng)
            w = random_weights(rng)
            t = float(rng.uniform(0.0, 2.0))
            lam, _, mu2, _ = spec.eval_rates(t)
            assert alphas_general(spec, w, t).values[1] == pytest.approx(lam + mu2, abs=1e-12)

    def test_pointwise_closed_form_at_quarter_period(self, ex1_spec):
        prof = alphas_equal_mu(ex1_spec, 0.01, 0.25)
        assert prof.values[2] == pytest.approx(4.0 - 2.0 * SQ2, abs=1e-12)

    def test_pointwise_equals_general_with_local_ratio(self, ex1_spec):
        # At each time the pointwise form is the general form evaluated with
        # delta1 = delta = sqrt(mu(t)/lambda(t)).
        eps = 0.02
        for t in (0.1, 0.2, 0.3, 0.6):
            lam, _, _, mu = ex1_spec.eval_rates(t)
            local = WeightSequence(eps, math.sqrt(mu / lam), math.sqrt(mu / lam))
            a_pt = alphas_equal_mu(ex1_spec, eps, t)
            a_gen = alphas_general(ex1_spec, local, t)
            assert np.allclose(a_pt.values, a_gen.values, atol=1e-12)

    def test_pointwise_rejects_unequal_service(self, ex3_spec):
        with pytest.raises(ValueError):
            alphas_equal_mu(ex3_spec, 0.01, 0.0)

    def test_critical_load_tail_alpha_vanishes(self):
        spec = ModelSpec(RateFunction.fixed(4.0), RateFunction.fixed(2.0), RateFunction.fixed(2.0))
        prof = alphas_equal_mu(spec, 0.01, 0.0)
        assert prof.values[4] == pytest.approx(0.0, abs=1e-14)

    def test_heterogeneous_averaged_values(self, ex3_weights):
        prof = alphas_hetero(8.0, 5.0, 0.2, ex3_weights)
        a1, a2, a3, a4, a5 = prof.values
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
            a_g = alphas_general(spec, w, 0.0)
            assert np.allclose(a_h.values, a_g.values, atol=1e-12)

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
            assert np.allclose(
                alphas_general(spec, w, 0.0).values,
                alphas_equal_mu(spec, eps, 0.0).values,
                atol=1e-12,
            )


@st.composite
def admissible_models(draw):
    """A trigonometric or two-piece table arrival rate; mu2 a fraction of a trigonometric mu1."""
    c = draw(st.floats(0.5, 4.0))
    if draw(st.booleans()):
        lam = RateFunction.trig(c, [(draw(st.floats(-0.9, 0.9)) * c, draw(st.sampled_from(("sin", "cos"))),
                                     draw(st.integers(1, 3)))])
    else:
        lam = RateFunction.piecewise([(0.0, c), (draw(st.floats(0.1, 0.9)), draw(st.floats(0.0, 4.0)))])
    c1 = draw(st.floats(1.0, 5.0))
    a1 = draw(st.floats(-0.9, 0.9)) * c1
    kind, harmonic = draw(st.sampled_from(("sin", "cos"))), draw(st.integers(1, 3))
    s = draw(st.floats(0.3, 1.0))
    return ModelSpec(lam, RateFunction.trig(c1, [(a1, kind, harmonic)]),
                     RateFunction.trig(c1 * s, [(a1 * s, kind, harmonic)]))


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
            assert np.array_equal(alphas[:, k], np.array(alphas_general(spec, w, t).values))
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
            vals = alphas_general(spec, w, t).values
            assert np.allclose(cols[:5], vals, atol=1e-12)
            # tail columns repeat alpha5
            assert cols[7] == pytest.approx(vals[4], abs=1e-12)


class TestBetaStar:
    def test_binding_index_reported(self, ex1_spec, ex1_weights):
        bs = beta_star(alphas_averaged(ex1_spec, ex1_weights))
        assert bs.value == pytest.approx(0.99, abs=1e-14)
        assert bs.binding == 4

    def test_light_traffic_periodic_floor(self, ex1_spec, ex1_weights):
        curve = beta_star_time(ex1_spec, ex1_weights)
        assert curve.route == "pointwise"
        assert curve.inf >= 0.3
        assert curve.inf == pytest.approx(6.0 - 4.0 * SQ2 - 0.01 * SQ2, abs=1e-12)

    def test_heavy_traffic_averaged_rate(self, ex2_spec, ex2_weights):
        bs = beta_star(alphas_averaged(ex2_spec, ex2_weights))
        assert 0.065 <= bs.value <= 0.075
        assert bs.value == pytest.approx(7.0 - 4.0 * SQ3 - 0.001 * SQ3, abs=1e-12)
        # the pointwise route fails here: the curve dips negative near peak load
        assert beta_star_time(ex2_spec, ex2_weights).inf < 0.0

    def test_heterogeneous_averaged_rate(self, ex3_spec, ex3_weights):
        bs = beta_star(alphas_averaged(ex3_spec, ex3_weights))
        assert bs.value == pytest.approx((math.sqrt(11.0) - math.sqrt(8.0)) ** 2, abs=1e-12)
        assert bs.binding == 5

    def test_fixed_route_period_average_is_averaged_rate(self, ex1_spec, ex1_weights):
        # fixed-weight alphas are linear in the rates, so when one alpha binds
        # everywhere the period integral equals beta*_0 exactly.
        curve = beta_star_time(ex1_spec, ex1_weights, route="fixed")
        assert curve.integral == pytest.approx(0.99, abs=1e-9)
        assert curve.inf == pytest.approx(-0.01, abs=1e-9)  # pointwise floor useless here

    def test_fixed_route_rejected_for_pointwise_only_arg(self, ex3_spec, ex3_weights):
        with pytest.raises(ValueError):
            beta_star_time(ex3_spec, ex3_weights, route="pointwise")


class TestTuning:
    def test_geometric_ratio_examples(self, ex1_spec, ex2_spec):
        assert tune_weights(ex1_spec).delta == pytest.approx(2.0, abs=1e-14)
        assert tune_weights(ex2_spec).delta == pytest.approx(2.0 / SQ3, abs=1e-14)

    def test_tuned_heterogeneous_at_least_hand_choice(self, ex3_spec, ex3_weights):
        tuned = tune_weights(ex3_spec)
        hand = beta_star(alphas_averaged(ex3_spec, ex3_weights)).value
        best = beta_star(alphas_averaged(ex3_spec, tuned)).value
        assert best >= hand - 1e-12
        assert best >= 0.2

    def test_overloaded_model_refused(self):
        spec = ModelSpec(RateFunction.fixed(5.0), RateFunction.fixed(1.0), RateFunction.fixed(1.0))
        with pytest.raises(NotErgodicError):
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
        assert cert.prefactor_analytic == pytest.approx(math.exp(1.0 / math.pi), rel=1e-5)

    def test_heavy_traffic_certificate_has_no_pointwise_rate(self, ex2_spec, ex2_weights):
        cert = make_certificate(ex2_spec, ex2_weights)
        assert cert.beta_star_periodic is None
        assert cert.beta_star == cert.beta_star_avg
        assert cert.prefactor_analytic == pytest.approx(math.exp((2.0 * SQ3 - 3.0) / math.pi), rel=1e-4)

    def test_heterogeneous_certificate_mixed_binding(self, ex3_spec, ex3_weights):
        cert = make_certificate(ex3_spec, ex3_weights)
        assert cert.binding_alpha == 5
        # different alphas bind at different times, so no analytic prefactor
        assert cert.prefactor_analytic is None
        assert cert.beta_integral_fixed < cert.beta_star_avg

    def test_overloaded_yields_no_certificate(self):
        spec = ModelSpec(RateFunction.fixed(5.0), RateFunction.fixed(1.0), RateFunction.fixed(1.0))
        result = make_certificate(spec)
        assert isinstance(result, NoCertificate)
        assert "not certified" in result.reason

    def test_critical_load_yields_no_certificate(self):
        spec = ModelSpec(RateFunction.fixed(4.0), RateFunction.fixed(2.0), RateFunction.fixed(2.0))
        assert isinstance(make_certificate(spec), NoCertificate)

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
            assert 2.0 / weighted_norm(x, w) == chain_constant(w)
