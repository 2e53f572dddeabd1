"""End-to-end acceptance suite at production settings.

Runs the certification, solver, and cross-validation pipelines on the three
bundled example models and checks every gate at its stated tolerance.  Each
criterion prints one PASS line (visible with `pytest -s`).
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    alphas_hetero,
    expm_series,
    log_norm_columns,
    random_equal_mu_spec,
    random_general_spec,
    random_hetero_constants,
    random_weights,
    transform_product,
)
from twoproc.bounds import fixed_alphas, pointwise_alphas
from twoproc.cli import main
from twoproc.matrices import WeightSequence, build_A, build_transformed
from twoproc.mcsim import SimSettings, estimate_probs
from twoproc.model import ModelSpec, RateFunction
from twoproc.solver import (
    SolveSettings,
    contraction_check,
    decay_fit,
    empty_start,
    far_start,
    integrate,
    limiting_regime,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "twoproc" / "configs"
SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)
TRACKED = (0, 2, 1, 3)  # p00, p01, p10, p11


@pytest.fixture(scope="module")
def examples(ex1_spec, ex2_spec, ex3_spec, ex1_weights, ex2_weights, ex3_weights):
    return {
        "example1": {
            "spec": ex1_spec,
            "weights": ex1_weights,
            "settings": SolveSettings(n=16, horizon=50.0),
            "beta0": 0.99,
        },
        "example2": {
            "spec": ex2_spec,
            "weights": ex2_weights,
            "settings": SolveSettings(n=64, horizon=240.0),
            "beta0": 7.0 - 4.0 * SQ3 - 0.001 * SQ3,
        },
        "example3": {
            "spec": ex3_spec,
            "weights": ex3_weights,
            "settings": SolveSettings(n=64, horizon=80.0),
            "beta0": (math.sqrt(11.0) - math.sqrt(8.0)) ** 2,
        },
    }


@pytest.fixture(scope="module")
def pipelines(examples):
    """Solver runs shared by criteria 4, 5, 7 and 8."""
    t0 = time.time()
    out = {}
    for name, ex in examples.items():
        regime = limiting_regime(ex["spec"], ex["settings"])
        fit_p = decay_fit(regime.from_empty, regime.from_far, ex["weights"])
        avg_spec = ex["spec"].averaged()
        avg_empty = integrate(avg_spec, ex["settings"], empty_start(ex["settings"].n))
        avg_far = integrate(avg_spec, ex["settings"], far_start(ex["settings"].n))
        fit_a = decay_fit(avg_empty, avg_far, ex["weights"])
        check = contraction_check(
            regime.from_empty, regime.from_far, ex["spec"], ex["weights"], ex["beta0"]
        )
        out[name] = {
            "regime": regime,
            "fit_p": fit_p,
            "fit_a": fit_a,
            "check": check,
            "avg_pair": (avg_empty, avg_far),
        }
    print(f"\n[pipeline fixture: {time.time() - t0:.1f}s for 12 integrations]")
    return out


def test_acceptance_1_decay_parameters(examples, tmp_path):
    """Published decay parameters from cmd_bound, exact closed forms."""
    elapsed = {}
    certs = {}
    for name in examples:
        out = tmp_path / name
        t0 = time.time()
        rc = main(["bound", "--model", str(CONFIG_DIR / f"{name}.json"), "--out", str(out)])
        elapsed[name] = time.time() - t0
        assert rc == 0
        certs[name] = json.loads((out / "certificate.json").read_text())

    c1 = certs["example1"]
    assert c1["beta_star_periodic"] >= 0.3  # the certified pointwise floor
    assert c1["beta_star_periodic"] == pytest.approx(6.0 - 4.0 * SQ2 - 0.01 * SQ2, abs=1e-10)
    assert c1["beta_star_avg"] == pytest.approx(1.0 - 0.01, abs=1e-10)

    c2 = certs["example2"]
    assert 0.065 <= c2["beta_star_avg"] <= 0.075
    assert c2["beta_star_avg"] == pytest.approx(7.0 - 4.0 * SQ3 - 0.001 * SQ3, abs=1e-10)

    c3 = certs["example3"]
    assert 0.2 <= c3["beta_star_avg"] <= 0.25
    assert c3["beta_star_avg"] == pytest.approx((math.sqrt(11.0) - math.sqrt(8.0)) ** 2, abs=1e-10)

    assert all(dt < 1.0 for dt in elapsed.values()), elapsed
    print(f"ACCEPTANCE 1 decay parameters: PASS ({max(elapsed.values()):.2f}s worst case)")


def test_acceptance_2_alpha_column_duality():
    """Closed-form alphas equal negative interior column sums, 1e-12."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    checked = 0

    def assert_duality(spec, weights, t):
        M = build_transformed(spec, weights, t, 12)
        cols = -log_norm_columns(M)[:5]
        vals = fixed_alphas(*spec.rates(t), weights.d(6))
        assert np.max(np.abs(cols - np.asarray(vals))) <= 1e-12

    for _ in range(34):  # equal service rates, pointwise ratio
        spec = random_equal_mu_spec(rng, dominated=True)
        t = float(rng.uniform(0.0, 2.0))
        eps = float(rng.uniform(0.02, 0.5))
        lam, mu1, mu2 = spec.rates(t)
        mu = mu1 + mu2
        local = WeightSequence(eps, math.sqrt(mu / lam), math.sqrt(mu / lam))
        M = build_transformed(spec, local, t, 12)
        cols = -log_norm_columns(M)[:5]
        vals = pointwise_alphas(lam, mu1, mu2, eps)
        assert np.max(np.abs(cols - np.asarray(vals))) <= 1e-12
        checked += 1

    for _ in range(33):  # heterogeneous constant rates
        lam, mu2, chi = random_hetero_constants(rng)
        w = random_weights(rng)
        spec = ModelSpec(RateFunction.fixed(lam), RateFunction.fixed((1 + chi) * mu2), RateFunction.fixed(mu2))
        M = build_transformed(spec, w, 0.0, 12)
        cols = -log_norm_columns(M)[:5]
        vals = alphas_hetero(lam, mu2, chi, w)
        assert np.max(np.abs(cols - np.asarray(vals))) <= 1e-12
        checked += 1

    for _ in range(33):  # general time-varying
        assert_duality(random_general_spec(rng), random_weights(rng), float(rng.uniform(0.0, 2.0)))
        checked += 1

    el = time.time() - t0
    assert checked == 100 and el < 5.0
    print(f"ACCEPTANCE 2 alpha/column duality: PASS (100 cases, {el:.2f}s)")


def test_acceptance_3_transform_consistency():
    """Closed-form transformed matrix equals the explicit similarity product."""
    t0 = time.time()
    rng = np.random.default_rng(777)
    for _ in range(100):
        spec = random_general_spec(rng)
        w = random_weights(rng)
        t = float(rng.uniform(0.0, 2.0))
        m = int(rng.integers(6, 16))
        M1 = build_transformed(spec, w, t, m)
        M2 = transform_product(spec, w, t, m)
        assert np.max(np.abs(M1[:, :-2] - M2[:, :-2])) <= 1e-12
    el = time.time() - t0
    assert el < 5.0
    print(f"ACCEPTANCE 3 transform consistency: PASS (100 cases, {el:.2f}s)")


def test_acceptance_4_certified_contraction(examples, pipelines):
    """Weighted gap decays no slower than exp(-beta0 t) up to measured N."""
    for name, ex in examples.items():
        check = pipelines[name]["check"]
        fit = pipelines[name]["fit_p"]
        assert check.ratio_certified_max <= 1.05, name
        assert fit.beta_hat >= ex["beta0"] - 0.05, (name, fit.beta_hat, ex["beta0"])
        print(
            f"  {name}: N_hat={check.prefactor_measured:.4f} "
            f"certified-route max={check.ratio_certified_max:.4f} "
            f"slope={fit.beta_hat:.4f} >= {ex['beta0'] - 0.05:.4f}"
        )
    print("ACCEPTANCE 4 certified contraction: PASS")


def test_acceptance_5_periodic_vs_averaged_rate(pipelines):
    """Empirical decay rates of periodic and averaged models agree within 5%."""
    for name, pipe in pipelines.items():
        bp = pipe["fit_p"].beta_hat
        ba = pipe["fit_a"].beta_hat
        rel = abs(bp - ba) / ba
        assert rel <= 0.05, (name, bp, ba)
        print(f"  {name}: periodic {bp:.5f} vs averaged {ba:.5f} (rel {rel:.3%})")
    print("ACCEPTANCE 5 periodic/averaged rate equality: PASS")


def test_acceptance_6_small_instance_oracle():
    """RK4 against a series matrix exponential on a 6-state constant system."""
    t0 = time.time()
    spec = ModelSpec(RateFunction.fixed(1.0), RateFunction.fixed(2.0), RateFunction.fixed(2.0))
    n = 6
    A = build_A(spec, 0.0, n, conservative=True)
    p0 = empty_start(n)
    for t_end in (0.1, 1.0, 10.0):
        traj = integrate(spec, SolveSettings(n=n, horizon=t_end), p0)
        ref = expm_series(A * t_end) @ p0
        err = float(np.sum(np.abs(traj.probs[-1] - ref)))
        assert err < 1e-9, (t_end, err)
    el = time.time() - t0
    assert el < 1.0
    print(f"ACCEPTANCE 6 matrix-exponential oracle: PASS ({el:.2f}s)")


def test_acceptance_7_monte_carlo_cross_validation(examples, pipelines):
    """MC estimates within 3 standard errors of the ODE probabilities."""
    t0 = time.time()
    hits = 0
    cells = 0
    for name, ex in examples.items():
        horizon = ex["settings"].horizon
        sim = SimSettings(n_paths=100_000, seed=20240601, sample_times=(1.0, 5.0, horizon))
        est = estimate_probs(ex["spec"], sim)
        traj = pipelines[name]["regime"].from_empty
        for i, t in enumerate(est.times):
            ode = traj.prob_at(t)
            for k in TRACKED:
                mc = est.estimates[i, k]
                se = est.stderrs[i, k]
                cells += 1
                hits += abs(mc - ode[k]) <= 3.0 * se
    frac = hits / cells
    assert frac >= 0.95, f"{hits}/{cells}"
    el = time.time() - t0
    assert el < 300.0
    print(f"ACCEPTANCE 7 Monte Carlo cross-validation: PASS ({hits}/{cells} cells, {el:.0f}s)")


def test_acceptance_8_conservation_and_positivity(pipelines):
    """Defect below 1e-8 per unit time; projected vectors exactly stochastic."""
    for name, pipe in pipelines.items():
        trajs = [pipe["regime"].from_empty, pipe["regime"].from_far, *pipe["avg_pair"]]
        for traj in trajs:
            assert traj.defect_per_unit_time < 1e-8, name
            assert traj.min_entry_pre >= -1e-9, name
            assert float(np.min(traj.probs)) >= 0.0, name
            assert float(np.max(traj.probs)) <= 1.0, name
            assert float(np.max(np.abs(traj.probs.sum(axis=1) - 1.0))) <= 1e-15, name
    print("ACCEPTANCE 8 conservation and positivity: PASS")
