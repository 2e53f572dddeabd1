"""Decay-rate certificates from weighted-l1 logarithmic norms.

For the transformed reduced generator (see `matrices.build_transformed`) the
negated column sums alpha_1..alpha_5 bound the logarithmic norm from above:
gamma = -min_i alpha_i.  A positive minimum certifies exponential merging of
trajectories in the weighted norm.

Two routes produce a rate:

* pointwise route (equal service rates only): each time t uses the locally
  optimal geometric ratio delta(t) = sqrt(mu(t)/lambda(t)), giving the
  closed forms alpha_1 = mu/2 - eps*lambda, alpha_3 = mu/2 + lambda -
  sqrt(lambda*mu), alpha_4 = (sqrt(lambda)-sqrt(mu))^2 - (eps/2)*
  sqrt(lambda*mu), alpha_k = (sqrt(lambda)-sqrt(mu))^2 for k >= 5; the
  infimum over t is an unconditional decay rate.

* averaged route: with a fixed weight sequence every alpha_i(t) is linear in
  the instantaneous rates, so its period average equals alpha_i evaluated at
  the mean rates.  beta*_0 = min_i alpha_i(means) then bounds the per-period
  contraction, with a prefactor absorbing the within-period deficit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrices import WeightSequence, weight_columns
from .model import ModelSpec

_PERIOD_PANELS = 2048  # Simpson panels for per-period integrals


class NotErgodicError(ValueError):
    """Raised when the averaged traffic condition lambda* < mu* fails."""


def fixed_alphas(lam, mu1, mu2, d) -> np.ndarray:
    """Fixed-weight alpha_1..alpha_5, stacked along a new first axis.

    `d[k]` is the weight d_{k+1} (k = 0..5) and may be a scalar or an array;
    the rates broadcast against the weights, so one call scores a time grid
    under one weight sequence or one rate triple under many weight sequences.
    """
    mu = mu1 + mu2
    a1 = (lam + mu1) - (d[1] / d[0]) * lam - (d[2] / d[0]) * lam
    a2 = (lam + mu2) - (d[0] / d[1]) * (mu1 - mu2)
    a3 = (lam + mu) - (d[0] / d[2]) * mu2 - (d[3] / d[2]) * lam
    a4 = (lam + mu) - (d[1] / d[3]) * mu2 - (d[2] / d[3]) * mu - (d[4] / d[3]) * lam
    a5 = (lam + mu) - (d[3] / d[4]) * mu - (d[5] / d[4]) * lam
    return np.stack([a1, a2, a3, a4, a5])


def pointwise_alphas(spec: ModelSpec, epsilon: float, ts) -> np.ndarray:
    """Pointwise-route alpha_1..alpha_5 at the times ts, for mu1 = mu2.

    The geometric ratio is the locally optimal sqrt(mu(t)/lambda(t)), so only
    epsilon remains free.
    """
    lam, mu1, mu2 = spec.rates(ts)
    mu = mu1 + mu2
    root = np.sqrt(lam * mu)
    gap = (np.sqrt(lam) - np.sqrt(mu)) ** 2
    a1 = mu / 2.0 - epsilon * lam
    a2 = lam + mu / 2.0
    a3 = mu / 2.0 + lam - root
    a4 = gap - (epsilon / 2.0) * root
    a5 = gap
    return np.stack([a1, a2, a3, a4, a5])


def alphas_averaged(spec: ModelSpec, weights: WeightSequence) -> np.ndarray:
    """Fixed-weight alpha_1..alpha_5 evaluated at the exact period means."""
    return fixed_alphas(*spec.averaged().rates(0.0), weights.d(6))


def cumulative_trapezoid(ts: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Trapezoid integrals of ys from ts[0] to each ts[i]."""
    return np.concatenate([[0.0], np.cumsum((ys[1:] + ys[:-1]) / 2.0 * np.diff(ts))])


@dataclass(frozen=True)
class BetaCurve:
    """beta*(t) sampled on a grid plus its exact-period integral."""

    times: np.ndarray
    values: np.ndarray
    inf: float
    integral: float  # integral of beta*(tau) over one period


def _period_curve(beta) -> BetaCurve:
    """beta(ts) on the _PERIOD_PANELS Simpson grid of [0, 1], with its composite Simpson integral."""
    n = _PERIOD_PANELS
    ts = np.linspace(0.0, 1.0, n + 1)
    values = beta(ts)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return BetaCurve(times=ts, values=values, inf=float(np.min(values)),
                     integral=float(np.sum(w * values) / (3.0 * n)))


def _fixed_curve(spec: ModelSpec, weights: WeightSequence) -> BetaCurve:
    """beta*(t) with fixed weights, whose period average is exactly beta*_0 when one alpha binds."""
    d = weights.d(6)
    return _period_curve(lambda ts: np.min(fixed_alphas(*spec.rates(ts), d), axis=0))


def beta_star_time(spec: ModelSpec, weights: WeightSequence) -> BetaCurve:
    """beta*(t) = min_i alpha_i(t) over one period on the certificate's route.

    Equal service rates take the pointwise closed forms, any other model the
    fixed-weight forms.
    """
    if not spec.is_equal_service:
        return _fixed_curve(spec, weights)
    return _period_curve(lambda ts: np.min(pointwise_alphas(spec, weights.epsilon, ts), axis=0))


def geometric_ratio(spec: ModelSpec) -> float:
    """The tail weight ratio sqrt(mu*/lambda*), the optimal choice for a
    birth-death tail; an arbitrary ratio of 2 for the degenerate zero-arrival
    model (any ratio certifies there)."""
    lam_m, _, _, mu_m = spec.mean_rates()
    if not lam_m < mu_m:
        raise NotErgodicError(
            f"mean arrival rate {lam_m:g} is not below mean service rate {mu_m:g}"
        )
    if lam_m == 0.0:
        return 2.0
    return math.sqrt(mu_m / lam_m)


def tune_weights(spec: ModelSpec) -> WeightSequence:
    """Pick (epsilon, delta1) by grid search with delta = sqrt(mu*/lambda*).

    Maximizes beta*_0 of the averaged model over 26 epsilon values times up
    to 42 delta1 values, all scored by one broadcast `fixed_alphas` call.
    Scanning epsilon-major, a candidate replaces the best only when it beats
    it by more than 1e-15, so ties resolve to the smallest epsilon, then the
    smallest delta1.
    """
    delta = geometric_ratio(spec)
    eps_grid = sorted(set(np.geomspace(1e-3, 0.5, 25)) | {1.0 / 12.0})
    hi = max(2.0 * delta, 1.02)
    d1_grid = sorted(x for x in set(np.linspace(1.01, hi, 40)) | {13.0 / 8.0, delta} if x > 1.0)
    eps = np.repeat(eps_grid, len(d1_grid))
    d1 = np.tile(d1_grid, len(eps_grid))
    scores = np.min(fixed_alphas(*spec.averaged().rates(0.0), weight_columns(eps, d1, delta, 6)), axis=0)
    best, best_score = None, -math.inf
    for i, score in enumerate(scores.tolist()):
        if score > best_score + 1e-15:
            best, best_score = i, score
    return WeightSequence(epsilon=float(eps[best]), delta1=float(d1[best]), delta=delta)


def chain_constant(weights: WeightSequence) -> float:
    """Exact sup of ||p' - p''||_1 / ||z' - z''||_1D over pairs of distributions.

    With x = z' - z'', p' - p'' = [-1^T; I] x and ||x||_1D = ||D T x||_1, so
    the constant is the largest column l1 norm of [-1^T; I] (D T)^-1.  Column
    j of (D T)^-1 = T^-1 D^-1 is (e_j - e_{j-1}) / d_j (e_0 / d_0 for j = 0),
    whose image has l1 norm 2 / d_j.  The smallest weight is d2 = epsilon, so
    the constant is 2/epsilon, attained by z' = p01, z'' = p10.
    """
    return 2.0 / weights.epsilon


@dataclass(frozen=True)
class ConvergenceCertificate:
    """A machine-checked exponential-merging statement.

    `beta_star_avg` is the averaged-route rate beta*_0 (prefactor measured by
    the solver, never certified here).  `beta_star_periodic` is the
    unconditional pointwise-route rate when one exists.  The chain constant C
    closes ||p' - p''||_1 <= C * ||z' - z''||_1D exactly (see `chain_constant`).
    """

    regime: str  # "periodic" | "constant-rate"
    weights: WeightSequence
    beta_star_avg: float
    binding_alpha: int
    beta_star_periodic: float | None
    beta_integral: float
    beta_integral_fixed: float
    norm_chain_constant: float
    prefactor_analytic: float | None = None
    prefactor_N: float | None = None

    @property
    def beta_star(self) -> float:
        """The headline certified rate."""
        if self.beta_star_periodic is not None:
            return self.beta_star_periodic
        return self.beta_star_avg


@dataclass(frozen=True)
class NoCertificate:
    reason: str


def analytic_prefactor(curve: BetaCurve, beta0: float):
    """Prefactor exp(sup deficit) for the averaged-route bound, when valid.

    With fixed weights (`curve` is the fixed-weight curve) the per-period
    integral of beta*(t) is compared with beta*_0; when they agree the
    within-period deficit is bounded and its exponential is a rigorous
    prefactor.  Returns None when the integral falls short (different alphas
    bind at different times).
    """
    if curve.integral < beta0 - 1e-9:
        return None
    deficit = beta0 * curve.times - cumulative_trapezoid(curve.times, curve.values)
    return float(np.exp(np.max(deficit)))


def make_certificate(spec: ModelSpec, weights: WeightSequence | None = None):
    """Build a ConvergenceCertificate, or a NoCertificate result.

    Refuses (without raising) when the averaged traffic condition fails or
    the averaged-route rate is nonpositive.
    """
    lam_m, _, _, mu_m = spec.mean_rates()
    if not lam_m < mu_m:
        return NoCertificate(
            reason=f"ergodicity not certified: mean arrival rate {lam_m:g} >= mean service rate {mu_m:g}"
        )
    if weights is None:
        weights = tune_weights(spec)
    alphas = alphas_averaged(spec, weights)
    binding = int(np.argmin(alphas))
    beta0 = float(alphas[binding])
    if beta0 <= 0.0:
        return NoCertificate(
            reason=f"ergodicity not certified: averaged decay rate {beta0:g} <= 0 for these weights"
        )
    curve = beta_star_time(spec, weights)
    fixed = _fixed_curve(spec, weights) if spec.is_equal_service else curve
    periodic_rate = curve.inf if curve.inf > 0.0 else None
    return ConvergenceCertificate(
        regime="periodic" if spec.is_periodic else "constant-rate",
        weights=weights,
        beta_star_avg=beta0,
        binding_alpha=binding + 1,
        beta_star_periodic=periodic_rate,
        beta_integral=curve.integral,
        beta_integral_fixed=fixed.integral,
        norm_chain_constant=chain_constant(weights),
        prefactor_analytic=analytic_prefactor(fixed, beta0),
    )


def certificate_to_dict(cert: ConvergenceCertificate) -> dict:
    return {
        "regime": cert.regime,
        "weights": {
            "epsilon": cert.weights.epsilon,
            "delta1": cert.weights.delta1,
            "delta": cert.weights.delta,
        },
        "beta_star": cert.beta_star,
        "beta_star_avg": cert.beta_star_avg,
        "binding_alpha": cert.binding_alpha,
        "beta_star_periodic": cert.beta_star_periodic,
        "beta_integral": cert.beta_integral,
        "beta_integral_fixed": cert.beta_integral_fixed,
        "norm_chain_constant": cert.norm_chain_constant,
        "prefactor_analytic": cert.prefactor_analytic,
        "prefactor_N": cert.prefactor_N,
    }


def certificate_report(cert: ConvergenceCertificate, spec: ModelSpec) -> str:
    """Human-readable certificate with the alpha table on 101 grid points."""
    w = cert.weights
    lines = [
        "convergence certificate",
        f"  regime:              {cert.regime}",
        f"  weights:             epsilon={w.epsilon:.12g} delta1={w.delta1:.12g} delta={w.delta:.12g}",
        f"  beta*_0 (averaged):  {cert.beta_star_avg:.12g}   binding alpha index: {cert.binding_alpha}",
    ]
    if cert.beta_star_periodic is not None:
        lines.append(f"  beta* (pointwise):   {cert.beta_star_periodic:.12g}")
    else:
        lines.append("  beta* (pointwise):   not available (curve infimum <= 0 or unequal service rates)")
    lines.append(f"  period integral of beta*(t): {cert.beta_integral:.12g} (route), {cert.beta_integral_fixed:.12g} (fixed weights)")
    lines.append(f"  norm chain constant: {cert.norm_chain_constant:.12g} (exact: 2/epsilon)")
    if cert.prefactor_analytic is not None:
        lines.append(f"  prefactor (analytic, within-period deficit): {cert.prefactor_analytic:.12g}")
    else:
        lines.append("  prefactor (analytic): n/a (mixed binding alphas over the period)")
    if cert.prefactor_N is not None:
        lines.append(f"  prefactor N (measured from trajectories): {cert.prefactor_N:.12g}")
    else:
        lines.append("  prefactor N (measured): not measured; run the compare pipeline")
    bound_rate = cert.beta_star_avg
    lines.append(
        f"  bound: ||p'(t)-p''(t)||_1 <= {cert.norm_chain_constant:.6g} * N * exp(-{bound_rate:.6g} t) * ||z'(0)-z''(0)||_1D"
    )
    lines.append("")
    lines.append("  alpha table (fixed weights), t in [0,1]:")
    lines.append("  t        alpha1       alpha2       alpha3       alpha4       alpha5       beta*(route)")
    ts = np.linspace(0.0, 1.0, 101)
    table = fixed_alphas(*spec.rates(ts), w.d(6))
    if spec.is_equal_service:
        route_vals = np.min(pointwise_alphas(spec, w.epsilon, ts), axis=0)
    else:
        route_vals = np.min(table, axis=0)
    for i, t in enumerate(ts):
        row = "  ".join(f"{table[j, i]:11.6g}" for j in range(5))
        lines.append(f"  {t:6.3f}  {row}  {route_vals[i]:11.6g}")
    return "\n".join(lines) + "\n"
