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
from typing import NamedTuple

import numpy as np

from .matrices import WeightSequence
from .model import ModelSpec

REGIMES = ("general", "equal-mu", "heterogeneous", "averaged")

_PERIOD_PANELS = 2048  # Simpson panels for per-period integrals


class NotErgodicError(ValueError):
    """Raised when the averaged traffic condition lambda* < mu* fails."""


@dataclass(frozen=True)
class AlphaProfile:
    """The five distinct column bounds at one time, alpha_k = alpha_5 for k >= 5."""

    values: tuple[float, float, float, float, float]
    regime: str
    t: float = 0.0

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")


class BetaStar(NamedTuple):
    value: float
    binding: int  # 1-based index of the binding alpha


def _as_array(x):
    return np.asarray(x, dtype=float)


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


def _alphas_equal_mu_arrays(spec: ModelSpec, epsilon: float, ts) -> np.ndarray:
    ts = _as_array(ts)
    lam = _as_array(spec.lam(ts))
    mu = _as_array(spec.mu1(ts)) + _as_array(spec.mu2(ts))
    root = np.sqrt(lam * mu)
    gap = (np.sqrt(lam) - np.sqrt(mu)) ** 2
    a1 = mu / 2.0 - epsilon * lam
    a2 = lam + mu / 2.0
    a3 = mu / 2.0 + lam - root
    a4 = gap - (epsilon / 2.0) * root
    a5 = gap
    return np.stack([a1, a2, a3, a4, a5])


def alphas_general(spec: ModelSpec, weights: WeightSequence, t: float) -> AlphaProfile:
    """Column bounds with a fixed weight sequence, any admissible model."""
    vals = fixed_alphas(*spec.rates(t), weights.d(6))
    return AlphaProfile(values=tuple(float(v) for v in vals), regime="general", t=float(t))


def alphas_equal_mu(spec: ModelSpec, epsilon: float, t: float) -> AlphaProfile:
    """Pointwise-route bounds for mu1 = mu2.

    The geometric ratio is the locally optimal sqrt(mu(t)/lambda(t)), so only
    epsilon remains free.  Rejects models whose service rates differ.
    """
    if not spec.is_equal_service:
        raise ValueError("equal-service closed forms require mu1 identical to mu2")
    vals = _alphas_equal_mu_arrays(spec, epsilon, t)
    return AlphaProfile(values=tuple(float(v) for v in vals), regime="equal-mu", t=float(t))


def alphas_hetero(lam: float, mu2: float, chi: float, weights: WeightSequence) -> AlphaProfile:
    """Constant-rate bounds for mu1 = (1 + chi) * mu2, chi > 0.

    alpha_2 carries the term -(chi/eps)*mu2 and may be the binding minimum;
    it is not excluded here.
    """
    if chi <= 0.0:
        raise ValueError("chi must be positive")
    eps, d1, dl = weights.epsilon, weights.delta1, weights.delta
    a1 = (1.0 + chi) * mu2 - eps * lam
    a2 = lam + mu2 * (1.0 - chi / eps)
    a3 = lam * (1.0 - d1) + (1.0 + chi) * mu2
    a4 = lam * (1.0 - dl) + mu2 * (2.0 + chi - (2.0 + eps + chi) / d1)
    a5 = lam * (1.0 - dl) + mu2 * (1.0 - 1.0 / dl) * (2.0 + chi)
    return AlphaProfile(values=(a1, a2, a3, a4, a5), regime="heterogeneous")


def alphas_averaged(spec: ModelSpec, weights: WeightSequence) -> AlphaProfile:
    """Fixed-weight bounds evaluated at the exact period means."""
    vals = fixed_alphas(*spec.averaged().rates(0.0), weights.d(6))
    return AlphaProfile(values=tuple(float(v) for v in vals), regime="averaged")


def beta_star(profile: AlphaProfile) -> BetaStar:
    """Minimum of the five bounds and the 1-based index that attains it."""
    values = np.asarray(profile.values)
    idx = int(np.argmin(values))
    return BetaStar(value=float(values[idx]), binding=idx + 1)


@dataclass(frozen=True)
class BetaCurve:
    """beta*(t) sampled on a grid plus its exact-period integral."""

    times: np.ndarray
    values: np.ndarray
    route: str  # "pointwise" | "fixed"
    inf: float
    integral: float  # integral of beta*(tau) over one period


def _simpson_period(f) -> float:
    """Composite Simpson of f over [0, 1] with _PERIOD_PANELS panels."""
    n = _PERIOD_PANELS
    ts = np.linspace(0.0, 1.0, n + 1)
    ys = f(ts)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(np.sum(w * ys) / (3.0 * n))


def beta_star_time(spec: ModelSpec, weights: WeightSequence, route: str = "auto") -> BetaCurve:
    """Sample beta*(t) = min_i alpha_i(t) on the Simpson grid and integrate it over one period.

    route "auto" picks the pointwise closed forms for equal service rates and
    the fixed-weight forms otherwise; "fixed" forces the fixed-weight forms
    (the curve whose period average is exactly beta*_0).
    """
    if route not in ("auto", "pointwise", "fixed"):
        raise ValueError("route must be auto, pointwise or fixed")
    if route == "auto":
        route = "pointwise" if spec.is_equal_service else "fixed"
    if route == "pointwise" and not spec.is_equal_service:
        raise ValueError("pointwise route requires equal service rates")
    grid = np.linspace(0.0, 1.0, _PERIOD_PANELS + 1)
    d = weights.d(6)

    def curve(ts):
        if route == "pointwise":
            return np.min(_alphas_equal_mu_arrays(spec, weights.epsilon, ts), axis=0)
        return np.min(fixed_alphas(*spec.rates(ts), d), axis=0)

    values = curve(grid)
    return BetaCurve(
        times=grid,
        values=values,
        route=route,
        inf=float(np.min(values)),
        integral=_simpson_period(curve),
    )


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
    # One weight column per candidate, with the arithmetic of WeightSequence.d(6).
    d = np.ones((6, eps.size))
    d[1] = eps
    d[3:] = d1 * (delta ** np.arange(3))[:, None]
    scores = np.min(fixed_alphas(*spec.averaged().rates(0.0), d), axis=0)
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

    With fixed weights (`curve` is the route "fixed" curve) the per-period
    integral of beta*(t) is compared with beta*_0; when they agree the
    within-period deficit is bounded and its exponential is a rigorous
    prefactor.  Returns None when the integral falls short (different alphas
    bind at different times).
    """
    if curve.integral < beta0 - 1e-9:
        return None
    ts = curve.times
    cum = np.concatenate([[0.0], np.cumsum((curve.values[1:] + curve.values[:-1]) / 2.0 * np.diff(ts))])
    deficit = beta0 * ts - cum
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
    avg = beta_star(alphas_averaged(spec, weights))
    if avg.value <= 0.0:
        return NoCertificate(
            reason=f"ergodicity not certified: averaged decay rate {avg.value:g} <= 0 for these weights"
        )
    curve = beta_star_time(spec, weights)
    fixed = curve if curve.route == "fixed" else beta_star_time(spec, weights, route="fixed")
    periodic_rate = curve.inf if curve.inf > 0.0 else None
    return ConvergenceCertificate(
        regime="periodic" if spec.is_periodic else "constant-rate",
        weights=weights,
        beta_star_avg=avg.value,
        binding_alpha=avg.binding,
        beta_star_periodic=periodic_rate,
        beta_integral=curve.integral,
        beta_integral_fixed=fixed.integral,
        norm_chain_constant=chain_constant(weights),
        prefactor_analytic=analytic_prefactor(fixed, avg.value),
    )


def with_measured_prefactor(cert: ConvergenceCertificate, prefactor: float) -> ConvergenceCertificate:
    """Copy of the certificate carrying a solver-measured prefactor."""
    from dataclasses import replace

    return replace(cert, prefactor_N=float(prefactor))


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
        route_vals = np.min(_alphas_equal_mu_arrays(spec, w.epsilon, ts), axis=0)
    else:
        route_vals = np.min(table, axis=0)
    for i, t in enumerate(ts):
        row = "  ".join(f"{table[j, i]:11.6g}" for j in range(5))
        lines.append(f"  {t:6.3f}  {row}  {route_vals[i]:11.6g}")
    return "\n".join(lines) + "\n"
