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

* averaged route: with a fixed weight sequence every alpha_i(t) is linear and
  homogeneous in the rates, so its integral over [0, t] is alpha_i at the rate
  integrals.  beta*_0 = min_i alpha_i(means) bounds the per-period contraction,
  with a prefactor absorbing the within-period deficit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrices import WeightSequence, weight_columns
from .model import DIP_ULPS, ModelSpec

_PERIOD_PANELS = 2048  # the certificate samples the period at _PERIOD_PANELS + 1 equally spaced times


class NotCertifiedError(ValueError):
    """Raised when no positive rate is certified: the averaged traffic
    condition lambda* < mu* fails, or beta*_0 <= 0 for the weights."""


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


def pointwise_alphas(lam, mu1, mu2, epsilon: float) -> np.ndarray:
    """Pointwise-route alpha_1..alpha_5 at the rates (lam, mu1, mu2), for mu1 = mu2.

    The geometric ratio is the locally optimal sqrt(mu/lambda), so only
    epsilon remains free.
    """
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
    return fixed_alphas(*spec.mean_rates()[:3], weights.d(6))


def _period_alphas(spec: ModelSpec, weights: WeightSequence, binding: int):
    """The certificate's samples (the period grid, then every table breakpoint), the rates and
    fixed-weight alphas there, and the first sample where another alpha is below alpha_b by more
    than DIP_ULPS ulps of 2 (lambda + mu) + |alpha|, a bound on any alpha's terms, or None."""
    breaks = [b for rate in (spec.lam, spec.mu1, spec.mu2) for b, _ in rate.table or ()]
    ts = np.concatenate([np.linspace(0.0, 1.0, _PERIOD_PANELS + 1), breaks])
    rates = spec.rates(ts)
    alphas = fixed_alphas(*rates, weights.d(6))
    scale = 2.0 * np.max(sum(rates)) + np.max(np.abs(alphas))
    under = np.flatnonzero(alphas[binding] - np.min(alphas, axis=0) > DIP_ULPS * np.finfo(float).eps * scale)
    return ts, rates, alphas, int(under[0]) if len(under) else None


def _route_beta(spec: ModelSpec, weights: WeightSequence, rates, fixed: np.ndarray) -> tuple[str, np.ndarray]:
    """The certificate's route and beta*(t) on it, from the rates at some times
    and the fixed-weight beta*(t) there: the pointwise closed forms for equal
    service rates, else the fixed-weight curve itself."""
    if spec.is_equal_service:
        return "pointwise", np.min(pointwise_alphas(*rates, weights.epsilon), axis=0)
    return "fixed weights", fixed


def geometric_ratio(spec: ModelSpec) -> float:
    """The tail weight ratio sqrt(mu*/lambda*), the optimal choice for a
    birth-death tail; an arbitrary ratio of 2 for the degenerate zero-arrival
    model (any ratio certifies there).  Raises NotCertifiedError unless
    lambda* < mu*; this is the package's one traffic check."""
    lam_m, _, _, mu_m = spec.mean_rates()
    if not lam_m < mu_m:
        raise NotCertifiedError(
            f"ergodicity not certified: mean arrival rate {lam_m:g} >= mean service rate {mu_m:g}"
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
    scores = np.min(fixed_alphas(*spec.mean_rates()[:3], weight_columns(eps, d1, delta, 6)), axis=0)
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

    A function of the model and the weights alone.  The chain constant C
    closes ||p' - p''||_1 <= C * ||z' - z''||_1D exactly (see `chain_constant`),
    and the deficit prefactor P, when set, makes C * P * exp(-beta*_0 t) a
    proven bound; it is set when the binding alpha is the smallest at every
    sample of the period.  `beta_star_periodic` is the unconditional rate inf_t
    beta*(t) on the certificate's route (see `_route_beta`) on the period grid.
    """

    regime: str  # "periodic" | "constant-rate"
    weights: WeightSequence
    beta_star_avg: float
    binding_alpha: int
    beta_star_periodic: float | None
    norm_chain_constant: float
    prefactor_analytic: float | None = None

    @property
    def beta_star(self) -> float | None:
        """The headline certified rate, or None when the certificate proves no bound."""
        if self.beta_star_periodic is not None:
            return self.beta_star_periodic
        return self.beta_star_avg if self.prefactor_analytic is not None else None


def make_certificate(spec: ModelSpec, weights: WeightSequence | None = None) -> ConvergenceCertificate:
    """Build a ConvergenceCertificate, tuning the weights when none are given.

    Raises NotCertifiedError when beta*_0 <= 0 for the weights, or, through
    `geometric_ratio`, when tuning meets lambda* >= mu*.  Given weights need
    no traffic check of their own: every WeightSequence has delta > 1, so
    lambda* >= mu* makes alpha_5 at the mean rates, and with it beta*_0,
    nonpositive.
    """
    if weights is None:
        weights = tune_weights(spec)
    alphas = alphas_averaged(spec, weights)
    binding = int(np.argmin(alphas))
    beta0 = float(alphas[binding])
    if beta0 <= 0.0:
        raise NotCertifiedError(f"ergodicity not certified: averaged decay rate {beta0:g} <= 0 for these weights")
    ts, rates, table, undercut = _period_alphas(spec, weights, binding)
    g = _PERIOD_PANELS + 1  # the route's infimum reads the period grid alone
    inf = float(np.min(_route_beta(spec, weights, [r[:g] for r in rates], np.min(table[:, :g], axis=0))[1]))
    prefactor = None
    if undercut is None:  # beta*(t) = alpha_b(t), whose integral is alpha_b at the rate integrals
        integrals = [rate.integral(ts) for rate in (spec.lam, spec.mu1, spec.mu2)]
        prefactor = float(np.exp(np.max(beta0 * ts - fixed_alphas(*integrals, weights.d(6))[binding])))
    return ConvergenceCertificate(
        regime="periodic" if spec.is_periodic else "constant-rate",
        weights=weights,
        beta_star_avg=beta0,
        binding_alpha=binding + 1,
        beta_star_periodic=inf if inf > 0.0 else None,
        norm_chain_constant=chain_constant(weights),
        prefactor_analytic=prefactor,
    )


def certificate_report(cert: ConvergenceCertificate, spec: ModelSpec) -> str:
    """Human-readable certificate with the alpha table on 101 grid points."""
    w = cert.weights
    ts = np.linspace(0.0, 1.0, 101)
    rates = spec.rates(ts)
    table = fixed_alphas(*rates, w.d(6))
    route, route_vals = _route_beta(spec, w, rates, np.min(table, axis=0))
    lines = [
        "convergence certificate",
        f"  regime:              {cert.regime}",
        f"  weights:             epsilon={w.epsilon:.12g} delta1={w.delta1:.12g} delta={w.delta:.12g}",
        f"  beta*_0 (averaged):  {cert.beta_star_avg:.12g}   binding alpha index: {cert.binding_alpha}",
    ]
    value = "not available (curve infimum <= 0)" if cert.beta_star_periodic is None else f"{cert.beta_star_periodic:.12g}"
    lines.append(f"  {f'beta* ({route}):':<20} {value}")
    lines.append(f"  norm chain constant: {cert.norm_chain_constant:.12g} (exact: 2/epsilon)")
    if cert.prefactor_analytic is not None:
        lines.append(f"  prefactor (analytic, within-period deficit): {cert.prefactor_analytic:.12g}")
        lines.append(f"  bound: ||p'(t)-p''(t)||_1 <= {cert.norm_chain_constant * cert.prefactor_analytic:.12g}"
                     f" * exp(-{cert.beta_star_avg:.12g} t) * ||z'(0)-z''(0)||_1D")
    else:
        b = cert.binding_alpha - 1
        at, _, alphas, k = _period_alphas(spec, w, b)
        j = int(np.argmin(alphas[:, k]))
        lines.append("  prefactor (analytic): n/a (mixed binding alphas over the period)")
        lines.append(f"  bound: no bound at beta*_0 is proven for these weights (alpha{j + 1} = {alphas[j, k]:g}"
                     f" < alpha{b + 1} = {alphas[b, k]:g} at t = {at[k]:g})")
    lines += ["", "  alpha table (fixed weights), t in [0,1]:",
              "  t        alpha1       alpha2       alpha3       alpha4       alpha5       beta*(route)"]
    row = "  %6.3f  " + "  ".join(["%11.6g"] * 5) + "  %11.6g"
    lines += [row % tuple(values) for values in np.column_stack([ts, table.T, route_vals]).tolist()]
    return "\n".join(lines) + "\n"
