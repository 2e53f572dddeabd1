"""Transient solver for the truncated forward Kolmogorov system.

Fixed-step classical RK4 on dp/dt = A(t) p with a clip-and-renormalize
projection after every step.  The integrator uses the conservative
truncation (arrivals switched off in the highest retained state), so exact
dynamics preserve the probability mass and the recorded pre-projection
defect is pure floating-point residue; a defect above the step-failure
threshold signals a step size that is genuinely too coarse.

The rates are evaluated as arrays once per integration, in chunks of
RATE_CHUNK steps, on the three stage grids t, t + h/2 and t + h; the stage
times are built with the same expressions as a scalar evaluation, so the
trajectory is bit-identical to calling the rates at every stage.

Truncation level is controlled empirically by doubling the state count until
the mean curve stops moving.  `limiting_regime` runs that search itself when
no n is given and reuses the empty-start trajectory it ends with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bounds import cumulative_trapezoid, fixed_alphas
from .matrices import WeightSequence, rate_parts, weighted_norm
from .model import ModelSpec, job_counts

STEP_DEFECT_LIMIT = 1e-6
TRUNCATION_CAP = 4096
SAMPLE_TARGET = 8000
RATE_CHUNK = 1024  # RK4 steps whose stage rates are evaluated together (a 72 KiB block)
STEP_HALVINGS = 6  # step halvings `integrate_with_halving` tries before giving up


class StepSizeError(RuntimeError):
    """Per-step conservation defect exceeded STEP_DEFECT_LIMIT."""


class TruncationLimitError(RuntimeError):
    """Doubling passed TRUNCATION_CAP states without converging."""


class MixingHorizonError(RuntimeError):
    """Trajectories did not merge within the horizon."""

    def __init__(self, message: str, measured_rate: float | None = None):
        super().__init__(message)
        self.measured_rate = measured_rate


class FitWindowError(RuntimeError):
    """Too few usable points in the decay-fit window."""


@dataclass(frozen=True)
class SolveSettings:
    """Integration controls.

    n may be left None; `limiting_regime` then runs the truncation search.
    """

    n: int | None = None
    step: float = 1e-3
    horizon: float = 50.0
    tol_truncation: float = 1e-6
    tol_mix: float = 1e-5

    def __post_init__(self):
        if self.step <= 0.0:
            raise ValueError("step must be positive")
        if self.n is not None and self.n < 5:
            raise ValueError("truncation must keep at least 5 states")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of the truncated system."""

    times: np.ndarray          # sample grid, increasing
    probs: np.ndarray          # len(times) x n, projected (stochastic) vectors
    mean: np.ndarray           # E(t) on the sample grid
    l1_defect: np.ndarray      # pre-projection |1 - sum(p)| at each sample
    n: int
    step: float
    defect_total: float        # sum of per-step pre-projection defects
    defect_per_unit_time: float
    min_entry_pre: float       # most negative pre-projection entry seen

    def prob_at(self, t: float) -> np.ndarray:
        """State vector at a sample time (within half a step of t)."""
        idx = int(np.searchsorted(self.times, t))
        for j in (idx - 1, idx, idx + 1):
            if 0 <= j < len(self.times) and abs(self.times[j] - t) <= self.step / 2 + 1e-12:
                return self.probs[j]
        raise ValueError(f"t={t:g} is not on the sample grid")


def far_initial_state(n: int) -> int:
    """Far-from-empty start: state index 100 when retained, else the highest."""
    return 100 if n > 101 else n - 1


def _sample_stride(n_steps: int, step: float) -> int:
    """Stride dividing the steps-per-unit count so samples hit integer times."""
    want = max(1, math.ceil(n_steps / SAMPLE_TARGET))
    per_unit = 1.0 / step
    if abs(per_unit - round(per_unit)) > 1e-9:
        return want
    per_unit = int(round(per_unit))
    if want >= per_unit:
        return per_unit * math.ceil(want / per_unit)
    for stride in range(want, per_unit + 1):
        if per_unit % stride == 0:
            return stride
    return per_unit


def _project(p: np.ndarray) -> None:
    """Clip negatives, renormalize, and zero out the rounding residue."""
    np.maximum(p, 0.0, out=p)
    p /= p.sum()
    p[int(np.argmax(p))] -= p.sum() - 1.0


def _stage_rates(spec: ModelSpec, t0: float, h: float, lo: int, hi: int) -> np.ndarray:
    """Rows (lambda, mu1, mu2) at the stage times of steps lo..hi-1.

    Rows [0, m) hold the step starts t0 + i*h, rows [m, 2m) the half steps and
    rows [2m, 3m) the step ends, with m = hi - lo.
    """
    t = t0 + np.arange(lo, hi) * h
    grid = np.concatenate([t, t + h / 2, t + h])
    return np.stack(spec.rates(grid), axis=1)


def integrate(spec: ModelSpec, settings: SolveSettings, p0, t0: float = 0.0) -> Trajectory:
    """RK4 integration over [t0, t0 + horizon] from a probability vector p0."""
    if settings.n is None:
        raise ValueError("settings.n must be set; use choose_truncation first")
    n = settings.n
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (n,):
        raise ValueError(f"p0 must have length n={n}")
    if np.min(p0) < 0.0 or abs(p0.sum() - 1.0) > 1e-12:
        raise ValueError("p0 must be a probability vector")

    h = settings.step
    n_steps = int(round(settings.horizon / h))
    stride = _sample_stride(n_steps, h)
    R = rate_parts(n, conservative=True).reshape(3 * n, n)

    sample_idx = list(range(0, n_steps + 1, stride))
    if sample_idx[-1] != n_steps:
        sample_idx.append(n_steps)
    counts = job_counts(n)

    times = np.empty(len(sample_idx))
    probs = np.empty((len(sample_idx), n))
    means = np.empty(len(sample_idx))
    defects = np.empty(len(sample_idx))

    p = p0.copy()
    _project(p)
    defect_total = 0.0
    min_entry = float(np.min(p0))
    si = 0
    step_defect = 0.0
    for i in range(n_steps + 1):
        if si < len(sample_idx) and i == sample_idx[si]:
            times[si] = t0 + i * h
            probs[si] = p
            means[si] = counts @ p
            defects[si] = step_defect
            si += 1
        if i == n_steps:
            break
        j = i % RATE_CHUNK
        if j == 0:
            chunk = _stage_rates(spec, t0, h, i, min(i + RATE_CHUNK, n_steps))
            span = len(chunk) // 3
        rates, half_rates, end_rates = chunk[j], chunk[span + j], chunk[2 * span + j]
        k1 = rates @ (R @ p).reshape(3, n)
        k2 = half_rates @ (R @ (p + (h / 2) * k1)).reshape(3, n)
        k3 = half_rates @ (R @ (p + (h / 2) * k2)).reshape(3, n)
        k4 = end_rates @ (R @ (p + h * k3)).reshape(3, n)
        p = p + (h / 6) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        step_defect = abs(1.0 - p.sum())
        m = float(np.min(p))
        # RK4 preserves the mass sum exactly for a conservative generator, so
        # instability surfaces as negative overshoot rather than defect.
        if step_defect > STEP_DEFECT_LIMIT or m < -STEP_DEFECT_LIMIT:
            raise StepSizeError(
                f"conservation defect {step_defect:.3g} / negative overshoot {m:.3g} "
                f"at t={t0 + i * h + h:.6g} exceeds {STEP_DEFECT_LIMIT:g}; halve the step"
            )
        if m < min_entry:
            min_entry = m
        defect_total += step_defect
        _project(p)

    return Trajectory(
        times=times,
        probs=probs,
        mean=means,
        l1_defect=defects,
        n=n,
        step=h,
        defect_total=defect_total,
        defect_per_unit_time=defect_total / settings.horizon,
        min_entry_pre=min_entry,
    )


def integrate_with_halving(spec: ModelSpec, settings: SolveSettings, p0) -> Trajectory:
    """Integrate from t = 0, halving the step on step-size failures."""
    for _ in range(STEP_HALVINGS + 1):
        try:
            return integrate(spec, settings, p0)
        except StepSizeError:
            settings = replace(settings, step=settings.step / 2.0)
    raise StepSizeError(f"step halved {STEP_HALVINGS} times without meeting the defect limit")


def empty_start(n: int) -> np.ndarray:
    p = np.zeros(n)
    p[0] = 1.0
    return p


def far_start(n: int) -> np.ndarray:
    p = np.zeros(n)
    p[far_initial_state(n)] = 1.0
    return p


def _truncation_search(spec: ModelSpec, settings: SolveSettings) -> Trajectory:
    """Empty-start trajectory at the state count the doubling search accepts.

    Each level is integrated with step halving.  Once a level needs a smaller
    step, that step carries forward, and the previous level is integrated
    again at it, so the n and 2n means are always compared on one grid.
    """
    n = 16
    prev = integrate_with_halving(spec, replace(settings, n=n), empty_start(n))
    while True:
        if 2 * n > TRUNCATION_CAP:
            raise TruncationLimitError(
                f"no truncation up to {TRUNCATION_CAP} states met tol {settings.tol_truncation:g}; "
                "the system is likely overloaded"
            )
        cur = integrate_with_halving(spec, replace(settings, n=2 * n, step=prev.step), empty_start(2 * n))
        if cur.step != prev.step:
            prev = integrate(spec, replace(settings, n=n, step=cur.step), empty_start(n))
        gap = float(np.max(np.abs(prev.mean - cur.mean)))
        if gap < settings.tol_truncation:
            return prev
        n *= 2
        prev = cur


def choose_truncation(spec: ModelSpec, settings: SolveSettings) -> int:
    """Double the state count from 16 until the mean curve stops moving.

    Accepts n once sup_t |E_n(t) - E_2n(t)| < tol_truncation over the horizon
    (from the empty start).  Raises TruncationLimitError past 4096 states.
    """
    return _truncation_search(spec, settings).n


@dataclass(frozen=True)
class LimitingRegime:
    """Merged-trajectory summary and one period of the limiting regime."""

    t_mix: float
    cycle: Trajectory
    from_empty: Trajectory
    from_far: Trajectory
    l1_gap: np.ndarray  # ||p1(t) - p2(t)||_1 on the sample grid


def _slice_trajectory(traj: Trajectory, lo: float, hi: float) -> Trajectory:
    mask = (traj.times >= lo - 1e-9) & (traj.times <= hi + 1e-9)
    return replace(
        traj,
        times=traj.times[mask],
        probs=traj.probs[mask],
        mean=traj.mean[mask],
        l1_defect=traj.l1_defect[mask],
    )


def limiting_regime(spec: ModelSpec, settings: SolveSettings) -> LimitingRegime:
    """Integrate from the empty and the far state and extract the limit cycle.

    t_mix is the first sample time with ||p1 - p2||_1 < tol_mix; the returned
    cycle is the window [ceil(t_mix), ceil(t_mix)+1] of the empty-start
    trajectory.  With settings.n None the truncation search runs first and
    its empty-start trajectory at the accepted n is reused.  Both starts are
    integrated at one common step: when the far start needs a smaller step,
    the empty start is integrated again at that step.
    """
    if settings.n is None:
        traj0 = _truncation_search(spec, settings)
        settings = replace(settings, n=traj0.n)
    else:
        traj0 = integrate_with_halving(spec, settings, empty_start(settings.n))
    n = settings.n
    trajf = integrate_with_halving(spec, replace(settings, step=traj0.step), far_start(n))
    if trajf.step != traj0.step:
        traj0 = integrate(spec, replace(settings, step=trajf.step), empty_start(n))
    gap = np.sum(np.abs(traj0.probs - trajf.probs), axis=1)
    below = np.nonzero(gap < settings.tol_mix)[0]
    if len(below) == 0:
        rate = None
        pos = gap > 0
        if np.count_nonzero(pos) > 10:
            slope = np.polyfit(traj0.times[pos], np.log(gap[pos]), 1)[0]
            rate = -float(slope)
        raise MixingHorizonError(
            f"trajectories did not merge to {settings.tol_mix:g} within horizon {settings.horizon:g}"
            + (f" (decay rate so far ~{rate:.4g})" if rate else ""),
            measured_rate=rate,
        )
    t_mix = float(traj0.times[below[0]])
    a = math.ceil(t_mix)
    if a + 1 > traj0.times[-1] + 1e-9:
        raise MixingHorizonError(
            f"merged at t={t_mix:g} but no full period remains before the horizon",
            measured_rate=None,
        )
    cycle = _slice_trajectory(traj0, a, a + 1)
    return LimitingRegime(t_mix=t_mix, cycle=cycle, from_empty=traj0, from_far=trajf, l1_gap=gap)


@dataclass(frozen=True)
class DecayFit:
    beta_hat: float
    prefactor_hat: float
    n_points: int
    window: tuple[float, float]


FIT_NORM_LO = 1e-8
FIT_NORM_HI = 1e-2


def decay_fit(traj1: Trajectory, traj2: Trajectory, weights: WeightSequence | None = None) -> DecayFit:
    """Least-squares decay rate of log ||p1(t) - p2(t)||_1.

    Uses samples with the norm inside [1e-8, 1e-2] (above rounding noise,
    below transient contamination).  The prefactor is the fitted intercept
    relative to the initial gap, in the weighted norm when weights are given.
    """
    if traj1.times.shape != traj2.times.shape or not np.allclose(traj1.times, traj2.times, atol=1e-12):
        raise ValueError("decay_fit needs a common sample grid")
    gap = np.sum(np.abs(traj1.probs - traj2.probs), axis=1)
    mask = (gap >= FIT_NORM_LO) & (gap <= FIT_NORM_HI)
    if np.count_nonzero(mask) < 10:
        raise FitWindowError(
            f"only {int(np.count_nonzero(mask))} samples inside the fit window [{FIT_NORM_LO:g}, {FIT_NORM_HI:g}]"
        )
    ts = traj1.times[mask]
    slope, intercept = np.polyfit(ts, np.log(gap[mask]), 1)
    if weights is not None:
        x0 = (traj1.probs[0] - traj2.probs[0])[1:]
        ref = weighted_norm(x0[None, :], weights)[0]
    else:
        ref = float(np.sum(np.abs(traj1.probs[0] - traj2.probs[0])))
    return DecayFit(
        beta_hat=-float(slope),
        prefactor_hat=float(np.exp(intercept) / ref),
        n_points=int(np.count_nonzero(mask)),
        window=(float(ts[0]), float(ts[-1])),
    )


@dataclass(frozen=True)
class ContractionCheck:
    """Measured weighted-norm contraction against the certified rates.

    All suprema ignore samples where the gap has shrunk to rounding noise
    (below GAP_NOISE_FLOOR relative to the initial gap), where the envelope
    comparison carries no information.
    """

    ratio_avg: np.ndarray       # ||z1(t) - z2(t)||_1D * exp(beta0 t) / its t = 0 value, masked region only
    prefactor_measured: float   # sup of ratio_avg
    ratio_certified_max: float  # sup of ||z1 - z2||_1D * exp(int beta_fixed) / its t = 0 value
    p_chain_ratio_max: float    # sup of ||p1 - p2||_1 / ||z1 - z2||_1D, at most the chain constant 2/epsilon


GAP_NOISE_FLOOR = 1e-13


def contraction_check(
    traj1: Trajectory,
    traj2: Trajectory,
    spec: ModelSpec,
    weights: WeightSequence,
    beta0: float,
) -> ContractionCheck:
    """Compare the weighted trajectory gap with its certified envelopes.

    ratio_avg measures the averaged-route bound exp(-beta0 t) up to a
    prefactor; ratio_certified integrates the fixed-weight curve beta*(tau)
    along the grid, which the logarithmic norm makes a unit-prefactor bound.
    """
    ts = traj1.times
    x = traj1.probs[:, 1:] - traj2.probs[:, 1:]
    wn = weighted_norm(x, weights)
    keep = wn >= max(GAP_NOISE_FLOOR, wn[0] * 1e-14)
    ts_k = ts[keep]
    wn_k = wn[keep]
    ratio_avg = wn_k * np.exp(beta0 * (ts_k - ts[0])) / wn[0]
    betas = np.min(fixed_alphas(*spec.rates(ts_k), weights.d(6)), axis=0)
    ratio_cert = wn_k * np.exp(cumulative_trapezoid(ts_k, betas)) / wn[0]
    p_gap = np.sum(np.abs(traj1.probs[keep] - traj2.probs[keep]), axis=1)
    return ContractionCheck(
        ratio_avg=ratio_avg,
        prefactor_measured=float(np.max(ratio_avg)),
        ratio_certified_max=float(np.max(ratio_cert)),
        p_chain_ratio_max=float(np.max(p_gap / wn_k)),
    )
