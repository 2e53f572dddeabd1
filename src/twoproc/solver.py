"""Transient solver for the truncated forward Kolmogorov system.

Fixed-step classical RK4 on dp/dt = A(t) p with a clip-and-renormalize
projection.  The integrator uses the conservative
truncation (arrivals switched off in the highest retained state), so exact
dynamics preserve the probability mass and the recorded pre-projection
defect is pure floating-point residue; a defect above the step-failure
threshold signals a step size that is genuinely too coarse.

The rates are evaluated as arrays, in chunks of RATE_CHUNK steps, on the
three stage grids t, t + h/2 and t + h, built with the same expressions as a
scalar evaluation.  One RK4 step definition serves a vector and an (n, m)
block of columns.  Its right-hand side A(t) X multiplies by the dense
(3n x n) stack of the constant parts (the layout of their bands, see
`matrices`) below BAND_MIN_N states; from
BAND_MIN_N on, A(t) is applied as a band: one (3,) x (3, 5n) product gives
its five diagonals and five shifted multiply-adds apply them, O(n) work and
memory where the dense stack takes O(n^2).  There are two paths:

* Period propagators.  The rates have period 1, so when 1/h is an integer the
  step maps repeat every period.  RK4 on the n x n identity over [0, 1],
  kept at every sample stride, gives the interval propagators; each later
  period is one batched product of them with the period's start, projected
  row by row, and its last row starts the next period.  The stage rates are
  evaluated once, for the first period, so a stage time on a table
  breakpoint falls on the same side in every period.
  `defect_per_unit_time` sums the mass change per sample interval and
  `min_entry_pre` is the minimum over the unprojected samples.
* One step at a time, projecting after every step, with the chunked stage
  rates bit-identical to calling the rates at every stage;
  `defect_per_unit_time` sums the per-step mass change.  This path runs
  when 1/h is not an integer, when the sample stride does not divide the
  period or the horizon, when the horizon holds fewer than
  MIN_PERIODS + n**2 / BUILD_PERIODS_N2 periods, or when the propagators
  would take more than PROPAGATOR_BUDGET bytes.  With stride 1 both paths
  check and sum the defect per step.

Truncation level is controlled empirically by doubling the state count until
the mean curve stops moving.  `limiting_regime` runs that search itself when
no n is given and reuses the empty-start trajectory it ends with.

The step is one for the whole solve: every trajectory of a search or a
limiting regime is integrated at it, so all of them share one sample grid.
A StepSizeError anywhere restarts the whole solve at h/2, at most
STEP_HALVINGS times, so a halved solve is the solve started at the final step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bounds import cumulative_trapezoid, fixed_alphas
from .matrices import TRUNCATION_CAP, WeightSequence, _layout, _rate_bands, require_truncation, weighted_norm
from .model import ModelSpec, job_counts

STEP_DEFECT_LIMIT = 1e-6
SAMPLE_TARGET = 8000
RATE_CHUNK = 1024  # RK4 steps whose stage rates are evaluated together (a 72 KiB block)
STEP_HALVINGS = 6  # times a solve restarts at half the step before giving up
# `integrate` reuses one period's propagators when the horizon holds at least
# MIN_PERIODS + n**2 / BUILD_PERIODS_N2 periods and their stack fits PROPAGATOR_BUDGET.
# Break-even (build time / time saved per period, 1 BLAS thread, 50 and 250 steps
# a period): 0.7 periods at n = 16, 1.1-1.2 at 32, 3.7-4.4 at 64, 21-25 at 128.
MIN_PERIODS = 3  # covers n = 16-32 more than twice over
BUILD_PERIODS_N2 = 512  # n**2 / 512 + 3 is 11 periods at n = 64 and 35 at n = 128
PROPAGATOR_BUDGET = 4 << 20  # bytes; 50 propagators at n = 128 would add 6.5 MB to a ~50 MB process
# `integrate` applies A(t) as a band from BAND_MIN_N states on, and the dense stack below.
# Microseconds per right-hand side, dense / banded (1 BLAS thread, medians): on a vector
# 6.5 / 11.6 at n = 64, 8.7 / 12.0 at 96, 10.5 / 8.3 at 128, 36.6 / 8.9 at 256; on an
# (n, 64) block 42.7 / 41.6 at 64, 79.4 / 48.4 at 96, 135.7 / 45.0 at 128.
BAND_MIN_N = 128
MAX_STEPS = 10**8  # RK4 steps a solve may plan; the largest bundled solve takes 2.4e5


class SolveError(RuntimeError):
    """The solver gave up on a valid model and settings."""


class StepSizeError(SolveError):
    """Per-step conservation defect exceeded STEP_DEFECT_LIMIT."""


class TruncationLimitError(SolveError):
    """Doubling passed TRUNCATION_CAP states without converging."""


class MixingHorizonError(SolveError):
    """Trajectories did not merge within the horizon."""


class FitWindowError(SolveError):
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
        if self.n is not None:
            require_truncation(self.n)
        for name in ("step", "horizon", "tol_truncation", "tol_mix"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value:g}")
        if self.horizon / self.step > MAX_STEPS:
            raise ValueError(f"horizon / step must be at most {MAX_STEPS:g} steps, got {self.horizon / self.step:.3g}")


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of the truncated system."""

    times: np.ndarray          # sample grid, increasing
    probs: np.ndarray          # len(times) x n, projected (stochastic) vectors
    mean: np.ndarray           # E(t) on the sample grid
    n: int
    step: float
    defect_per_unit_time: float  # pre-projection mass change per step or sample interval, summed, over the horizon
    min_entry_pre: float       # most negative pre-projection entry seen

    def prob_at(self, t: float) -> np.ndarray:
        """State vector at a sample time (within half a step of t)."""
        return self.probs[grid_index(self.times, self.step, t)]


def grid_index(times: np.ndarray, step: float, t: float) -> int:
    """Index of the sample time within half a step of t; ValueError when there is none."""
    idx = int(np.searchsorted(times, t))
    for j in (idx - 1, idx):  # times[idx] >= t, so idx + 1 is never nearer
        if 0 <= j < len(times) and abs(times[j] - t) <= step / 2 + 1e-12:
            return j
    raise ValueError(f"t={t:g} is not on the sample grid")


def far_initial_state(n: int) -> int:
    """Far-from-empty start: state index 100 when retained, else the highest."""
    return 100 if n > 101 else n - 1


def _steps_per_period(step: float) -> int | None:
    """1/step when it is an integer (to 1e-9), else None."""
    per_unit = 1.0 / step
    return round(per_unit) if abs(per_unit - round(per_unit)) <= 1e-9 else None


def _sample_stride(n_steps: int, step: float) -> int:
    """Stride dividing the steps-per-unit count so samples hit integer times."""
    want = max(1, math.ceil(n_steps / SAMPLE_TARGET))
    per_unit = _steps_per_period(step)
    if per_unit is None:
        return want
    if want >= per_unit:
        return per_unit * math.ceil(want / per_unit)
    return next(stride for stride in range(want, per_unit + 1) if per_unit % stride == 0)


def sample_grid(horizon: float, step: float) -> tuple[int, int, np.ndarray]:
    """Step count, sample stride and the sample times `integrate` records over [0, horizon].

    The samples are every stride steps from 0, and the last step.
    """
    n_steps = int(round(horizon / step))
    stride = _sample_stride(n_steps, step)
    # in floats, exact below 2**53, so that a step count past int64 does not overflow
    return n_steps, stride, np.minimum(np.arange(-(-n_steps // stride) + 1) * float(stride), n_steps) * step


def _project(p: np.ndarray) -> None:
    """Clip negatives, renormalize, and zero out the rounding residue of each row."""
    np.maximum(p, 0.0, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    top = np.argmax(p, axis=-1)
    residue = p.sum(axis=-1) - 1.0
    if p.ndim == 1:  # a vector projects in 10 us this way and in 16 us by the row form (n = 128)
        p[top] -= residue
    else:
        p[np.arange(len(p)), top] -= residue


def _stage_rates(spec: ModelSpec, h: float, lo: int, hi: int) -> np.ndarray:
    """Rows (lambda, mu1, mu2) at the stage times of steps lo..hi-1.

    Rows [0, m) hold the step starts i*h, rows [m, 2m) the half steps and
    rows [2m, 3m) the step ends, with m = hi - lo.
    """
    t = np.arange(lo, hi) * h
    grid = np.concatenate([t, t + h / 2, t + h])
    return np.stack(spec.rates(grid), axis=1)


def _step_rates(spec: ModelSpec, h: float, n_steps: int):
    """(start, half-step, end) rate rows of steps 0..n_steps-1, RATE_CHUNK steps per evaluation."""
    for lo in range(0, n_steps, RATE_CHUNK):
        chunk = _stage_rates(spec, h, lo, min(lo + RATE_CHUNK, n_steps))
        span = len(chunk) // 3
        yield from zip(chunk[:span], chunk[span:2 * span], chunk[2 * span:])


def _generator(n: int) -> np.ndarray:
    """The constant parts of A(t) as `_rhs` takes them: the (3, 5, n) band from BAND_MIN_N on, else (3n, n)."""
    bands = _rate_bands(n, conservative=True)
    return bands if n >= BAND_MIN_N else _layout(bands).reshape(3 * n, n)


def _rhs(R: np.ndarray, rates: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A(t) X for the stage rates (lambda, mu1, mu2), with R from `_generator`."""
    if R.ndim == 2:
        return (rates @ (R @ X).reshape(3, -1)).reshape(X.shape)
    # bands[2 + d, j] * X[j] goes to row j + d; a trailing axis spans a block's columns
    bands = (rates @ R.reshape(3, -1)).reshape((5, -1) + (1,) * (X.ndim - 1))
    Y = bands * X
    out = Y[2]
    out[:-2] += Y[0, 2:]
    out[:-1] += Y[1, 1:]
    out[1:] += Y[3, :-1]
    out[2:] += Y[4, :-2]
    return out


def _rk4_step(R: np.ndarray, stage: tuple, h: float, X: np.ndarray) -> np.ndarray:
    """One RK4 step of a vector or of an (n, m) block of columns."""
    rates, half_rates, end_rates = stage
    k1 = _rhs(R, rates, X)
    k2 = _rhs(R, half_rates, X + (h / 2) * k1)
    k3 = _rhs(R, half_rates, X + (h / 2) * k2)
    k4 = _rhs(R, end_rates, X + h * k3)
    return X + (h / 6) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _step_failure(defect: float, overshoot: float, t: float) -> StepSizeError:
    return StepSizeError(
        f"conservation defect {defect:.3g} / negative overshoot {overshoot:.3g} "
        f"at t={t:.6g} exceeds {STEP_DEFECT_LIMIT:g}; halve the step"
    )


def _by_steps(spec: ModelSpec, R: np.ndarray, h: float, n_steps: int, stride: int, p: np.ndarray):
    """Projected samples, defect sum and pre-projection minimum, one RK4 step at a time.

    Samples are taken every stride steps and at the last step (see `sample_grid`).
    """
    probs = np.empty((-(-n_steps // stride) + 1, len(p)))
    probs[0] = p
    si = 1
    defect_sum = 0.0
    min_entry = math.inf
    for i, stage in enumerate(_step_rates(spec, h, n_steps)):
        p = _rk4_step(R, stage, h, p)
        step_defect = abs(1.0 - p.sum())
        m = float(np.min(p))
        # RK4 preserves the mass sum exactly for a conservative generator, so
        # instability surfaces as negative overshoot rather than defect.
        if step_defect > STEP_DEFECT_LIMIT or m < -STEP_DEFECT_LIMIT:
            raise _step_failure(step_defect, m, i * h + h)
        if m < min_entry:
            min_entry = m
        defect_sum += step_defect
        _project(p)
        if (i + 1) % stride == 0 or i + 1 == n_steps:
            probs[si] = p
            si += 1
    return probs, defect_sum, min_entry


def _interval_propagators(spec: ModelSpec, R: np.ndarray, h: float, per_unit: int, stride: int) -> np.ndarray:
    """Q[s] maps the state at a period start to the state (s + 1) * stride steps later.

    RK4 on the identity block over one period [0, 1]; Q[-1] is the period map.
    """
    n = R.shape[-1]
    Q = np.empty((per_unit // stride, n, n))
    X = np.eye(n)
    for i, stage in enumerate(_step_rates(spec, h, per_unit)):
        X = _rk4_step(R, stage, h, X)
        if (i + 1) % stride == 0:
            Q[i // stride] = X
    return Q


def _by_periods(spec: ModelSpec, R: np.ndarray, h: float, n_steps: int, stride: int, p: np.ndarray):
    """As `_by_steps`, with each period one product of the interval propagators and its start."""
    n = len(p)
    Q = _interval_propagators(spec, R, h, _steps_per_period(h), stride)
    n_samples = n_steps // stride
    probs = np.empty((n_samples + 1, n))
    probs[0] = p
    defect_sum = 0.0
    min_entry = math.inf
    for lo in range(1, n_samples + 1, len(Q)):
        rows = min(len(Q), n_samples + 1 - lo)
        block = (Q[:rows].reshape(rows * n, n) @ probs[lo - 1]).reshape(rows, n)
        change = np.abs(np.diff(block.sum(axis=1), prepend=1.0))
        low = np.min(block, axis=1)
        # written so that a NaN from an overflowing build counts as a failure
        ok = (change <= STEP_DEFECT_LIMIT) & (low >= -STEP_DEFECT_LIMIT)
        if not ok.all():
            bad = int(np.argmin(ok))
            raise _step_failure(float(change[bad]), float(low[bad]), (lo + bad) * stride * h)
        defect_sum += float(change.sum())
        min_entry = min(min_entry, float(low.min()))
        _project(block)
        probs[lo:lo + rows] = block
    return probs, defect_sum, min_entry


def _use_propagators(n: int, h: float, n_steps: int, stride: int) -> bool:
    """Whether `integrate` reuses one period's propagators; reads only the grid and n."""
    per_unit = _steps_per_period(h)
    if per_unit is None or per_unit % stride or n_steps % stride:
        return False
    periods = n_steps / per_unit
    stack = (per_unit // stride) * n * n * 8
    return periods >= MIN_PERIODS + n * n / BUILD_PERIODS_N2 and stack <= PROPAGATOR_BUDGET


def integrate(spec: ModelSpec, settings: SolveSettings, p0) -> Trajectory:
    """RK4 integration over [0, horizon] from a probability vector p0."""
    if settings.n is None:
        raise ValueError("settings.n must be set; use choose_truncation first")
    n = settings.n
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (n,):
        raise ValueError(f"p0 must have length n={n}")
    if np.min(p0) < 0.0 or abs(p0.sum() - 1.0) > 1e-12:
        raise ValueError("p0 must be a probability vector")

    h = settings.step
    n_steps, stride, times = sample_grid(settings.horizon, h)
    R = _generator(n)
    p = p0.copy()
    _project(p)
    by = _by_periods if _use_propagators(n, h, n_steps, stride) else _by_steps
    probs, defect_sum, min_entry = by(spec, R, h, n_steps, stride, p)
    return Trajectory(
        times=times,
        probs=probs,
        mean=probs @ job_counts(n),
        n=n,
        step=h,
        defect_per_unit_time=defect_sum / settings.horizon,
        min_entry_pre=min(float(np.min(p0)), min_entry),
    )


def empty_start(n: int) -> np.ndarray:
    p = np.zeros(n)
    p[0] = 1.0
    return p


def far_start(n: int) -> np.ndarray:
    p = np.zeros(n)
    p[far_initial_state(n)] = 1.0
    return p


def _at_one_step(solve, spec: ModelSpec, settings: SolveSettings):
    """solve(spec, settings), restarted at half the step on each StepSizeError."""
    for _ in range(STEP_HALVINGS + 1):
        try:
            return solve(spec, settings)
        except StepSizeError:
            settings = replace(settings, step=settings.step / 2.0)
    raise StepSizeError(f"step halved {STEP_HALVINGS} times without meeting the defect limit")


def _truncation_search(spec: ModelSpec, settings: SolveSettings) -> Trajectory:
    """Empty-start trajectory at the state count the doubling search accepts."""
    n = 16
    prev = integrate(spec, replace(settings, n=n), empty_start(n))
    while True:
        if 2 * n > TRUNCATION_CAP:
            raise TruncationLimitError(
                f"no truncation up to {TRUNCATION_CAP} states met tol {settings.tol_truncation:g}; "
                "the system is likely overloaded"
            )
        cur = integrate(spec, replace(settings, n=2 * n), empty_start(2 * n))
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
    return _at_one_step(_truncation_search, spec, settings).n


def _both_starts(spec: ModelSpec, settings: SolveSettings) -> tuple[Trajectory, Trajectory]:
    """Empty- and far-start trajectories; the search picks n when it is None."""
    if settings.n is None:
        traj0 = _truncation_search(spec, settings)
    else:
        traj0 = integrate(spec, settings, empty_start(settings.n))
    return traj0, integrate(spec, replace(settings, n=traj0.n), far_start(traj0.n))


@dataclass(frozen=True)
class LimitingRegime:
    """Merged-trajectory summary and one period of the limiting regime."""

    t_mix: float
    cycle: Trajectory
    from_empty: Trajectory
    from_far: Trajectory


def _slice_trajectory(traj: Trajectory, lo: float, hi: float) -> Trajectory:
    mask = (traj.times >= lo - 1e-9) & (traj.times <= hi + 1e-9)
    return replace(traj, times=traj.times[mask], probs=traj.probs[mask], mean=traj.mean[mask])


def limiting_regime(spec: ModelSpec, settings: SolveSettings) -> LimitingRegime:
    """Integrate from the empty and the far state and extract the limit cycle.

    t_mix is the first sample time with ||p1 - p2||_1 < tol_mix; the returned
    cycle is the window [ceil(t_mix), ceil(t_mix)+1] of the empty-start
    trajectory.  With settings.n None the truncation search runs first and
    its empty-start trajectory at the accepted n is reused.
    """
    traj0, trajf = _at_one_step(_both_starts, spec, settings)
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
            + (f" (decay rate so far ~{rate:.4g})" if rate else "")
        )
    t_mix = float(traj0.times[below[0]])
    a = math.ceil(t_mix)
    if a + 1 > traj0.times[-1] + 1e-9:
        raise MixingHorizonError(
            f"merged at t={t_mix:g} but no full period remains before the horizon"
        )
    cycle = _slice_trajectory(traj0, a, a + 1)
    return LimitingRegime(t_mix=t_mix, cycle=cycle, from_empty=traj0, from_far=trajf)


@dataclass(frozen=True)
class DecayFit:
    beta_hat: float
    n_points: int
    window: tuple[float, float]


FIT_NORM_LO = 1e-8
FIT_NORM_HI = 1e-2


def decay_fit(traj1: Trajectory, traj2: Trajectory) -> DecayFit:
    """Least-squares decay rate of log ||p1(t) - p2(t)||_1.

    Uses samples with the norm inside [1e-8, 1e-2] (above rounding noise,
    below transient contamination).
    """
    if traj1.times.shape != traj2.times.shape or not np.allclose(traj1.times, traj2.times, atol=1e-12):
        raise ValueError("decay_fit needs a common sample grid")
    gap = np.sum(np.abs(traj1.probs - traj2.probs), axis=1)
    mask = (gap >= FIT_NORM_LO) & (gap <= FIT_NORM_HI)
    count = int(np.count_nonzero(mask))
    if count < 10:
        raise FitWindowError(f"only {count} samples inside the fit window [{FIT_NORM_LO:g}, {FIT_NORM_HI:g}]")
    ts = traj1.times[mask]
    slope = np.polyfit(ts, np.log(gap[mask]), 1)[0]
    return DecayFit(beta_hat=-float(slope), n_points=count, window=(float(ts[0]), float(ts[-1])))


@dataclass(frozen=True)
class ContractionCheck:
    """Measured weighted-norm contraction against the certified rates.

    `ratio_certified_max` tests a proven bound: the logarithmic norm makes
    exp(-int beta_fixed) a unit-prefactor envelope, so it stays at or below 1
    up to quadrature and step error, and `compare` fails it above 1.05.
    `prefactor_measured` is only a measurement: the prefactor N that the
    averaged-route envelope exp(-beta0 t) needs on this pair of trajectories.
    All suprema ignore samples where the gap has shrunk to rounding noise
    (below GAP_NOISE_FLOOR relative to the initial gap), where the envelope
    comparison carries no information.
    """

    prefactor_measured: float   # sup of ||z1(t) - z2(t)||_1D * exp(beta0 t) / its t = 0 value
    ratio_certified_max: float  # sup of ||z1 - z2||_1D * exp(int beta_fixed) / its t = 0 value


GAP_NOISE_FLOOR = 1e-13


def contraction_check(
    traj1: Trajectory,
    traj2: Trajectory,
    spec: ModelSpec,
    weights: WeightSequence,
    beta0: float,
) -> ContractionCheck:
    """Compare the weighted trajectory gap with its envelopes (see ContractionCheck).

    The fixed-weight curve beta*(tau) is integrated along the sample grid.
    """
    ts = traj1.times
    x = traj1.probs[:, 1:] - traj2.probs[:, 1:]
    wn = weighted_norm(x, weights)
    keep = wn >= max(GAP_NOISE_FLOOR, wn[0] * 1e-14)
    ts_k = ts[keep]
    wn_k = wn[keep]
    betas = np.min(fixed_alphas(*spec.rates(ts_k), weights.d(6)), axis=0)
    ratio_cert = wn_k * np.exp(cumulative_trapezoid(ts_k, betas)) / wn[0]
    return ContractionCheck(
        prefactor_measured=float(np.max(wn_k * np.exp(beta0 * (ts_k - ts[0])) / wn[0])),
        ratio_certified_max=float(np.max(ratio_cert)),
    )
