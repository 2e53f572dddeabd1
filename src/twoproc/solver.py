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
block of columns.  Below BAND_MIN_N states its right-hand side A(t) X
multiplies by the dense (3n x n) stack of the constant parts (the layout of
their bands, see `matrices`).  From BAND_MIN_N on, A(t) is applied as a band:
one (3, 3) x (3, 5n) product per step gives its five diagonals at the
step's three stage times, and each stage is one product with the diagonals
and one sum, O(n) work and memory where the dense stack takes O(n^2).

One RK4 loop keeps the unprojected state every sample stride steps and at
the last step, and the samples come one of two ways:

* Period propagators.  The rates have period 1, so when 1/h is an integer the
  step maps repeat every period: the loop on the n x n identity over [0, 1]
  gives the interval propagators, and each period is one batched product of
  them with its start.  The stage rates are evaluated for the first period
  only, so a stage time on a table breakpoint falls on the same side in
  every period.  An (m, n) stack of starts shares one build; with n given,
  `limiting_regime` passes both starts as one stack.
* Steps: the loop on the vector, max(1, RATE_CHUNK // stride) samples at a
  time, when 1/h is not an integer, the sample stride does not divide the
  period or the horizon, the horizon holds fewer than
  MIN_PERIODS + n**2 / BUILD_PERIODS_N2 periods, or the propagators would
  take more than PROPAGATOR_BUDGET bytes.

Each block of unprojected samples (a period's, or a block of steps') is
checked, summed and projected once: a mass change over a sample interval
above STEP_DEFECT_LIMIT, an entry below -STEP_DEFECT_LIMIT or a NaN fails
the step; `defect_per_unit_time` sums the mass changes, `min_entry_pre` is
the minimum over the unprojected samples, and the block's last projected
sample starts the next block.

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
from functools import partial

import numpy as np

from .bounds import fixed_alphas
from .matrices import TRUNCATION_CAP, WeightSequence, _layout, _rate_bands, require_truncation, weighted_norm
from .model import ModelSpec, job_counts

STEP_DEFECT_LIMIT = 1e-6
SAMPLE_TARGET = 8000
RATE_CHUNK = 1024  # RK4 steps whose stage rates are evaluated together (a 72 KiB block)
STEP_HALVINGS = 6  # times a solve restarts at half the step before giving up
# `integrate` reuses one period's propagators when the horizon holds at least
# MIN_PERIODS + n**2 / BUILD_PERIODS_N2 periods and their stack fits PROPAGATOR_BUDGET.
# Break-even in periods (build time / time saved per period) on the rho = 0.95 model
# lambda = 3.8 (1 + sin 2 pi t), mu1 = mu2 = 2, with the sample stride of a horizon of 40
# (1, 1, 2, 5) and the stack in MiB in brackets; 1 BLAS thread, best of 5:
#   n     h = 0.02      0.01          0.004         1e-3
#   16    0.9 (0.1)     0.9 (0.2)     0.8 (0.2)     0.7 (0.4)
#   32    1.4 (0.4)     1.4 (0.8)     1.4 (1.0)     1.3 (1.6)
#   64    4.3 (1.6)     4.4 (3.1)     4.1 (3.9)     4.0 (6.3)
#   96    8.0 (3.5)     13 (7.0)      8.5 (8.8)     6.8 (14)
#   128   16 (6.3)      29 (12.5)     17 (15.6)     12 (25)
#   192   38 (14)       67 (28)       29 (35)       32 (56)
#   256   never (25)    never (50)    151 (63)      82 (100)
# At stride 1 from n = 256 the period products stream the stack from memory and cost as much
# as the steps they replace; the byte budget also bounds the memory the stack adds.
MIN_PERIODS = 3  # 3 + n**2 / 1024: 3.3 periods at n = 16, 7 at 64, 12 at 96, 19 at 128
BUILD_PERIODS_N2 = 1024
PROPAGATOR_BUDGET = 8 << 20  # bytes: 50 propagators at n = 128 (6.25 MiB), not 125 (15.6 MiB)
# `integrate` applies A(t) as a band from BAND_MIN_N states on, and the dense stack below.
# Microseconds per RK4 step, dense / banded (1 BLAS thread, medians of 5 interleaved runs):
# on a vector 49.6 / 47.9 at n = 64, 65.6 / 54.3 at 96, 70.1 / 43.0 at 128, 230.9 / 60.1
# at 256; on an (n, 64) block 246 / 575 at 64, 593 / 551 at 96, 868 / 674 at 128.
BAND_MIN_N = 128  # the doubling search visits 64 and 128, not 96
MAX_STEPS = 10**8  # RK4 steps a solve may plan; the largest bundled solve takes 2.4e5


class SolveError(RuntimeError):
    """The solver gave up on a valid model and settings."""


class StepSizeError(SolveError):
    """A sample's mass change or negative overshoot exceeded STEP_DEFECT_LIMIT."""


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
    defect_per_unit_time: float  # pre-projection mass change per sample interval, summed, over the horizon
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
    p /= p.sum(axis=1, keepdims=True)
    p[np.arange(len(p)), np.argmax(p, axis=1)] -= p.sum(axis=1) - 1.0


def _stage_rates(spec: ModelSpec, h: float, lo: int, hi: int) -> np.ndarray:
    """Rows (lambda, mu1, mu2) at the stage times of steps lo..hi-1.

    Rows [0, m) hold the step starts i*h, rows [m, 2m) the half steps and
    rows [2m, 3m) the step ends, with m = hi - lo.
    """
    t = np.arange(lo, hi) * h
    grid = np.concatenate([t, t + h / 2, t + h])
    return np.stack(spec.rates(grid), axis=1)


def _step_rates(spec: ModelSpec, h: float, first: int, last: int):
    """(3, 3) stage rates of steps first..last-1, RATE_CHUNK steps per evaluation.

    Each row is (lambda, mu1, mu2); the rows are the step's start, half step and end.
    """
    for lo in range(first, last, RATE_CHUNK):
        chunk = _stage_rates(spec, h, lo, min(lo + RATE_CHUNK, last))
        yield from np.ascontiguousarray(chunk.reshape(3, -1, 3).swapaxes(0, 1))


def _generator(n: int) -> np.ndarray:
    """The constant parts of A(t) as `_rk4_step` takes them: the (3, 5, n) band from BAND_MIN_N on, else (3n, n)."""
    bands = _rate_bands(n, conservative=True)
    return bands if n >= BAND_MIN_N else _layout(bands).reshape(3 * n, n)


def _band_stages(R: np.ndarray, stage: np.ndarray, shape: tuple):
    """rhs(i, Y) = A(t_i) Y at the stage times of `stage`, for the band R and Y of the given shape.

    One (3, 3) x (3, 5n) product gives the five diagonals of A at all three
    stage times.  bands[2 + d, j] * Y[j] belongs in row j + d: it is written
    at [d + 2, j] of a zero-padded (5, n + 5) buffer, which read as rows of
    n + 4 puts it at column j + d + 2, so one sum over the rows gives A Y.
    A trailing axis of Y spans a block's columns.
    """
    n, tail = shape[0], shape[1:]
    bands = (stage @ R.reshape(3, -1)).reshape((3, 5, n) + (1,) * len(tail))
    buf = np.zeros((5, n + 5) + tail)
    skewed = buf.reshape(-1)[:5 * (n + 4) * math.prod(tail)].reshape((5, n + 4) + tail)[:, 2:n + 2]

    def rhs(i: int, Y: np.ndarray) -> np.ndarray:
        np.multiply(bands[i], Y, out=buf[:, :n])
        return skewed.sum(axis=0)

    return rhs


def _rk4_step(R: np.ndarray, stage: np.ndarray, h: float, X: np.ndarray) -> np.ndarray:
    """One RK4 step of a vector or of an (n, m) block of columns, with R from `_generator`.

    stage holds the rates at the step's start, half step and end; k2 and k3 share the half step.
    """
    if R.ndim == 2:
        def rhs(i, Y):
            return (stage[i] @ (R @ Y).reshape(3, -1)).reshape(Y.shape)
    else:
        rhs = _band_stages(R, stage, X.shape)
    k1 = rhs(0, X)
    k2 = rhs(1, X + (h / 2) * k1)
    k3 = rhs(1, X + (h / 2) * k2)
    k4 = rhs(2, X + h * k3)
    return X + (h / 6) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _step_failure(defect: float, overshoot: float, t: float) -> StepSizeError:
    return StepSizeError(
        f"conservation defect {defect:.3g} / negative overshoot {overshoot:.3g} "
        f"at t={t:.6g} exceeds {STEP_DEFECT_LIMIT:g}; halve the step"
    )


def _by_steps(spec: ModelSpec, R: np.ndarray, h: float, n_steps: int, stride: int, X: np.ndarray, lo: int, out):
    """RK4 from X, a vector or an (n, m) block, at sample lo; out gets the unprojected samples after it.

    Sample s is step min(s * stride, n_steps), as in `sample_grid`.
    """
    first, last = lo * stride, min((lo + len(out)) * stride, n_steps)
    for i, stage in enumerate(_step_rates(spec, h, first, last)):
        X = _rk4_step(R, stage, h, X)
        if (i + 1) % stride == 0 or first + i + 1 == last:
            out[i // stride] = X
    return out


def _interval_propagators(spec: ModelSpec, R: np.ndarray, h: float, per_unit: int, stride: int) -> np.ndarray:
    """Q[s] maps the state at a period start to the state (s + 1) * stride steps later.

    RK4 on the identity block over one period [0, 1]; Q[-1] is the period map.
    """
    n = R.shape[-1]
    return _by_steps(spec, R, h, per_unit, stride, np.eye(n), 0, np.empty((per_unit // stride, n, n)))


def _by_periods(Q: np.ndarray, p: np.ndarray, lo: int, out: np.ndarray) -> None:
    """As `_by_steps` from a period start, by one product of the interval propagators Q and p."""
    rows, n = out.shape
    out[:] = (Q[:rows].reshape(rows * n, n) @ p).reshape(rows, n)


def _accepted(advance, block: int, times: np.ndarray, p: np.ndarray):
    """Projected samples on `times` from the projected start p, defect sum and pre-projection minimum.

    advance(q, lo, out) writes to out the unprojected samples after the projected
    sample q at lo, `block` of them at a time.
    """
    probs = np.empty((len(times), len(p)))
    probs[0] = p
    defect_sum = 0.0
    min_entry = math.inf
    for lo in range(0, len(times) - 1, block):
        out = probs[lo + 1:lo + 1 + block]
        advance(probs[lo], lo, out)
        change = np.abs(np.diff(out.sum(axis=1), prepend=1.0))
        low = np.min(out, axis=1)
        # RK4 preserves the mass sum exactly for a conservative generator, so instability
        # surfaces as negative overshoot rather than defect; written so that a NaN fails too
        ok = (change <= STEP_DEFECT_LIMIT) & (low >= -STEP_DEFECT_LIMIT)
        if not ok.all():
            bad = int(np.argmin(ok))
            raise _step_failure(float(change[bad]), float(low[bad]), times[lo + 1 + bad])
        defect_sum += float(change.sum())
        min_entry = min(min_entry, float(low.min()))
        _project(out)
    return probs, defect_sum, min_entry


def _use_propagators(n: int, h: float, n_steps: int, stride: int) -> bool:
    """Whether `integrate` reuses one period's propagators; reads only the grid and n."""
    per_unit = _steps_per_period(h)
    if per_unit is None or per_unit % stride or n_steps % stride:
        return False
    periods = n_steps / per_unit
    stack = (per_unit // stride) * n * n * 8
    return periods >= MIN_PERIODS + n * n / BUILD_PERIODS_N2 and stack <= PROPAGATOR_BUDGET


def integrate(spec: ModelSpec, settings: SolveSettings, p0) -> Trajectory | tuple[Trajectory, ...]:
    """RK4 integration over [0, horizon] from a probability vector p0, or from each row of an
    (m, n) stack p0 on one layout of the generator and one build of the period propagators:
    then a tuple of m trajectories, each bit-identical to integrating its row alone."""
    if settings.n is None:
        raise ValueError("settings.n must be set; use choose_truncation first")
    n = settings.n
    p0 = np.asarray(p0, dtype=float)
    if p0.ndim not in (1, 2) or p0.shape[-1] != n:
        raise ValueError(f"p0 must have length n={n}, or be an (m, n) stack of such rows")
    # written so that a NaN or an infinite entry fails
    if not np.all((np.min(p0, axis=-1) >= 0.0) & (np.abs(p0.sum(axis=-1) - 1.0) <= 1e-12)):
        raise ValueError("p0 must be a probability vector, or a stack of them")

    h = settings.step
    n_steps, stride, times = sample_grid(settings.horizon, h)
    R = _generator(n)
    starts = p0.reshape(-1, n)
    projected = starts.copy()
    _project(projected)
    trajs = []
    # an unstable step may overflow to inf and NaN before its block is checked, and the check fails NaN
    with np.errstate(over="ignore", invalid="ignore"):
        if _use_propagators(n, h, n_steps, stride):
            Q = _interval_propagators(spec, R, h, _steps_per_period(h), stride)
            advance, block = partial(_by_periods, Q), len(Q)
        else:
            advance, block = partial(_by_steps, spec, R, h, n_steps, stride), max(1, RATE_CHUNK // stride)
        for start, p in zip(starts, projected):
            probs, defect_sum, min_entry = _accepted(advance, block, times, p)
            trajs.append(Trajectory(times=times, probs=probs, mean=probs @ job_counts(n), n=n, step=h,
                                    defect_per_unit_time=defect_sum / settings.horizon,
                                    min_entry_pre=min(float(np.min(start)), min_entry)))
    return tuple(trajs) if p0.ndim == 2 else trajs[0]


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
    """Empty- and far-start trajectories; the search picks n when it is None.

    At a given n one stacked `integrate` call runs both starts on one build.  After a search
    the far start runs alone on a build of its own at the accepted n: carrying it through the
    search would add a run at the rejected level 2n (a step-path run from n = 128 at the default
    step and horizon, 50,000 vector steps or about 2 s) to save a rebuild of 0.17 s at n = 64.
    """
    if settings.n is None:
        traj0 = _truncation_search(spec, settings)
        return traj0, integrate(spec, replace(settings, n=traj0.n), far_start(traj0.n))
    return integrate(spec, settings, np.stack([empty_start(settings.n), far_start(settings.n)]))


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


def _regime(spec: ModelSpec, settings: SolveSettings) -> LimitingRegime:
    traj0, trajf = _both_starts(spec, settings)
    gap = np.sum(np.abs(traj0.probs - trajf.probs), axis=1)
    below = np.nonzero(gap < settings.tol_mix)[0]
    if len(below) == 0:
        raise MixingHorizonError(f"trajectories did not merge to {settings.tol_mix:g} within horizon "
                                 f"{settings.horizon:g} (l1 gap {gap[-1]:.3g} at t = {traj0.times[-1]:g})")
    t_mix = float(traj0.times[below[0]])
    per_unit = _steps_per_period(settings.step)
    # samples whole periods apart put one sample in a period window: integrate the
    # period after t_mix, an integer time then, from the merged state
    whole = per_unit is not None and sample_grid(settings.horizon, settings.step)[1] % per_unit == 0
    a = round(t_mix) if whole else math.ceil(t_mix)
    if a + 1 > traj0.times[-1] + 1e-9:
        raise MixingHorizonError(f"merged at t={t_mix:g} but no full period remains before the horizon")
    if whole:
        cycle = integrate(spec, replace(settings, n=traj0.n, horizon=1.0), traj0.probs[below[0]])
        cycle = replace(cycle, times=cycle.times + a)
    else:
        cycle = _slice_trajectory(traj0, a, a + 1)
    return LimitingRegime(t_mix=t_mix, cycle=cycle, from_empty=traj0, from_far=trajf)


def limiting_regime(spec: ModelSpec, settings: SolveSettings) -> LimitingRegime:
    """Integrate from the empty and the far state and extract the limit cycle.

    t_mix is the first sample time with ||p1 - p2||_1 < tol_mix; the returned
    cycle is the window [ceil(t_mix), ceil(t_mix)+1] of the empty-start
    trajectory, or one period integrated from t_mix when the samples are whole
    periods apart.  With settings.n None the truncation search runs first and
    its empty-start trajectory at the accepted n is reused.
    """
    return _at_one_step(_regime, spec, settings)


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


def cumulative_trapezoid(ts: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Trapezoid integrals of ys from ts[0] to each ts[i]."""
    return np.concatenate([[0.0], np.cumsum((ys[1:] + ys[:-1]) / 2.0 * np.diff(ts))])


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
