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

Each path keeps the unprojected state every sample stride steps and at the
last step, and the samples come one of three ways.  The rates have period
1 and `SolveSettings` rounds the step to 1/k, so every way takes step i's
stage rates at the stage times of step i mod k: a stage time on a table
breakpoint falls on the same side in every period, and the ways agree.

* Period propagators: the loop on the n x n identity over [0, 1] gives the
  interval propagators, and each period is one batched product of them with
  its start.  Taken when the sample stride divides the period and the
  horizon, the horizon holds at least n**2 / BUILD_PERIODS_N2 periods and
  the propagators fit PROPAGATOR_BUDGET bytes.
* Step maps: one RK4 step of a linear system is a matrix, a degree-4
  polynomial in the stage values of A, so its diagonals are -8..8.  One RK4
  step of a 17-column probe block per step of the first period reads them
  back, and each vector step is then one product with its 17 diagonals and
  one sum.  A's columns repeat but for the first 4 and the last, and a map's
  column reads A's within 6 of it, so on the band the probe runs on 18
  states and the maps of any n tile its head, its one repeating column and
  its tail.  Taken otherwise when the maps fit PROPAGATOR_BUDGET bytes.
* Steps: the loop on the vector, when the maps would exceed the budget.

An (m, n) stack of starts shares one build of the propagators or maps, which
then advance each row alone; the last two ways run max(1, RATE_CHUNK //
stride) samples at a time.

Each block of unprojected samples (a period's, or a block of steps') is
checked, summed and projected once: a mass change over a sample interval
above STEP_DEFECT_LIMIT, an entry below -STEP_DEFECT_LIMIT or a NaN fails
the step; `defect_per_unit_time` sums the mass changes, `min_entry_pre` is
the minimum over the unprojected samples, and the block's last projected
sample starts the next block.

Truncation level is controlled empirically by doubling the state count until
the mean curve stops moving.  `limiting_regime` runs that search itself when
no n is given, reuses the empty-start trajectory it ends with and runs the far
start on the propagators or maps of the accepted level; with n given, it
passes both starts as one stack.

The step is one for the whole solve: every trajectory of a search or a
limiting regime is integrated at it, so all of them share one sample grid.
A StepSizeError anywhere restarts the whole solve at h/2, at most
STEP_HALVINGS times, so a halved solve is the solve started at the final step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, partial

import numpy as np

from .bounds import fixed_alphas
from .matrices import (TRUNCATION_CAP, WeightSequence, _layout, _rate_bands, _repeating_columns, require_truncation,
                       weighted_norm)
from .model import ModelSpec, job_counts

STEP_DEFECT_LIMIT = 1e-6
SAMPLE_TARGET = 8000
RATE_CHUNK = 1024  # RK4 steps whose stage rates are evaluated together (a 72 KiB block)
STEP_HALVINGS = 6  # times a solve restarts at half the step before giving up
# `integrate` reuses one period's propagators when the horizon holds at least n**2 /
# BUILD_PERIODS_N2 periods and their stack fits PROPAGATOR_BUDGET, and else steps with one
# period's step maps when those fit it.  Break-even in periods of the propagators
# against the step maps (the build time they add / the time they save per period) on the
# rho = 0.95 model lambda = 3.8 (1 + sin 2 pi t), mu1 = mu2 = 2, with the sample stride of a
# horizon of 40 (1, 1, 2, 5) and the stack / the maps in MiB in brackets; 1 BLAS thread, best
# of 3; 0 where the propagators cost no more to build and less per period.  From n = 128 on
# the maps are tiled from an 18-state probe, a build of 2.3-2.9 ms at h = 0.02 and 12-14 ms
# at h = 0.004 for every n:
#   n     h = 0.02            0.01              0.004             1e-3
#   16    0 (0.1 / 0.1)       0 (0.2 / 0.2)     0 (0.2 / 0.5)     0 (0.4 / 2.1)
#   32    0.5 (0.4 / 0.2)     0.9 (0.8 / 0.4)   0.6 (1.0 / 1.0)   0.2 (1.6 / 4.2)
#   64    32 (1.6 / 0.4)      31 (3.1 / 0.8)    24 (3.9 / 2.1)    21 (6.3 / 8.3)
#   96    1395 (3.5 / 0.6)    264 (7.0 / 1.3)   109 (8.8 / 3.1)   85 (14 / 12)
#   128   never (6.3 / 0.8)   2078 (12.5 / 1.7) 139 (15.6 / 4.2)  92 (25 / 17)
#   192   never (14 / 1.3)    never (28 / 2.5)  never (35 / 6.2)  438 (56 / 25)
#   256   never (25 / 1.7)    never (50 / 3.3)  never (63 / 8.3)  never (100 / 33)
# Of the rows from n = 128 on only h = 0.02 at n = 128 fits the budget; the rule takes the
# propagators there from 102 periods though that cell reads "never" at stride 1.
# A step map costs one product of 17n entries, a propagator n**2 / stride, so from n = 128 at
# stride 1 the period products cost as much as the steps they replace.  Where the maps exceed
# the budget (n of 62 and more at h = 1e-3) the propagators face the stage-by-stage steps,
# which they beat sooner, so the rule then errs towards the steps.
BUILD_PERIODS_N2 = 160  # n**2 / 160: 1.6 periods at n = 16, 6.4 at 32, 26 at 64, 58 at 96, 102 at 128
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
    The step is rounded down to 1/k, k = ceil(1/step) whole steps per period, or
    k = round(1/step) when that is 1/step to a relative 1e-9: 1/k keeps its float.
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
        per_unit = 1.0 / self.step
        if per_unit < math.inf:
            k = round(per_unit)
            object.__setattr__(self, "step", 1.0 / (k if abs(per_unit - k) <= 1e-9 * k else math.ceil(per_unit)))
        if self.horizon / self.step > MAX_STEPS:
            raise ValueError(f"horizon / step must be at most {MAX_STEPS:g} steps, got {self.horizon / self.step:.3g}")
        if per_unit == math.inf:
            raise ValueError(f"1 / step must be finite, got step {self.step:g}")


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


def _steps_per_period(step: float) -> int:
    """k, the RK4 steps per period of a step that `SolveSettings` rounded to 1/k."""
    return round(1.0 / step)


def _sample_stride(n_steps: int, step: float) -> int:
    """Stride that divides the steps per period or is a multiple of them, so samples hit integer times."""
    want = max(1, math.ceil(n_steps / SAMPLE_TARGET))
    per_unit = _steps_per_period(step)
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

    Step i takes the stage times of step i mod k in the first period, k = 1/h.
    Rows [0, m) hold the step starts (i mod k) h, rows [m, 2m) the half steps
    and rows [2m, 3m) the step ends, with m = hi - lo.
    """
    t = (np.arange(lo, hi) % _steps_per_period(h)) * h
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


def _band_buffer(width: int, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """A zero (width, n + width) buffer and the skewed (width, n) view whose sum over the rows is a band product.

    bands[w + d, j] * Y[j], with w = width // 2, belongs in row j + d: it is written at
    [w + d, j] of the buffer, which read as rows of n + width - 1 puts it at column j + d + w,
    so the view's row sum gives the product.  A trailing axis of Y (shape[1:]) spans a block's columns.
    """
    n, tail = shape[0], shape[1:]
    buf = np.zeros((width, n + width) + tail)
    flat = buf.reshape(-1)[:width * (n + width - 1) * math.prod(tail)]
    return buf, flat.reshape((width, n + width - 1) + tail)[:, width // 2:n + width // 2]


def _band_stages(R: np.ndarray, stage: np.ndarray, shape: tuple):
    """rhs(i, Y) = A(t_i) Y at the stage times of `stage`, for the band R and Y of the given shape.

    One (3, 3) x (3, 5n) product gives the five diagonals of A at all three
    stage times, and each stage is one product with them in a `_band_buffer`.
    """
    n, tail = shape[0], shape[1:]
    bands = (stage @ R.reshape(3, -1)).reshape((3, 5, n) + (1,) * len(tail))
    buf, skewed = _band_buffer(5, shape)

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


def _interval_propagators(spec: ModelSpec, R: np.ndarray, h: float, stride: int) -> np.ndarray:
    """Q[s] maps the state at a period start to the state (s + 1) * stride steps later.

    RK4 on the identity block over one period [0, 1]; Q[-1] is the period map.
    """
    n, per_unit = R.shape[-1], _steps_per_period(h)
    return _by_steps(spec, R, h, per_unit, stride, np.eye(n), 0, np.empty((per_unit // stride, n, n)))


def _by_periods(Q: np.ndarray, p: np.ndarray, lo: int, out: np.ndarray) -> None:
    """As `_by_steps` from a period start, by one product of the interval propagators Q and p."""
    rows, n = out.shape
    out[:] = (Q[:rows].reshape(rows * n, n) @ p).reshape(rows, n)


def _probed_maps(spec: ModelSpec, R: np.ndarray, h: float) -> np.ndarray:
    """`_step_maps` read back from one RK4 step of an (n, 17) probe block per step of the period.

    `_rk4_step` runs on a probe whose column c sums the unit vectors e_i with i = c (mod 17);
    the columns M_s e_i of one probe column lie 17 rows apart and reach 8 rows either side,
    so no two meet in a row and each reads back exactly.
    """
    n = R.shape[-1]
    cols = np.arange(n)
    probe = (cols[:, None] % 17 == np.arange(17)).astype(float)
    rows = cols + np.arange(-8, 9)[:, None]  # (17, n): the row j + d of diagonal d in column j
    inside = (rows >= 0) & (rows < n)
    rows, hits = rows.clip(0, n - 1), cols % 17
    maps = np.empty((_steps_per_period(h), 17, n))
    for s, stage in enumerate(_step_rates(spec, h, 0, len(maps))):
        np.multiply(_rk4_step(R, stage, h, probe)[rows, hits], inside, out=maps[s])
    return maps


def _band_probe(spec: ModelSpec, h: float, n0: int) -> np.ndarray:
    """`_probed_maps` on the band of n0 states, from which `_step_maps` tiles every band level."""
    return _probed_maps(spec, _rate_bands(n0, conservative=True), h)


def _step_maps(spec: ModelSpec, R: np.ndarray, h: float, probe=None) -> np.ndarray:
    """maps[s, 8 + d, j] = M_s[j + d, j]: the RK4 step s of a period as the 17 diagonals of its matrix M_s.

    M_s is a degree-4 polynomial in the stage values of A, whose diagonals are -2..2, so its
    diagonals are -8..8.  Column j of M_s sums products A[r4, r3] A[r3, r2] A[r2, r1] A[r1, j],
    which read A's columns within 3 * 2 = 6 of j, and every column of A but the first 4 and the
    last repeats (`matrices._repeating_columns`).  On the band each entry is the same float
    operations wherever it stands, so columns 10 to n - 8 of a map are one column and its
    first 10 and last 7 do not depend on n: the maps are those probed (`_probed_maps`) on
    n0 = 18 states with their column 10 repeated n - 17 times; probe(n0), when given, returns
    `_band_probe` for this spec and h (a search shares one cached probe among its
    levels).  The dense layout's BLAS products need not round alike at two sizes, so it is
    probed at its own n.
    """
    n = R.shape[-1]
    if R.ndim == 2:
        return _probed_maps(spec, R, h)
    reach = 3 * (R.shape[1] // 2)  # RK4's degree less one, times the band's half-width
    head, tail = _repeating_columns()
    head, n0 = head + reach, head + tail + 2 * reach + 1
    small = probe(n0) if probe else _band_probe(spec, h, n0)
    return np.repeat(small, np.where(np.arange(n0) == head, n - n0 + 1, 1), axis=2)


def _by_maps(maps: np.ndarray, n_steps: int, stride: int, p: np.ndarray, lo: int, out: np.ndarray) -> np.ndarray:
    """As `_by_steps`, each step one product with its map from `_step_maps` in a `_band_buffer` and one sum."""
    per_unit, width, n = maps.shape
    buf, skewed = _band_buffer(width, (n,))
    first, last = lo * stride, min((lo + len(out)) * stride, n_steps)
    for i in range(first, last):
        np.multiply(maps[i % per_unit], p, out=buf[:, :n])
        p = skewed.sum(axis=0)
        if (i - first + 1) % stride == 0 or i + 1 == last:
            out[(i - first) // stride] = p
    return out


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


def _path(n: int, h: float, n_steps: int, stride: int) -> str:
    """"periods", "maps" or "steps": how `integrate` advances; reads only the grid and n."""
    per_unit = _steps_per_period(h)
    tiles = not (per_unit % stride or n_steps % stride)
    if tiles and (per_unit // stride) * n * n * 8 <= PROPAGATOR_BUDGET and n_steps / per_unit >= n * n / BUILD_PERIODS_N2:
        return "periods"
    return "maps" if per_unit * 17 * n * 8 <= PROPAGATOR_BUDGET else "steps"


def _operator(spec: ModelSpec, n: int, h: float, n_steps: int, stride: int, probe=None):
    """(advance, block) for `_accepted` on the path `_path` picks; `probe` as in `_step_maps`."""
    R = _generator(n)
    path = _path(n, h, n_steps, stride)
    if path == "periods":
        Q = _interval_propagators(spec, R, h, stride)
        return partial(_by_periods, Q), len(Q)
    if path == "maps":
        advance = partial(_by_maps, _step_maps(spec, R, h, probe), n_steps, stride)
    else:
        advance = partial(_by_steps, spec, R, h, n_steps, stride)
    return advance, max(1, RATE_CHUNK // stride)


def _trajectories(spec: ModelSpec, settings: SolveSettings, starts: np.ndarray, operator=None, probe=None):
    """Trajectories from the rows of the (m, n) stack of probability vectors `starts`, and the operator
    they ran on: `operator` when given (one `_operator` of the same settings), else a new one,
    with `probe` as in `_step_maps`."""
    h = settings.step
    n_steps, stride, times = sample_grid(settings.horizon, h)
    projected = starts.copy()
    _project(projected)
    trajs = []
    # an unstable step may overflow to inf and NaN before its block is checked, and the check fails NaN
    with np.errstate(over="ignore", invalid="ignore"):
        if operator is None:
            operator = _operator(spec, settings.n, h, n_steps, stride, probe)
        for start, p in zip(starts, projected):
            probs, defect_sum, min_entry = _accepted(*operator, times, p)
            trajs.append(Trajectory(times=times, probs=probs, mean=probs @ job_counts(settings.n), n=settings.n,
                                    step=h, defect_per_unit_time=defect_sum / settings.horizon,
                                    min_entry_pre=min(float(np.min(start)), min_entry)))
    return tuple(trajs), operator


def integrate(spec: ModelSpec, settings: SolveSettings, p0) -> Trajectory | tuple[Trajectory, ...]:
    """RK4 integration over [0, horizon] from a probability vector p0, or from each row of an
    (m, n) stack p0 on one layout of the generator and one build of its operator:
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
    trajs, _ = _trajectories(spec, settings, p0.reshape(-1, n))
    return trajs if p0.ndim == 2 else trajs[0]


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


def _truncation_search(spec: ModelSpec, settings: SolveSettings):
    """Empty-start trajectory at the state count the doubling search accepts, and the operator it ran on.

    The band levels tile their step maps from one probe, run when the first of them needs it."""
    probe = cache(partial(_band_probe, spec, settings.step))
    n = 16
    (prev,), prev_op = _trajectories(spec, replace(settings, n=n), empty_start(n)[None], probe=probe)
    while True:
        if 2 * n > TRUNCATION_CAP:
            raise TruncationLimitError(
                f"no truncation up to {TRUNCATION_CAP} states met tol {settings.tol_truncation:g}; "
                "the system is likely overloaded"
            )
        (cur,), cur_op = _trajectories(spec, replace(settings, n=2 * n), empty_start(2 * n)[None], probe=probe)
        gap = float(np.max(np.abs(prev.mean - cur.mean)))
        if gap < settings.tol_truncation:
            return prev, prev_op
        n *= 2
        prev, prev_op = cur, cur_op


def choose_truncation(spec: ModelSpec, settings: SolveSettings) -> int:
    """Double the state count from 16 until the mean curve stops moving.

    Accepts n once sup_t |E_n(t) - E_2n(t)| < tol_truncation over the horizon
    (from the empty start).  Raises TruncationLimitError past 4096 states.
    """
    return _at_one_step(_truncation_search, spec, settings)[0].n


def _both_starts(spec: ModelSpec, settings: SolveSettings) -> tuple[Trajectory, Trajectory]:
    """Empty- and far-start trajectories on one operator; the search picks n when it is None
    and the far start runs on the operator of the level it accepts."""
    if settings.n is None:
        traj0, operator = _truncation_search(spec, settings)
        (trajf,), _ = _trajectories(spec, replace(settings, n=traj0.n), far_start(traj0.n)[None], operator)
        return traj0, trajf
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
    # the stride divides the period or is a multiple of it; samples whole periods apart put one
    # sample in a period window: integrate the period after t_mix, an integer time then, from
    # the merged state
    whole = sample_grid(settings.horizon, settings.step)[1] % _steps_per_period(settings.step) == 0
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
