"""Model definition for a Markovian two-processor heterogeneous service system.

The system has a fast ("main") server with rate mu1(t), a slow ("backup")
server with rate mu2(t) <= mu1(t), Poisson arrivals with rate lambda(t), and
fastest-server-first dispatch.  All rates are either constant or 1-periodic.

States are enumerated as

    0 <-> (0, 0)   empty system
    1 <-> (1, 0)   main busy
    2 <-> (0, 1)   backup busy
    k <-> (1, k-2) for k >= 3: main busy plus k-2 jobs on backup/queue

so index k >= 3 carries k-1 jobs in total.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

# Sampled checks use at least this many points per period, and at least
# 64 per period of the highest harmonic; MAX_HARMONIC caps the grid at 64,000.
GRID_POINTS = 10_000
MAX_HARMONIC = 1_000
# A sampled trigonometric minimum down to -DIP_ULPS machine epsilons of the
# rate's scale is rounding in the coefficients (a general phase written with
# sin and cos terms), not a negative rate; it acts as 0 in the Monte-Carlo
# thinning comparison and in the projected RK4 step.
DIP_ULPS = 4

_KINDS = ("sin", "cos")


@dataclass(frozen=True)
class Harmonic:
    """One trigonometric term `amplitude * sin/cos(2*pi*harmonic*t)`."""

    amplitude: float
    kind: str
    harmonic: int = 1

    def __post_init__(self):
        _require_finite(self.amplitude, "harmonic amplitude")
        if self.kind not in _KINDS:
            raise ValueError(f"harmonic kind must be one of {_KINDS}, got {self.kind!r}")
        if self.harmonic > MAX_HARMONIC:  # an infinity too, before int() overflows on it
            raise ValueError(f"harmonic index {self.harmonic} exceeds the supported {MAX_HARMONIC}")
        if not self.harmonic >= 1 or self.harmonic != int(self.harmonic):  # NaN fails the first test
            raise ValueError(f"harmonic index must be a positive integer, got {self.harmonic}")


@dataclass(frozen=True)
class RateFunction:
    """A nonnegative, 1-periodic (or constant) rate.

    Two families are supported:

    * constant + finite trigonometric polynomial with integer harmonics,
      so the mean over one period is exactly the constant term;
    * piecewise-constant 1-periodic table `((breakpoint, value), ...)` with
      breakpoints in [0, 1) starting at 0, so the mean is an exact weighted
      average.

    Values are validated to be >= 0 at construction: a table by its values,
    a trigonometric rate exactly when constant >= sum |amplitude|, else on
    `period_grid`, where a dip of a few rounding units of the rate's scale
    |constant| + sum |amplitude| is accepted (DIP_ULPS).
    """

    constant: float = 0.0
    harmonics: tuple[Harmonic, ...] = ()
    table: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.table is not None:
            if self.constant != 0.0 or self.harmonics:
                raise ValueError("table form excludes constant/harmonics form")
            breaks = [b for b, _ in self.table]
            values = [v for _, v in self.table]
            if not breaks or breaks[0] != 0.0:
                raise ValueError("table breakpoints must start at 0.0")
            if not all(0.0 <= b < 1.0 for b in breaks):  # NaN fails too
                raise ValueError("table breakpoints must lie in [0, 1)")
            if sorted(set(breaks)) != breaks:
                raise ValueError("table breakpoints must be strictly increasing")
            if not all(0.0 <= v <= sys.float_info.max for v in values):
                raise ValueError("table values must be finite and nonnegative")
            return
        _require_finite(self.constant, "rate constant")
        spread = sum(abs(h.amplitude) for h in self.harmonics)
        if self.constant >= spread:
            return  # the rate never falls below constant - sum |amplitude| >= 0
        lo = float(np.min(self(period_grid(self))))
        if lo < -DIP_ULPS * np.finfo(float).eps * (abs(self.constant) + spread):
            raise ValueError(f"rate is negative on [0,1): min value {lo:g}")

    # -- constructors ---------------------------------------------------

    @classmethod
    def fixed(cls, value: float) -> "RateFunction":
        return cls(constant=float(value))

    @classmethod
    def trig(cls, constant: float, harmonics) -> "RateFunction":
        return cls(constant=constant, harmonics=tuple(Harmonic(*h) for h in harmonics))

    @classmethod
    def piecewise(cls, pairs) -> "RateFunction":
        return cls(table=tuple((b, v) for b, v in pairs))

    # -- evaluation ------------------------------------------------------

    def __call__(self, t, waves: dict | None = None):
        """Evaluate at scalar or array `t >= 0`.

        waves, when given, caches sin/cos(2*pi*harmonic*t) by (kind,
        harmonic), so rates evaluated at the same t with one cache compute
        each term once.
        """
        tt = np.asarray(t, dtype=float)
        if self.table is not None:
            frac = tt - np.floor(tt)
            breaks = np.array([b for b, _ in self.table])
            values = np.array([v for _, v in self.table])
            idx = np.searchsorted(breaks, frac, side="right") - 1
            out = values[idx]
        else:
            waves = {} if waves is None else waves
            out = np.full_like(tt, float(self.constant))
            for h in self.harmonics:
                key = (h.kind, h.harmonic)
                if key not in waves:
                    fn = np.sin if h.kind == "sin" else np.cos
                    waves[key] = fn(2.0 * math.pi * h.harmonic * tt)
                out = out + h.amplitude * waves[key]
        return float(out) if np.isscalar(t) else out

    def mean(self) -> float:
        """Exact mean over one period, `integral(1.0)`."""
        return float(self.constant) if self.table is None else self.integral(1.0)

    def integral(self, t):
        """Exact integral over [0, t] at scalar or array `t >= 0`: whole periods times the
        period integral, plus the partial period by antiderivatives or a table's segment sums."""
        whole = np.floor(t)
        frac = t - whole
        if self.table is not None:
            breaks, values = np.array([b for b, _ in self.table] + [1.0]), np.array([v for _, v in self.table])
            sums = np.cumsum(np.append(0.0, values * np.diff(breaks)))
            idx = np.searchsorted(breaks, frac, side="right") - 1
            period, part = sums[-1], sums[idx] + values[idx] * (frac - breaks[idx])
        else:
            period, part = self.constant, self.constant * frac
            for h in self.harmonics:
                w = 2.0 * math.pi * h.harmonic
                part = part + h.amplitude * (1.0 - np.cos(w * frac) if h.kind == "sin" else np.sin(w * frac)) / w
        out = whole * period + part
        return float(out) if np.isscalar(t) else out

    @property
    def is_constant(self) -> bool:
        if self.table is not None:
            return len(self.table) == 1
        return not self.harmonics


@dataclass(frozen=True)
class ModelSpec:
    """The rate triple (lambda, mu1, mu2) with mu2(t) <= mu1(t)."""

    lam: RateFunction
    mu1: RateFunction
    mu2: RateFunction

    def __post_init__(self):
        grid = period_grid(self.lam, self.mu1, self.mu2)
        gap = np.asarray(self.mu1(grid)) - np.asarray(self.mu2(grid))
        worst = float(np.min(gap))
        if worst < -1e-12:
            raise ValueError(f"mu2(t) must not exceed mu1(t); violated by {-worst:g}")

    def rates(self, t):
        """Arrays (lambda, mu1, mu2) at the times t.

        Each distinct sin/cos term is evaluated once and shared between the
        rates; the values are those of the three separate rate calls.
        """
        tt = np.asarray(t, dtype=float)
        waves = {}
        return tuple(rate(tt, waves) for rate in (self.lam, self.mu1, self.mu2))

    def mean_rates(self):
        """Exact period means (lambda*, mu1*, mu2*, mu*)."""
        lam = self.lam.mean()
        m1 = self.mu1.mean()
        m2 = self.mu2.mean()
        return lam, m1, m2, m1 + m2

    @property
    def is_periodic(self) -> bool:
        return not (self.lam.is_constant and self.mu1.is_constant and self.mu2.is_constant)

    @property
    def is_equal_service(self) -> bool:
        """Whether mu1 and mu2 are structurally the same function."""
        return self.mu1 == self.mu2

    def averaged(self) -> "ModelSpec":
        """The homogeneous model with each rate replaced by its mean."""
        return ModelSpec(
            lam=RateFunction.fixed(self.lam.mean()),
            mu1=RateFunction.fixed(self.mu1.mean()),
            mu2=RateFunction.fixed(self.mu2.mean()),
        )


def _require_finite(value, field: str) -> None:
    if not abs(value) <= sys.float_info.max:  # NaN, an infinity or an integer beyond the float range
        raise ValueError(f"{field} must be finite, got {value}")


def period_grid(*rates: RateFunction) -> np.ndarray:
    """Sample times over one period for checks the rates' closed forms do not settle.

    GRID_POINTS points, or 64 per period of the highest harmonic among the
    rates when that is more, followed by every table breakpoint, so that
    each segment of a table is sampled.
    """
    top = max((h.harmonic for rate in rates for h in rate.harmonics), default=1)
    grid = np.linspace(0.0, 1.0, max(GRID_POINTS, 64 * top), endpoint=False)
    breaks = [b for rate in rates for b, _ in rate.table or ()]
    return np.concatenate([grid, breaks]) if breaks else grid


# -- state enumeration ---------------------------------------------------


def job_counts(n: int) -> np.ndarray:
    """Vector of job counts for indices 0..n-1."""
    counts = np.arange(n, dtype=float) - 1.0
    counts[0] = 0.0
    if n > 1:
        counts[1] = 1.0
    if n > 2:
        counts[2] = 1.0
    return counts


def state_label(index: int) -> str:
    """Label pXY of a state index: X is the main-busy flag, Y the jobs on the backup or queued."""
    if index < 0:
        raise ValueError("state index must be nonnegative")
    return ("p00", "p10", "p01")[index] if index < 3 else f"p1{index - 2}"
