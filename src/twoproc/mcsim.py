"""Independent Monte Carlo simulator via thinning of a dominating Poisson process.

Candidate events arrive as a Poisson process whose intensity M(t) dominates
lambda(t) + mu1(t) + mu2(t); each candidate at time tau becomes an arrival, a
main-server completion, a backup completion, or a self-loop with the
probabilities rate(tau) / M(tau).  This gives exact (bias-free) samples of the
jump process and serves as the oracle against the ODE solver.

The majorant M is piecewise constant over one period.  Its values are
certified bounds on lambda + mu1 + mu2 over _PIECES equal pieces of the
period: exact for tables (every segment value met in the piece) and
constants, and for trigonometric rates the maximum over samples h apart plus
L h / 2, where L = 2 pi sum harmonic |amplitude| bounds the derivative, plus
DIP_ULPS rounding units of the rates' scale.  The pieces are then merged into
cells of equal Lambda-mass (about _CELLS per period, the last one partial),
Lambda(t) being the integral of M over [0, t], and each cell takes the
largest piece bound it touches.  Candidate i sits at tau_i = Lambda^-1(S_i)
with S_i the running sum of unit exponentials, so Lambda^-1 is a floor and
two gathers, and a candidate crosses a sample time s when S_i >= Lambda(s).

Dispatch follows fastest-server-first: an arrival to an empty system seizes
the main server; with only the backup busy it seizes the idle main server;
with only the main busy it seizes the backup; beyond that it queues.  A job
being served by the backup stays there when the main server frees (the
transition structure has no migration).

Every path consumes its own counter-based random stream keyed by
(seed, path_index), two uniforms per candidate, so results are independent
of batching and of any concurrent execution order.

Paths run in blocks sized by _BLOCK_BYTES over the bytes one path needs: its
pregenerated uniforms and its share of the column-block arrays.  Within a
block the candidates are scanned in column blocks of _CHUNK: one cumsum gives
the block's S_i, the rates are evaluated once on the (candidates x paths)
block of phases in [0, 1), and the states advance one column at a time
through the transition table DELTA.  A path leaves the scan once it has
passed the last sample time.  Every float is computed with the same
expressions as a candidate-by-candidate scan that finds each cell by walking
the cell boundaries, so the recorded states are bit-identical to it (the two
lookups can disagree only for an S within rounding of a boundary).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import DIP_ULPS, GRID_POINTS, ModelSpec

_MASK64 = (1 << 64) - 1
# equal pieces of the period with a certified bound each, and the Lambda-cells
# they are merged into
_PIECES = 256
_CELLS = 64
# target bytes per block of paths: each path's pregenerated uniforms plus its
# share of the column-block arrays, _SCAN_ARRAYS float arrays of _CHUNK rows
_BLOCK_BYTES = 16_000_000
_SCAN_ARRAYS = 10
# candidates scanned per column block
_CHUNK = 64


@dataclass(frozen=True)
class SimSettings:
    """Simulation controls: at least 100 paths, finite sample times."""

    n_paths: int
    seed: int
    sample_times: tuple[float, ...]

    def __post_init__(self):
        if self.n_paths < 100:
            raise ValueError(f"at least 100 paths are required, got {self.n_paths}")
        if not self.sample_times:
            raise ValueError("at least one sample time is required")
        if not all(0.0 <= t < math.inf for t in self.sample_times):
            raise ValueError(f"sample times must be finite and nonnegative, got {self.sample_times}")
        if list(self.sample_times) != sorted(self.sample_times):
            raise ValueError("sample times must be increasing")


def _piece_bounds(spec: ModelSpec) -> np.ndarray:
    """Certified bounds on lambda + mu1 + mu2 over the pieces [k, k + 1) / _PIECES of a period.

    Tables add the largest sum met in the piece: at its start and at every
    breakpoint inside it.  Constants and trigonometric rates add their sum's
    maximum over samples h apart that include both ends of the piece, plus
    L h / 2 with L = 2 pi sum harmonic |amplitude|, at least 64 samples per
    period of the highest harmonic.  DIP_ULPS rounding units of the rates'
    scale cover the rounding of the sampled and the thinned values.
    """
    rates = (spec.lam, spec.mu1, spec.mu2)
    tables = [r for r in rates if r.table is not None]
    trigs = [r for r in rates if r.table is None]
    bounds = np.zeros(_PIECES)
    if tables:
        points = np.concatenate([np.arange(_PIECES) / _PIECES, [b for r in tables for b, _ in r.table]])
        np.maximum.at(bounds, (points * _PIECES).astype(np.intp), sum(r(points) for r in tables))

    top = max((h.harmonic for r in trigs for h in r.harmonics), default=1)
    per_piece = -(-max(GRID_POINTS, 64 * top) // _PIECES)
    grid = np.arange(_PIECES * per_piece + 1) / (_PIECES * per_piece)
    waves = {}
    total = sum((r(grid, waves) for r in trigs), np.zeros_like(grid))
    sampled = np.maximum(total[:-1].reshape(_PIECES, per_piece).max(axis=1), total[per_piece::per_piece])
    slope = 2.0 * math.pi * sum(h.harmonic * abs(h.amplitude) for r in trigs for h in r.harmonics)

    scale = sum(abs(r.constant) + sum(abs(h.amplitude) for h in r.harmonics) for r in trigs)
    scale += sum(max(v for _, v in r.table) for r in tables)
    bounds += sampled + slope / (2.0 * _PIECES * per_piece) + DIP_ULPS * np.finfo(float).eps * scale
    return bounds if scale > 0.0 else np.ones(_PIECES)  # all rates zero: any positive bound works


def compute_rate_bound(spec: ModelSpec) -> float:
    """Certified maximum of lambda + mu1 + mu2 over a period: the largest piece bound."""
    return float(np.max(_piece_bounds(spec)))


class Majorant(NamedTuple):  # a NamedTuple defines in a fifth of a frozen dataclass's import time
    """M(t) = top[g] on the cells [start[g], start[g + 1]) of each period.

    Every cell but the last has Lambda-mass cell_mass; Lambda(t) is the
    integral of M over [0, t], period_mass its value at t = 1.  inv = 1 / top
    and base = start[:-1] - g cell_mass inv make the phase of Lambda-mass r
    within a period base[g] + r inv[g].
    """

    start: np.ndarray
    top: np.ndarray
    inv: np.ndarray
    base: np.ndarray
    cell_mass: float
    period_mass: float

    def mass(self, t: float) -> float:
        """Lambda(t) for t >= 0."""
        whole = math.floor(t)
        g = bisect.bisect_right(self.start, t - whole) - 1
        return whole * self.period_mass + float(g * self.cell_mass + self.top[g] * (t - whole - self.start[g]))

    def locate(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Phase in [0, 1) of Lambda^-1(s), and 1 / M there, for Lambda-masses s >= 0.

        Rounding can put r a few units past either end of [0, period_mass); the
        cell index is clipped to the period, so the phase stays within rounding of it.
        """
        r = s - np.floor(s * (1.0 / self.period_mass)) * self.period_mass
        g = np.minimum((r * (1.0 / self.cell_mass)).astype(np.intp), len(self.top) - 1)
        inv = self.inv[g]
        return self.base[g] + r * inv, inv


def majorant(spec: ModelSpec) -> Majorant:
    """Merge the piece bounds into cells of equal Lambda-mass, about _CELLS per period.

    A cell grows over the pieces from its start until its mass at the largest
    bound it touches reaches cell_mass.  When a piece with a larger bound
    would close the cell before that piece begins, the cell ends at the piece
    with the value that gives it mass cell_mass there, which still dominates
    the bounds it touches.
    """
    bounds = _piece_bounds(spec)
    cell = float(np.mean(bounds)) / _CELLS
    start, top = [0.0], []
    run, k = 0.0, 0
    while k < _PIECES:
        lo, hi = max(start[-1], k / _PIECES), (k + 1) / _PIECES
        value = max(run, float(bounds[k]))
        end = start[-1] + cell / value
        if end <= lo:
            top.append(max(run, cell / (lo - start[-1])))
            start.append(lo)
            run = 0.0
        elif end < hi:
            top.append(value)
            start.append(end)
            run = 0.0
        else:
            run, k = value, k + 1
    start, top = np.array(start + [1.0]), np.array(top + [run])  # the partial last cell
    period = (len(top) - 1) * cell + top[-1] * (start[-1] - start[-2])
    inv = 1.0 / top
    base = start[:-1] - np.arange(len(top)) * cell * inv
    return Majorant(start=start, top=top, inv=inv, base=base, cell_mass=cell, period_mass=float(period))


def _path_draws(seed: int, path_indices: np.ndarray, count: int) -> np.ndarray:
    """The first `count` uniforms of each path's stream, one row per path.

    Path i's stream is Philox keyed by (seed, i) from a zero counter.  One bit
    generator is re-keyed per path, which gives the same numbers as a fresh
    `Philox(key=...)` without building an unused entropy-seeded SeedSequence.
    """
    bits = np.random.Philox(key=0)
    gen = np.random.Generator(bits)
    fresh = bits.state  # zero counter, empty output buffer
    out = np.empty((len(path_indices), count))
    for row, idx in enumerate(path_indices):
        fresh["state"]["key"] = np.array([int(seed) & _MASK64, int(idx) & _MASK64], dtype=np.uint64)
        bits.state = fresh
        gen.random(out=out[row])
    return out


def _candidate_budget(mass: float) -> int:
    """Candidates per path for the Lambda-mass `mass` up to the last sample time."""
    return int(mass + 8.0 * math.sqrt(mass + 1.0) + 64.0)


# State change DELTA[e, min(state, 4)] for the events e = 0 arrival, 1 main
# completion, 2 backup completion, 3 self-loop.  Arrivals: 0->1 (FSF takes the
# main server), 1->3, 2->3 (idle main seized), k>=3 -> k+1 (queue).  Main
# completions: 1->0, 3->2 (the backup keeps its job, no migration), k>=4 ->
# k-1 (a queued job takes the freed server), a no-op when the main server is
# idle.  Backup completions: 2->0, 3->1, k>=4 -> k-1, a no-op when the backup
# is idle.
DELTA = np.array(
    [
        [1, 2, 1, 1, 1],
        [0, -1, 0, -1, -1],
        [0, 0, -2, -2, -1],
        [0, 0, 0, 0, 0],
    ],
    dtype=np.int64,
)


def _run_block(
    spec: ModelSpec,
    maj: Majorant,
    sample_times: np.ndarray,
    seed: int,
    path_indices: np.ndarray,
    budget: int,
) -> np.ndarray:
    """States of the paths started empty at the sample times, shape (paths, times).

    Each path scans at most `budget` candidates, _CHUNK at a time, and stops
    once it has passed the last sample time.
    """
    n_paths = len(path_indices)
    n_times = len(sample_times)
    draws = _path_draws(seed, path_indices, 2 * budget)

    rec = np.full((n_paths, n_times), -1, dtype=np.int64)
    rec[:, sample_times <= 0.0] = 0
    targets = [(j, maj.mass(s)) for j, s in enumerate(sample_times) if s > 0.0]
    last = max((m for _, m in targets), default=0.0)

    live = np.arange(n_paths if targets else 0)  # paths still scanning
    mass = np.zeros(n_paths)  # Lambda at each path's last candidate
    state = np.full(n_paths, 0, dtype=np.int64)
    flat_delta = DELTA.ravel()
    for lo in range(0, budget, _CHUNK):
        if len(live) == 0:
            break
        width = min(_CHUNK, budget - lo)
        # Arrays are (candidate, path).  Row 0 is the block's start mass; the
        # sequential cumsum makes row c + 1 the same float as the
        # candidate-by-candidate S + E.
        masses = np.empty((width + 1, len(live)))
        masses[0] = mass
        masses[1:] = -np.log1p(-draws[live, 2 * lo : 2 * (lo + width) : 2]).T
        np.cumsum(masses, axis=0, out=masses)
        m_new = masses[1:]
        phase, inv = maj.locate(m_new)
        lam, mu1, mu2 = spec.rates(phase)
        pa = lam * inv
        pf = pa + mu1 * inv
        ps = pf + mu2 * inv
        u = draws[live, 2 * lo + 1 : 2 * (lo + width) : 2].T
        # event 0 when u < pa, else 1 when u < pf, else 2 when u < ps, else 3
        past_a = u >= pa
        past_f = past_a & (u >= pf)
        offsets = DELTA.shape[1] * (past_a.astype(np.int64) + past_f + (past_f & (u >= ps)))

        hist = np.empty((width + 1, len(live)), dtype=np.int64)  # state before each candidate
        hist[0] = state
        for c in range(width):
            hist[c + 1] = hist[c] + flat_delta[offsets[c] + np.minimum(hist[c], 4)]

        cols = np.arange(len(live))
        for j, target in targets:
            # a path crosses sample time j at its first candidate with Lambda >= Lambda(s_j)
            first = np.count_nonzero(m_new < target, axis=0)
            hit = (mass < target) & (first < width)
            rec[live[hit], j] = hist[first[hit], cols[hit]]

        mass = masses[-1]
        state = hist[-1]
        running = mass < last
        live, mass, state = live[running], mass[running], state[running]

    unfinished = rec.min(axis=1) < 0
    if unfinished.any():
        # Poisson tail outran the candidate budget (prob ~ 1e-14 per path);
        # rerun those paths with a doubled budget on the same streams.
        redo = path_indices[unfinished]
        rec[unfinished] = _run_block(spec, maj, sample_times, seed, redo, budget=2 * budget)
    return rec


@dataclass(frozen=True)
class SimEstimate:
    """Monte-Carlo state frequencies with binomial standard errors."""

    times: np.ndarray        # sample times
    counts: np.ndarray       # len(times) x n_states occupation counts
    estimates: np.ndarray    # counts / n_paths
    stderrs: np.ndarray      # Laplace-smoothed binomial standard errors


def estimate_probs(spec: ModelSpec, settings: SimSettings) -> SimEstimate:
    """State probabilities at the sample times from settings.n_paths >= 100 paths.

    Standard errors use the Laplace-smoothed frequency (c + 0.5)/(n + 1) so
    that empty cells still carry a usable scale.
    """
    maj = majorant(spec)
    times = np.asarray(settings.sample_times, dtype=float)
    budget = _candidate_budget(maj.mass(float(times.max())))
    block = max(1, min(settings.n_paths, _BLOCK_BYTES // (16 * budget + 8 * _SCAN_ARRAYS * _CHUNK)))

    counts = np.zeros((len(times), 8), dtype=np.int64)
    for lo in range(0, settings.n_paths, block):
        idx = np.arange(lo, min(lo + block, settings.n_paths))
        rec = _run_block(spec, maj, times, settings.seed, idx, budget=budget)
        top = int(rec.max()) + 1
        if top > counts.shape[1]:
            grown = np.zeros((len(times), top), dtype=np.int64)
            grown[:, : counts.shape[1]] = counts
            counts = grown
        for j in range(len(times)):
            c = np.bincount(rec[:, j], minlength=counts.shape[1])
            counts[j] += c

    n = settings.n_paths
    estimates = counts / n
    smoothed = (counts + 0.5) / (n + 1.0)
    stderrs = np.sqrt(smoothed * (1.0 - smoothed) / n)
    return SimEstimate(times=times, counts=counts, estimates=estimates, stderrs=stderrs)
