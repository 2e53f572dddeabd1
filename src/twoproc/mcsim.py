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

Each fixed group of _GROUP consecutive path indices shares one PCG64 stream,
seeded by (seed mod 2^64, path_index // _GROUP), and uniform j of path i is
element j _GROUP + i % _GROUP of it: row j, column i % _GROUP of the stream
laid out in rows of _GROUP.  A candidate takes two uniforms, the exponential
and then the event.  So a path's result depends only on (seed, path_index),
whatever the batching or the execution order.

A candidate with uniform u is an arrival when u < pa = lambda / M, else a
main completion when u < pf = pa + mu1 / M, else a backup completion when
u < ps = pf + mu2 / M, else a self-loop.  Within a cell these thresholds
move little, so each cell carries certified bounds on them (the squeeze of
a thinning sampler): each rate's range over the cell, from samples h apart
widened by L h / 2 and a rounding allowance, goes through the same float
expressions as pa, pf and ps, and rounding, being monotone, keeps every
threshold of the cell inside them.  A table of the events these bounds
decide, per cell and per bin of u, settles most candidates; the rates are
evaluated only for the rest (0.8% / 1.5% / 2.5% of the candidates on
example1 / 2 / 3), and the events are exactly those a full evaluation
gives.

Paths run one group at a time.  The candidates are scanned in column blocks
of _CHUNK, each drawn as the next 2 _CHUNK rows of the group's stream, so the
draws in memory never exceed one column block, whatever the horizon: one
cumsum gives the block's S_i, the event table is looked up by cell and
bin, the rates are evaluated on the phases in [0, 1) of the candidates it
leaves open, and the states advance one column at a time through the
transition table DELTA.  A path leaves the scan once it has passed the
last sample time.  Every float is computed with the same expressions as a
candidate-by-candidate scan that finds each cell by walking
the cell boundaries and evaluates the rates at every candidate, so the
recorded states are bit-identical to it (the two lookups can disagree only
for an S within rounding of a boundary).
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
_CELLS = 512
# bins of the thinning uniform u per cell in the table of decided events
_BINS = 1024
# consecutive path indices that share one random stream
_GROUP = 1024
# candidates scanned per column block
_CHUNK = 64
# Candidates an estimate may plan, paths x Lambda(last sample time): about 250 s at 25 ns a
# candidate, and 59 times the largest bundled run (10^5 paths x 1,689 on example2 at its
# horizon 240).  At the least 100 paths it holds Lambda to the solver's MAX_STEPS, 10^8.
_MAX_CANDIDATES = 10**10


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


def _piece_bounds(spec: ModelSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Certified bounds on the rates over one period, on pieces and on a finer grid.

    Returns bounds on lambda + mu1 + mu2 over the pieces [k, k + 1) / _PIECES,
    a grid of samples h apart that includes the piece ends, at least 64 per
    period of the highest harmonic, and ranges [low, high] of lambda, mu1
    and mu2 (rows) over each interval [grid[i], grid[i + 1]].

    Tables take the values met in a piece or interval: at its start and at
    every breakpoint inside it.  Constants and trigonometric rates take the
    extremes over the samples, widened by L h / 2, where L = 2 pi sum
    harmonic |amplitude| bounds the derivative.  For the sum, DIP_ULPS
    rounding units of the rates' scale cover the rounding of the sampled
    and the thinned values.  A rate's range is widened further by 16
    rounding units of its L + (terms + 2) scale, which covers the rounding
    of the evaluated rate (the argument 2 pi harmonic t, sin and cos, the
    sum of the terms) at phases within a piece of [0, 1].
    """
    rates = (spec.lam, spec.mu1, spec.mu2)
    tables = [r for r in rates if r.table is not None]
    trigs = [r for r in rates if r.table is None]
    top = max((h.harmonic for r in trigs for h in r.harmonics), default=1)
    per_piece = -(-max(GRID_POINTS, 64 * top) // _PIECES)
    grid = np.arange(_PIECES * per_piece + 1) / (_PIECES * per_piece)
    low, high = np.full((3, len(grid) - 1), np.inf), np.full((3, len(grid) - 1), -np.inf)

    bounds = np.zeros(_PIECES)
    if tables:
        breaks = [b for r in tables for b, _ in r.table]
        points = np.concatenate([np.arange(_PIECES) / _PIECES, breaks])
        np.maximum.at(bounds, (points * _PIECES).astype(np.intp), sum(r(points) for r in tables))
        points = np.concatenate([grid[:-1], breaks])
        interval = np.searchsorted(grid, points, side="right") - 1
        for i, r in enumerate(rates):
            if r.table is not None:
                v = r(points)
                np.minimum.at(low[i], interval, v)
                np.maximum.at(high[i], interval, v)

    waves = {}
    values = {i: r(grid, waves) for i, r in enumerate(rates) if r.table is None}
    total = sum(values.values(), np.zeros_like(grid))
    sampled = np.maximum(total[:-1].reshape(_PIECES, per_piece).max(axis=1), total[per_piece::per_piece])
    slope = 2.0 * math.pi * sum(h.harmonic * abs(h.amplitude) for r in trigs for h in r.harmonics)
    eps = np.finfo(float).eps
    for i, v in values.items():
        terms = rates[i].harmonics
        rate_slope = 2.0 * math.pi * sum(h.harmonic * abs(h.amplitude) for h in terms)
        rate_scale = abs(rates[i].constant) + sum(abs(h.amplitude) for h in terms)
        rounding = 16.0 * eps * (rate_slope + (len(terms) + 2) * rate_scale)
        widen = rate_slope / (2.0 * _PIECES * per_piece) + rounding
        low[i] = np.minimum(v[:-1], v[1:]) - widen
        high[i] = np.maximum(v[:-1], v[1:]) + widen

    scale = sum(abs(r.constant) + sum(abs(h.amplitude) for h in r.harmonics) for r in trigs)
    scale += sum(max(v for _, v in r.table) for r in tables)
    bounds += sampled + slope / (2.0 * _PIECES * per_piece) + DIP_ULPS * eps * scale
    if scale == 0.0:
        bounds = np.ones(_PIECES)  # all rates zero: any positive bound works
    return bounds, grid, low, high


def compute_rate_bound(spec: ModelSpec) -> float:
    """Certified maximum of lambda + mu1 + mu2 over a period: the largest piece bound."""
    return float(np.max(_piece_bounds(spec)[0]))


def _thresholds(lam, mu1, mu2, inv):
    """Thinning thresholds pa, pf, ps: a candidate is an arrival when u < pa,
    else a main completion when u < pf, else a backup completion when u < ps,
    else a self-loop."""
    pa = lam * inv
    pf = pa + mu1 * inv
    return pa, pf, pf + mu2 * inv


class Majorant(NamedTuple):  # a NamedTuple defines in a fifth of a frozen dataclass's import time
    """M(t) = top[g] on the cells [start[g], start[g + 1]) of each period.

    Every cell but the last has Lambda-mass cell_mass; Lambda(t) is the
    integral of M over [0, t], period_mass its value at t = 1.  inv = 1 / top
    and base = start[:-1] - g cell_mass inv make the phase of Lambda-mass r
    within a period base[g] + r inv[g].  low[:, g] <= (pa, pf, ps) <= high[:, g]
    bound the thresholds of every phase that cell g yields, and
    events[g * _BINS + b] is the event of every u in [b, b + 1) / _BINS at
    those phases, or -1 where the bounds leave it open.
    """

    start: np.ndarray
    top: np.ndarray
    inv: np.ndarray
    base: np.ndarray
    cell_mass: float
    period_mass: float
    low: np.ndarray
    high: np.ndarray
    events: np.ndarray

    def mass(self, t: float) -> float:
        """Lambda(t) for t >= 0."""
        whole = math.floor(t)
        g = bisect.bisect_right(self.start, t - whole) - 1
        return whole * self.period_mass + float(g * self.cell_mass + self.top[g] * (t - whole - self.start[g]))

    def cell(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Lambda-mass r within the period, and the cell g that holds it, for Lambda-masses s >= 0.

        Rounding can put r a few units past either end of [0, period_mass); the
        cell index is clipped to the period, so the phase stays within rounding of it.
        """
        r = s - np.floor(s * (1.0 / self.period_mass)) * self.period_mass
        return r, np.minimum((r * (1.0 / self.cell_mass)).astype(np.intp), len(self.top) - 1)

    def phase(self, r: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Phase in [0, 1) of the Lambda-mass r in cell g, and 1 / M there."""
        inv = self.inv[g]
        return self.base[g] + r * inv, inv


def majorant(spec: ModelSpec) -> Majorant:
    """Merge the piece bounds into cells of equal Lambda-mass, about _CELLS per period.

    A cell grows over the pieces from its start until its mass at the largest
    bound it touches reaches cell_mass.  When a piece with a larger bound
    would close the cell before that piece begins, the cell ends at the piece
    with the value that gives it mass cell_mass there, which still dominates
    the bounds it touches.

    The phases cell g yields lie within `slack[g]` of its ends: the rounding
    of base, of r inv and of their sum, and of the r that still maps to g.  A
    rate's range over the cell is its range over the grid intervals that
    [start - slack, end + slack] meets, counted modulo the period, so cell 0
    takes the interval that a phase just below 0 wraps to.  A cell whose
    slack exceeds a piece decides nothing.
    """
    bounds, grid, low, high = _piece_bounds(spec)
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
    cells = len(top)
    inv = 1.0 / top
    base = start[:-1] - np.arange(cells) * cell * inv

    slack = 8.0 * np.finfo(float).eps * (np.abs(base) + np.arange(1, cells + 1) * cell * inv + 1.0)
    near = np.searchsorted(grid, [start[:-1] - slack, start[1:] + slack], side="right")
    # the grid intervals near[0] - 1 .. near[1] - 1, counted modulo the period, are the
    # columns near[0] .. near[1] of the intervals taken from -1 on; reduceat runs over the
    # interleaved starts and ends, and every other result is a cell's
    wrap = np.arange(-1, low.shape[1] + 2) % low.shape[1]
    spans = np.stack([near[0], near[1] + 1], axis=1).ravel()
    open_cell = slack > 1.0 / _PIECES
    rate_low = np.where(open_cell, -np.inf, np.minimum.reduceat(low[:, wrap], spans, axis=1)[:, ::2])
    rate_high = np.where(open_cell, np.inf, np.maximum.reduceat(high[:, wrap], spans, axis=1)[:, ::2])
    low, high = np.array(_thresholds(*rate_low, inv)), np.array(_thresholds(*rate_high, inv))

    # The event is [u >= pa] + [u >= max(pa, pf)] + [u >= max(pa, pf, ps)].  With the six
    # bounds sorted per cell by a running maximum, an even count 2k of those <= u decides
    # event k; a bin decides when its count is even and no bound falls inside it.  A bound e
    # is <= b / _BINS from bin ceil(e _BINS) on and < (b + 1) / _BINS from bin floor(e _BINS)
    # on (e _BINS is exact), so a cumsum over the bins of 7 at the first and 1 at the second
    # gives 7 (bounds <= the bin's start) + (bounds below its end), 16 k where both are 2k.
    scaled = np.maximum.accumulate(np.stack([low, high], axis=1).reshape(6, -1), axis=0) * _BINS
    counts = np.zeros((scaled.shape[1], _BINS + 1), dtype=np.int8)
    rows = np.arange(scaled.shape[1])
    np.add.at(counts, (rows, np.clip(np.ceil(scaled), 0, _BINS).astype(np.intp)), 7)
    np.add.at(counts, (rows, np.clip(np.floor(scaled), 0, _BINS).astype(np.intp)), 1)
    np.cumsum(counts, axis=1, dtype=np.int8, out=counts)
    decide = np.full(49, -1, dtype=np.int8)
    decide[[0, 16, 32, 48]] = np.arange(4)
    return Majorant(start=start, top=top, inv=inv, base=base, cell_mass=cell, period_mass=float(period),
                    low=low, high=high, events=decide[counts[:, :_BINS]].ravel())


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

    The paths lie in one group of the stream layout and are scanned together.
    Each path scans at most `budget` candidates, _CHUNK at a time, and stops
    once it has passed the last sample time: every column block draws the next
    (2 width, _GROUP) rows of the group's stream and takes the columns of the
    paths still scanning, or the leading columns while all of them scan and
    the paths are the group's first members in order.
    """
    n_paths = len(path_indices)
    n_times = len(sample_times)
    rec = np.full((n_paths, n_times), -1, dtype=np.int64)
    rec[:, sample_times <= 0.0] = 0
    targets = [(j, maj.mass(s)) for j, s in enumerate(sample_times) if s > 0.0]
    last = max((m for _, m in targets), default=0.0)

    group = int(path_indices[0]) // _GROUP
    stream = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed) & _MASK64, group])))
    members = (path_indices % _GROUP).astype(np.intp)  # each path's column in the stream
    leading = np.array_equal(members, np.arange(n_paths))
    live = np.arange(n_paths if targets else 0)  # paths still scanning
    mass = np.zeros(n_paths)  # Lambda at each path's last candidate
    state = np.full(n_paths, 0, dtype=np.int64)
    flat_delta = DELTA.ravel()
    for lo in range(0, budget, _CHUNK):
        if len(live) == 0:
            break
        width = min(_CHUNK, budget - lo)
        block = stream.random((2 * width, _GROUP))
        block = block[:, :n_paths] if leading and len(live) == n_paths else block[:, members[live]]
        # Arrays are (candidate, path).  Row 0 is the block's start mass; the
        # sequential cumsum makes row c + 1 the same float as the
        # candidate-by-candidate S + E.
        masses = np.empty((width + 1, len(live)))
        masses[0] = mass
        masses[1:] = -np.log1p(-block[0::2])
        np.cumsum(masses, axis=0, out=masses)
        m_new = masses[1:]
        r, g = maj.cell(m_new)
        key = (block[1::2] * _BINS).astype(np.intp)
        key += g * _BINS
        event = maj.events.take(key)
        undecided = np.flatnonzero(event < 0)
        if len(undecided):
            # the rates where the cell's bounds leave the event open, with the
            # expressions of a full evaluation: event 0 when u < pa, else 1
            # when u < pf, else 2 when u < ps, else 3
            col, path = np.divmod(undecided, len(live))
            u = block[2 * col + 1, path]
            phase, inv = maj.phase(r.ravel()[undecided], g.ravel()[undecided])
            pa, pf, ps = _thresholds(*spec.rates(phase), inv)
            past_a = u >= pa
            past_f = past_a & (u >= pf)
            event.ravel()[undecided] = past_a.astype(np.int8) + past_f + (past_f & (u >= ps))
        offsets = DELTA.shape[1] * event

        hist = np.empty((width + 1, len(live)), dtype=np.int64)  # state before each candidate
        hist[0] = state
        for c in range(width):
            hist[c + 1] = hist[c] + flat_delta[offsets[c] + np.minimum(hist[c], 4)]

        cols = np.arange(len(live))
        for j, target in targets:
            if mass.min() >= target or m_new[-1].max() < target:
                continue  # every path crossed it before this block, or none reaches it in it
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
        # rerun those paths with a doubled budget, reading their streams again
        # from the start.
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
    that empty cells still carry a usable scale.  Raises ValueError when
    n_paths x Lambda(last sample time) exceeds _MAX_CANDIDATES or is infinite.
    """
    maj = majorant(spec)
    times = np.asarray(settings.sample_times, dtype=float)
    last = float(times.max())
    mass = maj.mass(last)
    if not settings.n_paths * mass <= _MAX_CANDIDATES:  # inf too
        raise ValueError(f"sample time {last:g} takes Lambda = {mass:.3g} candidates per path, "
                         f"{settings.n_paths * mass:.3g} for {settings.n_paths} paths, more than {_MAX_CANDIDATES:g}")
    budget = _candidate_budget(mass)

    counts = np.zeros((len(times), 8), dtype=np.int64)
    for lo in range(0, settings.n_paths, _GROUP):  # one group of the stream layout at a time
        idx = np.arange(lo, min(lo + _GROUP, settings.n_paths))
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
