"""Independent Monte Carlo simulator via thinning of a dominating Poisson process.

Candidate events arrive at a constant rate that dominates
lambda(t) + mu1(t) + mu2(t); each candidate becomes an arrival, a main-server
completion, a backup completion, or a self-loop with the time-dependent
probabilities.  This gives exact (bias-free) samples of the jump process and
serves as the oracle against the ODE solver.

Dispatch follows fastest-server-first: an arrival to an empty system seizes
the main server; with only the backup busy it seizes the idle main server;
with only the main busy it seizes the backup; beyond that it queues.  A job
being served by the backup stays there when the main server frees (the
transition structure has no migration).

Every path consumes its own counter-based random stream keyed by
(seed, path_index), so results are independent of batching and of any
concurrent execution order.

Paths run in blocks of about _BLOCK_BYTES of pregenerated uniforms (16 MB).
Within a block the candidates are scanned in column blocks of _CHUNK: one
cumsum gives the block's jump times, the rates are evaluated once on the
(candidates x paths) time block, and the states advance one column at a time
through the transition table DELTA.  A path leaves the scan once it has
passed the last sample time.  Every float is computed with the same
expressions as a candidate-by-candidate scan, so the recorded states are
bit-identical to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelSpec, period_grid

_MASK64 = (1 << 64) - 1
_BOUND_MARGIN = 1.01
# target bytes of pregenerated uniforms per block of paths
_BLOCK_BYTES = 16_000_000
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


def compute_rate_bound(spec: ModelSpec) -> float:
    """Dominating constant: _BOUND_MARGIN * max_t (lambda + mu1 + mu2) on the period grid."""
    lam, mu1, mu2 = spec.rates(period_grid(spec.lam, spec.mu1, spec.mu2))
    top = float(np.max(lam + mu1 + mu2))
    if top <= 0.0:
        return 1.0  # all rates identically zero; any positive bound works
    return _BOUND_MARGIN * top


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


def _candidate_budget(bound: float, t_max: float) -> int:
    expected = bound * t_max
    return int(expected + 8.0 * math.sqrt(expected + 1.0) + 64.0)


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
    bound: float,
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
    targets = [(j, s) for j, s in enumerate(sample_times) if s > 0.0]
    last = max((s for _, s in targets), default=0.0)

    live = np.arange(n_paths if targets else 0)  # paths still scanning
    t = np.zeros(n_paths)
    state = np.full(n_paths, 0, dtype=np.int64)
    flat_delta = DELTA.ravel()
    for lo in range(0, budget, _CHUNK):
        if len(live) == 0:
            break
        width = min(_CHUNK, budget - lo)
        # Arrays are (candidate, path).  Row 0 is the block's start time; the
        # sequential cumsum makes row c + 1 the same float as the
        # candidate-by-candidate t + dt.
        times = np.empty((width + 1, len(live)))
        times[0] = t
        times[1:] = (-np.log1p(-draws[live, 2 * lo : 2 * (lo + width) : 2]) / bound).T
        np.cumsum(times, axis=0, out=times)
        t_new = times[1:]
        lam, mu1, mu2 = spec.rates(t_new)
        pa = lam / bound
        pf = pa + mu1 / bound
        ps = pf + mu2 / bound
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
        for j, s in targets:
            # a path crosses s at its first candidate with t_new >= s
            first = np.count_nonzero(t_new < s, axis=0)
            hit = (t < s) & (first < width)
            rec[live[hit], j] = hist[first[hit], cols[hit]]

        t = times[-1]
        state = hist[-1]
        running = t < last
        live, t, state = live[running], t[running], state[running]

    unfinished = rec.min(axis=1) < 0
    if unfinished.any():
        # Poisson tail outran the candidate budget (prob ~ 1e-14 per path);
        # rerun those paths with a doubled budget on the same streams.
        redo = path_indices[unfinished]
        rec[unfinished] = _run_block(spec, bound, sample_times, seed, redo, budget=2 * budget)
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
    bound = compute_rate_bound(spec)
    times = np.asarray(settings.sample_times, dtype=float)
    budget = _candidate_budget(bound, float(times.max()))
    block = max(1, min(settings.n_paths, _BLOCK_BYTES // (16 * budget)))

    counts = np.zeros((len(times), 8), dtype=np.int64)
    for lo in range(0, settings.n_paths, block):
        idx = np.arange(lo, min(lo + block, settings.n_paths))
        rec = _run_block(spec, bound, times, settings.seed, idx, budget=budget)
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
