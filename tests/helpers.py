"""Independent oracles and randomized model generators shared by the tests."""

import math

import numpy as np

from twoproc.matrices import WeightSequence
from twoproc.model import ModelSpec, RateFunction
from twoproc.solver import rate_parts


def expm_series(M: np.ndarray, tol: float = 1e-16) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring of the Taylor series.

    Independent of the RK4 path; accuracy well below 1e-13 for the small
    generators it is used on.
    """
    nrm = float(np.max(np.sum(np.abs(M), axis=0)))
    s = max(0, int(np.ceil(np.log2(max(nrm, 1e-300)))) + 1)
    T = M / (2.0 ** s)
    n = M.shape[0]
    out = np.eye(n)
    term = np.eye(n)
    k = 1
    while True:
        term = term @ T / k
        out = out + term
        if float(np.max(np.abs(term))) < tol:
            break
        k += 1
    for _ in range(s):
        out = out @ out
    return out


def simpson_mean(fn, panels: int = 10_000) -> float:
    """Composite-Simpson average of fn over [0, 1]."""
    ts = np.linspace(0.0, 1.0, panels + 1)
    ys = np.asarray(fn(ts), dtype=float)
    if ys.shape == ():
        ys = np.full(panels + 1, float(ys))
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(np.sum(w * ys) / (3.0 * panels))


def random_trig_rate(rng: np.random.Generator, lo: float = 0.5, hi: float = 4.0) -> RateFunction:
    """Random nonnegative trigonometric rate (amplitudes below the constant)."""
    c = rng.uniform(lo, hi)
    n_terms = rng.integers(0, 3)
    budget = 0.9 * c
    harmonics = []
    for _ in range(n_terms):
        a = rng.uniform(-budget / 2, budget / 2)
        budget -= abs(a)
        harmonics.append((a, rng.choice(["sin", "cos"]), int(rng.integers(1, 3))))
    return RateFunction.trig(c, harmonics)


def random_equal_mu_spec(rng: np.random.Generator, dominated: bool = False) -> ModelSpec:
    """Random model with mu1 = mu2; dominated=True forces min mu > max lambda."""
    lam = random_trig_rate(rng, 0.5, 2.0)
    mu = random_trig_rate(rng, 0.5, 3.0)
    if dominated:
        grid = np.linspace(0.0, 1.0, 2048, endpoint=False)
        lam_max = float(np.max(lam(grid)))
        mu_min = float(np.min(mu(grid)))
        scale = (lam_max + 0.5) / max(mu_min, 1e-9)
        mu = RateFunction.trig(mu.constant * scale, [(h.amplitude * scale, h.kind, h.harmonic) for h in mu.harmonics])
    return ModelSpec(lam=lam, mu1=mu, mu2=mu)


def random_general_spec(rng: np.random.Generator) -> ModelSpec:
    """Random model with mu2 a pointwise fraction of mu1."""
    lam = random_trig_rate(rng)
    mu1 = random_trig_rate(rng, 1.0, 5.0)
    s = rng.uniform(0.3, 1.0)
    mu2 = RateFunction.trig(mu1.constant * s, [(h.amplitude * s, h.kind, h.harmonic) for h in mu1.harmonics])
    return ModelSpec(lam=lam, mu1=mu1, mu2=mu2)


def random_hetero_constants(rng: np.random.Generator):
    """Random (lambda, mu2, chi) for the constant-rate heterogeneous case."""
    lam = float(rng.uniform(0.5, 6.0))
    mu2 = float(rng.uniform(0.5, 4.0))
    chi = float(rng.uniform(0.05, 1.0))
    return lam, mu2, chi


def random_weights(rng: np.random.Generator) -> WeightSequence:
    return WeightSequence(
        epsilon=float(rng.uniform(0.02, 0.8)),
        delta1=float(rng.uniform(1.05, 2.5)),
        delta=float(rng.uniform(1.05, 2.5)),
    )


def reference_alphas(spec: ModelSpec, weights: WeightSequence, ts) -> np.ndarray:
    """Fixed-weight alpha_1..alpha_5 with one scalar weight sequence, shape (5, ...).

    Oracle for the broadcast `bounds.fixed_alphas`: the same expressions in
    the same order, with each rate called on its own.
    """
    ts = np.asarray(ts, dtype=float)
    lam = np.asarray(spec.lam(ts), dtype=float)
    mu1 = np.asarray(spec.mu1(ts), dtype=float)
    mu2 = np.asarray(spec.mu2(ts), dtype=float)
    mu = mu1 + mu2
    d = weights.d(6)
    a1 = (lam + mu1) - (d[1] / d[0]) * lam - (d[2] / d[0]) * lam
    a2 = (lam + mu2) - (d[0] / d[1]) * (mu1 - mu2)
    a3 = (lam + mu) - (d[0] / d[2]) * mu2 - (d[3] / d[2]) * lam
    a4 = (lam + mu) - (d[1] / d[3]) * mu2 - (d[2] / d[3]) * mu - (d[4] / d[3]) * lam
    a5 = (lam + mu) - (d[3] / d[4]) * mu - (d[5] / d[4]) * lam
    return np.stack([a1, a2, a3, a4, a5])


def reference_tune_weights(spec: ModelSpec) -> WeightSequence:
    """The weight grid search one candidate at a time.

    Oracle for the broadcast scoring of `bounds.tune_weights`: every (epsilon,
    delta1) pair builds its own WeightSequence and averaged model, and the
    scan keeps a candidate only when it beats the best by more than 1e-15.
    """
    lam_m, _, _, mu_m = spec.mean_rates()
    delta = 2.0 if lam_m == 0.0 else math.sqrt(mu_m / lam_m)
    eps_grid = sorted(set(np.geomspace(1e-3, 0.5, 25)) | {1.0 / 12.0})
    hi = max(2.0 * delta, 1.02)
    d1_grid = sorted(set(np.linspace(1.01, hi, 40)) | {13.0 / 8.0, delta} - {x for x in (delta,) if delta <= 1.0})
    d1_grid = [x for x in d1_grid if x > 1.0]
    best = None
    best_score = -math.inf
    for eps in eps_grid:
        for d1 in d1_grid:
            w = WeightSequence(epsilon=float(eps), delta1=float(d1), delta=delta)
            score = float(np.min(reference_alphas(spec.averaged(), w, 0.0)))
            if score > best_score + 1e-15:
                best, best_score = w, score
    return best


def dense_weighted_norm(x: np.ndarray, weights: WeightSequence) -> float:
    """||D T x||_1 via explicit dense matrices (oracle for the cumsum path)."""
    m = len(x)
    T = np.triu(np.ones((m, m)))
    D = np.diag(weights.d(m))
    return float(np.sum(np.abs(D @ T @ x)))


def stationary_vector(A: np.ndarray) -> np.ndarray:
    """Brute-force stationary distribution of a conservative generator."""
    n = A.shape[0]
    M = A.copy()
    M[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(M, b)


def reference_rk4(spec: ModelSpec, n: int, step: float, horizon: float, p0, t0: float = 0.0):
    """Projected RK4 states after every step, with one scalar rate call per stage.

    Oracle for the chunked rate evaluation of `integrate`: returns the
    (n_steps + 1) x n projected states and the pre-projection defects
    |1 - sum(p)| of every step (0 at the start).
    """
    R = rate_parts(n, conservative=True).reshape(3 * n, n)

    def rhs(t: float, p: np.ndarray) -> np.ndarray:
        rates = np.array([spec.lam(t), spec.mu1(t), spec.mu2(t)])
        return rates @ (R @ p).reshape(3, n)

    def project(p: np.ndarray) -> None:
        np.maximum(p, 0.0, out=p)
        p /= p.sum()
        p[int(np.argmax(p))] -= p.sum() - 1.0

    h = step
    n_steps = int(round(horizon / h))
    p = np.asarray(p0, dtype=float).copy()
    project(p)
    states = np.empty((n_steps + 1, n))
    defects = np.zeros(n_steps + 1)
    states[0] = p
    for i in range(n_steps):
        t = t0 + i * h
        k1 = rhs(t, p)
        k2 = rhs(t + h / 2, p + (h / 2) * k1)
        k3 = rhs(t + h / 2, p + (h / 2) * k2)
        k4 = rhs(t + h, p + h * k3)
        p = p + (h / 6) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        defects[i + 1] = abs(1.0 - p.sum())
        project(p)
        states[i + 1] = p
    return states, defects


def reference_trajectory_csv(traj, order, max_rows: int) -> str:
    """Trajectory CSV body formatted one cell at a time with "{:.12g}"."""
    stride = max(1, -(-len(traj.times) // max_rows))
    lines = []
    for i in range(0, len(traj.times), stride):
        cells = ["{:.12g}".format(traj.times[i])]
        cells.extend("{:.12g}".format(traj.probs[i, k]) for k in order)
        cells.append("{:.12g}".format(traj.mean[i]))
        lines.append(",".join(cells) + "\n")
    return "".join(lines)


def path_stream(seed: int, path_index: int) -> np.random.Generator:
    """A fresh Philox generator keyed by (seed, path_index)."""
    mask = (1 << 64) - 1
    key = (int(seed) & mask) | ((int(path_index) & mask) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def arrival_map(state: np.ndarray) -> np.ndarray:
    """Post-arrival states: 0->1 (FSF takes the main server), 1->3, 2->3
    (idle main seized), k>=3 -> k+1 (queue)."""
    return np.where(state == 0, 1, np.where(state <= 2, 3, state + 1))


def fast_completion_map(state: np.ndarray) -> np.ndarray:
    """Post-main-completion states: 1->0, 3->2 (backup keeps its job, no
    migration), k>=4 -> k-1 (queued job takes the freed server); no-op when
    the main server is idle."""
    return np.where(state == 1, 0, np.where(state == 3, 2, np.where(state >= 4, state - 1, state)))


def slow_completion_map(state: np.ndarray) -> np.ndarray:
    """Post-backup-completion states: 2->0, 3->1, k>=4 -> k-1; no-op when the
    backup is idle."""
    return np.where(state == 2, 0, np.where(state == 3, 1, np.where(state >= 4, state - 1, state)))


def reference_run_block(
    spec: ModelSpec,
    bound: float,
    sample_times: np.ndarray,
    initial_state: int,
    seed: int,
    path_indices: np.ndarray,
    budget: int,
) -> np.ndarray:
    """One candidate at a time for every path over the whole budget.

    Oracle for the column-block scan of `mcsim._run_block`: the three rates
    are called separately at each candidate and the state moves through the
    three transition maps.
    """
    n_paths = len(path_indices)
    n_times = len(sample_times)
    draws = np.empty((n_paths, 2 * budget))
    for row, idx in enumerate(path_indices):
        draws[row] = path_stream(seed, int(idx)).random(2 * budget)

    t = np.zeros(n_paths)
    state = np.full(n_paths, initial_state, dtype=np.int64)
    rec = np.full((n_paths, n_times), -1, dtype=np.int64)
    rec[:, sample_times <= 0.0] = initial_state

    for k in range(budget):
        dt = -np.log1p(-draws[:, 2 * k]) / bound
        t_new = t + dt
        for j in range(n_times):
            s = sample_times[j]
            if s <= 0.0:
                continue
            crossed = (t < s) & (t_new >= s)
            if crossed.any():
                rec[crossed, j] = state[crossed]
        lam = np.asarray(spec.lam(t_new), dtype=float)
        mu1 = np.asarray(spec.mu1(t_new), dtype=float)
        mu2 = np.asarray(spec.mu2(t_new), dtype=float)
        pa = lam / bound
        pf = pa + mu1 / bound
        ps = pf + mu2 / bound
        u = draws[:, 2 * k + 1]
        arrival = u < pa
        fast = (~arrival) & (u < pf)
        slow = (~arrival) & (~fast) & (u < ps)
        state = np.where(
            arrival,
            arrival_map(state),
            np.where(fast, fast_completion_map(state), np.where(slow, slow_completion_map(state), state)),
        )
        t = t_new

    unfinished = rec.min(axis=1) < 0
    if unfinished.any():
        redo = path_indices[unfinished]
        rec[unfinished] = reference_run_block(spec, bound, sample_times, initial_state, seed, redo, 2 * budget)
    return rec
