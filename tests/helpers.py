"""Independent oracles and randomized model generators shared by the tests."""

import math
import tracemalloc

import numpy as np
from hypothesis import strategies as st

from twoproc.bounds import _route_beta, fixed_alphas
from twoproc.matrices import WeightSequence, build_B
from twoproc.mcsim import Majorant, SimSettings, _candidate_budget, _run_block, majorant
from twoproc.model import ModelSpec, RateFunction
from twoproc.solver import RATE_CHUNK


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


@st.composite
def admissible_models(draw):
    """A trigonometric or two-piece table arrival rate; mu2 a fraction of a trigonometric mu1."""
    c = draw(st.floats(0.5, 4.0))
    if draw(st.booleans()):
        lam = RateFunction.trig(c, [(draw(st.floats(-0.9, 0.9)) * c, draw(st.sampled_from(("sin", "cos"))),
                                     draw(st.integers(1, 3)))])
    else:
        lam = RateFunction.piecewise([(0.0, c), (draw(st.floats(0.1, 0.9)), draw(st.floats(0.0, 4.0)))])
    c1 = draw(st.floats(1.0, 5.0))
    a1 = draw(st.floats(-0.9, 0.9)) * c1
    kind, harmonic = draw(st.sampled_from(("sin", "cos"))), draw(st.integers(1, 3))
    s = draw(st.floats(0.3, 1.0))
    return ModelSpec(lam, RateFunction.trig(c1, [(a1, kind, harmonic)]),
                     RateFunction.trig(c1 * s, [(a1 * s, kind, harmonic)]))


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


def alphas_hetero(lam: float, mu2: float, chi: float, weights: WeightSequence) -> np.ndarray:
    """Constant-rate alpha_1..alpha_5 for mu1 = (1 + chi) * mu2, chi > 0.

    The paper's heterogeneous closed form, an oracle for `bounds.fixed_alphas`.
    alpha_2 carries the term -(chi/eps)*mu2 and may be the binding minimum.
    """
    if chi <= 0.0:
        raise ValueError("chi must be positive")
    eps, d1, dl = weights.epsilon, weights.delta1, weights.delta
    a1 = (1.0 + chi) * mu2 - eps * lam
    a2 = lam + mu2 * (1.0 - chi / eps)
    a3 = lam * (1.0 - d1) + (1.0 + chi) * mu2
    a4 = lam * (1.0 - dl) + mu2 * (2.0 + chi - (2.0 + eps + chi) / d1)
    a5 = lam * (1.0 - dl) + mu2 * (1.0 - 1.0 / dl) * (2.0 + chi)
    return np.array([a1, a2, a3, a4, a5])


def log_norm_columns(M: np.ndarray) -> np.ndarray:
    """Per-column terms of the l1 logarithmic norm: diag + abs off-diagonal sum."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("the l1 logarithmic norm needs a square matrix")
    return np.sum(np.abs(M), axis=0) - np.abs(np.diag(M)) + np.diag(M)


def log_norm_l1(M: np.ndarray) -> float:
    """Logarithmic norm in l1: the largest of `log_norm_columns`."""
    return float(np.max(log_norm_columns(M)))


def job_count(index: int) -> int:
    """Jobs in the system at one state index (oracle for `model.job_counts`)."""
    return 0 if index == 0 else 1 if index <= 2 else index - 1


def dense_weighted_norm(x: np.ndarray, weights: WeightSequence) -> float:
    """||D T x||_1 via explicit dense matrices (oracle for the cumsum path)."""
    m = len(x)
    T = np.triu(np.ones((m, m)))
    D = np.diag(weights.d(m))
    return float(np.sum(np.abs(D @ T @ x)))


def upper_ones(n: int) -> np.ndarray:
    """The suffix-sum operator T (upper triangular, all ones)."""
    return np.triu(np.ones((n, n)))


def upper_ones_inv(n: int) -> np.ndarray:
    """T^-1: unit diagonal, -1 on the superdiagonal."""
    return np.eye(n) - np.diag(np.ones(n - 1), k=1)


def transform_product(spec: ModelSpec, weights: WeightSequence, t: float, n: int) -> np.ndarray:
    """The explicit product D T B(t) T^-1 D^-1 from the truncated B.

    Oracle for the closed form `build_transformed`; the two agree entrywise
    away from the last two columns, where the truncated T picks up boundary
    effects.
    """
    B, _ = build_B(spec, t, n)
    d = weights.d(n)
    M = upper_ones(n) @ B @ upper_ones_inv(n)
    return d[:, None] * M / d[None, :]


def stationary_vector(A: np.ndarray) -> np.ndarray:
    """Brute-force stationary distribution of a conservative generator."""
    n = A.shape[0]
    M = A.copy()
    M[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(M, b)


def rate_parts(n: int, conservative: bool) -> np.ndarray:
    """Dense constant matrices (L, M1, M2) with A(t) = lam*L + mu1*M1 + mu2*M2 on states 0..n-1.

    Oracle for `matrices._rate_bands`, with the moves restated from the
    state diagram: arrivals move 0->1, 1->3, 2->3 and k->k+1 for k >= 3; the
    main server returns 1->0 and 3->2, the backup 2->0 and 3->1; above state
    3 either completion moves k->k-1.  Each move puts -1 on its part's
    diagonal and +1 at (target, source); the arrival out of the last state
    only leaks its outflow, or is dropped when conservative.
    """
    moves = [(0, 0, 1), (0, 1, 3), (0, 2, 3), (1, 1, 0), (1, 3, 2), (2, 2, 0), (2, 3, 1)]
    moves += [(0, k, k + 1) for k in range(3, n)]
    moves += [(part, k, k - 1) for part in (1, 2) for k in range(4, n)]
    parts = np.zeros((3, n, n))
    for part, source, target in moves:
        if target == n and conservative:
            continue
        parts[part, source, source] = -1.0
        if target < n:
            parts[part, target, source] = 1.0
    return parts


def traced_peak(build):
    """build() and the peak bytes tracemalloc sees while it runs."""
    tracemalloc.start()
    try:
        return build(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reference_rk4(spec: ModelSpec, n: int, step: float, horizon: float, p0, block: int = RATE_CHUNK):
    """RK4 states after every step, with one scalar rate call per stage.

    Oracle for the chunked rate evaluation of `integrate`: the running state
    is projected after every `block` steps only, the schedule of the step
    path at stride 1, and every step records a projected copy of it.
    Returns the (n_steps + 1) x n projected states and the pre-projection
    mass change |sum(p) - sum(previous p)| of every step (0 at the start),
    counted from 1 after a projection.  Step i takes its stage times from
    step i mod (1/step), a whole number of steps per period.
    """
    R = rate_parts(n, conservative=True).reshape(3 * n, n)

    def rhs(t: float, p: np.ndarray) -> np.ndarray:
        rates = np.array([spec.lam(t), spec.mu1(t), spec.mu2(t)])
        return rates @ (R @ p).reshape(3, n)

    def projected(p: np.ndarray) -> np.ndarray:
        p = np.maximum(p, 0.0)
        p /= p.sum()
        p[int(np.argmax(p))] -= p.sum() - 1.0
        return p

    h = step
    n_steps = int(round(horizon / h))
    p = projected(np.asarray(p0, dtype=float))
    states = np.empty((n_steps + 1, n))
    defects = np.zeros(n_steps + 1)
    states[0] = p
    mass = 1.0
    per_unit = round(1.0 / h)
    for i in range(n_steps):
        t = (i % per_unit) * h
        k1 = rhs(t, p)
        k2 = rhs(t + h / 2, p + (h / 2) * k1)
        k3 = rhs(t + h / 2, p + (h / 2) * k2)
        k4 = rhs(t + h, p + h * k3)
        p = p + (h / 6) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        defects[i + 1] = abs(p.sum() - mass)
        mass = p.sum()
        states[i + 1] = projected(p)
        if (i + 1) % block == 0:
            p, mass = states[i + 1].copy(), 1.0
    return states, defects


def reference_trajectory_csv(traj, order) -> str:
    """Trajectory CSV body formatted one cell at a time with "{:.12g}"."""
    lines = []
    for i in range(len(traj.times)):
        cells = ["{:.12g}".format(traj.times[i])]
        cells.extend("{:.12g}".format(traj.probs[i, k]) for k in order)
        cells.append("{:.12g}".format(traj.mean[i]))
        lines.append(",".join(cells) + "\n")
    return "".join(lines)


def reference_alpha_table(cert, spec: ModelSpec) -> str:
    """The alpha table rows of `certificate_report`, formatted one cell at a time with f-strings."""
    ts = np.linspace(0.0, 1.0, 101)
    rates = spec.rates(ts)
    table = fixed_alphas(*rates, cert.weights.d(6))
    _, route_vals = _route_beta(spec, cert.weights, rates, np.min(table, axis=0))
    lines = []
    for i, t in enumerate(ts):
        row = "  ".join(f"{table[j, i]:11.6g}" for j in range(5))
        lines.append(f"  {t:6.3f}  {row}  {route_vals[i]:11.6g}\n")
    return "".join(lines)


def path_uniforms(seed: int, path_index: int, count: int) -> np.ndarray:
    """Uniforms 0 .. count - 1 of one path: column path_index % 1024 of its group's
    PCG64 stream, seeded by (seed mod 2^64, path_index // 1024) and laid out in rows of 1024."""
    entropy = np.random.SeedSequence([int(seed) % 2**64, int(path_index) // 1024])
    return np.random.Generator(np.random.PCG64(entropy)).random(count * 1024)[int(path_index) % 1024 :: 1024]


def group_stream(seed: int, group: int) -> np.random.PCG64:
    """The bit generator of one group of 1024 path indices."""
    return np.random.PCG64(np.random.SeedSequence([int(seed) % 2**64, int(group)]))


def path_draws(seed: int, path_indices: np.ndarray, count: int, start: int = 0) -> np.ndarray:
    """Uniforms start .. start + count - 1 of each path's stream, one column per path.

    Each group's stream is advanced past `start` rows of 1024 and drawn once, as
    a (count, 1024) array whose columns are its members' uniforms.
    """
    path_indices = np.asarray(path_indices)
    out = np.empty((count, len(path_indices)))
    groups = path_indices // 1024
    for g in np.unique(groups):
        mine = groups == g
        bits = group_stream(seed, g)
        bits.advance(start * 1024)
        out[:, mine] = np.random.Generator(bits).random((count, 1024))[:, (path_indices[mine] % 1024).astype(np.intp)]
    return out


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


def reference_mass(maj: Majorant, t: float) -> float:
    """Lambda(t) by a walk over the majorant's cells."""
    whole = math.floor(t)
    x = t - whole
    g = 0
    while g + 1 < len(maj.top) and x >= maj.start[g + 1]:
        g += 1
    return whole * maj.period_mass + float(g * maj.cell_mass + maj.top[g] * (x - maj.start[g]))


def reference_run_block(
    spec: ModelSpec,
    maj: Majorant,
    sample_times: np.ndarray,
    seed: int,
    path_indices: np.ndarray,
    budget: int,
) -> np.ndarray:
    """One candidate at a time for every path, started empty, over the whole budget.

    Oracle for the column-block scan of `mcsim._run_block`: Lambda^-1 is a walk
    of each path's (period, cell) pointer forward to the cell that holds its
    running sum of unit exponentials, the three rates are called separately
    at each candidate and the state moves through the three transition maps.
    """
    n_paths = len(path_indices)
    n_times = len(sample_times)
    draws = path_draws(seed, path_indices, 2 * budget)
    cells = len(maj.top)
    ends = np.append(np.arange(1, cells) * maj.cell_mass, maj.period_mass)  # within a period
    targets = [reference_mass(maj, s) for s in sample_times]

    mass = np.zeros(n_paths)
    period = np.zeros(n_paths)  # whole periods before each path's cell
    cell = np.zeros(n_paths, dtype=np.int64)
    state = np.zeros(n_paths, dtype=np.int64)
    rec = np.full((n_paths, n_times), -1, dtype=np.int64)
    rec[:, sample_times <= 0.0] = 0

    for k in range(budget):
        mass_new = mass - np.log1p(-draws[2 * k])
        while True:
            past = mass_new >= period * maj.period_mass + ends[cell]
            if not past.any():
                break
            cell = cell + past
            period = np.where(cell == cells, period + 1.0, period)
            cell = np.where(cell == cells, 0, cell)
        for j in range(n_times):
            if sample_times[j] <= 0.0:
                continue
            crossed = (mass < targets[j]) & (mass_new >= targets[j])
            if crossed.any():
                rec[crossed, j] = state[crossed]
        r = mass_new - period * maj.period_mass
        inv = maj.inv[cell]
        phase = maj.base[cell] + r * inv
        lam = np.asarray(spec.lam(phase), dtype=float)
        mu1 = np.asarray(spec.mu1(phase), dtype=float)
        mu2 = np.asarray(spec.mu2(phase), dtype=float)
        pa = lam * inv
        pf = pa + mu1 * inv
        ps = pf + mu2 * inv
        u = draws[2 * k + 1]
        arrival = u < pa
        fast = (~arrival) & (u < pf)
        slow = (~arrival) & (~fast) & (u < ps)
        state = np.where(
            arrival,
            arrival_map(state),
            np.where(fast, fast_completion_map(state), np.where(slow, slow_completion_map(state), state)),
        )
        mass = mass_new

    unfinished = rec.min(axis=1) < 0
    if unfinished.any():
        redo = path_indices[unfinished]
        rec[unfinished] = reference_run_block(spec, maj, sample_times, seed, redo, 2 * budget)
    return rec


def simulate_path(spec: ModelSpec, settings: SimSettings, path_index: int) -> np.ndarray:
    """State indices of one path at the sample times, through the production block scan."""
    maj = majorant(spec)
    times = np.asarray(settings.sample_times, dtype=float)
    budget = _candidate_budget(maj.mass(float(times.max())))
    return _run_block(spec, maj, times, settings.seed, np.array([path_index]), budget=budget)[0]


def band_rhs(bands: np.ndarray, rates: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A(t) X from the (3, 5, n) bands of `matrices._rate_bands` and one rate row (lambda, mu1, mu2).

    Oracle for the fused band step of `solver._rk4_step`: one (3,) x (3, 5n)
    product gives the five diagonals of A(t) and five shifted multiply-adds
    apply them; a trailing axis of X spans a block's columns.
    """
    diagonals = (rates @ bands.reshape(3, -1)).reshape((5, -1) + (1,) * (X.ndim - 1))
    Y = diagonals * X
    out = Y[2].copy()
    out[:-2] += Y[0, 2:]
    out[:-1] += Y[1, 1:]
    out[1:] += Y[3, :-1]
    out[2:] += Y[4, :-2]
    return out


def reference_band_step(bands: np.ndarray, stage: np.ndarray, h: float, X: np.ndarray) -> np.ndarray:
    """One RK4 step with a `band_rhs` product per stage, the half-step rates used twice."""
    k1 = band_rhs(bands, stage[0], X)
    k2 = band_rhs(bands, stage[1], X + (h / 2) * k1)
    k3 = band_rhs(bands, stage[1], X + (h / 2) * k2)
    k4 = band_rhs(bands, stage[2], X + h * k3)
    return X + (h / 6) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
