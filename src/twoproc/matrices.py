"""Finite truncations of the queue's generator and its norm machinery.

`_moves` is the one statement of the transition pattern and `_rate_bands`
its one reader: it scatters the moves into the constant parts L, M1, M2,
whose combination lam*L + mu1*M1 + mu2*M2 is the transposed intensity
matrix A(t) of the forward Kolmogorov system dp/dt = A(t) p on the first n
states.  Every move changes the state index by at most 2, so A(t) is
pentadiagonal and the parts are stored as their five diagonals, O(n)
numbers.  `_layout` writes bands out as dense matrices: the solver's stack
of the parts below `solver.BAND_MIN_N`, and `build_A`, which combines the
rates on the bands and lays the result out once.  `build_B` is the reduced
system dz/dt = B(t) z + f(t) obtained from A(t) on one more state by
eliminating the empty state through the normalization p00 = 1 - sum(z).
`build_transformed` assembles D T B(t) T^-1 D^-1 where T is the
upper-triangular all-ones matrix (suffix sums) and D = diag(d) a positive
weight sequence; in that similarity frame the off-diagonals are nonnegative
and column sums give decay bounds.

Truncation convention: the plain truncations simply cut the infinite pattern,
so the last column of A loses the arrival outflow (probability mass leaks at
the boundary) and checks on transformed matrices exclude the last two
columns.  `build_A(..., conservative=True)` removes the arrival rate from the
last state instead, which keeps the truncated chain honest; the solver
integrates that variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelSpec


@dataclass(frozen=True)
class WeightSequence:
    """Weights d1=1, d2=epsilon, d3=1, d4=delta1, d_{k+1} = delta*d_k (k>=4)."""

    epsilon: float
    delta1: float
    delta: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 1.0 < self.delta1 < math.inf:
            raise ValueError("delta1 must be finite and exceed 1")
        if not 1.0 < self.delta < math.inf:
            raise ValueError("delta must be finite and exceed 1")

    def d(self, m: int) -> np.ndarray:
        """The first m >= 2 weights as an array (d[0] is d1)."""
        return weight_columns(self.epsilon, self.delta1, self.delta, m)


def weight_columns(epsilon, delta1, delta: float, m: int) -> np.ndarray:
    """The first m >= 2 weights d1..dm as rows, one column per entry of epsilon and delta1.

    With scalar epsilon and delta1 this is the 1-D `WeightSequence.d(m)`.
    """
    eps, d1 = np.broadcast_arrays(epsilon, delta1)
    out = np.ones((m,) + eps.shape)
    out[1] = eps
    out[3:] = np.multiply.outer(delta ** np.arange(m - 3), d1)
    return out


TRUNCATION_CAP = 4096  # most states any truncation keeps; the doubling search stops here too


def require_truncation(n: int) -> None:
    """Refuse a truncation level outside 5 <= n <= TRUNCATION_CAP, before anything is allocated."""
    if n < 5:
        raise ValueError("truncation must keep at least 5 states")
    if n > TRUNCATION_CAP:
        raise ValueError(f"truncation must keep at most {TRUNCATION_CAP} states, got {n}")


# Every transition as (part, source, target) for part 0 = arrival, 1 = main
# completion, 2 = backup completion.  Arrivals move 0->1, 1->3, 2->3 and
# k->k+1 for k >= 3; the main server returns 1->0 and 3->2, the backup 2->0
# and 3->1; above state 3 either completion moves k->k-1.
_HEAD_MOVES = ((0, 0, 1), (0, 1, 3), (0, 2, 3), (1, 1, 0), (1, 3, 2), (2, 2, 0), (2, 3, 1))


def _moves(n: int, conservative: bool) -> np.ndarray:
    """Rows (part, source, target) of every move out of states 0..n-1.

    A move past the last state is kept, unless `conservative` drops it.
    """
    require_truncation(n)
    moves = list(_HEAD_MOVES)
    moves += [(0, k, k + 1) for k in range(3, n)]
    moves += [(part, k, k - 1) for k in range(4, n) for part in (1, 2)]
    moves = np.array(moves).T
    if conservative:
        moves = moves[:, moves[2] < n]
    return moves


def _rate_bands(n: int, conservative: bool) -> np.ndarray:
    """Constant parts (L, M1, M2) of A(t) = lam*L + mu1*M1 + mu2*M2 on states 0..n-1, as diagonals.

    bands[part, 2 + d, j] is the part's entry at (j + d, j): diagonal d = -2..2
    indexed by column.  Each move out of a retained state puts -1 on its part's
    diagonal and +1 at (target, source).  A move past the last state keeps its
    outflow, so probability leaks at the boundary, unless `conservative` drops it.
    """
    part, source, target = _moves(n, conservative)
    bands = np.zeros((3, 5, n))
    bands[part, 2, source] = -1.0
    inside = target < n
    bands[part[inside], 2 + target[inside] - source[inside], source[inside]] = 1.0
    return bands


def _layout(bands: np.ndarray) -> np.ndarray:
    """The (..., n, n) matrices whose five diagonals are the (..., 5, n) bands."""
    n = bands.shape[-1]
    out = np.zeros(bands.shape[:-2] + (n, n))
    for d in range(-2, 3):
        j = np.arange(max(0, -d), n - max(0, d))
        out[..., j + d, j] = bands[..., 2 + d, j]
    return out


def _generator_bands(spec: ModelSpec, t: float, n: int, conservative: bool) -> np.ndarray:
    """The (5, n) diagonals of A(t), each entry summed as lam*L + mu1*M1 + mu2*M2."""
    lam, mu1, mu2 = spec.rates(t)
    L, M1, M2 = _rate_bands(n, conservative)
    return lam * L + mu1 * M1 + mu2 * M2


def build_A(spec: ModelSpec, t: float, n: int, conservative: bool = False) -> np.ndarray:
    """Truncated A(t) = lam*L + mu1*M1 + mu2*M2 on states 0..n-1 (see `_rate_bands`).

    With `conservative=True` the last state's arrival rate is dropped so every
    column sums to zero.
    """
    return _layout(_generator_bands(spec, t, n, conservative))


def _forcing(spec: ModelSpec, t: float, n: int) -> np.ndarray:
    """f(t) = A[1:, 0] of `build_B`, read off column 0 of the bands of A on n + 1 states."""
    if n > TRUNCATION_CAP - 1:
        raise ValueError(f"B keeps at most {TRUNCATION_CAP - 1} states (A on n + 1), got {n}")
    require_truncation(n)
    f = np.zeros(n)
    f[:2] = _generator_bands(spec, t, n + 1, conservative=False)[3:, 0]
    return f


def build_B(spec: ModelSpec, t: float, n: int):
    """Truncated reduced matrix B(t) on n states plus forcing vector f(t).

    Reduced coordinates are z = (p10, p01, p11, p12, ...).  Substituting
    p00 = 1 - sum(z) into rows 1..n of A(t) on n+1 states gives
    B = A[1:, 1:] - A[1:, 0] 1^T and f = A[1:, 0]; row 0 is dense because
    the empty state feeds p10 at rate lambda, its only move, so f is 0
    below row 0.  B is a view of that A, which caps n at TRUNCATION_CAP - 1.
    """
    f = _forcing(spec, t, n)
    B = build_A(spec, t, n + 1)[1:, 1:]
    B[0] -= f[0]
    return B, f


def build_transformed(spec: ModelSpec, weights: WeightSequence, t: float, n: int) -> np.ndarray:
    """Closed-form D T B(t) T^-1 D^-1 truncation on n states.

    The pattern: head block

        [-(l+m1)   r12*(m1-m2)  r13*m2   .        ]
        [r21*l     -(l+m2)      .        r24*m2   ]
        [r31*l     .            -(l+m)   r34*m    ]
        [.         .            r43*l    -(l+m)   r45*m ]

    with r_ij = d_i/d_j, then a tridiagonal tail with sub-diagonal
    r_{k,k-1}*lambda and super-diagonal r_{k,k+1}*mu.
    """
    require_truncation(n)
    lam, mu1, mu2 = spec.rates(t)
    mu = mu1 + mu2
    d = weights.d(n)
    M = np.zeros((n, n))
    M[0, 0] = -(lam + mu1)
    M[0, 1] = (d[0] / d[1]) * (mu1 - mu2)
    M[0, 2] = (d[0] / d[2]) * mu2
    M[1, 0] = (d[1] / d[0]) * lam
    M[1, 1] = -(lam + mu2)
    M[1, 3] = (d[1] / d[3]) * mu2
    M[2, 0] = (d[2] / d[0]) * lam
    M[2, 2] = -(lam + mu)
    M[2, 3] = (d[2] / d[3]) * mu
    for k in range(3, n):
        M[k, k - 1] = (d[k] / d[k - 1]) * lam
        M[k, k] = -(lam + mu)
        if k + 1 < n:
            M[k, k + 1] = (d[k] / d[k + 1]) * mu
    return M


def weighted_norm(x, weights: WeightSequence) -> np.ndarray:
    """The weighted l1 norm ||D T x||_1 = sum_i d_i |sum_{j>=i} x_j| of each row of x.

    Each row is one reduced-coordinate vector.
    """
    x = np.asarray(x, dtype=float)
    suffix = np.cumsum(x[:, ::-1], axis=1)[:, ::-1]
    return np.abs(suffix) @ weights.d(x.shape[1])


def format_matrix(M: np.ndarray):
    """Plain-text dense dump, one line per row as it is formatted, 17 significant digits."""
    for row in np.asarray(M, dtype=float):
        yield " ".join(f"{v:.17g}" for v in row.tolist()) + "\n"
