"""Finite truncations of the queue's generator and its norm machinery.

`rate_parts` is the one statement of the transition pattern: the constant
matrices L, M1, M2 whose combination lam*L + mu1*M1 + mu2*M2 is the
transposed intensity matrix A(t) of the forward Kolmogorov system
dp/dt = A(t) p on the first n states.  `build_A` forms that combination and
`build_B` the reduced system dz/dt = B(t) z + f(t) obtained from it by
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


def rate_parts(n: int, conservative: bool) -> np.ndarray:
    """Constant matrices (L, M1, M2) with A(t) = lam*L + mu1*M1 + mu2*M2 on states 0..n-1.

    Each move out of a retained state puts -1 on its part's diagonal and +1
    at (target, source).  A move past the last state keeps its outflow, so
    probability leaks at the boundary, unless `conservative` drops the move.
    """
    require_truncation(n)
    moves = list(_HEAD_MOVES)
    moves += [(0, k, k + 1) for k in range(3, n)]
    moves += [(part, k, k - 1) for k in range(4, n) for part in (1, 2)]
    moves = np.array(moves).T
    if conservative:
        moves = moves[:, moves[2] < n]
    part, source, target = moves
    parts = np.zeros((3, n, n))
    parts[part, source, source] = -1.0
    inside = target < n
    parts[part[inside], target[inside], source[inside]] = 1.0
    return parts


def build_A(spec: ModelSpec, t: float, n: int, conservative: bool = False) -> np.ndarray:
    """Truncated A(t) = lam*L + mu1*M1 + mu2*M2 on states 0..n-1 (see `rate_parts`).

    With `conservative=True` the last state's arrival rate is dropped so every
    column sums to zero.
    """
    lam, mu1, mu2 = spec.rates(t)
    L, M1, M2 = rate_parts(n, conservative)
    return lam * L + mu1 * M1 + mu2 * M2


def build_B(spec: ModelSpec, t: float, n: int):
    """Truncated reduced matrix B(t) on n states plus forcing vector f(t).

    Reduced coordinates are z = (p10, p01, p11, p12, ...).  Substituting
    p00 = 1 - sum(z) into rows 1..n of A(t) on n+1 states gives
    B = A[1:, 1:] - A[1:, 0] 1^T and f = A[1:, 0]; row 0 is dense because
    the empty state feeds p10 at rate lambda.  A on n+1 states caps n at
    TRUNCATION_CAP - 1.
    """
    require_truncation(n)
    A = build_A(spec, t, n + 1)
    return A[1:, 1:] - A[1:, :1], A[1:, 0]


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


def format_matrix(M: np.ndarray) -> str:
    """Plain-text dense dump, row-major, 17 significant digits."""
    rows = [" ".join(f"{v:.17g}" for v in row) for row in np.asarray(M, dtype=float)]
    return "\n".join(rows) + "\n"
