"""Zero-sum matrix game values and optimal mixed strategies.

The row player maximizes, the column player minimizes.  Degenerate shapes
and 2x2 games are solved in closed form; everything else goes through two
linear programs (one per side), solved with HiGHS.  A pair that fails the
duality-gap or minimax check is solved once more on the matrix rescaled onto
[0, 1], where the solver's absolute tolerances fit the entries' spread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

MINIMAX_TOL = 1e-9


@dataclass(frozen=True)
class MatrixGameSolution:
    value: float
    row_strategy: np.ndarray
    col_strategy: np.ndarray
    method: str


def _verify(M, value, x, y, tol=MINIMAX_TOL) -> bool:
    guarantee_row = float(np.min(x @ M))
    guarantee_col = float(np.max(M @ y))
    return guarantee_row >= value - tol and guarantee_col <= value + tol


def _solve_2x2(M):
    # Saddle point scan first.
    row_mins = M.min(axis=1)
    col_maxs = M.max(axis=0)
    maximin = row_mins.max()
    minimax = col_maxs.min()
    if maximin >= minimax - 1e-15:
        i = int(np.argmax(row_mins))
        j = int(np.argmin(col_maxs))
        x = np.zeros(2)
        y = np.zeros(2)
        x[i] = 1.0
        y[j] = 1.0
        return float(M[i, j]), x, y
    a, b = M[0]
    c, d = M[1]
    denom = a + d - b - c
    x1 = (d - c) / denom
    y1 = (d - b) / denom
    x = np.array([x1, 1.0 - x1])
    y = np.array([y1, 1.0 - y1])
    return float((a * d - b * c) / denom), x, y


def _lp_row(M):
    """max v s.t. (x^T M)_j >= v, sum x = 1, x >= 0."""
    m, n = M.shape
    c = np.zeros(m + 1)
    c[-1] = -1.0
    A_ub = np.hstack([-M.T, np.ones((n, 1))])
    b_ub = np.zeros(n)
    A_eq = np.zeros((1, m + 1))
    A_eq[0, :m] = 1.0
    b_eq = [1.0]
    bounds = [(0, None)] * m + [(None, None)]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"row LP failed: {res.message}")
    x = np.clip(res.x[:m], 0.0, None)
    return x / x.sum(), float(res.x[-1])


def _lp_pair(M):
    """Both sides' LP strategies, the midpoint value and the duality gap."""
    x, v_row = _lp_row(M)
    y, v_col_neg = _lp_row(-M.T)
    return x, y, 0.5 * (v_row - v_col_neg), v_row + v_col_neg


def solve_matrix_game(M) -> MatrixGameSolution:
    """Value and optimal mixed strategies of a finite zero-sum matrix game."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.size == 0:
        raise ValueError(f"expected a nonempty 2-d matrix, got shape {M.shape}")
    m, n = M.shape

    if n == 1:
        i = int(np.argmax(M[:, 0]))
        x = np.zeros(m)
        x[i] = 1.0
        return MatrixGameSolution(float(M[i, 0]), x, np.ones(1), "pure")
    if m == 1:
        j = int(np.argmin(M[0]))
        y = np.zeros(n)
        y[j] = 1.0
        return MatrixGameSolution(float(M[0, j]), np.ones(1), y, "pure")
    if (m, n) == (2, 2):
        value, x, y = _solve_2x2(M)
        if _verify(M, value, x, y):
            return MatrixGameSolution(value, x, y, "closed-form")
        # Degenerate 2x2 falls through to the LP.

    x, y, value, gap = _lp_pair(M)
    if abs(gap) <= 1e-7 and _verify(M, value, x, y, tol=1e-7):
        return MatrixGameSolution(value, x, y, "lp")
    # HiGHS's absolute tolerances can exceed the span of a near-constant
    # matrix; solve once more with the entries rescaled onto [0, 1].
    lo = float(M.min())
    span = float(M.max()) - lo
    if span == 0.0:
        x = np.zeros(m)
        y = np.zeros(n)
        x[0] = y[0] = 1.0
        return MatrixGameSolution(lo, x, y, "pure")
    x, y, value, gap = _lp_pair((M - lo) / span)
    value = lo + span * value
    if abs(gap) > 1e-7:
        raise RuntimeError(
            f"matrix game LP duality gap {gap:.3e} exceeds tolerance"
        )
    if not _verify(M, value, x, y, tol=1e-7):
        raise RuntimeError("matrix game solution failed the minimax check")
    return MatrixGameSolution(value, x, y, "lp")
