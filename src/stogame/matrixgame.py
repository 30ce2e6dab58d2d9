"""Zero-sum matrix game values and optimal mixed strategies.

The row player maximizes, the column player minimizes.  Degenerate shapes
and 2x2 games are solved in closed form (`closed_form_2x2` takes a whole
stack of 2x2 games at once); everything else goes through two linear
programs (one per side), solved with HiGHS.  A pair that fails, or fails the
duality-gap or minimax check, is solved once more on the matrix rescaled
onto [0, 1], where the solver's absolute tolerances fit the entries' spread.
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


def _verify(M, value, x, y, tol=MINIMAX_TOL):
    """Minimax check of (value, x, y).  M may be a stack (..., m, n) with
    matching stacks of values and mixes; the result is then a mask."""
    guarantee_row = (x[..., None, :] @ M).min(axis=(-2, -1))
    guarantee_col = (M @ y[..., None]).max(axis=(-2, -1))
    return (guarantee_row >= value - tol) & (guarantee_col <= value + tol)


def closed_form_2x2(M):
    """Closed form of a stack of 2x2 games, M of shape (S, 2, 2).

    Each game is scanned for a saddle point first; the others get the
    equalizing mixes.  Returns (values, row mixes, column mixes, ok), where
    ok marks the games whose closed form passes the minimax check; the
    others (nearly constant mixed games, whose closed form loses its digits
    to cancellation) need the LP.
    """
    states = np.arange(M.shape[0])
    row_mins = M.min(axis=2)
    col_maxs = M.max(axis=1)
    i = row_mins.argmax(axis=1)
    j = col_maxs.argmin(axis=1)
    saddle = row_mins[states, i] >= col_maxs[states, j] - 1e-15
    a, b, c, d = M[:, 0, 0], M[:, 0, 1], M[:, 1, 0], M[:, 1, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = a + d - b - c
        x1 = (d - c) / denom
        y1 = (d - b) / denom
        mixed = (a * d - b * c) / denom
    value = np.where(saddle, M[states, i, j], mixed)
    x = np.where(saddle[:, None], np.eye(2)[i], np.stack([x1, 1.0 - x1], axis=1))
    y = np.where(saddle[:, None], np.eye(2)[j], np.stack([y1, 1.0 - y1], axis=1))
    with np.errstate(invalid="ignore"):
        ok = _verify(M, value, x, y)
    return value, x, y, ok


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
        value, x, y, ok = closed_form_2x2(M[None])
        if ok[0]:
            return MatrixGameSolution(float(value[0]), x[0], y[0], "closed-form")
        # Degenerate 2x2 falls through to the LP.

    try:
        x, y, value, gap = _lp_pair(M)
    except RuntimeError:
        pass  # HiGHS gave up on the raw entries; the rescaled retry may not
    else:
        if abs(gap) <= 1e-7 and _verify(M, value, x, y, tol=1e-7):
            return MatrixGameSolution(value, x, y, "lp")
    # HiGHS's absolute tolerances can exceed the span of a near-constant
    # matrix, or its status can come back unknown; solve once more with the
    # entries rescaled onto [0, 1].
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
