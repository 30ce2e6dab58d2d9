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
    guarantee_row = (x[..., None, :] @ M)[..., 0, :].min(axis=-1)
    guarantee_col = (M @ y[..., None])[..., 0].max(axis=-1)
    return (guarantee_row >= value - tol) & (guarantee_col <= value + tol)


def closed_form_2x2(M):
    """Closed form of a stack of 2x2 games, M of shape (S, 2, 2).

    Each game is scanned for a saddle point first; the others get the
    equalizing mixes.  Returns (values, row mixes, column mixes, ok), where
    ok marks the games whose closed form passes the minimax check; the
    others (nearly constant mixed games, whose closed form loses its digits
    to cancellation) need the LP.  Both sides' mixes are built as one
    (2, S, 2) array: a mix's second entry is always one minus its first.
    """
    n = len(M)
    entries = M.reshape(n, 4).T
    a, b, c, d = entries
    # Row minima and negated column maxima, the two sides' security levels
    # per action: one argmax gives both pure candidates (i, j).
    levels = np.empty((2, 2, n))
    np.minimum(entries[0::2], entries[1::2], out=levels[0])
    np.maximum(entries[:2], entries[2:], out=levels[1])
    np.negative(levels[1], out=levels[1])
    i, j = pure = levels.argmax(axis=1)
    best = np.maximum(levels[:, 0], levels[:, 1])
    saddle = best[0] >= -1e-15 - best[1]
    mixes = np.empty((2, n, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = a + d - b - c
        value = np.where(saddle, M[np.arange(n), i, j], (a * d - b * c) / denom)
        # First entries: the pure actions' indicators, or (d - c, d - b) / denom.
        first = np.where(saddle, pure == 0, (d - entries[2:0:-1]) / denom)
        mixes[:, :, 0] = first
        np.subtract(1.0, first, out=mixes[:, :, 1])
        ok = _verify(M, value, mixes[0], mixes[1])
    return value, mixes[0], mixes[1], ok


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
