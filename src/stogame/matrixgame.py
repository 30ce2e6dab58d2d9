"""Zero-sum matrix game values and optimal mixed strategies.

The row player maximizes, the column player minimizes.  `solve_matrix_game`
solves degenerate shapes and 2x2 games in closed form; everything else goes
through two linear programs (one per side), solved with HiGHS.  A pair that
fails, or fails the duality-gap or minimax check, is solved once more on the
matrix rescaled onto [0, 1], where the solver's absolute tolerances fit the
entries' spread.  An accepted pair's value is moved into the bracket its
own strategies certify (`_lp_solution`).  scipy is imported by `linprog`,
at the first LP, so a run that solves no LP never loads it.

`closed_form_2x2` takes a whole stack of 2x2 games, such as min-max's
one-shot games of all states, and solves them in one loop over Python
floats: those stacks hold a few games each, and numpy's fixed cost per call
would outweigh the per-game arithmetic.  A nearly constant game, whose
closed form loses its digits to cancellation, is solved once more on its
entries minus their minimum, which keeps them; only a 2x2 game that fails
both tries (none on the benchmark workloads) reaches the LP, so min-max on
2x2 games never loads scipy.

`kernel_solution` solves a small game of any shape without an LP: every
matrix game has an optimal pair supported on a square submatrix, a kernel,
whose equalizing strategies solve two small linear systems (Shapley & Snow
1950).  It tries all kernels, smallest first, and keeps the first pair that
passes the minimax check on the whole matrix.  Those systems are solved,
one stack per kernel size, by `kernel_equalizers`, which takes a bimatrix
game (A, B): `kernel_solution` passes (M, M), and the one-shot support
enumeration passes the two players' payoffs.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb, nan

import numpy as np
from numpy.linalg._umath_linalg import solve as _lapack_solve

MINIMAX_TOL = 1e-9
# A kernel pair must pass the minimax check to this tolerance, times the
# entries' scale: an exact solve of a well-conditioned kernel is off by a few
# ulps, while a pair that only nearly verifies would move the value.
KERNEL_TOL = 1e-12
# Matrices with more square submatrices than this (4x4 has 69, 12x2 has 90)
# are left to the LP.
KERNEL_LIMIT = 100


@dataclass(frozen=True)
class MatrixGameSolution:
    value: float
    row_strategy: np.ndarray
    col_strategy: np.ndarray
    method: str


def _guarantees(M, x, y):
    """(floor, ceil): the payoff the row mix x guarantees against every
    column and the payoff the column mix y holds every row to.  The game's
    value lies between them.  Takes stacks as `_verify` does."""
    return (x[..., None, :] @ M)[..., 0, :].min(axis=-1), (M @ y[..., None])[..., 0].max(axis=-1)


def _verify(M, value, x, y, tol=MINIMAX_TOL):
    """Minimax check of (value, x, y).  M may be a stack (..., m, n) with
    matching stacks of values and mixes; the result is then a mask."""
    floor, ceil = _guarantees(M, x, y)
    return (floor >= value - tol) & (ceil <= value + tol)


def _closed_form(a, b, c, d):
    """(value, row weight on row 0, column weight on column 0) of the 2x2
    game [[a, b], [c, d]] on Python floats: a saddle point if the scan finds
    one, else the equalizing mixes (NaN for a zero denominator, which then
    fails the check)."""
    # Row minima and negated column maxima, the two sides' security levels
    # per action; the first maximum of each (argmax's tie rule) is that
    # side's pure action.
    row0 = b if b < a else a
    row1 = d if d < c else c
    col0 = -(c if c > a else a)
    col1 = -(d if d > b else b)
    i = 0 if row0 >= row1 else 1
    j = 0 if col0 >= col1 else 1
    if (row0 if i == 0 else row1) >= -1e-15 - (col0 if j == 0 else col1):
        value = (a if j == 0 else b) if i == 0 else (c if j == 0 else d)
        return value, 1.0 if i == 0 else 0.0, 1.0 if j == 0 else 0.0
    denom = a + d - b - c
    if denom == 0.0:
        return nan, nan, nan
    return (a * d - b * c) / denom, (d - c) / denom, (d - b) / denom


def _holds(a, b, c, d, value, x, y):
    """The minimax check of one 2x2 game: the row mix (x, 1 - x) guarantees
    value - MINIMAX_TOL against both columns, the column mix (y, 1 - y)
    holds both rows to value + MINIMAX_TOL.  False on NaN."""
    x_ = 1.0 - x
    y_ = 1.0 - y
    floor = value - MINIMAX_TOL
    ceil = value + MINIMAX_TOL
    return (x * a + x_ * c >= floor and x * b + x_ * d >= floor
            and a * y + b * y_ <= ceil and c * y + d * y_ <= ceil)


def closed_form_2x2(M):
    """Closed form of a stack of 2x2 games, M of shape (S, 2, 2).

    Each game is scanned for a saddle point first; the others get the
    equalizing mixes.  A game whose closed form fails the minimax check is
    solved once more on its entries minus their minimum lo, and (value + lo,
    the same mixes) is checked against the unshifted entries.  A nearly
    constant mixed game needs that retry: a*d - b*c cancels the leading
    digits of two products near the entries' square and keeps only their
    rounding, while the shifted entries are the exact differences (Sterbenz)
    and their products keep every digit, so the value is off by the last
    rounding of value + lo.  A game that passes the first try keeps every
    bit of it.  Returns (values, row mixes, column mixes, failed), where
    failed lists, in order, the indices of the games that fail both tries
    (a zero denominator, say); those need the LP.

    The games are solved one at a time on Python floats.  On a 2-vCPU x86
    host this loop costs about 5 us per call plus 1.8 us per game, while
    the same closed form as some 40 numpy array operations costs about
    60 us per call, nearly all of it fixed overhead.  The loop is the
    cheaper one up to about 40 games per stack, and min-max's stacks hold
    one game per state: 1-5 on the acceptance suite, 20 on the largest
    dense games.  Python's float arithmetic is the IEEE double arithmetic
    of numpy's elementwise operations, evaluated in the same order, so every
    value, mix and check is the one the numpy closed form computed, bit for
    bit.
    """
    n = len(M)
    values, rows, cols, failed = [], [], [], []
    for k, (a, b, c, d) in enumerate(M.reshape(n, 4).tolist()):
        value, x, y = _closed_form(a, b, c, d)
        if not _holds(a, b, c, d, value, x, y):
            lo = min(a, b, c, d)
            value, x, y = _closed_form(a - lo, b - lo, c - lo, d - lo)
            value += lo
            if not _holds(a, b, c, d, value, x, y):
                failed.append(k)
        values.append(value)
        rows.append((x, 1.0 - x))
        cols.append((y, 1.0 - y))
    return (np.array(values, dtype=float), np.array(rows, dtype=float).reshape(n, 2),
            np.array(cols, dtype=float).reshape(n, 2), failed)


def _game_matrix(M) -> np.ndarray:
    """M as a float array, checked to be a nonempty finite matrix."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.size == 0:
        raise ValueError(f"expected a nonempty 2-d matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix game entries must be finite (no NaN or inf)")
    return M


@functools.lru_cache(maxsize=None)
def _kernel_index(m: int, n: int, k: int):
    """Row and column index sets of every k x k submatrix of an m x n
    matrix: rows in lexicographic order, then columns."""
    rows = np.array(list(itertools.combinations(range(m), k)))
    cols = np.array(list(itertools.combinations(range(n), k)))
    rows = np.repeat(rows, len(cols), axis=0)
    cols = np.tile(cols, (len(rows) // len(cols), 1))
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _bordered(K):
    """[K, -1; 1, 0] for a stack of k x k matrices K."""
    N, k, _ = K.shape
    A = np.zeros((N, k + 1, k + 1))
    A[:, :k, :k] = K
    A[:, :k, k] = -1.0
    A[:, k, :k] = 1.0
    return A


def _equalizers(A):
    """Solve A [p; v] = [0; 1] for a stack of bordered matrices: the mix p
    making every row of K p equal to v.  Returns (p, v, solved): solved is
    False where the whole solution is NaN, which is how the LAPACK gufunc
    behind `np.linalg.solve` answers an exact zero pivot, the case in which
    `np.linalg.solve` would raise.  Every system gets the bits
    `np.linalg.solve` would give it alone."""
    rhs = np.zeros(A.shape[:2] + (1,))
    rhs[:, -1] = 1.0
    with np.errstate(invalid="ignore"):
        out = _lapack_solve(A, rhs, signature="dd->d")[..., 0]
    return out[:, :-1], out[:, -1], ~np.isnan(out).all(axis=1)


def kernel_equalizers(A, B, k: int):
    """Shapley-Snow equalizers of every k x k kernel of the bimatrix game
    (A, B), A the row player's payoffs and B the column player's.

    Per kernel, in `_kernel_index` order, the row mix equalizing B's kernel
    columns, with their common value, and the column mix equalizing A's
    kernel rows; neither is checked for signs.  A kernel with an exactly
    singular bordered system, the one case in which a solve of that kernel
    alone would raise, is left out; a zero-determinant test would also drop
    kernels whose determinant merely underflows (entries near 1e-200).
    Returns (rows, cols, x, v, y): the kept kernels' row and column index
    sets, row mixes, values and column mixes.
    """
    rows, cols = _kernel_index(*A.shape, k)
    grid = (rows[:, :, None], cols[:, None, :])
    x, v, x_solved = _equalizers(_bordered(B[grid].transpose(0, 2, 1)))
    y, _, y_solved = _equalizers(_bordered(A[grid]))
    keep = np.flatnonzero(x_solved & y_solved)
    return rows[keep], cols[keep], x[keep], v[keep], y[keep]


def kernel_solution(M) -> MatrixGameSolution | None:
    """Value and optimal strategies of a matrix game from its Shapley-Snow
    kernels, or None.

    Kernels are tried by size, then rows, then columns, each size as one
    stack (`kernel_equalizers` of (M, M)): a kernel's equalizers are kept
    when both are nonnegative and the pair, extended by zeros, passes the
    minimax check on all of M.  The first that passes wins, so the support
    of each side is at most min(m, n).  None when no kernel passes, or when
    M has more than KERNEL_LIMIT square submatrices.
    """
    M = _game_matrix(M)
    m, n = M.shape
    if comb(m + n, m) - 1 > KERNEL_LIMIT:
        return None
    tol = KERNEL_TOL * max(1.0, float(np.abs(M).max()))
    for k in range(1, min(m, n) + 1):
        with np.errstate(all="ignore"):
            rows, cols, x, v, y = kernel_equalizers(M, M, k)
            signs = (x >= -1e-12).all(axis=1) & (y >= -1e-12).all(axis=1)
            X = np.zeros((len(v), m))
            Y = np.zeros((len(v), n))
            np.put_along_axis(X, rows, np.clip(x, 0.0, None), axis=1)
            np.put_along_axis(Y, cols, np.clip(y, 0.0, None), axis=1)
            X /= X.sum(axis=1, keepdims=True)
            Y /= Y.sum(axis=1, keepdims=True)
            ok = signs & _verify(M, v, X, Y, tol=tol)
        if ok.any():
            first = int(np.argmax(ok))
            return MatrixGameSolution(float(v[first]), X[first], Y[first], "kernel")
    return None


def linprog(*args, **kwargs):
    """`scipy.optimize.linprog`, imported on first use: loading scipy costs
    more start-up time and memory than most runs spend on their LPs."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


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


def _lp_solution(M, x, y, value):
    """The LP pair with its value moved into [floor, ceil] of `_guarantees`.
    The LP objectives are only as exact as HiGHS's tolerances (about 1e-7
    absolute), so on entries near that size their midpoint can miss the
    pair's own bracket: for [[0, 1e-7], [1e-7, 1], [0, 1e-7]] the LP pair
    is the saddle point (row 1, column 0), floor = ceil = 1e-7, and the
    midpoint reads 5e-8.  A value inside the bracket is kept as it is."""
    floor, ceil = _guarantees(M, x, y)
    return MatrixGameSolution(min(max(value, float(floor)), float(ceil)), x, y, "lp")


def solve_matrix_game(M) -> MatrixGameSolution:
    """Value and optimal mixed strategies of a finite zero-sum matrix game."""
    M = _game_matrix(M)
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
        value, x, y, failed = closed_form_2x2(M[None])
        if not failed:
            return MatrixGameSolution(float(value[0]), x[0], y[0], "closed-form")
        # A 2x2 game that fails both closed-form tries falls through to the LP.

    try:
        x, y, value, gap = _lp_pair(M)
    except RuntimeError:
        pass  # HiGHS gave up on the raw entries; the rescaled retry may not
    else:
        if abs(gap) <= 1e-7 and _verify(M, value, x, y, tol=1e-7):
            return _lp_solution(M, x, y, value)
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
    return _lp_solution(M, x, y, value)
