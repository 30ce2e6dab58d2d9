"""Discounted and uniform min-max values.

For each protected player i the adversary is the coalition of the remaining
players acting jointly (their action set is the product of individual action
sets, i.e. the adversary may correlate).  For two players this coincides with
the independent min-max; for three or more players the coalition value is a
lower bound on the independent one, and every report carries that flag.

Each player's uniform value is first sought directly (`direct_minmax`):
strategy iteration on the limiting-average game gives stationary pairs
(x, y), and the coalition's best average response to x and the player's to
y, both exact multichain Howard solves (`chains.optimal_average_policy`),
bracket the value: L(x) <= v1 <= U(y).  When the bracket closes to
DIRECT_WIDTH, its midpoint is v1 and no discount is solved.  On the
benchmark's workloads that is every curve of the dense and layered games
and about half of the soft-absorbing ones, and no BLAS kernel moves such a
midpoint by more than a few ulps, where Aitken's step magnifies a
kernel's rounding.  Otherwise (quitting games such as the Big Match, where
stationary strategies need not guarantee the value) the width stops
halving, and `uniform_minmax` runs the discount schedule below, with
Aitken's step, exactly as it would without the try.

The per-discount solve is strategy iteration: at each round the one-shot
matrix games at the current value vector give both players' stationary
strategies; exact best-response MDP solves (policy iteration) then produce a
certified upper bound (protected player responds) and lower bound (coalition
responds), and the loop stops once the sandwich closes.  This keeps the cost
independent of the discount factor, which matters close to 1.

Each round is batched over states: the 2x2 one-shot games of all states go
to one `closed_form_2x2` call, which solves them in one scalar pass (numpy
array operations on a stack of a few games cost more in call overhead than
the loop does in arithmetic) and retries a nearly constant game on its
shifted entries, so every 2x2 state stays on that path and scipy's LP is
left to larger games and to a 2x2 game that fails both tries; one einsum
builds each best-response MDP's transitions, and one policy iteration
solves both sides' MDPs together.
What depends only on the game and the player is built once per curve
(`_Stage`, which `uniform_minmax` hands to every discount): the per-state
stage matrices, the transition stack, the MDP buffers and policy
iteration's identity and row-start arrays.  Each discount
only rescales the stage payoffs by 1 - lam, elementwise, so the workspace
holds the bits a fresh one would.  Each round writes its two best-response
MDPs in place into one reward and one transition stack; when the two sides
have different numbers of actions, the narrower one is padded with copies
of its first action, which `argmax` never picks over the original.

A round costs a few dozen numpy calls on arrays of a few dozen entries, so
their fixed cost, not the arithmetic, sets the time.  Policy iteration
therefore calls the LAPACK gufunc behind `np.linalg.solve`
(`numpy.linalg._umath_linalg.solve`) itself: the same dgesv on the same
stack, without the wrapper's type checks and `errstate` context, which took
more than half of each solve's time.  Without that context a singular system
comes back as NaN instead of raising, so `_policy_iteration` turns a NaN
gain into LinAlgError.  `tests/test_minmax.py` pins both:
`test_lapack_gufunc_matches_numpy_solve` (bit for bit) and
`test_singular_policy_iteration_raises_at_once`.

The stage-payoff products stay one BLAS matrix-vector product per state, on
a matrix in `game.player_indices[i]`'s memory order (transposed for the last
player), exactly as the per-state solve computed them; a stacked matmul of
matrix-by-vector items hands each item to BLAS on its own, so it keeps that
rounding.  An einsum or a C-ordered stack rounds the last bit differently,
and the Aitken step of `uniform_minmax` magnifies one bit into shifts of
the uniform value of up to 3e-6.  The batched solve is bit-identical to the per-state one
(`tests/oracles.py` keeps that one as the reference).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg._umath_linalg import solve as _lapack_solve

from ._util import DIST_TOL, json_ready
from .chains import optimal_average_policy
from .game import StochasticGame
from .matrixgame import closed_form_2x2, solve_matrix_game

# ndarray.max without its Python-level wrapper: the same reduction and NaN
# propagation, for a round's small arrays where the wrapper costs more.
_max = np.maximum.reduce

# Certificate target of each discounted solve: it stops once the gap between
# its two best-response values is at most 2 * CERT_TOL.
CERT_TOL = 1e-9


# Length of the discount schedule when none is given.
DEFAULT_SCHEDULE_DEPTH = 20

# The direct average-reward solve (`direct_minmax`): a bracket at most
# DIRECT_WIDTH wide closes a curve; the one-shot games weigh the gain
# DIRECT_GAIN_WEIGHT times against the bias; the solve gives up after
# DIRECT_CAP iterations, or once DIRECT_PATIENCE iterations in a row have not
# halved the bracket's width.
DIRECT_WIDTH = 1e-9
DIRECT_GAIN_WEIGHT = 1e3
DIRECT_CAP = 40
DIRECT_PATIENCE = 3


def default_schedule(k_max: int = DEFAULT_SCHEDULE_DEPTH) -> list:
    """Discount schedule 1 - 2^-k for k = 1..k_max."""
    return [1.0 - 0.5**k for k in range(1, k_max + 1)]


def _one_shot(payoff, transitions, index, lam, v):
    """Tv, both sides' one-shot mixes of the games payoff + lam * P v and the
    number of games solved by `solve_matrix_game` instead of the stacked
    closed form (those larger than 2x2, and 2x2 games that fail both of its
    tries); payoff is player i's stage payoff over flat profiles, scaled by
    1 - lam for a discounted solve.

    The closed form reads only the games' entries, so it gets them from
    `take`, at a third of the cost of `[:, index]`.  The games left to
    `solve_matrix_game` keep `[:, index]`'s memory order (Fortran order for
    a transposed view), in which its BLAS checks have always run."""
    q_flat = payoff + lam * (transitions @ v)
    if index.shape == (2, 2):
        Tv, rows, cols, unsolved = closed_form_2x2(q_flat.take(index, axis=1))
        if not unsolved:
            return Tv, rows, cols, 0
    else:
        n_states, (own, other) = len(q_flat), index.shape
        Tv = np.empty(n_states)
        rows = np.empty((n_states, own))
        cols = np.empty((n_states, other))
        unsolved = range(n_states)
    Q = q_flat[:, index]
    for s in unsolved:
        sol = solve_matrix_game(Q[s])
        Tv[s] = sol.value
        rows[s] = sol.row_strategy
        cols[s] = sol.col_strategy
    return Tv, rows, cols, len(unsolved)


def _policy_iteration(R: np.ndarray, P: np.ndarray, lam: float, eye: np.ndarray,
                      starts: np.ndarray) -> np.ndarray:
    """Exact discounted solve of a stack of maximizing MDPs.

    R is (B, S, A) and P is (B, S, A, S); eye is the (S, S) identity and
    starts the (B, S) flat index in R of each state's first action (see
    `_solver_arrays`).  Returns the (B, S) optimal values.  Every MDP
    improves its own policy; one that has converged keeps its policy and so
    its value while the others go on.  A singular system raises
    LinAlgError, as `np.linalg.solve` does (numpy first warns of an invalid
    value in `solve`); one that has not converged after 10 000 rounds raises
    RuntimeError.
    """
    R_flat = R.reshape(-1)
    P_rows = P.reshape(-1, P.shape[-1])
    picked = starts + R.argmax(axis=2)  # flat index of each state's action
    for _ in range(10_000):
        value = _lapack_solve(eye - lam * P_rows.take(picked, axis=0),
                              R_flat.take(picked)[..., None], signature="dd->d")[..., 0]
        q = lam * (P @ value[:, None, :, None])[..., 0]
        q += R
        gains = _max(q, axis=2) - q.reshape(-1).take(picked)
        top = _max(gains, axis=None)
        if top <= 1e-13:
            return value
        if top != top:
            # The gufunc answers a singular system with NaN.
            raise LinAlgError("Singular matrix")
        picked = np.where(gains > 1e-13, starts + q.argmax(axis=2), picked)
    raise RuntimeError("policy iteration did not terminate")


def _solver_arrays(R: np.ndarray):
    """The identity and row-start arrays `_policy_iteration` takes for a
    reward stack shaped like R."""
    n_mdps, n_states, n_actions = R.shape
    return np.eye(n_states), np.arange(0, R.size, n_actions).reshape(n_mdps, n_states)


def _write_responses(ws, rows: np.ndarray, cols: np.ndarray) -> None:
    """Write the best-response MDPs against the mixes (rows, cols) into the
    workspace `ws` (a `_Stage` or an `_AverageResponses`), from its stage
    matrices U and transition stack T: (R_up, P_up), where the coalition
    plays cols and the protected player decides, and (R_lo, P_lo), where the
    player plays rows and the coalition decides.  The stacked matmuls hand
    each state's matrix-vector product to BLAS on its own, in U's memory
    order, exactly as `U[s] @ cols[s]` would (see the module docstring)."""
    np.matmul(ws.U, cols[:, :, None], out=ws.R_up[:, :, None])
    np.matmul(rows[:, None, :], ws.U, out=ws.R_lo[:, None, :])
    np.einsum("srct,sc->srt", ws.T, cols, out=ws.P_up)
    np.einsum("sr,srct->sct", rows, ws.T, out=ws.P_lo)


class _Stage:
    """Player i's stage games: the workspace of one min-max curve.

    Built once per curve (`uniform_minmax`) and rescaled to each discount:
    the unscaled per-state (own, other) matrices U0, the (S, own, other, S)
    transition stack T and policy iteration's arrays depend only on the
    game and the player, while the scaled stage payoffs and their matrices U
    are rewritten in place by `rescale`.  Each round writes its two
    best-response MDPs into the same buffers: the upper one (R_up, P_up),
    where the coalition's mixes are fixed and the protected player decides,
    and the lower one (R_lo, P_lo), where the protected player's mixes are
    fixed and the coalition decides.  They are the two sides of one
    (2, S, A) reward stack R and one (2, S, A, S) transition stack P, with A
    the larger side's number of actions.  A narrower side fills its last
    columns with copies of its first action (`pad` is its index and width).
    """

    def __init__(self, game: StochasticGame, i: int, lam: float):
        n = game.n_states
        index = game.player_indices[i]
        self.payoffs = game.payoffs[:, :, i]
        # Every state's matrix in index's memory order, as payoff[s][index]
        # has it (Fortran order for a transposed view): BLAS rounds a
        # matrix-vector product differently in the other order.
        if index.flags.c_contiguous:
            self.U0 = np.ascontiguousarray(self.payoffs[:, index])
        else:
            self.U0 = np.ascontiguousarray(self.payoffs[:, index.T]).transpose(0, 2, 1)
        self.U = np.empty_like(self.U0)
        self.payoff = np.empty(self.payoffs.shape)
        self.T = np.ascontiguousarray(game.transitions[:, index])
        own, other = index.shape
        self.R = np.empty((2, n, max(own, other)))
        self.P = np.empty((2, n, max(own, other), n))
        self.R_up, self.R_lo = self.R[0, :, :own], self.R[1, :, :other]
        self.P_up, self.P_lo = self.P[0, :, :own], self.P[1, :, :other]
        self.pad = None if own == other else (int(own > other), min(own, other))
        self.eye, self.starts = _solver_arrays(self.R)
        self.rescale(lam)

    def rescale(self, lam: float) -> None:
        """Scale the stage payoffs to discount lam: payoff is
        (1 - lam) * payoffs[:, :, i] over flat profiles and U its
        per-state matrices.  Both are elementwise products, so they carry
        the bits of a fresh workspace at lam."""
        self.lam = lam
        np.multiply(1.0 - lam, self.payoffs, out=self.payoff)
        np.multiply(1.0 - lam, self.U0, out=self.U)

    def response_mdps(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Write both best-response MDPs against the mixes (rows, cols)
        (`_write_responses`), and pad the narrower side."""
        _write_responses(self, rows, cols)
        if self.pad is not None:
            k, width = self.pad
            self.R[k, :, width:] = self.R[k, :, :1]
            self.P[k, :, width:] = self.P[k, :, :1]

    def response_values(self, rows: np.ndarray, cols: np.ndarray):
        """Exact best-response values (upper, lower): the protected player's
        against the coalition's mixes `cols`, and the coalition's against
        `rows`.  The coalition minimizes, so its MDP is solved as a
        maximization of -R_lo."""
        self.response_mdps(rows, cols)
        np.negative(self.R[1], out=self.R[1])
        v_up, v_lo = _policy_iteration(self.R, self.P, self.lam, self.eye, self.starts)
        return v_up, -v_lo


def discounted_minmax(game: StochasticGame, i: int, lam: float,
                      v0: np.ndarray | None = None, *, _stage: _Stage | None = None):
    """Discounted min-max value vector of player i, certified within CERT_TOL.

    Returns (value vector, info dict).  The certificate is the gap between
    the exact best-response values on both sides of the candidate strategies;
    close to discount 1 the achievable gap is limited by the one-shot
    strategies' floating-point accuracy amplified by 1/(1-lam), so a stalled
    gap is accepted and reported rather than iterated forever.  The info
    holds the rounds, `matrix_solves` (one-shot games solved by
    `solve_matrix_game` rather than the stacked closed form: games larger
    than 2x2 and 2x2 games that fail both closed-form tries), the
    certificate and, on a stall, `stalled`.  `_stage` is the curve's
    workspace, player i's `_Stage`, which `uniform_minmax` passes to every
    discount; without it the call builds its own.
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"discount factor {lam} outside [0, 1)")
    if _stage is None:
        _stage = _Stage(game, i, lam)
    else:
        _stage.rescale(lam)
    payoff, transitions, index = _stage.payoff, game.transitions, game.player_indices[i]
    v = np.zeros(game.n_states) if v0 is None else np.array(v0, dtype=float)
    rounds = 0
    matrix_solves = 0
    best_gap = np.inf
    best = None  # (v_up, v_lo) of the round that set best_gap
    since_improved = 0
    while True:
        Tv, rows, cols, solved = _one_shot(payoff, transitions, index, lam, v)
        rounds += 1
        matrix_solves += solved
        v_up, v_lo = _stage.response_values(rows, cols)
        gap = float(_max(abs(v_up - v_lo), axis=None))
        if gap < best_gap * 0.9:
            best_gap = gap
            best = v_up, v_lo
            since_improved = 0
        else:
            since_improved += 1
        if gap <= 2.0 * CERT_TOL:
            return 0.5 * (v_up + v_lo), {"rounds": rounds, "matrix_solves": matrix_solves,
                                         "certified_gap": gap}
        residual = float(_max(abs(Tv - v), axis=None))
        if residual * lam / (1.0 - lam) <= CERT_TOL:
            return Tv, {"rounds": rounds, "matrix_solves": matrix_solves,
                        "certified_gap": residual * lam / (1.0 - lam)}
        if since_improved >= 8 or rounds >= 200:
            best_up, best_lo = best
            return 0.5 * (best_up + best_lo), {"rounds": rounds, "matrix_solves": matrix_solves,
                                               "certified_gap": best_gap, "stalled": True}
        v = v_up


class _AverageResponses:
    """Both best average responses of player i's direct solve, as one
    block-diagonal MDP of 2S states: the player's response to the
    coalition's mixes on states 0..S-1, the coalition's response to the
    player's mixes, with negated rewards, on states S..2S-1.  A narrower
    side's extra actions are masked out (`valid`), and Howard's loop starts
    from the policy it settled on last time."""

    def __init__(self, game: StochasticGame, i: int):
        n = game.n_states
        index = game.player_indices[i]
        own, other = index.shape
        width = max(own, other)
        self.U = np.ascontiguousarray(game.payoffs[:, :, i][:, index])
        self.T = np.ascontiguousarray(game.transitions[:, index])
        self.R = np.zeros((2 * n, width))
        self.P = np.zeros((2 * n, width, 2 * n))
        self.valid = np.arange(width) < np.repeat([own, other], n)[:, None]
        self.R_up, self.R_lo = self.R[:n, :own], self.R[n:, :other]
        self.P_up, self.P_lo = self.P[:n, :own, :n], self.P[n:, :other, n:]
        self.choice = None

    def __call__(self, rows: np.ndarray, cols: np.ndarray):
        """(settled, g_up, h_up, g_lo, h_lo): gain and bias of the player's
        best average response to the coalition's mixes `cols`, and of the
        coalition's (minimizing) response to the player's mixes `rows`.
        Howard's tolerance scales with the rewards only (see
        `chains.optimal_average_policy`)."""
        n = len(rows)
        _write_responses(self, rows, cols)
        np.negative(self.R_lo, out=self.R_lo)
        self.choice, settled, g, h = optimal_average_policy(
            self.R, self.P, self.valid, start=self.choice, bias_scaled=False)
        return settled, g[:n], h[:n], -g[n:], -h[n:]


@dataclass
class DirectSolve:
    """Player i's direct solve of the limiting-average min-max game.

    Per state, `lower` is the best over iterations of the coalition's best
    average response to the player's stationary mixes, so the player can
    guarantee it, and `upper` the best of the player's best average response
    to the coalition's mixes, which the coalition can hold the player to:
    lower <= v1 <= upper, up to Howard's tolerance.  `v1` is their midpoint.
    `outcome` says how the solve ended: "closed" (the bracket is at most
    DIRECT_WIDTH wide, and v1 is the curve's value), "stalled" (the width
    stopped halving), "cap" (DIRECT_CAP iterations), "unsettled" (Howard's
    loop hit its cap) or "crossed" (lower exceeds upper by more than
    DIRECT_WIDTH).  `matrix_solves` counts the one-shot games sent to
    `solve_matrix_game`.
    """

    player: int
    v1: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    iterations: int
    matrix_solves: int
    outcome: str

    method = "direct"

    @property
    def width(self) -> float:
        return float(np.max(self.upper - self.lower))


def direct_minmax(game: StochasticGame, i: int) -> DirectSolve:
    """Player i's uniform min-max value by strategy iteration on the
    limiting-average game (Hoffman & Karp 1966; Filar & Vrieze 1997).

    Each iteration solves the one-shot games r + P (h + K (g - min g)),
    K = DIRECT_GAIN_WEIGHT: the player's at the coalition's last best
    response (g, h), the coalition's at the player's.  It then solves both
    sides' best average responses to those mixes in one Howard call
    (`_AverageResponses`) and narrows the bracket [max lower, min upper].
    The first iteration starts from the stage games.  A gain-only
    continuation, or g / (1 - lam) + h near lam = 1, would swamp the stage
    payoffs; K only sets how fast the bracket closes, since any stationary
    pair gives a sound one.
    """
    n = game.n_states
    payoff, transitions, index = game.payoffs[:, :, i], game.transitions, game.player_indices[i]
    responses = _AverageResponses(game, i)
    lower, upper = np.full(n, -np.inf), np.full(n, np.inf)
    w_up = w_lo = np.zeros(n)
    matrix_solves = 0
    best, halved_at = np.inf, 0
    outcome = "cap"
    for it in range(1, DIRECT_CAP + 1):
        _, rows, _, solved_rows = _one_shot(payoff, transitions, index, 1.0, w_lo)
        _, _, cols, solved_cols = _one_shot(payoff, transitions, index, 1.0, w_up)
        matrix_solves += solved_rows + solved_cols
        settled, g_up, h_up, g_lo, h_lo = responses(rows, cols)
        if not settled:
            outcome = "unsettled"
            break
        np.maximum(lower, g_lo, out=lower)
        np.minimum(upper, g_up, out=upper)
        if _max(lower - upper, axis=None) > DIRECT_WIDTH:
            outcome = "crossed"
            break
        width = float(_max(upper - lower, axis=None))
        if width <= DIRECT_WIDTH:
            outcome = "closed"
            break
        if width <= 0.5 * best:
            best, halved_at = width, it
        elif it - halved_at >= DIRECT_PATIENCE:
            outcome = "stalled"
            break
        w_up = h_up + DIRECT_GAIN_WEIGHT * (g_up - g_up.min())
        w_lo = h_lo + DIRECT_GAIN_WEIGHT * (g_lo - g_lo.min())
    return DirectSolve(i, 0.5 * (lower + upper), lower, upper, it, matrix_solves, outcome)


def _stochastic(transitions: np.ndarray) -> bool:
    """Whether every transition row is a distribution, within DIST_TOL."""
    return bool((transitions >= -DIST_TOL).all()
                and (np.abs(transitions.sum(axis=2) - 1.0) <= DIST_TOL).all())


def aitken_extrapolate(v2: np.ndarray, v1: np.ndarray, v0: np.ndarray) -> np.ndarray:
    """Geometric extrapolation from the last three schedule points
    (v2 oldest, v0 newest)."""
    d1 = v1 - v2
    d2 = v0 - v1
    denom = d2 - d1
    out = v0.copy()
    ok = np.abs(denom) > 1e-14
    out[ok] = v0[ok] - d2[ok] ** 2 / denom[ok]
    return out


@dataclass
class PlayerValueCurve:
    player: int
    schedule: list
    values: list          # one value vector per schedule point
    extrapolated: np.ndarray
    successive_diffs: list  # successive sup-norm differences
    converged: bool
    rounds: list          # strategy-iteration rounds per schedule point
    certified_gaps: list  # certificate of each schedule point's solve
    stalled: list         # whether each solve stopped on a stalled gap
    matrix_solves: list   # one-shot games sent to solve_matrix_game per point:
    #                       larger than 2x2, or 2x2 and failing both closed-form tries
    extrapolation_points: tuple | None  # schedule indices fed to Aitken

    method = "schedule"

    @property
    def v1(self) -> np.ndarray:
        return self.extrapolated


@dataclass
class MinMaxReport:
    adversary_mode: str
    curves: list  # per player: the DirectSolve that closed, else the schedule's curve
    direct: list  # per player: the DirectSolve, None where none ran

    @property
    def uniform_values(self) -> np.ndarray:
        """Matrix (S, I) of uniform min-max values."""
        return np.stack([c.v1 for c in self.curves], axis=1)

    def to_dict(self) -> dict:
        return json_ready({
            "adversary_mode": self.adversary_mode,
            "players": self.curves,
            "direct": self.direct,
        })


def uniform_minmax(game: StochasticGame, i: int, schedule=None) -> PlayerValueCurve:
    """Estimate the uniform min-max value of player i along a discount schedule.

    The estimate is the geometric extrapolation of the last three schedule
    points whose solves carry clean certificates (stalled, noise-floor points
    are skipped); non-convergence (increasing tail differences) is flagged,
    not raised.  An empty schedule raises ValueError.
    """
    schedule = _checked(schedule)
    values = []
    certs = []
    rounds = []
    stalled = []
    matrix_solves = []
    v = None
    stage = _Stage(game, i, schedule[0])
    for lam in schedule:
        v, info = discounted_minmax(game, i, lam, v0=v, _stage=stage)
        values.append(v.copy())
        certs.append(float(info.get("certified_gap", 0.0)))
        rounds.append(info["rounds"])
        stalled.append(bool(info.get("stalled", False)))
        matrix_solves.append(info["matrix_solves"])
    diffs = [float(np.max(np.abs(values[k + 1] - values[k])))
             for k in range(len(values) - 1)]
    cert_cap = max(10.0 * CERT_TOL, 1e-8)
    last = len(values) - 1
    while last >= 2 and certs[last] > cert_cap:
        last -= 1
    if last >= 2 and all(c <= cert_cap for c in certs[last - 2:last + 1]):
        triple = (last - 2, last - 1, last)
    elif len(values) >= 3:
        triple = (len(values) - 3, len(values) - 2, len(values) - 1)
    else:
        triple = None
    if triple is None:
        extrap = values[-1].copy()
    else:
        extrap = aitken_extrapolate(*(values[k] for k in triple))
    bound = game.payoff_bound
    extrap = np.clip(extrap, -bound, bound)
    tail = diffs[-4:]
    # Diffs at the solver noise floor carry no trend information.
    noise = max(1e-8, 10.0 * CERT_TOL)
    converged = all(b <= max(a * 1.05, noise) for a, b in zip(tail, tail[1:]))
    if diffs and diffs[-1] > 1e-2:
        converged = False
    return PlayerValueCurve(i, schedule, values, extrap, diffs, converged,
                            rounds, certs, stalled, matrix_solves, triple)


def _checked(schedule) -> list:
    """The schedule as a list, the default one for None; empty raises
    ValueError."""
    schedule = list(schedule) if schedule is not None else default_schedule()
    if not schedule:
        raise ValueError("the discount schedule is empty")
    return schedule


def solve_uniform_minmax(game: StochasticGame, schedule=None) -> MinMaxReport:
    """Uniform min-max values of every player, bundled into a report.

    Each player's value comes from `direct_minmax` when its bracket closes,
    and otherwise from `uniform_minmax` along the schedule, which does not
    see the direct try.  A game whose transition rows are not distributions
    gets no direct try, since Howard's loop reads them as a Markov chain.
    """
    schedule = _checked(schedule)
    mode = "coalition-correlated (equals independent min-max for <= 2 players)"
    if game.n_players > 2:
        mode = ("coalition-correlated (lower bound on the independent min-max "
                "for 3+ players)")
    stochastic = _stochastic(game.transitions)
    direct = [direct_minmax(game, i) if stochastic else None for i in range(game.n_players)]
    curves = [d if d is not None and d.outcome == "closed"
              else uniform_minmax(game, i, schedule=schedule)
              for i, d in enumerate(direct)]
    return MinMaxReport(mode, curves, direct)
