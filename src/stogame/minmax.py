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
bracket the value: L(x) <= v1 <= U(y).  Any pair's bracket is sound: by
fixing x the player guarantees the coalition's best average response to it,
and by fixing y the coalition holds the player to the player's best
response, so the steps that choose the pairs set only how fast the bracket
closes.  Newton steps (Pollatschek & Avi-Itzhak 1969) come first: both
sides' next mixes solve the one-shot games at the current pair's own gain
and bias, which on the benchmark's workloads closes a curve in about half
the iterations of cross steps.  Newton steps can cycle (van der Wal 1978),
so the first one that does not halve the width hands over to cross steps
(Hoffman & Karp 1966), each side's mixes solving the one-shot games at the
other side's last best response.  When the bracket closes to
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

Both solves use one workspace, `_Stage`, built once per schedule curve and
once per direct try: the per-state stage matrices, the transition stack,
the MDP buffers and policy iteration's identity and row-start arrays,
which depend only on the game and the player.  `uniform_minmax` hands its stage to every discount,
which only rescales the stage payoffs by 1 - lam, elementwise, so the
workspace holds the bits a fresh one would.  The direct solve builds its
own at lam = 0, which scales them by exactly 1.0.  Each round or iteration
writes its two best-response MDPs in place into one reward and one
transition stack (`_Stage.response_mdps`); the schedule solves them as two
discounted MDPs (`response_values`), the direct solve as one
block-diagonal average-reward MDP (`average_responses`).

One padding rule covers every MDP whose states or sides have different
numbers of actions, here and in Howard's loop under pricing
(`frequencies.best_recurrent_point`): the narrower side's extra columns
are copies of its first action.  A copy carries its original's reward and
transitions, and is chosen only where the original would be (see
`chains.optimal_average_policy`), so no action mask is needed.

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
the uniform value of up to 3e-6.  The batched solve is bit-identical to the
per-state one (`tests/oracles.py` keeps that one as the reference).  The
direct solve alone reads C-ordered matrices, as it always has: in index's
order its closed curves move by an ulp, and the one-shot equilibrium lists,
which follow `v1`'s last bits, move with them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg._umath_linalg import solve as _lapack_solve

from .chains import gain_bias, optimal_average_policy
from .game import StochasticGame, distribution_faults
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
    `_Stage`).  Returns the (B, S) optimal values.  Every MDP
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


class _Stage:
    """Player i's stage games: the workspace of one schedule curve or one
    direct try (see the module docstring).

    U0 are the unscaled per-state (own, other) matrices and T the
    (S, own, other, S) transition stack; `rescale` rewrites the scaled stage
    payoffs and their matrices U in place.  R (2, S, A) and P (2, S, A, S)
    stack the upper best-response MDP (R_up, P_up: the coalition's mixes
    fixed, the protected player deciding) and the lower one (R_lo, P_lo:
    the player's mixes fixed, the coalition deciding), A the larger side's
    number of actions; `pad` is the narrower side's index and width.
    `block` and `choice` are the direct try's block-diagonal MDP, built on
    its first `average_responses` call, and Howard's last policy on it.
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
        width = max(own, other)
        self.R = np.empty((2, n, width))
        self.P = np.empty((2, n, width, n))
        self.R_up, self.R_lo = self.R[0, :, :own], self.R[1, :, :other]
        self.P_up, self.P_lo = self.P[0, :, :own], self.P[1, :, :other]
        self.pad = None if own == other else (int(own > other), min(own, other))
        self.eye, self.starts = np.eye(n), np.arange(0, 2 * n * width, width).reshape(2, n)
        self.block = self.choice = None
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
        """Write both best-response MDPs against the mixes (rows, cols), and
        pad the narrower side.  The stacked matmuls hand each state's
        matrix-vector product to BLAS on its own, in U's memory order,
        exactly as `U[s] @ cols[s]` would (see the module docstring)."""
        np.matmul(self.U, cols[:, :, None], out=self.R_up[:, :, None])
        np.matmul(rows[:, None, :], self.U, out=self.R_lo[:, None, :])
        np.einsum("srct,sc->srt", self.T, cols, out=self.P_up)
        np.einsum("sr,srct->sct", rows, self.T, out=self.P_lo)
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

    def average_responses(self, rows: np.ndarray, cols: np.ndarray):
        """(settled, g_up, h_up, g_lo, h_lo): gain and bias of the player's
        best average response to the coalition's mixes `cols`, and of the
        coalition's (minimizing) response to the player's mixes `rows`, from
        one warm-started Howard call on the block-diagonal MDP of 2S states:
        the upper MDP on states 0..S-1, the lower one, with negated rewards,
        on states S..2S-1.  Howard's tolerance scales with the rewards only
        (see `chains.optimal_average_policy`)."""
        n = len(rows)
        if self.block is None:
            # C-ordered, as the direct solve has always read them (module docstring).
            self.U = np.ascontiguousarray(self.U)
            self.block = np.zeros((2 * n, self.R.shape[2], 2 * n))
        self.response_mdps(rows, cols)
        np.negative(self.R[1], out=self.R[1])
        self.block[:n, :, :n] = self.P[0]
        self.block[n:, :, n:] = self.P[1]
        self.choice, settled, g, h = optimal_average_policy(
            self.R.reshape(2 * n, -1), self.block, start=self.choice, bias_scaled=False)
        return settled, g[:n], h[:n], -g[n:], -h[n:]

    def pair_gain_bias(self, rows: np.ndarray):
        """Gain and bias of the S-state chain in which the player plays
        `rows` and the coalition the mixes of the last `average_responses`
        call: the player's rewards R_up and transitions P_up against those
        mixes, averaged over rows."""
        r = np.einsum("sa,sa->s", rows, self.R_up)
        P = np.einsum("sa,sat->st", rows, self.P_up)
        return gain_bias(P, r)


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
        _, rows, cols, solved = _one_shot(payoff, transitions, index, lam, v)
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
        if since_improved >= 8 or rounds >= 200:
            best_up, best_lo = best
            return 0.5 * (best_up + best_lo), {"rounds": rounds, "matrix_solves": matrix_solves,
                                               "certified_gap": best_gap, "stalled": True}
        v = v_up


@dataclass
class DirectSolve:
    """Player i's direct solve of the limiting-average min-max game.

    Per state, `lower` is the best over iterations of the coalition's best
    average response to the player's stationary mixes, so the player can
    guarantee it, and `upper` the best of the player's best average response
    to the coalition's mixes, which the coalition can hold the player to:
    lower <= v1 <= upper, up to Howard's tolerance.  `v1` is their midpoint.
    `newton_steps` counts the iterations whose mixes came from a Newton step
    (the others, after the first, from cross steps).
    `outcome` says how the solve ended: "closed" (the bracket is at most
    DIRECT_WIDTH wide, and v1 is the curve's value), "stalled" (the width
    stopped halving), "cap" (DIRECT_CAP iterations), "unsettled" (Howard's
    loop hit its cap) or "crossed" (lower exceeds upper by more than
    DIRECT_WIDTH).  `matrix_solves` counts the one-shot games sent to
    `solve_matrix_game`.  `method` names the curve's kind in the artifacts;
    no constructor takes it.
    """

    method: str = field(default="direct", init=False)
    player: int
    v1: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    iterations: int
    newton_steps: int
    matrix_solves: int
    outcome: str

    @property
    def width(self) -> float:
        return float(np.max(self.upper - self.lower))

    @property
    def direct(self) -> DirectSolve:
        """The direct try behind the curve: a closed curve is its own."""
        return self


def direct_minmax(game: StochasticGame, i: int) -> DirectSolve:
    """Player i's uniform min-max value by strategy iteration on the
    limiting-average game: Newton steps (Pollatschek & Avi-Itzhak 1969),
    then cross steps (Hoffman & Karp 1966; Filar & Vrieze 1997).

    The first iteration takes both sides' mixes from the stage games.  A
    Newton step takes them from one solve of the one-shot games at the
    current pair's own continuation `_continuation(g, h)`, (g, h) the gain
    and bias of the chain the pair induces.  A cross step takes the
    player's at the coalition's last best average response (g, h), and the
    coalition's at the player's.  Each iteration then solves both sides'
    best average responses to the new mixes in one Howard call
    (`_Stage.average_responses`) and narrows the bracket [max lower, min upper];
    any stationary pair gives a sound bracket, so neither step needs to be
    right, only fast.  Newton steps alone can cycle (van der Wal 1978), so
    the first one that does not halve the width hands over to cross steps,
    which get DIRECT_PATIENCE iterations of their own to halve it.
    """
    n = game.n_states
    stage = _Stage(game, i, 0.0)
    payoff, transitions, index = stage.payoff, game.transitions, game.player_indices[i]
    lower, upper = np.full(n, -np.inf), np.full(n, np.inf)
    w_pair = np.zeros(n)
    newton, newton_steps = True, 0
    matrix_solves = 0
    best, halved_at = np.inf, 0
    outcome = "cap"
    for it in range(1, DIRECT_CAP + 1):
        if newton:
            _, rows, cols, solved = _one_shot(payoff, transitions, index, 1.0, w_pair)
            newton_steps += it > 1
        else:
            _, rows, _, solved = _one_shot(payoff, transitions, index, 1.0, w_lo)
            _, _, cols, solved_cols = _one_shot(payoff, transitions, index, 1.0, w_up)
            solved += solved_cols
        matrix_solves += solved
        settled, g_up, h_up, g_lo, h_lo = stage.average_responses(rows, cols)
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
        elif newton:
            newton, halved_at = False, it
        elif it - halved_at >= DIRECT_PATIENCE:
            outcome = "stalled"
            break
        if newton:
            w_pair = _continuation(*stage.pair_gain_bias(rows))
        else:
            w_up, w_lo = _continuation(g_up, h_up), _continuation(g_lo, h_lo)
    return DirectSolve(i, 0.5 * (lower + upper), lower, upper, it, newton_steps,
                       matrix_solves, outcome)


def _continuation(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """h + K (g - min g), K = DIRECT_GAIN_WEIGHT: the continuation values of
    the direct solve's one-shot games.  A gain-only continuation, or
    g / (1 - lam) + h near lam = 1, would swamp the stage payoffs; K only
    sets how fast the bracket closes."""
    return h + DIRECT_GAIN_WEIGHT * (g - g.min())


def _stochastic(transitions: np.ndarray) -> bool:
    """Whether every transition row is a distribution, within DIST_TOL
    (`game.distribution_faults`)."""
    return not any(fault.any() for fault in distribution_faults(transitions)[:3])


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
    method: str = field(default="schedule", init=False)
    player: int
    schedule: list
    values: list          # one value vector per schedule point
    v1: np.ndarray        # Aitken's extrapolation, clipped to the payoff bound
    rounds: list          # strategy-iteration rounds per schedule point
    certified_gaps: list  # certificate of each schedule point's solve
    stalled: list         # whether each solve stopped on a stalled gap
    matrix_solves: list   # one-shot games sent to solve_matrix_game per point:
    #                       larger than 2x2, or 2x2 and failing both closed-form tries
    extrapolation_points: tuple | None  # schedule indices fed to Aitken
    direct: DirectSolve | None  # the direct try that stayed open, None where none ran

    @property
    def lower(self) -> np.ndarray:
        """The direct try's lower ends, -inf where no try ran."""
        return np.full(len(self.v1), -np.inf) if self.direct is None else self.direct.lower

    @property
    def upper(self) -> np.ndarray:
        """The direct try's upper ends, +inf where no try ran."""
        return np.full(len(self.v1), np.inf) if self.direct is None else self.direct.upper


@dataclass
class MinMaxReport:
    adversary_mode: str
    curves: list  # per player: the DirectSolve that closed, else the schedule's curve

    @property
    def uniform_values(self) -> np.ndarray:
        """Matrix (S, I) of uniform min-max values."""
        return np.stack([c.v1 for c in self.curves], axis=1)


def uniform_minmax(game: StochasticGame, i: int, schedule=None) -> PlayerValueCurve:
    """Estimate the uniform min-max value of player i along a discount schedule.

    The estimate is the geometric extrapolation of the last three schedule
    points whose solves carry clean certificates (stalled, noise-floor points
    are skipped).  The curve carries no direct try (`direct` is None); an
    empty schedule raises ValueError.
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
    return PlayerValueCurve(i, schedule, values, extrap, rounds, certs, stalled,
                            matrix_solves, triple, None)


def _checked(schedule) -> list:
    """The schedule as a list, the default one for None; empty raises
    ValueError."""
    schedule = list(schedule) if schedule is not None else default_schedule()
    if not schedule:
        raise ValueError("the discount schedule is empty")
    return schedule


def solve_uniform_minmax(game: StochasticGame, schedule=None) -> MinMaxReport:
    """Uniform min-max values of every player, one curve per player.

    Each player's curve is `direct_minmax`'s when its bracket closes, and
    otherwise `uniform_minmax`'s along the schedule, which does not see the
    direct try, with that try as its `direct`.  A game whose transition rows
    are not distributions gets no direct try, since Howard's loop reads them
    as a Markov chain.
    """
    schedule = _checked(schedule)
    mode = "coalition-correlated (equals independent min-max for <= 2 players)"
    if game.n_players > 2:
        mode = ("coalition-correlated (lower bound on the independent min-max "
                "for 3+ players)")
    stochastic = _stochastic(game.transitions)
    direct = [direct_minmax(game, i) if stochastic else None for i in range(game.n_players)]
    curves = [d if d is not None and d.outcome == "closed"
              else replace(uniform_minmax(game, i, schedule=schedule), direct=d)
              for i, d in enumerate(direct)]
    return MinMaxReport(mode, curves)
