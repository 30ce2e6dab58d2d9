"""Discounted and uniform min-max values.

For each protected player i the adversary is the coalition of the remaining
players acting jointly (their action set is the product of individual action
sets, i.e. the adversary may correlate).  For two players this coincides with
the independent min-max; for three or more players the coalition value is a
lower bound on the independent one, and every report carries that flag.

The per-discount solve is strategy iteration: at each round the one-shot
matrix games at the current value vector give both players' stationary
strategies; exact best-response MDP solves (policy iteration) then produce a
certified upper bound (protected player responds) and lower bound (coalition
responds), and the loop stops once the sandwich closes.  This keeps the cost
independent of the discount factor, which matters close to 1.

Each round is batched over states: the 2x2 one-shot games are solved as one
stack (`closed_form_2x2`), one einsum builds each best-response MDP's
transitions, and one policy iteration solves both sides' MDPs together when
they have the same shape.  The stage payoffs stay one matrix-vector product
per state, built in `view.index`'s memory order exactly as the per-state
solve built them: a batched product may round the last bit differently, and
the Aitken step of `uniform_minmax` magnifies one bit into shifts of the
uniform value of up to 6e-9.  The batched solve is bit-identical to the
per-state one (`tests/oracles.py` keeps that one as the reference).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._util import json_ready
from .game import StochasticGame
from .matrixgame import closed_form_2x2, solve_matrix_game

ITERATION_CAP = 10**6


def default_schedule(k_max: int = 20) -> list:
    """Discount schedule 1 - 2^-k for k = 1..k_max."""
    return [1.0 - 0.5**k for k in range(1, k_max + 1)]


@dataclass(frozen=True)
class _PlayerView:
    """Cached reshaping of flat profiles into (own action, coalition action)."""

    player: int
    own: int
    other: int
    # flat profile index arranged as a matrix (own x coalition)
    index: np.ndarray


def player_view(game: StochasticGame, i: int) -> _PlayerView:
    counts = game.action_counts
    grid = np.arange(game.n_profiles).reshape(counts)
    mat = np.moveaxis(grid, i, 0).reshape(counts[i], -1)
    return _PlayerView(i, counts[i], mat.shape[1], mat)


def shapley_operator(game: StochasticGame, i: int, lam: float, v: np.ndarray,
                     view: _PlayerView | None = None):
    """One application of the min-max dynamic-programming operator.

    Returns (Tv, row strategies, column strategies), where row strategies are
    the protected player's per-state optimal mixes (S, own) and column
    strategies the coalition's (S, other), both for the one-shot games at v.
    2x2 games are solved as one stack; a state whose closed form fails the
    minimax check, and every larger game, goes through `solve_matrix_game`.
    """
    view = view or player_view(game, i)
    q_flat = (1.0 - lam) * game.payoffs[:, :, i] + lam * (game.transitions @ v)
    Q = q_flat[:, view.index]
    if Q.shape[1:] == (2, 2):
        Tv, rows, cols, ok = closed_form_2x2(Q)
    else:
        Tv = np.empty(game.n_states)
        rows = np.empty((game.n_states, view.own))
        cols = np.empty((game.n_states, view.other))
        ok = np.zeros(game.n_states, dtype=bool)
    for s in np.flatnonzero(~ok):
        sol = solve_matrix_game(Q[s])
        Tv[s] = sol.value
        rows[s] = sol.row_strategy
        cols[s] = sol.col_strategy
    return Tv, rows, cols


def _policy_iteration(R: np.ndarray, P: np.ndarray, lam: float,
                      cap: int = 10_000) -> np.ndarray:
    """Exact discounted solve of a stack of maximizing MDPs.

    R is (B, S, A) and P is (B, S, A, S); returns the (B, S) optimal values.
    Every MDP improves its own policy; one that has converged keeps its policy
    and so its value while the others go on.
    """
    n_mdps, n_states, _ = R.shape
    mdps = np.arange(n_mdps)[:, None]
    states = np.arange(n_states)
    policy = np.argmax(R, axis=2)
    eye = np.eye(n_states)
    for _ in range(cap):
        P_pi = P[mdps, states, policy]
        r_pi = R[mdps, states, policy]
        value = np.linalg.solve(eye - lam * P_pi, r_pi[..., None])[..., 0]
        q = R + lam * (P @ value[:, None, :, None])[..., 0]
        improved = np.argmax(q, axis=2)
        gains = q[mdps, states, improved] - q[mdps, states, policy]
        if np.all(gains <= 1e-13):
            return value
        policy = np.where(gains > 1e-13, improved, policy)
    raise RuntimeError("policy iteration did not terminate")


def _stage_data(game: StochasticGame, view: _PlayerView, lam: float):
    """Stage payoffs and transitions of player view.player's one-shot games
    at discount lam: a list of per-state (own, other) payoff matrices and the
    (S, own, other, S) transition stack.

    Each payoff matrix is built on its own, so it keeps the memory order of
    `view.index` (transposed for player 1): BLAS rounds a matrix-vector
    product differently in the other order."""
    i = view.player
    U = [(1.0 - lam) * game.payoffs[s, :, i][view.index] for s in range(game.n_states)]
    return U, np.ascontiguousarray(game.transitions[:, view.index])


def _response_mdp(U: list, T: np.ndarray, fixed: np.ndarray, fix_rows: bool):
    """Stage data (R, P) of the best-response MDP when one side plays `fixed`.

    fix_rows=True freezes the protected player's mixes (coalition decides);
    otherwise the coalition mixes are frozen and the protected player decides.
    The payoff products stay one per state (see the module docstring).
    """
    if fix_rows:
        R = np.stack([w @ u for u, w in zip(U, fixed)])
        P = np.einsum("sr,srct->sct", fixed, T)
    else:
        R = np.stack([u @ w for u, w in zip(U, fixed)])
        P = np.einsum("srct,sc->srt", T, fixed)
    return R, P


def _response_values(U, T, lam, rows, cols):
    """Exact best-response values (upper, lower): the protected player's
    against the coalition's mixes `cols`, and the coalition's against `rows`.
    The coalition minimizes, so its MDP is solved as a maximization of -R."""
    R_up, P_up = _response_mdp(U, T, cols, fix_rows=False)
    R_lo, P_lo = _response_mdp(U, T, rows, fix_rows=True)
    if R_up.shape == R_lo.shape:
        v_up, v_lo = _policy_iteration(np.stack([R_up, -R_lo]),
                                       np.stack([P_up, P_lo]), lam)
    else:
        v_up = _policy_iteration(R_up[None], P_up[None], lam)[0]
        v_lo = _policy_iteration(-R_lo[None], P_lo[None], lam)[0]
    return v_up, -v_lo


def discounted_minmax(game: StochasticGame, i: int, lam: float, tol: float = 1e-9,
                      v0: np.ndarray | None = None):
    """Discounted min-max value vector of player i, certified within tol.

    Returns (value vector, info dict).  The certificate is the gap between
    the exact best-response values on both sides of the candidate strategies;
    close to discount 1 the achievable gap is limited by the one-shot
    strategies' floating-point accuracy amplified by 1/(1-lam), so a stalled
    gap is accepted and reported rather than iterated forever.
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"discount factor {lam} outside [0, 1)")
    view = player_view(game, i)
    U, T = _stage_data(game, view, lam)
    v = np.zeros(game.n_states) if v0 is None else np.array(v0, dtype=float)
    ops = 0
    rounds = 0
    best_gap = np.inf
    best_mid = None
    since_improved = 0
    while True:
        Tv, rows, cols = shapley_operator(game, i, lam, v, view)
        rounds += 1
        v_up, v_lo = _response_values(U, T, lam, rows, cols)
        gap = float(np.max(np.abs(v_up - v_lo)))
        if gap < best_gap * 0.9:
            best_gap = gap
            best_mid = 0.5 * (v_up + v_lo)
            since_improved = 0
        else:
            since_improved += 1
        if gap <= 2.0 * tol:
            return 0.5 * (v_up + v_lo), {"rounds": rounds, "certified_gap": gap}
        residual = float(np.max(np.abs(Tv - v)))
        if residual * lam / (1.0 - lam) <= tol:
            return Tv, {"rounds": rounds,
                        "certified_gap": residual * lam / (1.0 - lam)}
        if since_improved >= 8 or rounds >= 200:
            return best_mid, {"rounds": rounds, "certified_gap": best_gap,
                              "stalled": True}
        ops += game.n_states
        if ops > ITERATION_CAP:
            raise RuntimeError(
                f"min-max solve for player {i} at discount {lam} hit the iteration cap"
            )
        v = v_up


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
    diffs: list           # successive sup-norm differences
    converged: bool
    rounds: list          # strategy-iteration rounds per schedule point
    certified_gaps: list  # certificate of each schedule point's solve
    stalled: list         # whether each solve stopped on a stalled gap
    extrapolation_points: tuple | None  # schedule indices fed to Aitken

    def to_dict(self) -> dict:
        return json_ready({
            "player": self.player,
            "schedule": self.schedule,
            "values": self.values,
            "extrapolated": self.extrapolated,
            "successive_diffs": self.diffs,
            "converged": self.converged,
            "rounds": self.rounds,
            "certified_gaps": self.certified_gaps,
            "stalled": self.stalled,
            "extrapolation_points": self.extrapolation_points,
        })


@dataclass
class MinMaxReport:
    adversary_mode: str
    curves: list = field(default_factory=list)

    @property
    def uniform_values(self) -> np.ndarray:
        """Matrix (S, I) of extrapolated uniform min-max values."""
        return np.stack([c.extrapolated for c in self.curves], axis=1)

    def to_dict(self) -> dict:
        return json_ready({
            "adversary_mode": self.adversary_mode,
            "players": [c.to_dict() for c in self.curves],
        })


def uniform_minmax(game: StochasticGame, i: int, schedule=None, tol: float = 1e-9
                   ) -> PlayerValueCurve:
    """Estimate the uniform min-max value of player i along a discount schedule.

    The estimate is the geometric extrapolation of the last three schedule
    points whose solves carry clean certificates (stalled, noise-floor points
    are skipped); non-convergence (increasing tail differences) is flagged,
    not raised.
    """
    schedule = list(schedule) if schedule is not None else default_schedule()
    values = []
    certs = []
    rounds = []
    stalled = []
    v = None
    for lam in schedule:
        v, info = discounted_minmax(game, i, lam, tol=tol, v0=v)
        values.append(v.copy())
        certs.append(float(info.get("certified_gap", 0.0)))
        rounds.append(info["rounds"])
        stalled.append(bool(info.get("stalled", False)))
    diffs = [float(np.max(np.abs(values[k + 1] - values[k])))
             for k in range(len(values) - 1)]
    cert_cap = max(10.0 * tol, 1e-8)
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
    noise = max(1e-8, 10.0 * tol)
    converged = all(b <= max(a * 1.05, noise) for a, b in zip(tail, tail[1:]))
    if diffs and diffs[-1] > 1e-2:
        converged = False
    return PlayerValueCurve(i, schedule, values, extrap, diffs, converged,
                            rounds, certs, stalled, triple)


def solve_uniform_minmax(game: StochasticGame, schedule=None, tol: float = 1e-9
                         ) -> MinMaxReport:
    """Uniform min-max values of every player, bundled into a report."""
    mode = "coalition-correlated (equals independent min-max for <= 2 players)"
    if game.n_players > 2:
        mode = ("coalition-correlated (lower bound on the independent min-max "
                "for 3+ players)")
    report = MinMaxReport(adversary_mode=mode)
    report.curves = [uniform_minmax(game, i, schedule=schedule, tol=tol)
                     for i in range(game.n_players)]
    return report
