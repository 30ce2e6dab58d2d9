"""State-action frequencies, long-run payoffs, and the sustainable mixture.

The frequency vector of a stationary strategy is the Cesaro-limit fraction of
time spent in each (state, action profile) pair: the absorption-weighted
mixture of the invariant laws of the recurrent classes, times the per-state
action weights.  For a communicating set, the frequency vectors supported by
in-set recurrent classes of pure stationary profiles generate (by convex
combination) everything a correlated strategy can sustain inside the set;
sustaining a payoff target means finding a mixture of them that meets it.

Those recurrent points are exactly the vertices of the invariant frequency
polytope of the set's safe sub-MDP: rho >= 0 on the (state, safe profile)
pairs, flow balance sum_a rho(t, a) = sum_{s,a} rho(s, a) P(t | s, a) at
every set state, and sum rho = 1 (Derman 1970; Puterman, Markov Decision
Processes, ch. 8-9).  So the mixture is found by column generation.  The
master mixes the points found so far; it is the zero-sum game of points
against players, solved on its Shapley-Snow kernels (`max_slack_mixture`).
Its column strategy weighs the players, and pricing finds the point that
maximizes that weighted payoff.  Over the polytope that is the largest
optimal long-run average reward of the safe sub-MDP, which Howard's
multichain policy iteration (`chains.optimal_average_policy`, on the gain
the verifiers read) reaches at a pure profile; the point is that profile's
best recurrent class (`best_recurrent_point`).  Nothing enumerates the
|A|^|C| pure profiles, and an LP solves only a master too large for kernels.
Only the tests call `enumerate_recurrent_points`, their reference; it stays
in this module because the benchmark's tracer (`perfbench/tracer.py`) hooks
it through `builder`, and the tracer's tests expect that hook to be found.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ._util import DIST_TOL, json_ready
from .chains import optimal_average_policy, recurrent_classes, stationary_distribution
from .game import StochasticGame
from .matrixgame import MatrixGameSolution, kernel_solution, solve_matrix_game
from .structure import safe_profiles

ENUMERATION_GUARD = 10**6


def payoff_of_frequency(game: StochasticGame, rho: np.ndarray) -> np.ndarray:
    """Long-run average payoff vector of a frequency vector, a distribution
    rho over (state, action profile) of shape (S, A)."""
    return np.einsum("sa,sai->i", rho, game.payoffs)


# ---------------------------------------------------------------------------
# Recurrent frequency points of a communicating set


@dataclass(frozen=True)
class RecurrentPoint:
    """Frequency point of a pure stationary profile on one of its in-set
    recurrent classes.  `actions` maps each class state to its flat profile
    and rho, of shape (S, A), is the point's frequency vector."""

    states: tuple
    actions: dict
    rho: np.ndarray
    payoff: np.ndarray

    def to_dict(self) -> dict:
        return json_ready({"states": self.states, "actions": self.actions,
                           "payoff": self.payoff})


class EnumerationSizeError(RuntimeError):
    """The pure-profile enumeration guard was exceeded."""


def _profile_points(game: StochasticGame, region: list, live: list, acts) -> list:
    """Recurrent points of the pure profile playing acts[k] at live[k].

    The chain runs on the live states of `region` (those with a
    region-preserving profile); a class that sends mass into a dead region
    state is dropped, since play there must leave the region.
    """
    rows = game.transitions[live, acts]
    P = rows[:, live]
    dead_mass = rows[:, [t for t in region if t not in live]].sum(axis=1)
    classes, _ = recurrent_classes(P)
    points = []
    for cls in classes:
        if np.any(dead_mass[cls] > DIST_TOL):
            continue
        pi = stationary_distribution(P, cls)
        cls_states = tuple(live[k] for k in cls)
        actions = {live[k]: acts[k] for k in cls}
        rho = np.zeros((game.n_states, game.n_profiles))
        rho[list(cls_states), [acts[k] for k in cls]] = pi
        points.append(RecurrentPoint(cls_states, actions, rho,
                                     payoff_of_frequency(game, rho)))
    return points


def enumerate_recurrent_points(game: StochasticGame, region) -> list:
    """All distinct recurrent frequency points of region-preserving pure
    stationary profiles on `region`.

    States of the region with no region-preserving profile cannot belong to
    any in-region recurrent class and are skipped.  Profiles are enumerated
    per state over the preserving actions only; the product count is guarded.
    The pipeline prices points one at a time instead (`best_recurrent_point`);
    this enumeration is the reference it is tested against.
    """
    region = sorted(region)
    allowed = safe_profiles(game, region)
    live = [s for s in region if allowed[s]]
    if not live:
        return []
    count = 1
    for s in live:
        count *= len(allowed[s])
        if count > ENUMERATION_GUARD:
            raise EnumerationSizeError(
                f"pure profile count exceeds {ENUMERATION_GUARD} on region {region}"
            )

    points = {}
    for combo in itertools.product(*[allowed[s] for s in live]):
        for point in _profile_points(game, region, live, list(combo)):
            key = (point.states, tuple(point.actions[s] for s in point.states))
            points.setdefault(key, point)
    # Deduplicate identical frequency vectors (different profiles can induce
    # the same class law).
    uniq = {}
    for point in points.values():
        fkey = tuple(np.round(point.rho, 10).ravel())
        if fkey not in uniq:
            uniq[fkey] = point
    return sorted(uniq.values(), key=lambda p: (p.states, sorted(p.actions.items())))


def _safe_sub_mdp(game: StochasticGame, region: list):
    """Live states and their profiles in the safe sub-MDP of `region`.

    A state is live while it has a region-preserving profile.  Flow balance
    forces zero frequency on a profile that leaks into a region state
    without one, so every profile leaking more than DIST_TOL there is
    removed, until nothing changes.  Returns (live states, profiles per
    live state).
    """
    allowed = safe_profiles(game, region)
    while True:
        dead = [s for s in region if not allowed[s]]
        leak = game.transitions[:, :, dead].sum(axis=2)
        kept = {s: [a for a in acts if leak[s, a] <= DIST_TOL] for s, acts in allowed.items()}
        if kept == allowed:
            break
        allowed = kept
    live = [s for s in region if allowed[s]]
    return live, {s: allowed[s] for s in live}


def best_recurrent_point(game: StochasticGame, region,
                         weights: np.ndarray) -> RecurrentPoint | None:
    """The recurrent point of `region` maximizing weights . payoff, or None
    when the region has none.

    The best point's value is the largest optimal long-run average reward
    of the safe sub-MDP with rewards weights . u, which
    `chains.optimal_average_policy` reaches at a pure profile.  The point is
    the best recurrent class of that profile.
    """
    region = sorted(region)
    live, allowed = _safe_sub_mdp(game, region)
    if not live:
        return None
    width = max(len(acts) for acts in allowed.values())
    # Profiles per live state, padded with the first one and masked.
    acts = np.array([allowed[s] + allowed[s][:1] * (width - len(allowed[s])) for s in live])
    valid = np.arange(width) < np.array([len(allowed[s]) for s in live])[:, None]
    states = np.array(live)[:, None]
    R = game.payoffs[states, acts] @ weights
    P = game.transitions[states, acts][:, :, live]
    choice, settled, _, _ = optimal_average_policy(R, P, valid, start=None, bias_scaled=True)
    if not settled:
        raise RuntimeError(f"policy iteration on region {region} did not settle")
    points = _profile_points(game, region, live, acts[np.arange(len(live)), choice].tolist())
    if not points:
        raise RuntimeError(f"priced profile on region {region} holds no recurrent class")
    return max(points, key=lambda p: float(weights @ p.payoff))


# ---------------------------------------------------------------------------
# Sustainable-payoff feasibility


@dataclass
class SustainPlan:
    """Convex combination of recurrent points meeting a payoff target.

    weights are strictly positive and sum to 1; achieved >= target - slack
    tolerance coordinatewise.
    """

    atoms: list
    weights: np.ndarray
    target: np.ndarray
    achieved: np.ndarray
    slack: float


def max_slack_mixture(payoffs: np.ndarray, target: np.ndarray) -> MatrixGameSolution:
    """maximize t s.t. sum_l beta_l payoff_l >= target + t, beta in simplex.

    That is the zero-sum game payoffs - target, rows the points and columns
    the players: its row strategy is beta, its value t and its column
    strategy the target rows' dual weights y.  `kernel_solution` solves it,
    so the support of beta never exceeds the number of players;
    `solve_matrix_game`'s LP takes the game only when no kernel does, and the
    result's `method` then says so.
    """
    game = payoffs - target
    sol = kernel_solution(game)
    return sol if sol is not None else solve_matrix_game(game)


def plan_support(beta: np.ndarray, payoffs: np.ndarray, slack: float):
    """The mixture a master solution supports: (support indices, their
    renormalized weights, the payoff they achieve), or None when the slack
    is negative."""
    if slack < -1e-9:
        return None
    support = [l for l in range(len(beta)) if beta[l] > 1e-12]
    weights = beta[support]
    weights = weights / weights.sum()
    return support, weights, weights @ payoffs[support]


def _mixture_plan(points: list, beta: np.ndarray, slack: float,
                  target: np.ndarray) -> SustainPlan | None:
    found = plan_support(beta, np.stack([p.payoff for p in points]), slack)
    if found is None:
        return None
    support, weights, achieved = found
    return SustainPlan([points[l] for l in support], weights, target, achieved, slack)


def sustain_by_columns(game: StochasticGame, region, target,
                       counts: dict | None = None) -> tuple:
    """The type-A mixture by column generation.

    The master is `max_slack_mixture` over the recurrent points found so
    far; its dual weights y price the next point with
    `best_recurrent_point`.  Generation stops once the priced point is
    already a column or does not beat the columns' best y . payoff, which is
    the master's optimality condition over all recurrent points.  Returns
    (plan or None, number of columns generated).  When `counts` is given,
    its "master_lp" entry is raised by each master solve that fell back to
    the LP.
    """
    target = np.asarray(target, dtype=float)
    columns = []
    y = np.full(game.n_players, 1.0 / game.n_players)
    while True:
        point = best_recurrent_point(game, region, y)
        if point is None or any(point.states == p.states and point.actions == p.actions
                                for p in columns):
            break
        if columns and y @ point.payoff <= max(y @ p.payoff for p in columns) + 1e-12:
            break
        columns.append(point)
        sol = max_slack_mixture(np.stack([p.payoff for p in columns]), target)
        y = sol.col_strategy
        if counts is not None:
            counts["master_lp"] += sol.method != "kernel"
    if not columns:
        return None, 0
    # Atoms in the enumeration's order, whatever order pricing found them in.
    order = sorted(range(len(columns)),
                   key=lambda k: (columns[k].states, sorted(columns[k].actions.items())))
    plan = _mixture_plan([columns[k] for k in order], sol.row_strategy[order], sol.value,
                         target)
    return plan, len(columns)
