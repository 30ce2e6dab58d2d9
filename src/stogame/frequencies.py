"""State-action frequencies, long-run payoffs, and the sustainable-payoff LP.

The frequency vector of a stationary strategy is the Cesaro-limit fraction of
time spent in each (state, action profile) pair: the absorption-weighted
mixture of the invariant laws of the recurrent classes, times the per-state
action weights.  For a communicating set, the frequency vectors supported by
in-set recurrent classes of pure stationary profiles generate (by convex
combination) everything a correlated strategy can sustain inside the set;
feasibility of a payoff target over that polytope is a small LP.

Those recurrent points are exactly the vertices of the invariant frequency
polytope of the set's safe sub-MDP: rho >= 0 on the (state, safe profile)
pairs, flow balance sum_a rho(t, a) = sum_{s,a} rho(s, a) P(t | s, a) at
every set state, and sum rho = 1 (Derman 1970; Puterman, Markov Decision
Processes, ch. 8-9).  A vertex plays one profile per support state, and its
support is a recurrent class of that pure profile.  So the mixture LP is
solved by column generation: the master mixes the points found so far, and
the pricing LP maximizes the master's dual weights y . u over the polytope,
whose simplex vertex is the next point.  Nothing enumerates the |A|^|C| pure
profiles; `enumerate_recurrent_points` remains as the tests' reference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from ._util import DIST_TOL, json_ready
from .chains import limit_occupation, recurrent_classes, stationary_distribution
from .game import StochasticGame, as_correlated_table, induced_chain
from .structure import safe_profiles

ENUMERATION_GUARD = 10**6


@dataclass(frozen=True)
class FrequencyVector:
    """Distribution over (state, action profile); rho has shape (S, A)."""

    rho: np.ndarray

    def state_marginal(self) -> np.ndarray:
        return self.rho.sum(axis=1)

    def total(self) -> float:
        return float(self.rho.sum())


def stationary_frequency(game: StochasticGame, strategy, s1: int) -> FrequencyVector:
    """Exact long-run state-action frequency of a stationary strategy."""
    table = as_correlated_table(game, strategy)
    P, _ = induced_chain(game, table)
    return FrequencyVector(limit_occupation(P, s1)[:, None] * table)


def payoff_of_frequency(game: StochasticGame, freq) -> np.ndarray:
    """Long-run average payoff vector of a frequency vector."""
    rho = freq.rho if isinstance(freq, FrequencyVector) else np.asarray(freq)
    return np.einsum("sa,sai->i", rho, game.payoffs)


# ---------------------------------------------------------------------------
# Recurrent frequency points of a communicating set


@dataclass(frozen=True)
class RecurrentPoint:
    """Frequency point of a pure stationary profile on one of its in-set
    recurrent classes.  `actions` maps each class state to its flat profile."""

    states: tuple
    actions: dict
    freq: FrequencyVector
    payoff: np.ndarray

    def to_dict(self) -> dict:
        return json_ready({
            "states": list(self.states),
            "actions": {str(s): a for s, a in self.actions.items()},
            "payoff": self.payoff,
        })


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
        freq = FrequencyVector(rho)
        points.append(RecurrentPoint(cls_states, actions, freq,
                                     payoff_of_frequency(game, freq)))
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
        fkey = tuple(np.round(point.freq.rho, 10).ravel())
        if fkey not in uniq:
            uniq[fkey] = point
    return sorted(uniq.values(), key=lambda p: (p.states, sorted(p.actions.items())))


def best_recurrent_point(game: StochasticGame, region,
                         weights: np.ndarray) -> RecurrentPoint | None:
    """The recurrent point of `region` maximizing weights . payoff, or None
    when the region has none.

    Solves the pricing LP over the invariant frequency polytope of the safe
    sub-MDP with dual simplex, so the optimum is a vertex: one action per
    support state, the support a recurrent class of that pure profile.
    """
    region = sorted(region)
    allowed = safe_profiles(game, region)
    live = [s for s in region if allowed[s]]
    if not live:
        return None
    states = [s for s in live for _ in allowed[s]]
    profiles = [a for s in live for a in allowed[s]]
    # Flow balance on every region state: outflow minus inflow is zero.  A
    # dead state has no outflow variables, so its inflow is forced to zero.
    row = {s: k for k, s in enumerate(region)}
    A_eq = np.zeros((len(region) + 1, len(states)))
    A_eq[:-1] = -game.transitions[states, profiles][:, region].T
    A_eq[[row[s] for s in states], np.arange(len(states))] += 1.0
    A_eq[-1] = 1.0
    b_eq = np.zeros(len(region) + 1)
    b_eq[-1] = 1.0
    gain = game.payoffs[states, profiles] @ weights
    res = linprog(-gain, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs-ds")
    if res.status == 2:  # infeasible: every class leaves the region
        return None
    if not res.success:
        raise RuntimeError(f"pricing LP failed on region {region}: {res.message}")
    rho = np.zeros((game.n_states, game.n_profiles))
    rho[states, profiles] = res.x
    # Off the support any preserving action will do: the support's class is
    # the same whatever the other states play.
    acts = [int(np.argmax(rho[s])) if rho[s].sum() > 0.0 else allowed[s][0]
            for s in live]
    points = _profile_points(game, region, live, acts)
    if not points:
        raise RuntimeError(f"pricing LP vertex on region {region} holds no recurrent class")
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

    def to_dict(self) -> dict:
        return json_ready({
            "atoms": [p.to_dict() for p in self.atoms],
            "weights": self.weights,
            "target": self.target,
            "achieved": self.achieved,
            "slack": self.slack,
        })


def max_slack_mixture(payoffs: np.ndarray, target: np.ndarray):
    """maximize t s.t. sum_l beta_l payoff_l >= target + t, beta in simplex.

    Returns (beta, t, y), y being the dual weights of the target rows
    (nonnegative, summing to 1).  Solved with dual simplex so the optimum is
    a vertex; with I inequality rows, one simplex row and a free slack
    variable the support of beta never exceeds the number of players.
    """
    L, n_i = payoffs.shape
    c = np.zeros(L + 1)
    c[-1] = -1.0
    A_ub = np.hstack([-payoffs.T, np.ones((n_i, 1))])
    b_ub = -target
    A_eq = np.zeros((1, L + 1))
    A_eq[0, :L] = 1.0
    bounds = [(0, None)] * L + [(None, None)]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0],
                  bounds=bounds, method="highs-ds")
    if not res.success:
        raise RuntimeError(f"mixture LP failed: {res.message}")
    beta = np.clip(res.x[:L], 0.0, None)
    beta /= beta.sum()
    return beta, float(res.x[-1]), -res.ineqlin.marginals


def _mixture_plan(points: list, beta: np.ndarray, slack: float,
                  target: np.ndarray) -> SustainPlan | None:
    if slack < -1e-9:
        return None
    support = [l for l in range(len(points)) if beta[l] > 1e-12]
    atoms = [points[l] for l in support]
    weights = beta[support]
    weights = weights / weights.sum()
    achieved = weights @ np.stack([p.payoff for p in atoms])
    return SustainPlan(atoms, weights, target, achieved, slack)


def sustain_by_columns(game: StochasticGame, region, target) -> tuple:
    """The type-A mixture LP by column generation.

    The master is `max_slack_mixture` over the recurrent points found so
    far; its dual weights y price the next point with
    `best_recurrent_point`.  Generation stops once the priced point is
    already a column or does not beat the columns' best y . payoff, which is
    the master's optimality condition over all recurrent points.  Returns
    (plan or None, number of columns generated).
    """
    target = np.asarray(target, dtype=float)
    columns = []
    y = np.full(game.n_players, 1.0 / game.n_players)
    beta = slack = None
    while True:
        point = best_recurrent_point(game, region, y)
        if point is None or any(point.states == p.states and point.actions == p.actions
                                for p in columns):
            break
        if columns and y @ point.payoff <= max(y @ p.payoff for p in columns) + 1e-12:
            break
        columns.append(point)
        beta, slack, y = max_slack_mixture(np.stack([p.payoff for p in columns]), target)
    if not columns:
        return None, 0
    # Atoms in the enumeration's order, whatever order pricing found them in.
    order = sorted(range(len(columns)),
                   key=lambda k: (columns[k].states, sorted(columns[k].actions.items())))
    plan = _mixture_plan([columns[k] for k in order], beta[order], slack, target)
    return plan, len(columns)


def type_a_feasibility(game: StochasticGame, region, target, eps: float | None = None,
                       points: list | None = None) -> SustainPlan | None:
    """Feasibility of sustaining `target` inside `region` by mixing recurrent
    points.  Returns a plan with small support, or None when infeasible.

    When `eps` is given the target is lowered by eps per player (the caller
    passes the common set value).  Without `points` the mixture is found by
    column generation (`sustain_by_columns`); with them, over exactly those.
    """
    target = np.asarray(target, dtype=float)
    if eps is not None:
        target = target - eps
    if points is None:
        return sustain_by_columns(game, region, target)[0]
    if not points:
        return None
    beta, slack, _ = max_slack_mixture(np.stack([p.payoff for p in points]), target)
    return _mixture_plan(points, beta, slack, target)
