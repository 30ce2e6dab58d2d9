"""State-action frequencies, long-run payoffs, and the sustainable-payoff LP.

The frequency vector of a stationary strategy is the Cesaro-limit fraction of
time spent in each (state, action profile) pair: the absorption-weighted
mixture of the invariant laws of the recurrent classes, times the per-state
action weights.  For a communicating set, the frequency vectors supported by
in-set recurrent classes of pure stationary profiles generate (by convex
combination) everything a correlated strategy can sustain inside the set;
feasibility of a payoff target over that polytope is a small LP.
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


def enumerate_recurrent_points(game: StochasticGame, region) -> list:
    """All distinct recurrent frequency points of region-preserving pure
    stationary profiles on `region`.

    States of the region with no region-preserving profile cannot belong to
    any in-region recurrent class and are skipped.  Profiles are enumerated
    per state over the preserving actions only; the product count is guarded.
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

    pos = {s: k for k, s in enumerate(live)}
    points = {}
    for combo in itertools.product(*[allowed[s] for s in live]):
        P = np.zeros((len(live), len(live)))
        dead_mass = np.zeros(len(live))
        for s in live:
            row = game.transitions[s, combo[pos[s]]]
            for t in region:
                if t in pos:
                    P[pos[s], pos[t]] = row[t]
                else:
                    dead_mass[pos[s]] += row[t]
        classes, _ = recurrent_classes(P)
        for cls in classes:
            if any(dead_mass[k] > DIST_TOL for k in cls):
                continue
            pi = stationary_distribution(P, cls)
            rho = np.zeros((game.n_states, game.n_profiles))
            actions = {}
            cls_states = []
            for rank, k in enumerate(cls):
                s = live[k]
                a = combo[pos[s]]
                rho[s, a] = pi[rank]
                actions[s] = a
                cls_states.append(s)
            key = (tuple(sorted(cls_states)), tuple(actions[s] for s in sorted(actions)))
            if key not in points:
                freq = FrequencyVector(rho)
                points[key] = RecurrentPoint(
                    tuple(sorted(cls_states)), actions, freq,
                    payoff_of_frequency(game, freq),
                )
    # Deduplicate identical frequency vectors (different profiles can induce
    # the same class law).
    uniq = {}
    for point in points.values():
        fkey = tuple(np.round(point.freq.rho, 10).ravel())
        if fkey not in uniq:
            uniq[fkey] = point
    return sorted(uniq.values(), key=lambda p: (p.states, sorted(p.actions.items())))


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

    Returns (beta, t).  Solved with dual simplex so the optimum is a vertex;
    with I inequality rows, one simplex row and a free slack variable the
    support of beta never exceeds the number of players.
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
    return beta, float(res.x[-1])


def type_a_feasibility(game: StochasticGame, region, target, eps: float | None = None,
                       points: list | None = None) -> SustainPlan | None:
    """Feasibility of sustaining `target` inside `region` by mixing recurrent
    points.  Returns a plan with small support, or None when infeasible.

    When `eps` is given the target is lowered by eps per player (the caller
    passes the common set value).
    """
    target = np.asarray(target, dtype=float)
    if eps is not None:
        target = target - eps
    if points is None:
        points = enumerate_recurrent_points(game, region)
    if not points:
        return None
    payoffs = np.stack([p.payoff for p in points])
    beta, slack = max_slack_mixture(payoffs, target)
    if slack < -1e-9:
        return None
    support = [l for l in range(len(points)) if beta[l] > 1e-12]
    atoms = [points[l] for l in support]
    weights = beta[support]
    weights = weights / weights.sum()
    achieved = weights @ np.stack([p.payoff for p in atoms])
    return SustainPlan(atoms, weights, target, achieved, slack)
