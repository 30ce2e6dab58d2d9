"""State-space structure: communicating sets, travel strategies, transient states.

A set C is communicating (relative to the enumerated per-state equilibrium
lists E) when it is closed under every listed equilibrium, every state can be
led to every other state without leaving C, and the per-player uniform
min-max values agree across C.  Maximal communicating sets are found exactly,
at every size, by end-component refinement of the value classes (de Alfaro
1997; Chatterjee & Henzinger 2011); the remaining states are transient and
carry a stationary equilibrium profile that reaches the union of the maximal
sets almost surely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._util import DIST_TOL, VALUE_SPREAD_TOL, json_ready
from .chains import reach_probability, strongly_connected_components
from .game import StochasticGame

CLOSED_TOL = 1e-9


# ---------------------------------------------------------------------------
# Almost-sure reachability inside a protected set


def safe_profiles(game: StochasticGame, region) -> dict:
    """Per state in `region`, the action profiles keeping play inside it."""
    region = sorted(region)
    stay = game.stay_mass(region)
    return {
        s: [a for a in range(game.n_profiles) if stay[s, a] >= 1.0 - CLOSED_TOL]
        for s in region
    }


def almost_sure_reach(game: StochasticGame, region, targets):
    """States of `region` from which `targets` is reachable almost surely
    without leaving `region`, plus a pure stationary witness.

    Iterative pruning, the attractor of end-component analysis (de Alfaro
    1997): keep the states that positively reach the targets through
    region-preserving profiles, shrink the allowed profiles to the kept
    states, and repeat until a pass keeps them all.  The witness is the
    profile with which that last pass added each state, its first safe
    profile moving with positive probability to a state added before it.
    """
    targets = set(targets) & set(region)
    live = set(region)
    if not targets:
        return set(), {}
    while True:
        allowed = safe_profiles(game, live)
        reach = set(t for t in targets if t in live)
        policy = {}
        grew = True
        while grew:
            grew = False
            for s in live - reach:
                for a in allowed.get(s, []):
                    if any(t in reach for t, _ in game.successors[s][a]):
                        reach.add(s)
                        policy[s] = a
                        grew = True
                        break
        if reach == live:
            return live, policy
        live = reach


@dataclass(frozen=True)
class TravelStrategy:
    """Pure stationary profile driving play into `targets` without leaving
    `region`; `policy` maps each state of region minus targets to a flat
    profile index."""

    region: tuple
    targets: tuple
    policy: dict


def travel_strategy(game: StochasticGame, region, targets) -> TravelStrategy:
    region = tuple(sorted(region))
    targets = tuple(sorted(set(targets)))
    reachable, policy = almost_sure_reach(game, region, targets)
    missing = set(region) - set(targets) - reachable
    if missing:
        raise ValueError(
            f"states {sorted(missing)} cannot reach {list(targets)} inside {list(region)}"
        )
    policy = {s: policy[s] for s in set(region) - set(targets)}
    return TravelStrategy(region, targets, policy)


# ---------------------------------------------------------------------------
# Closedness and communication under the enumerated equilibrium lists


def states_closed_under_E(game: StochasticGame, eq_sets, states) -> list:
    """The states of `states` at which no listed equilibrium leaves it."""
    idx = sorted(states)
    stay = game.stay_mass(idx)
    return [
        s for s in idx
        if all(float(eq.correlated_row() @ stay[s]) >= 1.0 - CLOSED_TOL
               for eq in eq_sets[s].items)
    ]


def value_spread(v1: np.ndarray, states) -> float:
    sub = v1[sorted(states)]
    return float(np.max(sub.max(axis=0) - sub.min(axis=0))) if len(sub) else 0.0


def mutually_leading(game: StochasticGame, states) -> dict:
    """C.2 witnesses: one travel policy per target state, leading every
    state of `states` to it without leaving `states`.  The end-component
    refinement that finds the sets guarantees every state leads to every
    other, so each policy reaches its target from the whole set."""
    states = sorted(states)
    return {target: almost_sure_reach(game, states, {target})[1] for target in states}


# ---------------------------------------------------------------------------
# Decomposition


@dataclass
class CommunicatingSet:
    states: tuple
    value: np.ndarray            # common per-player value on the set
    travel_witnesses: dict       # target state -> pure policy dict

    def to_dict(self) -> dict:
        return json_ready({
            "states": list(self.states),
            "value": self.value,
            "travel_witnesses": {
                str(t): {str(s): a for s, a in pol.items()}
                for t, pol in self.travel_witnesses.items()
            },
        })


@dataclass
class Decomposition:
    sets: list
    transient: tuple
    transient_profile: dict      # state -> chosen Equilibrium
    transient_reach: float       # min absorption probability into the union
    notes: list = field(default_factory=list)

    @property
    def union(self) -> tuple:
        return tuple(sorted(s for c in self.sets for s in c.states))

    def set_of_state(self, s: int):
        for k, c in enumerate(self.sets):
            if s in c.states:
                return k
        return None

    def to_dict(self) -> dict:
        return json_ready({
            "sets": [c.to_dict() for c in self.sets],
            "transient": list(self.transient),
            "transient_profile": {
                str(s): [m for m in eq.mixes] for s, eq in self.transient_profile.items()
            },
            "transient_reach": self.transient_reach,
            "notes": self.notes,
        })


def value_classes(v1: np.ndarray, tol_v: float) -> list:
    """States grouped by single linkage: two states share a class when a
    chain of states joins them, each step within `tol_v` for every player."""
    near = np.max(np.abs(v1[:, None, :] - v1[None, :, :]), axis=2) <= tol_v
    return strongly_connected_components([np.nonzero(row)[0].tolist() for row in near])


def _safe_support_graph(game: StochasticGame, region: list) -> list:
    """Adjacency over positions in `region`: k -> m when a profile keeping
    play in `region` at region[k] moves to region[m] with positive probability."""
    allowed = safe_profiles(game, region)
    pos = {s: k for k, s in enumerate(region)}
    return [
        sorted({pos[t] for a in allowed[s] for t, _ in game.successors[s][a] if t in pos})
        for s in region
    ]


def maximal_communicating_sets(game: StochasticGame, eq_sets, v1,
                               tol_v: float = VALUE_SPREAD_TOL):
    """Maximal communicating sets by end-component refinement.

    Starting from the value classes, repeat until no candidate changes: drop
    the states where a listed equilibrium leaves the candidate, then split it
    into the strongly connected components of its safe-profile support graph.
    Every communicating set survives inside one candidate, and every fixpoint
    is closed under E and strongly connected under its own safe profiles,
    hence mutually leading: the fixpoints are exactly the maximal sets.
    Single linkage can chain a value class wider than `tol_v`; each such
    class is reported in the returned notes.
    """
    work = value_classes(v1, tol_v)
    notes = [
        f"value class {cls} spreads {value_spread(v1, cls):.3g} > tol_v {tol_v:g}"
        for cls in work if value_spread(v1, cls) > tol_v
    ]
    found = []
    while work:
        cand = work.pop()
        kept = states_closed_under_E(game, eq_sets, cand)
        parts = [[kept[k] for k in comp]
                 for comp in strongly_connected_components(_safe_support_graph(game, kept))]
        if parts == [cand]:
            found.append(tuple(cand))
        else:
            work.extend(parts)
    found.sort()
    out = [
        CommunicatingSet(states, v1[states[0]].copy(), mutually_leading(game, states))
        for states in found
    ]
    return out, notes


def transient_profile(game: StochasticGame, eq_sets, union):
    """Stationary equilibrium selection on transient states reaching the
    union of maximal communicating sets almost surely.

    Built by the standard inward induction: repeatedly add states having a
    listed equilibrium with positive mass into the region already covered.
    Raises if the induction stalls (enumerated equilibrium lists too coarse).
    """
    covered = set(union)
    choice = {}
    while True:
        grew = False
        for s in range(game.n_states):
            if s in covered:
                continue
            for eq in eq_sets[s].items:
                law = eq.correlated_row() @ game.transitions[s]
                mass = float(sum(law[t] for t in covered))
                if mass > DIST_TOL:
                    choice[s] = eq
                    covered.add(s)
                    grew = True
                    break
        if not grew:
            break
    stuck = set(range(game.n_states)) - covered
    if stuck:
        raise RuntimeError(
            f"transient induction stalled; states {sorted(stuck)} have no listed "
            "equilibrium moving toward the communicating union"
        )
    return choice


def transient_reach_probability(game: StochasticGame, choice, union) -> float:
    """Min over transient states of the probability of reaching `union`."""
    if not choice:
        return 1.0
    n = game.n_states
    P = np.zeros((n, n))
    for s in range(n):
        if s in choice:
            P[s] = choice[s].correlated_row() @ game.transitions[s]
        else:
            P[s, s] = 1.0
    h = reach_probability(P, set(union))
    return float(min(h[s] for s in choice))


def decompose(game: StochasticGame, eq_sets, v1,
              tol_v: float = VALUE_SPREAD_TOL) -> Decomposition:
    """Full decomposition: maximal communicating sets, transient states and
    the transient stationary profile."""
    sets, notes = maximal_communicating_sets(game, eq_sets, v1, tol_v)
    union = tuple(sorted(s for c in sets for s in c.states))
    choice = transient_profile(game, eq_sets, union)
    reach = transient_reach_probability(game, choice, union)
    transient = tuple(sorted(choice))
    return Decomposition(sets, transient, choice, reach, notes=notes)
