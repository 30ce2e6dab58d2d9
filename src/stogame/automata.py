"""Finite-state machine strategies and their exact product-chain analysis.

A joint automaton reads the played action profile and the next game state,
emits one correlated mixed action per machine state, and moves stochastically
between machine states.  When each output is a product of per-player mixes,
the machine decomposes into one automaton per player: all of them share the
machine-state evolution (driven by public inputs and a declared public coin
stream), and each emits only its own factor.

Exact evaluation never materializes histories: play under an automaton is a
Markov chain over (game state, machine state) nodes, expanded only at the
game states of its start nodes: every state for the verifiers, a set's own
states for its analysis.  Any other node reached keeps a zero row, which
`first_play_law` and `exit_values` read as play having left.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ._util import DIST_TOL, json_ready
from .chains import limit_average_values
from .game import StationaryProfile, StochasticGame, as_correlated_table


@dataclass(eq=False)
class JointAutomaton:
    """Joint machine.

    labels: hashable descriptor per machine state (reporting only)
    outputs: per machine state, correlated action row over profiles, (Q, A)
    factors: per machine state, tuple of per-player mixes, or None when the
             output is genuinely correlated (no product decomposition)
    transitions: (q, a_flat, s_next) -> tuple of (q', prob); pairs not listed
             fall back to `fallback(q, a, s_next)`
    init: initial machine state per initial game state
    coin_note: contract for the shared public coins driving stochastic
             machine transitions
    """

    labels: list
    outputs: np.ndarray
    factors: list | None
    transitions: dict
    init: dict
    coin_note: str = "machine transitions consume one shared public coin per stage"

    @property
    def size(self) -> int:
        return len(self.labels)

    def output_row(self, q: int) -> np.ndarray:
        return self.outputs[q]

    def step_dist(self, q: int, a: int, s_next: int):
        got = self.transitions.get((q, a, s_next))
        if got is not None:
            return got
        return self.fallback(q, a, s_next)

    def fallback(self, q: int, a: int, s_next: int):
        """Default reaction to inputs outside the stored table: restart at the
        initial machine state of the observed game state."""
        return ((self.init[s_next], 1.0),)

    def to_dict(self) -> dict:
        rows = {}
        for (q, a, s_next), dist in sorted(self.transitions.items()):
            rows[f"{q}|{a}|{s_next}"] = [[int(q2), float(p)] for q2, p in dist]
        return json_ready({
            "size": self.size,
            "labels": [str(l) for l in self.labels],
            "outputs": self.outputs,
            "factors": None if self.factors is None else [
                [m for m in f] for f in self.factors
            ],
            "transitions": rows,
            "init": {str(s): int(q) for s, q in self.init.items()},
            "coin_note": self.coin_note,
        })


@dataclass(eq=False)
class JointAutomatonProfile:
    """A joint machine plus its metadata; `joint.factors` holds the
    per-player decomposition when one exists."""

    joint: JointAutomaton
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return json_ready({"joint": self.joint.to_dict(), "meta": self.meta})


def stationary_automaton(game: StochasticGame, strategy) -> JointAutomaton:
    """Wrap a stationary strategy as a state-tracking machine of size |S|;
    it stores no transitions, since the fallback already tracks the state."""
    table = as_correlated_table(game, strategy)
    n = game.n_states
    factors = None
    if isinstance(strategy, StationaryProfile):
        factors = [tuple(m[s] for m in strategy.mixes) for s in range(n)]
    return JointAutomaton(
        labels=[("state", game.state_names[s]) for s in range(n)],
        outputs=table.copy(),
        factors=factors,
        transitions={},
        init={s: s for s in range(n)},
        coin_note="deterministic machine transitions (state tracking only)",
    )


def as_automaton(game: StochasticGame, strategy) -> JointAutomaton:
    """The joint machine of a machine profile, a joint machine or a
    stationary strategy."""
    if isinstance(strategy, JointAutomaton):
        return strategy
    if isinstance(strategy, JointAutomatonProfile):
        return strategy.joint
    return stationary_automaton(game, strategy)


# ---------------------------------------------------------------------------
# Product chain


@dataclass(eq=False)
class ProductModel:
    """Markov chain over reachable (game state, machine state) nodes."""

    game: StochasticGame
    automaton: JointAutomaton
    nodes: list                 # (s, q) pairs
    index: dict                 # (s, q) -> node id
    P: np.ndarray               # (N, N) chain
    r: np.ndarray               # (N, I) stage payoffs
    alpha: np.ndarray           # (N, A) played correlated action
    steps: list                 # (node, profile, next node, w_a, p_s, p_q)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @functools.cached_property
    def limit(self) -> np.ndarray:
        """Cesaro-limit payoffs per node, shape (N, I), solved once; every
        caller reads the same array."""
        return limit_average_values(self.P, self.r)

    def node_of(self, s: int) -> int:
        """The node where play starts from game state s."""
        return self.index[(s, self.automaton.init[s])]

    def action_kernel(self) -> np.ndarray:
        """K[n, a, n']: next-node law given the profile actually played."""
        K = np.zeros((self.n_nodes, self.game.n_profiles, self.n_nodes))
        for n, a, n2, _, p_s, p_q in self.steps:
            K[n, a, n2] += p_s * p_q
        return K


def build_product_model(game: StochasticGame, automaton: JointAutomaton,
                        starts) -> ProductModel:
    """Breadth-first closure of the product chain from the (s, q) nodes
    `starts`, which take the first ids in their order.  Only nodes at a
    start node's game state are expanded; any other node reached keeps a
    zero row."""
    expand = {s for s, _ in starts}
    index = {}
    nodes = []
    for node in starts:
        if node not in index:
            index[node] = len(nodes)
            nodes.append(node)
    plays = {}      # q -> [(profile, weight)] on the output's support
    successors = game.successors
    steps = []
    for k, (s, q) in enumerate(nodes):      # also visits the nodes found below
        if s not in expand:
            continue
        if q not in plays:
            plays[q] = [(a, w) for a, w in enumerate(automaton.output_row(q).tolist())
                        if w > DIST_TOL]
        for a, w_a in plays[q]:
            for s_next, p_s in successors[s][a]:
                for q2, p_q in automaton.step_dist(q, a, s_next):
                    node2 = (s_next, q2)
                    if node2 not in index:
                        index[node2] = len(nodes)
                        nodes.append(node2)
                    steps.append((k, a, index[node2], w_a, p_s, p_q))
    N = len(nodes)
    P = np.zeros((N, N))
    for n, _, n2, w_a, p_s, p_q in steps:
        P[n, n2] += w_a * p_s * p_q
    alpha = np.zeros((N, game.n_profiles))
    r = np.zeros((N, game.n_players))
    for n, (s, q) in enumerate(nodes):
        alpha[n] = automaton.output_row(q)
        r[n] = alpha[n] @ game.payoffs[s]
    return ProductModel(game, automaton, nodes, index, P, r, alpha, steps)


def discounted_value(model: ProductModel, lam: float) -> np.ndarray:
    """Exact discounted payoffs per node, shape (N, I)."""
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"discount factor {lam} outside [0, 1)")
    N = model.n_nodes
    return np.linalg.solve(np.eye(N) - lam * model.P, (1.0 - lam) * model.r)


def exit_values(model: ProductModel, inside, values: np.ndarray) -> np.ndarray:
    """Expected `values` at the game state of the first node outside the node
    set `inside`, per node of `inside` (rows in its order); play must leave
    `inside` almost surely."""
    pos = {n: j for j, n in enumerate(inside)}
    T = np.zeros((len(inside), len(inside)))
    b = np.zeros((len(inside),) + values.shape[1:])
    for n in inside:
        for n2 in np.nonzero(model.P[n] > 0)[0]:
            n2 = int(n2)
            p = model.P[n, n2]
            if n2 in pos:
                T[pos[n], pos[n2]] += p
            else:
                b[pos[n]] += p * values[model.nodes[n2][0]]
    return np.linalg.solve(np.eye(len(inside)) - T, b)


def first_play_law(model: ProductModel, inside, marked: dict,
                   n_outcomes: int) -> np.ndarray:
    """Law of the first marked play from each node of the node set `inside`
    (rows in its order).  `marked` maps (node, profile) to an outcome column;
    every other play moves on through the action kernel, and mass that leaves
    `inside` unmarked is lost."""
    K = model.action_kernel()
    M = np.zeros((len(inside), len(inside)))   # strictly pre-marked dynamics
    R = np.zeros((len(inside), n_outcomes))
    for j, n in enumerate(inside):
        for a in np.nonzero(model.alpha[n] > DIST_TOL)[0]:
            a = int(a)
            col = marked.get((n, a))
            if col is None:
                M[j] += model.alpha[n, a] * K[n, a, inside]
            else:
                R[j, col] += model.alpha[n, a]
    return np.linalg.solve(np.eye(len(inside)) - M, R)


def reachable_nodes(model: ProductModel) -> list:
    """Node ids reachable (positive probability) from the start node of
    every game state."""
    seen = set()
    stack = [model.node_of(s) for s in range(model.game.n_states)]
    seen.update(stack)
    while stack:
        n = stack.pop()
        for n2 in np.nonzero(model.P[n] > DIST_TOL)[0]:
            if int(n2) not in seen:
                seen.add(int(n2))
                stack.append(int(n2))
    return sorted(seen)
