"""Exact verification of acceptability, individual rationality and structure.

All checks run on the finite product chain of (game state, machine state)
nodes, so the `for every history` quantifiers in the definitions reduce to
finitely many reachable product states.  `product_chain` builds that chain
once per strategy, and every check judges the chain it is given; its Cesaro
limit is solved once, on first use.  Margins are recomputed from scratch,
never cached from synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import json_ready
from .automata import (
    JointAutomatonProfile,
    ProductModel,
    as_automaton,
    build_product_model,
    discounted_value,
    exit_values,
)
from .game import StationaryCorrelated, StationaryProfile, StochasticGame
from .oneshot import continuation_values
from .structure import Decomposition

DEFAULT_LAMBDA_GRID = (0.9, 0.99, 0.999, 0.9999, 0.99999)
MARGIN_TOL = 1e-9
# Slack of the individual-rationality and submartingale audits.
AUDIT_TOL = 1e-6


def product_chain(game: StochasticGame, strategy) -> ProductModel:
    """The product chain on which the checks below judge `strategy`: a
    machine profile, a joint machine or a stationary strategy, started at
    every state's initial node."""
    automaton = as_automaton(game, strategy)
    return build_product_model(game, automaton,
                               [(s, automaton.init[s]) for s in range(game.n_states)])


# ---------------------------------------------------------------------------
# Acceptability


@dataclass
class AcceptabilityEntry:
    state: int
    player: int
    payoffs: list          # per grid discount factor
    margins: list
    limit_payoff: float
    limit_margin: float
    threshold_from: float | None   # smallest grid point from which all pass

    @property
    def ok(self) -> bool:
        return self.threshold_from is not None and self.limit_margin >= -MARGIN_TOL


@dataclass
class AcceptabilityReport:
    grid: list
    ok: bool
    threshold_from: float | None
    entries: list


def check_w_acceptable(chain: ProductModel, w: np.ndarray,
                       lam_grid=DEFAULT_LAMBDA_GRID) -> AcceptabilityReport:
    """Does the strategy whose product chain is `chain` pay every player at
    least w_i(s) at every initial state for all grid discount factors from
    some point on, and in the limit?

    w is an (S, I) matrix.  The report records payoffs and margins per
    (state, player) and the smallest passing grid point.
    """
    game = chain.game
    grid = list(lam_grid)
    by_lam = [discounted_value(chain, lam) for lam in grid]
    lim = chain.limit
    entries = []
    for s in range(game.n_states):
        node = chain.node_of(s)
        for i in range(game.n_players):
            pays = [float(v[node, i]) for v in by_lam]
            margins = [p - float(w[s, i]) for p in pays]
            limit_payoff = float(lim[node, i])
            limit_margin = limit_payoff - float(w[s, i])
            threshold = None
            if limit_margin >= -MARGIN_TOL:
                for k in range(len(grid)):
                    if all(m >= -MARGIN_TOL for m in margins[k:]):
                        threshold = grid[k]
                        break
            entries.append(AcceptabilityEntry(
                s, i, pays, margins, limit_payoff, limit_margin, threshold))
    ok = all(e.ok for e in entries)
    threshold = max((e.threshold_from for e in entries), default=None) if ok else None
    return AcceptabilityReport(grid, ok, threshold, entries)


def check_minmax_acceptable(chain: ProductModel, v1: np.ndarray,
                            eps: float, lam_grid=DEFAULT_LAMBDA_GRID) -> AcceptabilityReport:
    """Acceptability against the uniform min-max values lowered by eps."""
    return check_w_acceptable(chain, v1 - eps, lam_grid)


# ---------------------------------------------------------------------------
# Individual rationality


@dataclass
class IRViolation:
    state: int
    machine_state: int
    player: int
    action: int
    deviation_value: float
    continuation: float


@dataclass
class IRReport:
    eps: float
    worst_gain: float
    checks: int
    ok: bool
    violations: list


def check_individual_rationality(chain: ProductModel, v1: np.ndarray,
                                 eps: float) -> IRReport:
    """One-shot deviation audit at every node of the chain.

    Every node is reachable: `build_product_model` adds a node only through
    a positive-probability step from a start node.  A deviation by player i
    to action a is priced at the expected continuation min-max value
    u*(s, a, others' marginal); it must not beat the limit continuation
    payoff of conforming by more than eps + AUDIT_TOL.
    """
    game = chain.game
    lim = chain.limit
    u_star = continuation_values(game, v1)
    # Per player, each state's own action x coalition matrix of the player's
    # continuation values, C-ordered: every deviation of every player is
    # priced by the same BLAS matrix-vector product, whatever the layout of
    # `player_indices` (a strided matrix would take numpy's own loop, which
    # rounds differently).
    tables = [np.ascontiguousarray(u_star[:, index, i])
              for i, index in enumerate(game.player_indices)]
    violations = []
    worst = -np.inf
    checks = 0
    for node, (s, q) in enumerate(chain.nodes):
        row = chain.alpha[node]
        for i, index in enumerate(game.player_indices):
            # Continuation values against the coalition's marginal of the
            # node's action.
            dev_values = tables[i][s] @ row[index].sum(axis=0)
            cont = float(lim[node, i])
            for a_i, value in enumerate(dev_values.tolist()):
                checks += 1
                gain = value - cont
                worst = max(worst, gain)
                if gain > eps + AUDIT_TOL:
                    violations.append(IRViolation(s, q, i, a_i, value, cont))
    worst = float(worst) if checks else 0.0
    return IRReport(eps, worst, checks, not violations, violations)


# ---------------------------------------------------------------------------
# Block-value monotonicity (submartingale structure)


@dataclass
class BlockDriftEntry:
    kind: str                  # "transient" or "departing-set"
    state: int
    drift: float               # min over players
    detail: dict


@dataclass
class SubmartingaleReport:
    min_drift: float
    ok: bool
    tol: float
    entries: list


def check_submartingale(chain: ProductModel, v1: np.ndarray,
                        decomposition: Decomposition, classifications
                        ) -> SubmartingaleReport:
    """Expected value drift across block boundaries.

    Transient blocks last one stage; a departing set's block ends when play
    first leaves the set.  At every checkpoint the expected value at the next
    block start must not drop by more than `AUDIT_TOL`.  Entry into a sustainable
    set ends the process, so no constraint applies there.  `chain` is the
    product chain of `builder.assemble_profile`'s machine.
    """
    game = chain.game
    entries = []
    for s in decomposition.transient:
        row = decomposition.transient_profile[s].correlated_row()
        nxt = row @ game.transitions[s]
        expected = nxt @ v1
        drift = float(np.min(expected - v1[s]))
        entries.append(BlockDriftEntry("transient", s, drift, {
            "expected_next": json_ready(expected)}))
    for k, (cset, cls) in enumerate(zip(decomposition.sets, classifications)):
        if cls.kind != "B":
            continue
        # Every node at the set's states runs the set's machine, since an
        # edge that leaves a set re-dispatches.
        region = set(cset.states)
        inside = [n for n, (s, _) in enumerate(chain.nodes) if s in region]
        pos = {n: j for j, n in enumerate(inside)}
        W = exit_values(chain, inside, v1)
        for s in cset.states:
            w = W[pos[chain.node_of(s)]]
            drift = float(np.min(w - cset.value))
            entries.append(BlockDriftEntry("departing-set", s, drift, {
                "set": k, "expected_at_departure": json_ready(w)}))
    min_drift = min((e.drift for e in entries), default=0.0)
    return SubmartingaleReport(float(min_drift), min_drift >= -AUDIT_TOL, AUDIT_TOL,
                               entries)


# ---------------------------------------------------------------------------
# Automaton size audit


@dataclass
class SizeAudit:
    sizes: list
    bound: int
    ok: bool


def automaton_size_audit(game: StochasticGame, profile) -> SizeAudit:
    """Per-player machine sizes against the |S| x |I| bound (|S| for
    stationary strategies, which need only track the game state)."""
    if isinstance(profile, (StationaryProfile, StationaryCorrelated)):
        sizes = [game.n_states] * game.n_players
        bound = game.n_states
        return SizeAudit(sizes, bound, all(sz <= bound for sz in sizes))
    joint = profile.joint if isinstance(profile, JointAutomatonProfile) else profile
    sizes = [joint.size] * game.n_players
    bound = game.n_states * game.n_players
    return SizeAudit(sizes, bound, all(sz <= bound for sz in sizes))
