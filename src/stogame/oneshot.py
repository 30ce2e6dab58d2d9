"""Auxiliary one-shot games at each state and their equilibrium sets.

The auxiliary game at state s pays each player the expected next-state
uniform min-max value.  Downstream structure analysis quantifies over an
enumerated, finite list of equilibria: all pure ones (exact scan), all
regular mixed ones for two players (support enumeration), and damped
best-response fixed points for three or more players (tagged approximate).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ._util import json_ready
from .game import StochasticGame, mixes_to_correlated_row
from .matrixgame import kernel_equalizers

EXACT_EQ_TOL = 1e-9
APPROX_EQ_TOL = 1e-6
BR_RESTARTS = 20
BR_STEPS = 600


@dataclass(frozen=True)
class AuxiliaryGame:
    """One-shot game at `state` with payoff table of shape (A, I)."""

    state: int
    table: np.ndarray
    action_counts: tuple

    def tensor(self) -> np.ndarray:
        """Payoffs reshaped to (A_1, ..., A_n, I)."""
        return self.table.reshape(self.action_counts + (self.table.shape[1],))


def build_auxiliary_game(game: StochasticGame, s: int, v1: np.ndarray) -> AuxiliaryGame:
    """v1 is the (S, I) matrix of uniform min-max values."""
    table = game.transitions[s] @ v1
    return AuxiliaryGame(s, table, game.action_counts)


def continuation_values(game: StochasticGame, v1: np.ndarray) -> np.ndarray:
    """Expected next-state value of every (state, profile) pair, (S, A, I).

    Entry [s, a] is the value vector a one-shot deviation is priced at:
    the auxiliary-game payoff table at s is exactly the slice [s]."""
    return np.einsum("sat,ti->sai", game.transitions, v1)


def profile_value(aux: AuxiliaryGame, mixes) -> np.ndarray:
    """Multilinear payoff vector of a per-player mixed profile."""
    row = mixes_to_correlated_row(mixes)
    return row @ aux.table


def _deviation_values(aux: AuxiliaryGame, mixes, i: int) -> np.ndarray:
    """Payoff of each pure action of player i against the others' mixes.

    The mixes may carry one leading axis of restarts, and the payoffs then
    carry it too.  Each contraction is one matrix-vector product per item,
    with a mix as a (k, 1) column, so a restart's payoffs have the bits of
    its own call."""
    lead = mixes[0].ndim - 1
    out = aux.tensor()[(None,) * lead + (..., i)]
    axes = [k for k in range(len(mixes)) if k != i]
    # Contract the other players' mixes in order: the next one's axis is
    # first, or second while player i's axis lies before it.
    for k in axes:
        axis = lead + int(k > i)
        order = [j for j in range(out.ndim) if j != axis] + [axis]
        column = mixes[k].reshape(mixes[k].shape[:-1] + (1,) * (out.ndim - lead - 2) + (-1, 1))
        out = (out.transpose(order) @ column)[..., 0]
    return out


def regret(aux: AuxiliaryGame, mixes) -> float:
    """Worst unilateral improvement over the profile's own payoff."""
    base = profile_value(aux, mixes)
    worst = 0.0
    for i in range(len(mixes)):
        devs = _deviation_values(aux, mixes, i)
        worst = max(worst, float(devs.max() - base[i]))
    return worst


@dataclass(frozen=True)
class Equilibrium:
    mixes: tuple
    exact: bool
    regret: float

    def correlated_row(self) -> np.ndarray:
        return mixes_to_correlated_row(self.mixes)


@dataclass
class EquilibriumSet:
    state: int
    items: list
    notes: list

    def __len__(self) -> int:
        return len(self.items)

    def to_dict(self) -> dict:
        return json_ready({
            "state": self.state,
            "equilibria": self.items,
            "notes": self.notes,
        })


def _pure_equilibria(aux: AuxiliaryGame, tol: float):
    counts = aux.action_counts
    tensor = aux.tensor()
    found = []
    for profile in itertools.product(*[range(k) for k in counts]):
        ok = True
        for i, count in enumerate(counts):
            line = tensor[profile[:i] + (slice(None),) + profile[i + 1:] + (i,)]
            if line.max() > line[profile[i]] + tol:
                ok = False
                break
        if ok:
            mixes = []
            for i, count in enumerate(counts):
                m = np.zeros(count)
                m[profile[i]] = 1.0
                mixes.append(m)
            found.append(tuple(mixes))
    return found


def _support_enumeration_2p(aux: AuxiliaryGame, tol: float):
    """All regular mixed equilibria of a two-player game, one representative
    per support pair (equal support sizes >= 2).

    Per support pair, `kernel_equalizers` gives the row mix x making the
    column player indifferent on the columns and the column mix y making
    the row player indifferent on the rows."""
    m, n = aux.action_counts
    A = aux.tensor()[..., 0]   # row player payoffs, shape (m, n)
    B = aux.tensor()[..., 1]
    found = []
    for k in range(2, min(m, n) + 1):
        rows, cols, x, _, y = kernel_equalizers(A, B, k)
        for r, c, w_row, w_col in zip(rows, cols, x, y):
            if np.any(w_row < -1e-9) or np.any(w_col < -1e-9):
                continue
            mixes = (np.zeros(m), np.zeros(n))
            for mix, support, w in zip(mixes, (r, c), (w_row, w_col)):
                w = np.clip(w, 0.0, None)
                mix[support] = w / w.sum()
            if regret(aux, mixes) <= tol:
                found.append(mixes)
    return found


def _best_response_dynamics(aux: AuxiliaryGame, tol: float, rng):
    """Damped best-response dynamics from BR_RESTARTS random starts, drawn
    restart by restart and run side by side as (restarts, actions) mixes."""
    counts = aux.action_counts
    starts = [[rng.dirichlet(np.ones(k)) for k in counts] for _ in range(BR_RESTARTS)]
    mixes = [np.stack(column) for column in zip(*starts)]
    restarts = np.arange(BR_RESTARTS)
    for t in range(BR_STEPS):
        step = 2.0 / (t + 3.0)
        for i, k in enumerate(counts):
            devs = _deviation_values(aux, mixes, i)
            best = np.zeros((BR_RESTARTS, k))
            best[restarts, devs.argmax(axis=1)] = 1.0
            mixes[i] = (1.0 - step) * mixes[i] + step * best
    found = []
    for j in restarts:
        final = tuple(m[j] for m in mixes)
        r = regret(aux, final)
        if r <= tol:
            found.append((final, r))
    return found


def _canonical_key(mixes) -> tuple:
    return tuple(tuple(round(float(v), 8) for v in m) for m in mixes)


def enumerate_equilibria(aux: AuxiliaryGame, exact_tol: float = EXACT_EQ_TOL
                         ) -> EquilibriumSet:
    """Enumerate a finite equilibrium list for the auxiliary game.

    Pure equilibria always come from an exact scan; for two players, regular
    mixed equilibria are added by support enumeration.  For three or more
    players (or as a two-player fallback) damped best-response dynamics from
    random restarts (seed 0) supply approximate equilibria, within
    APPROX_EQ_TOL.  An empty result is reported as such, never fabricated.
    """
    items = []
    notes = []
    n_players = len(aux.action_counts)
    for mixes in _pure_equilibria(aux, exact_tol):
        items.append(Equilibrium(tuple(mixes), True, regret(aux, mixes)))
    if n_players == 2:
        for mixes in _support_enumeration_2p(aux, exact_tol):
            items.append(Equilibrium(mixes, True, regret(aux, mixes)))
    if n_players >= 3 or not items:
        rng = np.random.default_rng(0)
        approx = _best_response_dynamics(aux, APPROX_EQ_TOL, rng)
        for mixes, r in approx:
            items.append(Equilibrium(mixes, False, r))
        if n_players >= 3 and not items:
            notes.append("no equilibrium found by pure scan or best-response restarts")

    seen = {}
    for eq in items:
        key = _canonical_key(eq.mixes)
        if key not in seen or (eq.exact and not seen[key].exact):
            seen[key] = eq
    ordered = [seen[k] for k in sorted(seen)]
    if not ordered:
        notes.append("equilibrium list is empty")
    return EquilibriumSet(aux.state, ordered, notes)


def enumerate_all_states(game: StochasticGame, v1: np.ndarray,
                         exact_tol: float = EXACT_EQ_TOL) -> list:
    """EquilibriumSet for every state, in state order."""
    return [
        enumerate_equilibria(build_auxiliary_game(game, s, v1), exact_tol=exact_tol)
        for s in range(game.n_states)
    ]
