"""Auxiliary one-shot games at each state and their equilibrium sets.

The auxiliary game at state s pays each player the expected next-state
uniform min-max value.  Downstream structure analysis quantifies over an
enumerated, finite list of equilibria: all pure ones (exact scan), all
regular mixed ones for two players (support enumeration), and damped
best-response fixed points for three or more players (tagged approximate).

The tables of every state are one array, u* = `transitions @ v1`
(`continuation_values`, the only routine that forms u*: the profile build
prices exits with it, and the verifiers form their own copy with it).  A
state's games are a few entries each, so numpy's fixed cost per call, not
the arithmetic, sets the stage's time.  So every player count takes one
stacked pass over all states (`enumerate_all_states`), with one array
comparison per player for the pure scan.  Two players add one LAPACK stack
per kernel size for every state's bordered systems and one stacked regret
computation for every candidate, whose products keep the shapes and strides
of `regret`'s own; one player, or three or more, take each pure
equilibrium's regret from `regret` on its state's table.  The lists are
those of a state by state enumeration, bit for bit (`tests/oracles.py`
keeps it).  Dedupe and sorting stay per state, and so do best-response
dynamics, which three or more players and a two-player state with no pure
or regular equilibrium fall back to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def continuation_values(game: StochasticGame, v1: np.ndarray) -> np.ndarray:
    """u*, the expected next-state value of every (state, profile) pair,
    (S, A, I), as one `transitions @ v1`.

    Entry [s, a] is the value vector a one-shot deviation is priced at:
    the auxiliary-game payoff table at s is exactly the slice [s]."""
    return game.transitions @ v1


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
    equilibria: list
    notes: list

    def __len__(self) -> int:
        return len(self.equilibria)


def _pure_equilibria(tensors: np.ndarray) -> np.ndarray:
    """Every pure equilibrium of a stack of games, `tensors` of shape (G,
    A_1, ..., A_n, I): the rows (game, a_1, ..., a_n), games in order and
    each game's profiles in `itertools.product` order.  A profile is one
    when no player's best action against it beats the player's own by more
    than EXACT_EQ_TOL; each player's test is one array comparison over the
    stack."""
    ok = True
    for i in range(tensors.ndim - 2):
        own = tensors[..., i]
        ok = ok & (own.max(axis=i + 1, keepdims=True) <= own + EXACT_EQ_TOL)
    return np.argwhere(ok)


def _support_candidates_2p(tensors: np.ndarray):
    """Candidate regular mixed equilibria of a stack of two-player games,
    `tensors` of shape (G, m, n, 2): one per kernel of size >= 2 whose
    equalizers (`kernel_equalizers`, every game's systems in one LAPACK
    stack per size) have no weight below -1e-9, by size, then game, then
    kernel.  Per support pair the row mix x makes the column player
    indifferent on the columns and the column mix y makes the row player
    indifferent on the rows; each is clipped at 0 and renormalized.
    Returns (games, row mixes, column mixes) as arrays."""
    _, m, n, _ = tensors.shape
    games, xs, ys = [np.zeros(0, dtype=np.intp)], [np.zeros((0, m))], [np.zeros((0, n))]
    for k in range(2, min(m, n) + 1):
        kept, rows, cols, x, _, y = kernel_equalizers(tensors[..., 0], tensors[..., 1], k)
        signs = ~((x < -1e-9).any(axis=1) | (y < -1e-9).any(axis=1))
        for support, w, mixes, width in ((rows, x, xs, m), (cols, y, ys, n)):
            w = np.clip(w[signs], 0.0, None)
            mix = np.zeros((len(w), width))
            np.put_along_axis(mix, support[signs], w / w.sum(axis=1, keepdims=True), axis=1)
            mixes.append(mix)
        games.append(kept[0][signs])
    return np.concatenate(games), np.concatenate(xs), np.concatenate(ys)


def _regrets_2p(tables: np.ndarray, games: np.ndarray, X: np.ndarray, Y: np.ndarray):
    """`regret` of the profile (X[c], Y[c]) in the two-player game
    tables[games[c]], for every c at once.  Each product is a stacked
    matmul whose items have the shapes and strides of `regret`'s own
    products, so every item reaches BLAS, or numpy's own loop, as that
    call does and keeps its bits; the worst improvement starts at 0 and
    takes a later player's only where it is larger, as `max` does."""
    T = tables[games]
    K, (m, n) = len(T), (X.shape[1], Y.shape[1])
    base = ((X[:, :, None] * Y[:, None, :]).reshape(K, 1, m * n) @ T)[:, 0]
    T = T.reshape(K, m, n, 2)
    rows = (T[..., 0] @ Y[:, :, None])[..., 0].max(axis=1) - base[:, 0]
    cols = (T[..., 1].transpose(0, 2, 1) @ X[:, :, None])[..., 0].max(axis=1) - base[:, 1]
    worst = np.where(rows > 0.0, rows, 0.0)
    return np.where(cols > worst, cols, worst)


def _two_player_items(tables: np.ndarray, counts: tuple) -> list:
    """Per game of the two-player stack `tables` (G, A, 2), with action
    counts (m, n): its exact equilibria in the order found, the pure ones
    (`_pure_equilibria`), kept whatever their regret reads, and then the
    regular mixed ones within EXACT_EQ_TOL of no regret
    (`_support_candidates_2p`).
    All regrets come from one stacked `_regrets_2p`."""
    m, n = counts
    tensors = tables.reshape(len(tables), m, n, 2)
    pure = _pure_equilibria(tensors)
    mixed = _support_candidates_2p(tensors)
    games = np.concatenate([pure[:, 0], mixed[0]])
    X = np.concatenate([np.eye(m)[pure[:, 1]], mixed[1]])
    Y = np.concatenate([np.eye(n)[pure[:, 2]], mixed[2]])
    items = [[] for _ in tables]
    for c, (g, r) in enumerate(zip(games.tolist(), _regrets_2p(tables, games, X, Y).tolist())):
        if c < len(pure) or r <= EXACT_EQ_TOL:
            items[g].append(Equilibrium((X[c], Y[c]), True, r))
    return items


def _best_response_dynamics(aux: AuxiliaryGame):
    """Damped best-response dynamics from BR_RESTARTS random starts (seed
    0), drawn restart by restart and run side by side as (restarts,
    actions) mixes: the final profiles within APPROX_EQ_TOL of no regret,
    with their regrets."""
    rng = np.random.default_rng(0)
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
        if r <= APPROX_EQ_TOL:
            found.append((final, r))
    return found


def _canonical_key(mixes) -> tuple:
    return tuple(tuple(round(float(v), 8) for v in m) for m in mixes)


def _equilibrium_set(aux: AuxiliaryGame, items: list) -> EquilibriumSet:
    """`aux`'s EquilibriumSet from its exact equilibria `items`, in the
    order found: best-response dynamics add approximate ones for three or
    more players, or when items is empty; of equal canonical keys the first
    exact one is kept, and the list is sorted by key."""
    notes = []
    n_players = len(aux.action_counts)
    if n_players >= 3 or not items:
        for mixes, r in _best_response_dynamics(aux):
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


def _equilibrium_sets(tables: np.ndarray, counts: tuple) -> list:
    """The EquilibriumSet of every game of the stack `tables` (G, A, I),
    with action counts `counts`, game g as state g (`_equilibrium_set`).
    Two players list their exact equilibria by `_two_player_items`; one
    player, or three or more, by one pure scan over the stack, each
    equilibrium's regret by `regret` on its own table."""
    games = [AuxiliaryGame(s, table, counts) for s, table in enumerate(tables)]
    if len(counts) == 2:
        found = _two_player_items(tables, counts)
    else:
        found = [[] for _ in tables]
        tensors = tables.reshape((len(tables),) + counts + tables.shape[2:])
        for g, *profile in _pure_equilibria(tensors).tolist():
            mixes = tuple(np.eye(k)[a] for k, a in zip(counts, profile))
            found[g].append(Equilibrium(mixes, True, regret(games[g], mixes)))
    return [_equilibrium_set(aux, items) for aux, items in zip(games, found)]


def enumerate_all_states(game: StochasticGame, u_star: np.ndarray) -> list:
    """EquilibriumSet for every state, in state order, from the tables
    `u_star` of `continuation_values` (`_equilibrium_sets`).  Pure
    equilibria come from an exact scan, and two players add regular mixed
    ones by support enumeration.  Damped best-response dynamics from
    random restarts (seed 0) add approximate ones, within APPROX_EQ_TOL,
    for three or more players or as a two-player fallback.  An empty
    result is reported as such, never fabricated."""
    return _equilibrium_sets(u_star, game.action_counts)
