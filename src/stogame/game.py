"""Finite multiplayer stochastic games.

A game couples a finite state set, per-player finite action sets (identical
across states), a bounded payoff table and a stochastic transition kernel.
Action profiles are indexed flat, in row-major player order, so that the
flat index of ``(a_1, ..., a_n)`` matches ``itertools.product`` over the
per-player action ranges.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

import numpy as np

from ._util import DIST_TOL


class GameFormatError(ValueError):
    """A game file could not be parsed into a StochasticGame."""


@dataclass(frozen=True, eq=False)
class StochasticGame:
    """Immutable game data.

    payoffs:     array of shape (states, profiles, players)
    transitions: array of shape (states, profiles, states), rows are
                 probability distributions over the next state
    payoff_bound: declared bound B with all payoffs in [-B, B]
    """

    state_names: tuple
    action_names: tuple
    payoffs: np.ndarray
    transitions: np.ndarray
    payoff_bound: float = 1.0
    name: str = ""

    def __post_init__(self):
        self.payoffs.setflags(write=False)
        self.transitions.setflags(write=False)

    @property
    def n_players(self) -> int:
        return len(self.action_names)

    @property
    def n_states(self) -> int:
        return len(self.state_names)

    # Computed once: the action lists never change, and cached_property
    # writes to the instance __dict__, which a frozen dataclass leaves open.
    @functools.cached_property
    def action_counts(self) -> tuple:
        return tuple(len(acts) for acts in self.action_names)

    @functools.cached_property
    def n_profiles(self) -> int:
        return int(np.prod(self.action_counts))

    @functools.cached_property
    def successors(self) -> tuple:
        """successors[s][a]: the (next state, probability) pairs of (s, a)
        above DIST_TOL, as Python floats, in state order.  Every support scan
        of the game reads this one table."""
        return tuple(
            tuple(tuple((t, p) for t, p in enumerate(row) if p > DIST_TOL) for row in rows)
            for rows in self.transitions.tolist())

    def profile_index(self, profile) -> int:
        return int(np.ravel_multi_index(tuple(profile), self.action_counts))

    def profile_of_index(self, flat: int) -> tuple:
        return tuple(int(v) for v in np.unravel_index(flat, self.action_counts))

    def profile_key(self, flat: int) -> str:
        """The "/"-joined action-name key used in game files."""
        prof = self.profile_of_index(flat)
        return "/".join(self.action_names[i][a] for i, a in enumerate(prof))

    def state_index(self, name: str) -> int:
        return self.state_names.index(name)

    def stay_mass(self, states) -> np.ndarray:
        """q(states | s, a) for every (s, a), shape (S, A)."""
        idx = sorted(states)
        return self.transitions[:, :, idx].sum(axis=2)


# ---------------------------------------------------------------------------
# Strategy objects


@dataclass(frozen=True, eq=False)
class StationaryProfile:
    """Per-player mixed action per state; mixes[i] has shape (S, A_i)."""

    mixes: tuple

    @property
    def n_players(self) -> int:
        return len(self.mixes)

    def correlated_table(self) -> np.ndarray:
        """Product distribution over action profiles, shape (S, A)."""
        n_states = self.mixes[0].shape[0]
        table = np.ones((n_states, 1))
        for mix in self.mixes:
            table = (table[:, :, None] * mix[:, None, :]).reshape(n_states, -1)
        return table


@dataclass(frozen=True, eq=False)
class StationaryCorrelated:
    """One correlated mixed action per state; table has shape (S, A)."""

    table: np.ndarray


def pure_profile(game: StochasticGame, actions_by_state) -> StationaryProfile:
    """Build a pure stationary profile from per-state action-index tuples."""
    mixes = []
    for i, count in enumerate(game.action_counts):
        mix = np.zeros((game.n_states, count))
        for s in range(game.n_states):
            mix[s, actions_by_state[s][i]] = 1.0
        mixes.append(mix)
    return StationaryProfile(tuple(mixes))


def mixes_to_correlated_row(mixes) -> np.ndarray:
    """Product distribution over profiles for one state's per-player mixes."""
    row = np.ones(1)
    for mix in mixes:
        row = (row[:, None] * np.asarray(mix)[None, :]).reshape(-1)
    return row


def as_correlated_table(game: StochasticGame, strategy) -> np.ndarray:
    """Normalize a stationary strategy object to its (S, A) correlated table."""
    if isinstance(strategy, StationaryCorrelated):
        return strategy.table
    if isinstance(strategy, StationaryProfile):
        return strategy.correlated_table()
    arr = np.asarray(strategy, dtype=float)
    if arr.shape == (game.n_states, game.n_profiles):
        return arr
    raise TypeError(f"cannot interpret {type(strategy).__name__} as a stationary strategy")


# ---------------------------------------------------------------------------
# Validation


def validate_game(game: StochasticGame) -> list:
    """Check game invariants; return a list of violation messages (empty = valid)."""
    problems = []
    if game.n_players < 1:
        problems.append("player set is empty")
    if game.n_states < 1:
        problems.append("state set is empty")
    for i, acts in enumerate(game.action_names):
        if len(acts) < 1:
            problems.append(f"player {i} has an empty action set")
    expected_pay = (game.n_states, game.n_profiles, game.n_players)
    if game.payoffs.shape != expected_pay:
        problems.append(f"payoff table shape {game.payoffs.shape} != {expected_pay}")
        return problems
    expected_tr = (game.n_states, game.n_profiles, game.n_states)
    if game.transitions.shape != expected_tr:
        problems.append(f"transition table shape {game.transitions.shape} != {expected_tr}")
        return problems

    bound = game.payoff_bound
    for s in range(game.n_states):
        for a in range(game.n_profiles):
            row = game.transitions[s, a]
            if np.any(row < -DIST_TOL):
                problems.append(
                    f"negative transition probability at ({game.state_names[s]}, {game.profile_key(a)})"
                )
            mass = float(row.sum())
            if abs(mass - 1.0) > DIST_TOL:
                problems.append(
                    f"transition mass {mass!r} at ({game.state_names[s]}, {game.profile_key(a)})"
                )
            pay = game.payoffs[s, a]
            if np.any(np.abs(pay) > bound + 1e-12):
                problems.append(
                    f"payoff {pay.tolist()} outside [-{bound}, {bound}] at "
                    f"({game.state_names[s]}, {game.profile_key(a)})"
                )
    return problems


# ---------------------------------------------------------------------------
# Game file format


def game_to_dict(game: StochasticGame) -> dict:
    payoffs = {}
    transitions = {}
    for s in range(game.n_states):
        sname = game.state_names[s]
        payoffs[sname] = {}
        transitions[sname] = {}
        for a in range(game.n_profiles):
            key = game.profile_key(a)
            payoffs[sname][key] = [float(v) for v in game.payoffs[s, a]]
            row = {}
            for t in range(game.n_states):
                p = float(game.transitions[s, a, t])
                if p != 0.0:
                    row[game.state_names[t]] = p
            transitions[sname][key] = row
    doc = {
        "players": game.n_players,
        "states": list(game.state_names),
        "actions": [list(acts) for acts in game.action_names],
        "payoffs": payoffs,
        "transitions": transitions,
    }
    if game.payoff_bound != 1.0:
        doc["payoff_bound"] = game.payoff_bound
    if game.name:
        doc["name"] = game.name
    return doc


def game_from_dict(doc: dict) -> StochasticGame:
    try:
        n_players = int(doc["players"])
        state_names = tuple(str(s) for s in doc["states"])
        action_names = tuple(tuple(str(a) for a in acts) for acts in doc["actions"])
    except (KeyError, TypeError) as exc:
        raise GameFormatError(f"missing or malformed header field: {exc}") from exc
    if len(action_names) != n_players:
        raise GameFormatError(
            f"'actions' lists {len(action_names)} players, header says {n_players}"
        )
    counts = tuple(len(a) for a in action_names)
    n_states = len(state_names)
    n_profiles = int(np.prod(counts)) if counts else 0
    if n_states == 0 or n_profiles == 0:
        raise GameFormatError("empty state or action set")

    keys = ["/".join(combo) for combo in itertools.product(*action_names)]
    key_index = {k: i for i, k in enumerate(keys)}
    state_index = {s: i for i, s in enumerate(state_names)}

    payoffs = np.zeros((n_states, n_profiles, n_players))
    transitions = np.zeros((n_states, n_profiles, n_states))
    pay_doc = doc.get("payoffs", {})
    tr_doc = doc.get("transitions", {})
    for sname, s in state_index.items():
        s_pay = pay_doc.get(sname)
        if s_pay is None:
            raise GameFormatError(f"payoffs missing for state {sname!r}")
        for key, a in key_index.items():
            entry = s_pay.get(key)
            if entry is None:
                raise GameFormatError(f"payoff missing at state {sname!r}, profile {key!r}")
            if len(entry) != n_players:
                raise GameFormatError(
                    f"payoff at ({sname!r}, {key!r}) has {len(entry)} entries, expected {n_players}"
                )
            payoffs[s, a] = [float(v) for v in entry]
        # Unspecified transition entries are zero; validation reports bad mass.
        s_tr = tr_doc.get(sname, {})
        for key, a in key_index.items():
            for tname, p in s_tr.get(key, {}).items():
                t = state_index.get(tname)
                if t is None:
                    raise GameFormatError(
                        f"transition at ({sname!r}, {key!r}) names unknown state {tname!r}"
                    )
                transitions[s, a, t] = float(p)

    return StochasticGame(
        state_names=state_names,
        action_names=action_names,
        payoffs=payoffs,
        transitions=transitions,
        payoff_bound=float(doc.get("payoff_bound", 1.0)),
        name=str(doc.get("name", "")),
    )


def load_game(path) -> StochasticGame:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise GameFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GameFormatError(f"{path} is not valid JSON: {exc}") from exc
    return game_from_dict(doc)


def save_game(game: StochasticGame, path) -> None:
    from ._util import dump_json

    dump_json(game_to_dict(game), path)
