"""Bundled games and seeded random game families.

The acceptance families are small two-player games with three structural
flavors:

* dense: every transition has full support, so the whole state space is one
  communicating set sustained from inside;
* soft absorbing: a low-payoff core each player can leave unilaterally toward
  absorbing states whose payoffs sit in a narrow band, so core states are
  departing sets (or transient) and absorbing states are trivially
  sustainable;
* layered: transient states that always fall into a dense block.

All generators are deterministic given their seed.
"""

from __future__ import annotations

import numpy as np

from .game import StochasticGame

# Largest offset of an absorbing payoff from its game's common anchor in the
# soft-absorbing and banded-exit families.
BAND = 0.03


def _dirichlet_floor(rng, size: int, floor: float = 0.08) -> np.ndarray:
    row = rng.dirichlet(np.ones(size))
    row = (1.0 - floor * size) * row + floor
    return row / row.sum()


def sorin_game() -> StochasticGame:
    """Two-player absorbing game with one nonabsorbing state: quitting play
    absorbs at payoff (0,1) or (2,0), staying pays (1,0) or (0,1)."""
    names = ("s0", "abs_0_1", "abs_2_0")
    payoffs = np.zeros((3, 4, 2))
    payoffs[0] = [(1, 0), (0, 1), (0, 1), (2, 0)]
    payoffs[1] = [(0, 1)] * 4
    payoffs[2] = [(2, 0)] * 4
    transitions = np.zeros((3, 4, 3))
    transitions[0, 0, 0] = 1.0   # (T, L) stays
    transitions[0, 1, 0] = 1.0   # (T, R) stays
    transitions[0, 2, 1] = 1.0   # (B, L) absorbs at (0, 1)
    transitions[0, 3, 2] = 1.0   # (B, R) absorbs at (2, 0)
    transitions[1, :, 1] = 1.0
    transitions[2, :, 2] = 1.0
    return StochasticGame(
        state_names=names,
        action_names=(("T", "B"), ("L", "R")),
        payoffs=payoffs,
        transitions=transitions,
        payoff_bound=2.0,
        name="sorin",
    )


def random_dense_game(seed: int, n_states: int | None = None,
                      n_actions: int = 2) -> StochasticGame:
    """Two players with n_actions each, uniform payoffs in [-1, 1] and
    full-support transitions."""
    rng = np.random.default_rng(seed)
    n_states = int(rng.integers(2, 6)) if n_states is None else n_states
    n_profiles = n_actions * n_actions
    payoffs = rng.uniform(-1.0, 1.0, size=(n_states, n_profiles, 2))
    transitions = np.zeros((n_states, n_profiles, n_states))
    for s in range(n_states):
        for a in range(n_profiles):
            transitions[s, a] = _dirichlet_floor(rng, n_states)
    return StochasticGame(
        state_names=tuple(f"s{k}" for k in range(n_states)),
        action_names=tuple(tuple(f"a{j}" for j in range(n_actions)) for _ in range(2)),
        payoffs=payoffs,
        transitions=transitions,
        name=f"dense-{seed}",
    )


def random_soft_absorbing_game(seed: int) -> StochasticGame:
    """Core states with low flow payoffs; either player's second action quits
    toward absorbing states whose payoffs lie within BAND of a common
    anchor."""
    rng = np.random.default_rng(seed)
    n_core = int(rng.integers(1, 3))
    n_abs = int(rng.integers(2, 4))
    n_states = n_core + n_abs
    anchor = float(rng.uniform(-0.4, 0.4))
    n_profiles = 4
    payoffs = np.zeros((n_states, n_profiles, 2))
    transitions = np.zeros((n_states, n_profiles, n_states))
    abs_states = list(range(n_core, n_states))
    for k, s in enumerate(abs_states):
        vec = anchor + rng.uniform(-BAND, BAND, size=2)
        payoffs[s, :, :] = vec
        transitions[s, :, s] = 1.0
    for s in range(n_core):
        for a in range(n_profiles):
            payoffs[s, a] = rng.uniform(-1.0, anchor - 0.15, size=2)
        # Profile 0 = both players' first action: stay within the core.
        if n_core == 1:
            transitions[s, 0, s] = 1.0
        else:
            transitions[s, 0, :n_core] = _dirichlet_floor(rng, n_core)
        # Any quit action absorbs; destinations drawn over absorbing states.
        for a in (1, 2, 3):
            dest = rng.dirichlet(np.ones(n_abs))
            for k, t in enumerate(abs_states):
                transitions[s, a, t] = dest[k]
    names = tuple(f"c{k}" for k in range(n_core)) + tuple(
        f"end{k}" for k in range(n_abs))
    return StochasticGame(
        state_names=names,
        action_names=(("stay", "quit"), ("stay", "quit")),
        payoffs=payoffs,
        transitions=transitions,
        name=f"soft-absorbing-{seed}",
    )


def random_banded_exit_game(seed: int) -> StochasticGame:
    """Quitting-dilemma cores whose absorbing payoffs sit in a narrow band.

    Each core state reproduces the stay/quit tension: both players' staying
    flows are asymmetric (good for one, clearly bad for the other), so no
    staying mixture sustains both values, while the two absorbing exits
    (each triggered by the row player, each favoring a different player)
    support a value-preserving departure mixture.  With one core state the
    core is a departing singleton; with two (exactly symmetric) core states
    it is a two-state departing set that needs travel.
    """
    rng = np.random.default_rng(seed)
    base = float(rng.uniform(-0.4, 0.4))
    two_core = bool(rng.random() < 0.5)
    swap = bool(rng.random() < 0.5)
    small = lambda: float(rng.uniform(0.012, BAND))
    large = lambda: float(rng.uniform(0.12, 0.2))
    x1, y2, u1, u2, w1, w2 = (small() for _ in range(6))
    x2, y1 = large(), large()
    # Profiles flat order: (stay,stay), (stay,quit'), (quit,stay'), (quit,quit')
    # Flow rows favor one player each; quit rows absorb in the band.
    flow_tl = np.array([base + x1, base - y1])
    flow_tr = np.array([base - x2, base + y2])
    end_1 = np.array([base - u1, base + u2])   # reached by (quit, stay')
    end_2 = np.array([base + w1, base - w2])   # reached by (quit, quit')
    if swap:
        flow_tl, flow_tr = flow_tl[::-1], flow_tr[::-1]
        end_1, end_2 = end_1[::-1], end_2[::-1]

    n_core = 2 if two_core else 1
    n_states = n_core + 2
    payoffs = np.zeros((n_states, 4, 2))
    transitions = np.zeros((n_states, 4, n_states))
    e1, e2 = n_core, n_core + 1
    for s in range(n_core):
        payoffs[s, 0] = flow_tl
        payoffs[s, 1] = flow_tr
        payoffs[s, 2] = end_1
        payoffs[s, 3] = end_2
        transitions[s, 2, e1] = 1.0
        transitions[s, 3, e2] = 1.0
    if two_core:
        # Swap-invariant staying moves so both cores share the same value.
        for a in (0, 1):
            m = float(rng.uniform(0.2, 0.8))
            transitions[0, a, 0] = 1.0 - m
            transitions[0, a, 1] = m
            transitions[1, a, 1] = 1.0 - m
            transitions[1, a, 0] = m
    else:
        transitions[0, 0, 0] = 1.0
        transitions[0, 1, 0] = 1.0
    payoffs[e1, :, :] = end_1
    payoffs[e2, :, :] = end_2
    transitions[e1, :, e1] = 1.0
    transitions[e2, :, e2] = 1.0
    return StochasticGame(
        state_names=tuple(f"c{k}" for k in range(n_core)) + ("end1", "end2"),
        action_names=(("stay", "quit"), ("left", "right")),
        payoffs=payoffs,
        transitions=transitions,
        name=f"banded-exit-{seed}",
    )


def random_layered_game(seed: int) -> StochasticGame:
    """One or two upstream states that always fall into a dense block."""
    rng = np.random.default_rng(seed)
    n_top = int(rng.integers(1, 3))
    n_block = int(rng.integers(2, 4))
    n_states = n_top + n_block
    n_profiles = 4
    payoffs = rng.uniform(-1.0, 1.0, size=(n_states, n_profiles, 2))
    transitions = np.zeros((n_states, n_profiles, n_states))
    block = list(range(n_top, n_states))
    for s in range(n_top):
        for a in range(n_profiles):
            dest = _dirichlet_floor(rng, n_block)
            for k, t in enumerate(block):
                transitions[s, a, t] = dest[k]
    for s in block:
        for a in range(n_profiles):
            dest = _dirichlet_floor(rng, n_block)
            for k, t in enumerate(block):
                transitions[s, a, t] = dest[k]
    return StochasticGame(
        state_names=tuple(f"t{k}" for k in range(n_top)) + tuple(
            f"b{k}" for k in range(n_block)),
        action_names=(("a0", "a1"), ("a0", "a1")),
        payoffs=payoffs,
        transitions=transitions,
        name=f"layered-{seed}",
    )


def mdp3_game() -> StochasticGame:
    """Deterministic 3-state, 2-action single-player game: a small chain with
    one rewarding cycle."""
    payoffs = np.zeros((3, 2, 1))
    payoffs[0] = [[0.1], [0.0]]
    payoffs[1] = [[0.4], [-0.2]]
    payoffs[2] = [[0.8], [0.3]]
    transitions = np.zeros((3, 2, 3))
    transitions[0, 0] = [0.5, 0.5, 0.0]
    transitions[0, 1] = [0.0, 0.0, 1.0]
    transitions[1, 0] = [0.0, 0.2, 0.8]
    transitions[1, 1] = [1.0, 0.0, 0.0]
    transitions[2, 0] = [0.0, 0.3, 0.7]
    transitions[2, 1] = [0.0, 1.0, 0.0]
    return StochasticGame(
        state_names=("low", "mid", "high"),
        action_names=(("work", "rest"),),
        payoffs=payoffs,
        transitions=transitions,
        name="mdp3",
    )


def three_player_game() -> StochasticGame:
    """Small three-player dense game; the coalition adversary caveat applies
    and is surfaced in reports."""
    rng = np.random.default_rng(20240311)
    n_states, n_profiles = 2, 8
    payoffs = rng.uniform(-1.0, 1.0, size=(n_states, n_profiles, 3))
    transitions = np.zeros((n_states, n_profiles, n_states))
    for s in range(n_states):
        for a in range(n_profiles):
            transitions[s, a] = _dirichlet_floor(rng, n_states, floor=0.2)
    return StochasticGame(
        state_names=("x", "y"),
        action_names=(("a0", "a1"), ("b0", "b1"), ("c0", "c1")),
        payoffs=payoffs,
        transitions=transitions,
        name="three-player",
    )


def acceptance_suite() -> list:
    """The fixed two-player suite: >= 50 games, up to 5 states, 2 actions."""
    games = []
    for k in range(20):
        games.append(random_dense_game(1000 + k, n_states=2 + k % 4))
    for k in range(10):
        games.append(random_soft_absorbing_game(2000 + k))
    for k in range(10):
        games.append(random_banded_exit_game(4000 + k))
    for k in range(12):
        games.append(random_layered_game(3000 + k))
    return games


BUNDLED = {
    "sorin": sorin_game,
    "mdp3": mdp3_game,
    "random2p_a": lambda: random_dense_game(11, n_states=3),
    "random2p_b": lambda: random_soft_absorbing_game(2003),
    "three_player": three_player_game,
}


def bundled_game(name: str) -> StochasticGame:
    try:
        return BUNDLED[name]()
    except KeyError:
        raise KeyError(f"unknown bundled game {name!r}; have {sorted(BUNDLED)}")
