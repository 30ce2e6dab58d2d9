"""Reproducible Monte Carlo simulation of stationary and automaton strategies.

Simulation runs on the verifiers' product chain of (game state, machine
state) nodes, vectorized across replications.  Randomness is confined to a
per-call seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import StochasticGame
from .verify import product_chain


def default_horizon(lam: float) -> int:
    """Smallest horizon with lam^horizon < 1e-9."""
    if lam <= 0.0:
        return 1
    return max(1, int(math.ceil(math.log(1e-9) / math.log(lam))))


@dataclass(frozen=True)
class SimulationResult:
    mean: np.ndarray
    std_error: np.ndarray
    replications: int
    horizon: int
    seed: int
    state_visits: np.ndarray     # average per-stage visit frequency per state


def simulate(game: StochasticGame, s1: int, strategy, lam: float, seed: int,
             replications: int = 1000) -> SimulationResult:
    """Sampled discounted payoff of a strategy from one initial state.

    The horizon is the first stage where the residual discount weight drops
    below 1e-9, so truncation error is negligible next to the Monte Carlo
    noise.
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"discount factor {lam} outside [0, 1)")
    if replications < 1:
        raise ValueError(f"replications must be at least 1, got {replications}")
    model = product_chain(game, strategy)
    horizon = default_horizon(lam)

    cum_alpha = np.cumsum(model.alpha, axis=1)
    K = model.action_kernel()
    cum_K = np.cumsum(K, axis=2)
    node_state = np.array([s for s, _ in model.nodes])

    rng = np.random.default_rng(seed)
    nodes = np.full(replications, model.node_of(s1), dtype=np.int64)
    total = np.zeros((replications, game.n_players))
    visits = np.zeros(game.n_states)
    weight = 1.0 - lam
    for _ in range(horizon):
        u = rng.random(replications)
        a = np.sum(cum_alpha[nodes] < u[:, None], axis=1)
        np.clip(a, 0, game.n_profiles - 1, out=a)
        states = node_state[nodes]
        np.add.at(visits, states, 1.0)
        total += weight * game.payoffs[states, a]
        u2 = rng.random(replications)
        rows = cum_K[nodes, a]
        nxt = np.sum(rows < u2[:, None], axis=1)
        np.clip(nxt, 0, model.n_nodes - 1, out=nxt)
        nodes = nxt
        weight *= lam
    mean = total.mean(axis=0)
    se = total.std(axis=0, ddof=1) / math.sqrt(replications) if replications > 1 \
        else np.zeros(game.n_players)
    return SimulationResult(mean, se, replications, horizon, seed,
                            visits / (horizon * replications))

