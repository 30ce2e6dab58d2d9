"""The benchmark's workloads: named, seeded lists of games.

Every workload is a closed loop in one process: the harness hands
`run_pipeline` one game at a time and gives the next only after the previous
call returns.  All games come from the public generators in
`stogame.generators`; the benchmark seed only shifts the generator seeds, so
the same seed always gives the same games.

Why each workload exists:

* suite52 - the fixed 52-game acceptance suite (2 players, up to 5 states,
  2x2).  Desk-scale traffic and the gate of every change.  Min-max on the
  2x2 closed-form path dominates; classification of the 5-state dense games
  forms the latency tail.
* dense-ladder - dense 2x2 two-player games from 4 to 20 states.
  Classification's pure-profile enumeration dominates up to 8 states; from
  10 states its guard trips and the game fails; the decomposition's subset
  scan shows at 12 states.  Min-max is a small share, so a min-max change
  should not move this workload.
* wide-actions - a dense 3x3 game at 4 states, a dense 4x4 game at 3 states
  and the bundled three-player game.  Min-max takes the LP path of
  `solve_matrix_game` and the three-player game runs best-response dynamics,
  so a change that speeds the 2x2 closed form but slows the LP path shows.
  About a third of its 3x3 and 4x4 games raise the LP duality-gap RuntimeError,
  and which ones depends on the seed, so its verified share and timings
  swing between seeds by more than any bound `BENCHMARK.json` allows.  It
  runs on request and is not among the workloads listed there.
"""

from __future__ import annotations

from stogame.generators import (
    random_banded_exit_game,
    random_dense_game,
    random_layered_game,
    random_soft_absorbing_game,
    three_player_game,
)
from stogame.minmax import default_schedule

EPS = 0.05
SCHEDULE_DEPTH = 24
# Generator seeds of successive benchmark seeds lie this far apart, so that
# no two benchmark seeds share a game.
SEED_STRIDE = 10_000
LADDER_STATES = (4, 6, 7, 8, 10, 12, 16, 20)
# Passes per run; with tracing, every second pass is traced.  A pass of
# suite52 takes 4.5-9 s and one of dense-ladder 15-30 s on a 2-vCPU x86
# host, so a run takes about a minute.
PASSES = {"suite52": 6, "dense-ladder": 2, "wide-actions": 4}


def schedule() -> list:
    return default_schedule(SCHEDULE_DEPTH)


def suite52(seed: int) -> list:
    """The acceptance suite's family mix with generator seeds shifted by the
    benchmark seed: 20 dense, 10 soft-absorbing, 10 banded-exit and 12
    layered games.  Seed 0 gives exactly `acceptance_suite()`."""
    off = SEED_STRIDE * seed
    games = [random_dense_game(off + 1000 + k, n_states=2 + k % 4) for k in range(20)]
    games += [random_soft_absorbing_game(off + 2000 + k) for k in range(10)]
    games += [random_banded_exit_game(off + 4000 + k) for k in range(10)]
    games += [random_layered_game(off + 3000 + k) for k in range(12)]
    return games


def dense_ladder(seed: int) -> list:
    off = SEED_STRIDE * seed
    return [random_dense_game(off + 5000 + n, n_states=n) for n in LADDER_STATES]


def wide_actions(seed: int) -> list:
    off = SEED_STRIDE * seed
    return [
        random_dense_game(off + 6003, n_states=4, n_actions=3),
        random_dense_game(off + 6004, n_states=3, n_actions=4),
        three_player_game(),
    ]


WORKLOADS = {
    "suite52": suite52,
    "dense-ladder": dense_ladder,
    "wide-actions": wide_actions,
}
