import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from oracles import random_mdp
from stogame.generators import acceptance_suite, sorin_game
from stogame.minmax import default_schedule
from stogame.pipeline import run_pipeline


@pytest.fixture(scope="session")
def sorin():
    return sorin_game()


@pytest.fixture(scope="session")
def sorin_result():
    return run_pipeline(sorin_game(), eps=0.05)


@pytest.fixture(scope="session")
def suite_results():
    """Full pipeline over the fixed acceptance suite (shared by several
    acceptance criteria).  Returns (elapsed seconds, [(game, result), ...])."""
    import time

    schedule = default_schedule(24)
    start = time.monotonic()
    results = [(g, run_pipeline(g, eps=0.05, schedule=schedule))
               for g in acceptance_suite()]
    return time.monotonic() - start, results


@pytest.fixture(scope="session")
def mdp_results():
    """Pipeline over 20 random single-player games."""
    schedule = default_schedule(24)
    games = [random_mdp(5000 + k) for k in range(20)]
    return [(g, run_pipeline(g, eps=0.05, schedule=schedule)) for g in games]
