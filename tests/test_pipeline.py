import numpy as np
import pytest

from stogame.game import StochasticGame
from stogame.minmax import default_schedule
from stogame.pipeline import run_pipeline
from test_structure import two_block_game


def test_pipeline_sorin(sorin_result):
    res = sorin_result
    assert res.ok
    summ = res.summary()
    assert summ["kinds"] == ["B", "A", "A"]
    assert summ["profile_acceptable"] and summ["correlated_acceptable"]
    np.testing.assert_allclose(res.v1[0], [2 / 3, 0.5], atol=1e-6)


def test_each_strategy_is_judged_on_one_chain_with_one_limit(sorin, monkeypatch):
    # One chain for the machine profile and one for the correlated table,
    # each with its Cesaro limit solved once, however many checks read it.
    import stogame.automata
    import stogame.verify

    calls = {"chains": 0, "limits": 0}

    def counted(key, original):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(stogame.verify, "build_product_model",
                        counted("chains", stogame.verify.build_product_model))
    monkeypatch.setattr(stogame.automata, "limit_average_values",
                        counted("limits", stogame.automata.limit_average_values))
    res = run_pipeline(sorin, eps=0.05)
    assert res.ok
    assert calls == {"chains": 2, "limits": 2}


def test_pipeline_two_block_game():
    res = run_pipeline(two_block_game(), eps=0.05, schedule=default_schedule(22))
    assert res.ok
    assert [c.states for c in res.decomposition.sets] == [(1, 2), (3, 4, 5)]
    assert res.decomposition.transient == (0,)


def test_pipeline_three_action_game():
    rng = np.random.default_rng(31337)
    n_states, n_profiles = 3, 9
    payoffs = rng.uniform(-1, 1, size=(n_states, n_profiles, 2))
    transitions = np.zeros((n_states, n_profiles, n_states))
    for s in range(n_states):
        for a in range(n_profiles):
            row = rng.dirichlet(np.ones(n_states))
            row = 0.7 * row + 0.1
            transitions[s, a] = row / row.sum()
    game = StochasticGame(("x", "y", "z"), (("a", "b", "c"), ("d", "e", "f")),
                          payoffs, transitions, name="dense-3x3")
    res = run_pipeline(game, eps=0.05, schedule=default_schedule(18))
    assert res.ok
    assert [c.kind for c in res.classifications] == ["A"]


def test_pipeline_rejects_nonpositive_eps(sorin):
    with pytest.raises(ValueError):
        run_pipeline(sorin, eps=0.0)


def test_summary_is_json_ready(sorin_result):
    import json

    json.dumps(sorin_result.summary())


@pytest.mark.parametrize("eps", [0.01, 0.2])
def test_pipeline_eps_sensitivity(eps):
    from stogame.generators import random_banded_exit_game, random_dense_game

    for game in (random_dense_game(1003, n_states=3), random_banded_exit_game(4002)):
        res = run_pipeline(game, eps=eps, schedule=default_schedule(22))
        assert not res.errors, res.errors
        assert res.acceptability.ok
        assert res.correlated_acceptability.ok


@pytest.mark.parametrize("seed, n_states", [(5010, 10), (5012, 12)])
def test_pipeline_dense_games_beyond_enumeration_reach(seed, n_states):
    # 4^10 and 4^12 pure profiles: classification prices recurrent points
    # instead of enumerating them.
    from stogame.generators import random_dense_game

    res = run_pipeline(random_dense_game(seed, n_states=n_states), eps=0.05,
                       schedule=default_schedule(24))
    assert res.ok
    assert [c.kind for c in res.classifications] == ["A"]


def test_pipeline_gives_no_verdict_on_an_invalid_game():
    # A negative transition probability: the product chain of any profile
    # would have rows that are not distributions, so nothing is verified.
    from stogame.generators import random_dense_game

    base = random_dense_game(1003, n_states=3)
    transitions = base.transitions.copy()
    transitions[0, 0] = [1.05, -0.05, 0.0]
    game = StochasticGame(base.state_names, base.action_names, base.payoffs,
                          transitions, name="negative-probability")
    res = run_pipeline(game, eps=0.05, schedule=default_schedule(18))
    assert not res.ok
    assert res.classifications == [] and res.profile is None
    assert len(res.errors) == 1 and res.errors[0].startswith("invalid game: 1 violations")
    assert res.v1.shape == (3, 2)


def test_stalled_minmax_solves_are_warned_not_gated():
    from stogame.generators import random_banded_exit_game

    res = run_pipeline(random_banded_exit_game(4001), eps=0.05, schedule=default_schedule(30))
    assert [sum(c.stalled) for c in res.minmax.curves] == [1, 2]
    assert res.warnings == [
        "player 0: min-max curve has 1 of 30 discounted solves stalled",
        "player 1: min-max curve has 2 of 30 discounted solves stalled",
    ]
    assert res.summary()["warnings"] == res.warnings
    assert res.ok and not res.errors


def test_converged_clean_curves_give_no_warnings(sorin_result):
    assert sorin_result.warnings == []
    assert sorin_result.summary()["warnings"] == []
