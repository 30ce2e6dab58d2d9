import numpy as np
import pytest

from oracles import (
    discounted_payoff_stationary,
    node_frequency,
    player_views,
    sample_play_joint,
    sample_play_per_player,
)
from stogame.automata import discounted_value, reachable_nodes, stationary_automaton
from stogame.builder import assemble_profile, classify_set
from stogame.game import StationaryProfile, pure_profile
from stogame.generators import random_banded_exit_game, sorin_game
from stogame.minmax import solve_uniform_minmax
from stogame.oneshot import continuation_values, enumerate_all_states
from stogame.structure import decompose
from stogame.verify import product_chain


@pytest.fixture(scope="module")
def sorin_profile():
    g = sorin_game()
    v1 = solve_uniform_minmax(g).uniform_values
    eq_sets = enumerate_all_states(g, v1)
    d = decompose(g, eq_sets, v1)
    u_star = continuation_values(g, v1)
    cls = [classify_set(g, c, 0.05, u_star) for c in d.sets]
    return g, assemble_profile(g, d, cls, 0.05)


def test_stationary_wrapper_matches_direct_solve(sorin):
    prof = StationaryProfile((np.tile([1.0, 0.0], (3, 1)),
                              np.tile([2 / 3, 1 / 3], (3, 1))))
    aut = stationary_automaton(sorin, prof)
    model = product_chain(sorin, aut)
    for lam in (0.5, 0.99):
        got = discounted_value(model, lam)[model.node_of(0)]
        want = discounted_payoff_stationary(sorin, prof, lam, 0)
        np.testing.assert_allclose(got, want, atol=1e-10)
    assert aut.size == sorin.n_states


def test_limit_value_absorbing(sorin):
    prof = pure_profile(sorin, [(1, 0)] * 3)
    model = product_chain(sorin, prof)
    np.testing.assert_allclose(model.limit[model.node_of(0)], [0, 1],
                               atol=1e-12)


def test_node_frequency_sums_to_one(sorin_profile):
    g, prof = sorin_profile
    model = product_chain(g, prof)
    rho = node_frequency(model, model.node_of(0))
    assert rho.sum() == pytest.approx(1.0, abs=1e-9)


def test_reachable_nodes_subset(sorin_profile):
    g, prof = sorin_profile
    model = product_chain(g, prof)
    reach = reachable_nodes(model)
    assert set(reach) <= set(range(model.n_nodes))
    assert model.node_of(0) in reach


def test_joint_and_per_player_paths_identical(sorin_profile):
    g, prof = sorin_profile
    for seed in range(5):
        a = sample_play_joint(g, prof, 0, stages=60, seed=seed)
        b = sample_play_per_player(g, prof, 0, stages=60, seed=seed)
        assert a == b


def test_joint_and_per_player_paths_identical_with_travel():
    g = random_banded_exit_game(4005)   # two-core set: exercises travel
    v1 = solve_uniform_minmax(g).uniform_values
    eq_sets = enumerate_all_states(g, v1)
    d = decompose(g, eq_sets, v1)
    u_star = continuation_values(g, v1)
    cls = [classify_set(g, c, 0.05, u_star) for c in d.sets]
    prof = assemble_profile(g, d, cls, 0.05)
    for seed in range(3):
        a = sample_play_joint(g, prof, 0, stages=80, seed=seed)
        b = sample_play_per_player(g, prof, 0, stages=80, seed=seed)
        assert a == b


def test_machine_serialization_round_trip_shape(sorin_profile):
    g, prof = sorin_profile
    doc = prof.to_dict()
    assert doc["joint"]["size"] == prof.joint.size
    assert set(doc["joint"]["init"]) == {"0", "1", "2"}
    assert len(doc["joint"]["outputs"]) == prof.joint.size
    # transition rows are distributions
    for row in doc["joint"]["transitions"].values():
        total = sum(p for _, p in row)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_player_views_expose_factors(sorin_profile):
    g, prof = sorin_profile
    players = player_views(prof)
    assert len(players) == 2
    for q in range(prof.joint.size):
        row = prof.joint.output_row(q)
        outer = np.outer(players[0].output(q), players[1].output(q)).reshape(-1)
        np.testing.assert_allclose(row, outer, atol=1e-12)
