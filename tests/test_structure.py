import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    almost_sure_reach_two_pass,
    chain_under,
    communicating_oracle,
    equilibrium_support_chain,
    irreducible_sets,
    leads_in_set,
    leads_oracle,
    maximal_communicating_oracle,
    minimal_closed_sets_of_chain,
    minimal_closed_sets_under_E,
    verify_travel,
)
from stogame._util import DIST_TOL
from stogame.game import StochasticGame, pure_profile
from stogame.generators import random_banded_exit_game, random_dense_game, sorin_game
from stogame.minmax import solve_uniform_minmax
from stogame.oneshot import enumerate_all_states
from stogame.structure import (
    CLOSED_TOL,
    almost_sure_reach,
    decompose,
    maximal_communicating_sets,
    transient_profile,
    transient_reach_probability,
    travel_strategy,
)


def single_action_chain(P):
    """Wrap a transition matrix as a one-player, one-action game."""
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    payoffs = np.zeros((n, 1, 1))
    return StochasticGame(tuple(f"s{k}" for k in range(n)), (("a",),),
                          payoffs, P[:, None, :])


def test_irreducible_identity_chain():
    g = single_action_chain(np.eye(4))
    prof = pure_profile(g, [(0,)] * 4)
    assert [i.states for i in irreducible_sets(g, prof)] == [(0,), (1,), (2,), (3,)]


def test_irreducible_two_cycle():
    g = single_action_chain([[0, 1], [1, 0]])
    prof = pure_profile(g, [(0,)] * 2)
    assert [i.states for i in irreducible_sets(g, prof)] == [(0, 1)]


@pytest.mark.parametrize("seed", range(5))
def test_irreducible_matches_subset_enumeration(seed):
    g = random_dense_game(seed + 300, n_states=5)
    rng = np.random.default_rng(seed)
    actions = [tuple(rng.integers(0, 2, size=2)) for _ in range(5)]
    prof = pure_profile(g, actions)
    P = chain_under(g, prof.correlated_table())
    expected = minimal_closed_sets_of_chain(P)
    got = [i.states for i in irreducible_sets(g, prof)]
    assert sorted(got) == sorted(expected)


def test_leads_trivial_and_cycle():
    g = single_action_chain([[0, 1], [1, 0]])
    ok, travel = leads_in_set(g, {0, 1}, 0, 0)
    assert ok and travel == {}
    ok, _ = leads_in_set(g, {0, 1}, 0, 1)
    assert ok
    ok, _ = leads_in_set(g, {0, 1}, 1, 0)
    assert ok


def test_leads_witness_avoids_risky_action():
    # Four states: 0 can reach 1 safely via action 0, action 1 risks leaving
    # the set {0, 1}.
    payoffs = np.zeros((3, 2, 1))
    transitions = np.zeros((3, 2, 3))
    transitions[0, 0] = [0.5, 0.5, 0.0]
    transitions[0, 1] = [0.0, 0.5, 0.5]
    transitions[1, :] = [[0, 1, 0], [0, 1, 0]]
    transitions[2, :] = [[0, 0, 1], [0, 0, 1]]
    g = StochasticGame(("a", "b", "c"), (("x", "y"),), payoffs, transitions)
    ok, policy = leads_in_set(g, {0, 1}, 0, 1)
    assert ok
    assert policy[0] == 0   # the safe action
    assert leads_oracle(g, [0, 1], 0, 1)


@pytest.mark.parametrize("seed", range(4))
def test_leads_matches_policy_enumeration(seed):
    g = random_banded_exit_game(seed + 4100)
    v1 = solve_uniform_minmax(g).uniform_values
    eq_sets = enumerate_all_states(g, v1)
    n = g.n_states
    for region in ([0], list(range(n))):
        for s in region:
            for t in region:
                mine, _ = leads_in_set(g, region, s, t)
                assert mine == leads_oracle(g, region, s, t)


def test_travel_strategy_reaches_target():
    g = single_action_chain([[0.3, 0.7], [0.6, 0.4]])
    tv = travel_strategy(g, (0, 1), (1,))
    assert verify_travel(g, tv) == pytest.approx(1.0, abs=1e-9)


def test_travel_infeasible_raises():
    g = single_action_chain(np.eye(2))
    with pytest.raises(ValueError):
        travel_strategy(g, (0, 1), (1,))


def test_minimal_closed_sets_all_absorbing(sorin):
    v1 = solve_uniform_minmax(sorin).uniform_values
    eq_sets = enumerate_all_states(sorin, v1)
    assert minimal_closed_sets_under_E(sorin, eq_sets) == [(0,), (1,), (2,)]


@pytest.mark.parametrize("seed", range(4))
def test_minimal_closed_sets_match_support_chain_scan(seed):
    g = random_dense_game(seed + 70, n_states=4)
    v1 = solve_uniform_minmax(g).uniform_values
    eq_sets = enumerate_all_states(g, v1)
    adj = equilibrium_support_chain(g, eq_sets)
    P = np.zeros((4, 4))
    for s, succ in enumerate(adj):
        for t in succ:
            P[s, t] = 1.0 / len(succ)
    assert minimal_closed_sets_under_E(g, eq_sets) == minimal_closed_sets_of_chain(P)


def test_sets_with_different_values_never_merge(sorin):
    v1 = solve_uniform_minmax(sorin).uniform_values
    eq_sets = enumerate_all_states(sorin, v1)
    sets, _ = maximal_communicating_sets(sorin, eq_sets, v1)
    assert [c.states for c in sets] == [(0,), (1,), (2,)]


@pytest.mark.parametrize("seed", [4000, 4003, 4005, 1001, 2002])
def test_maximal_sets_match_brute_force(seed):
    if seed >= 4000:
        g = random_banded_exit_game(seed)
    elif seed >= 2000:
        from stogame.generators import random_soft_absorbing_game

        g = random_soft_absorbing_game(seed)
    else:
        g = random_dense_game(seed, n_states=4)
    v1 = solve_uniform_minmax(g).uniform_values
    eq_sets = enumerate_all_states(g, v1)
    sets, _ = maximal_communicating_sets(g, eq_sets, v1)
    expected = maximal_communicating_oracle(g, eq_sets, v1)
    assert [c.states for c in sets] == list(expected)


def test_decomposition_invariants_on_suite_samples():
    for seed in (1002, 2004, 4001):
        if seed >= 4000:
            g = random_banded_exit_game(seed)
        elif seed >= 2000:
            from stogame.generators import random_soft_absorbing_game

            g = random_soft_absorbing_game(seed)
        else:
            g = random_dense_game(seed, n_states=4)
        v1 = solve_uniform_minmax(g).uniform_values
        eq_sets = enumerate_all_states(g, v1)
        d = decompose(g, eq_sets, v1)
        seen = set()
        for c in d.sets:
            assert communicating_oracle(g, eq_sets, v1, c.states)
            assert not (seen & set(c.states))
            seen |= set(c.states)
        assert d.transient_reach >= 1.0 - 1e-9
        assert set(d.transient) | seen == set(range(g.n_states))


def test_transient_profile_no_transients(sorin):
    v1 = solve_uniform_minmax(sorin).uniform_values
    eq_sets = enumerate_all_states(sorin, v1)
    choice = transient_profile(sorin, eq_sets, (0, 1, 2))
    assert choice == {}


def test_transient_chain_absorbs():
    from stogame.generators import random_layered_game

    g = random_layered_game(3000)
    v1 = solve_uniform_minmax(g).uniform_values
    eq_sets = enumerate_all_states(g, v1)
    d = decompose(g, eq_sets, v1)
    assert d.transient
    assert transient_reach_probability(g, d.transient_profile, d.union) >= 1.0 - 1e-9


def test_transient_induction_stall_reported():
    # Two isolated parts: equilibria at state 0 keep it at 0 (value there is
    # higher), so no equilibrium moves 0 toward state 1's set; the induction
    # covers nothing when the union is artificially restricted to {1}.
    payoffs = np.zeros((2, 1, 1))
    payoffs[0, 0, 0] = 1.0
    transitions = np.zeros((2, 1, 2))
    transitions[0, 0, 0] = 1.0
    transitions[1, 0, 1] = 1.0
    g = StochasticGame(("a", "b"), (("x",),), payoffs, transitions)
    v1 = solve_uniform_minmax(g).uniform_values
    eq_sets = enumerate_all_states(g, v1)
    with pytest.raises(RuntimeError):
        transient_profile(g, eq_sets, (1,))


def test_travel_actions_keep_play_inside():
    g = random_banded_exit_game(4003)   # two-core set
    region = (0, 1)
    tv = travel_strategy(g, region, (1,))
    for s, a in tv.policy.items():
        assert g.transitions[s, a, list(region)].sum() >= 1.0 - 1e-9


def test_two_disjoint_cycles_are_minimal_closed_sets():
    # 4-state single-action chain: 0<->1 and 2<->3.
    P = np.zeros((4, 4))
    P[0, 1] = P[1, 0] = P[2, 3] = P[3, 2] = 1.0
    g = single_action_chain(P)
    v1 = solve_uniform_minmax(g).uniform_values
    eq_sets = enumerate_all_states(g, v1)
    assert minimal_closed_sets_under_E(g, eq_sets) == [(0, 1), (2, 3)]
    prof = pure_profile(g, [(0,)] * 4)
    assert [i.states for i in irreducible_sets(g, prof)] == [(0, 1), (2, 3)]


def two_block_game():
    """Six states: one feeder, a high-payoff 2-cycle block, a low 3-block."""
    n = 6
    payoffs = np.zeros((n, 4, 2))
    transitions = np.zeros((n, 4, n))
    rng = np.random.default_rng(99)
    # feeder 0 splits between the blocks under every profile
    for a in range(4):
        transitions[0, a, 1] = 0.5
        transitions[0, a, 3] = 0.5
        payoffs[0, a] = rng.uniform(-1, 1, 2)
    # block {1, 2}: dense, payoffs near +0.5
    for s in (1, 2):
        for a in range(4):
            transitions[s, a, 1] = 0.5
            transitions[s, a, 2] = 0.5
            payoffs[s, a] = 0.5 + rng.uniform(-0.2, 0.2, 2)
    # block {3, 4, 5}: dense, payoffs near -0.5
    for s in (3, 4, 5):
        for a in range(4):
            for t in (3, 4, 5):
                transitions[s, a, t] = 1.0 / 3.0
            payoffs[s, a] = -0.5 + rng.uniform(-0.2, 0.2, 2)
    return StochasticGame(tuple(f"s{k}" for k in range(n)),
                          (("a0", "a1"), ("b0", "b1")), payoffs, transitions)


def test_six_state_nested_decomposition_matches_brute_force():
    g = two_block_game()
    v1 = solve_uniform_minmax(g).uniform_values
    eq_sets = enumerate_all_states(g, v1)
    d = decompose(g, eq_sets, v1)
    assert [c.states for c in d.sets] == [(1, 2), (3, 4, 5)]
    assert d.transient == (0,)
    expected = maximal_communicating_oracle(g, eq_sets, v1)
    assert [c.states for c in d.sets] == list(expected)
    # the two blocks carry genuinely different values and never merge
    assert abs(d.sets[0].value[0] - d.sets[1].value[0]) > 0.2


def test_decomposition_members_are_plain_ints():
    g = random_dense_game(5016, n_states=16)
    v1 = solve_uniform_minmax(g).uniform_values
    eq_sets = enumerate_all_states(g, v1)
    d = decompose(g, eq_sets, v1)
    assert d.sets
    assert all(type(s) is int for c in d.sets for s in c.states)
    assert all(type(s) is int for c in minimal_closed_sets_under_E(g, eq_sets) for s in c)


def test_value_class_spread_beyond_tolerance_is_noted():
    # A deterministic 3-cycle whose values chain within 1e-4 step by step
    # but spread 1.6e-4 end to end: single linkage keeps one class and the
    # decomposition reports the spread instead of hiding it.
    g = single_action_chain([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    v1 = np.array([[0.0], [0.8e-4], [1.6e-4]])
    eq_sets = enumerate_all_states(g, v1)
    sets, notes = maximal_communicating_sets(g, eq_sets, v1)
    assert [c.states for c in sets] == [(0, 1, 2)]
    assert len(notes) == 1 and "spreads" in notes[0]


@st.composite
def _leaky_games(draw):
    """Games of one to four states with one or two actions per player.  Each
    row puts its mass on one or two states; about half of them also leak a
    mass between DIST_TOL and CLOSED_TOL to some state, which a profile's
    support counts but `safe_profiles` forgives."""
    n = draw(st.integers(1, 4))
    counts = (draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = counts[0] * counts[1]
    transitions = np.zeros((n, A, n))
    for s in range(n):
        for a in range(A):
            support = rng.choice(n, size=min(n, rng.integers(1, 3)), replace=False)
            transitions[s, a, support] = rng.dirichlet(np.ones(len(support)))
            if rng.random() < 0.5:
                leak = 10.0 ** rng.uniform(np.log10(2 * DIST_TOL), np.log10(0.9 * CLOSED_TOL))
                transitions[s, a, transitions[s, a].argmax()] -= leak
                transitions[s, a, rng.integers(n)] += leak
    actions = tuple(tuple(f"a{b}" for b in range(k)) for k in counts)
    return StochasticGame(tuple(f"s{s}" for s in range(n)), actions,
                          np.zeros((n, A, 2)), transitions)


def _subsets(n):
    return [set(c) for k in range(n + 1) for c in itertools.combinations(range(n), k)]


@settings(max_examples=60, deadline=None)
@given(_leaky_games())
def test_one_pass_reach_matches_the_two_pass_reference(game):
    # Every region and every target set: the same reachable states and the
    # same witness, in the same insertion order.
    for region in _subsets(game.n_states)[1:]:
        for targets in _subsets(game.n_states):
            reachable, policy = almost_sure_reach(game, region, targets)
            ref_reachable, ref_policy = almost_sure_reach_two_pass(game, region, targets)
            assert reachable == ref_reachable, (region, targets)
            assert list(policy.items()) == list(ref_policy.items()), (region, targets)


@settings(max_examples=60, deadline=None)
@given(_leaky_games())
def test_successor_table_is_the_support_rule(game):
    for s in range(game.n_states):
        for a in range(game.n_profiles):
            row = game.transitions[s, a]
            pairs = game.successors[s][a]
            assert [t for t, _ in pairs] == np.nonzero(row > DIST_TOL)[0].tolist()
            assert [p for _, p in pairs] == [float(row[t]) for t, _ in pairs]
            assert all(type(t) is int and type(p) is float for t, p in pairs)
