import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    auxiliary_game,
    check_value_inequality,
    equilibria_oracle,
    pure_equilibria_oracle,
    support_enumeration_oracle,
)
from stogame._util import json_ready
from stogame.game import StochasticGame
from stogame.generators import mdp3_game, random_dense_game, sorin_game, three_player_game
from stogame.minmax import default_schedule, solve_uniform_minmax
from stogame.oneshot import (
    EXACT_EQ_TOL,
    AuxiliaryGame,
    _equilibrium_sets,
    _two_player_items,
    continuation_values,
    enumerate_all_states,
    profile_value,
    regret,
)


def _one_game(aux):
    """`aux`'s EquilibriumSet from the stacked stage, as a one-game stack."""
    return _equilibrium_sets(aux.table[None], aux.action_counts)[0]


@pytest.fixture(scope="module")
def sorin_v1():
    g = sorin_game()
    return g, solve_uniform_minmax(g).uniform_values


def test_absorbing_state_table_is_constant(sorin_v1):
    g, v1 = sorin_v1
    aux = auxiliary_game(g, 1, v1)
    np.testing.assert_allclose(aux.table, np.tile([0.0, 1.0], (4, 1)), atol=1e-9)


def test_deterministic_transition_copies_value(sorin_v1):
    g, v1 = sorin_v1
    aux = auxiliary_game(g, 0, v1)
    # (B, R) moves surely to the (2,0) absorbing state
    np.testing.assert_allclose(aux.table[3], v1[2], atol=1e-9)
    np.testing.assert_allclose(aux.table[3], [2.0, 0.0], atol=1e-9)


def test_continuation_values_match_aux_tables(suite_results):
    # u* is one product for the one-shot stage, the exit prices and the
    # verifiers: each state's slice has the bits of its own table.
    for g, res in suite_results[1]:
        u_star = continuation_values(g, res.v1)
        for s in range(g.n_states):
            np.testing.assert_array_equal(u_star[s], auxiliary_game(g, s, res.v1).table)


def test_dominant_strategy_game_unique_pure():
    table = np.array([[3, 3], [1, 2], [2, 1], [0, 0]], dtype=float)
    aux = AuxiliaryGame(0, table, (2, 2))
    eqs = _one_game(aux)
    assert len(eqs.equilibria) == 1
    np.testing.assert_allclose(eqs.equilibria[0].mixes[0], [1, 0])
    np.testing.assert_allclose(eqs.equilibria[0].mixes[1], [1, 0])


def test_matching_pennies_mixed_equilibrium():
    table = np.array([[1, -1], [-1, 1], [-1, 1], [1, -1]], dtype=float)
    aux = AuxiliaryGame(0, table, (2, 2))
    eqs = _one_game(aux)
    assert len(eqs.equilibria) == 1
    for m in eqs.equilibria[0].mixes:
        np.testing.assert_allclose(m, [0.5, 0.5], atol=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_random_2x2_equilibria_match_grid_scan(seed):
    rng = np.random.default_rng(seed)
    table = rng.uniform(-1, 1, size=(4, 2))
    aux = AuxiliaryGame(0, table, (2, 2))
    eqs = _one_game(aux)
    assert eqs.equilibria, "two-player enumeration must find an equilibrium"
    # Every reported equilibrium has grid-verified regret.
    for eq in eqs.equilibria:
        assert regret(aux, eq.mixes) <= 1e-8
    # Grid scan: every near-equilibrium grid point is close to a reported one
    # in payoff-regret terms, and best grid regret is tiny.
    grid = np.linspace(0, 1, 1001)
    best = np.inf
    for p in grid:
        x = np.array([p, 1 - p])
        tensor = aux.tensor()
        # player 2 best response set given x, then player 1 regret at (x, br)
        u2 = x @ tensor[..., 1]
        for j in (0, 1):
            if u2[j] < u2.max() - 1e-12:
                continue
            y = np.zeros(2)
            y[j] = 1.0
            best = min(best, regret(aux, (x, y)))
    found_pure_or_best = min(best, min(regret(aux, eq.mixes) for eq in eqs.equilibria))
    assert found_pure_or_best <= 1e-3


def test_equilibrium_regret_bound_under_tol():
    g = random_dense_game(9, n_states=3)
    v1 = solve_uniform_minmax(g).uniform_values
    for eq_set in enumerate_all_states(g, continuation_values(g, v1)):
        assert eq_set.equilibria
        for eq in eq_set.equilibria:
            aux = auxiliary_game(g, eq_set.state, v1)
            bound = 1e-9 if eq.exact else 1e-6
            assert regret(aux, eq.mixes) <= bound + 1e-12


def test_value_inequality_absorbing_margin_zero(sorin_v1):
    g, v1 = sorin_v1
    aux = auxiliary_game(g, 1, v1)
    eqs = _one_game(aux)
    ok, margins = check_value_inequality(aux, eqs.equilibria[0].mixes, v1)
    assert ok
    np.testing.assert_allclose(margins, [0, 0], atol=1e-9)


def test_value_inequality_over_random_game():
    g = random_dense_game(23, n_states=4)
    v1 = solve_uniform_minmax(g).uniform_values
    for eq_set in enumerate_all_states(g, continuation_values(g, v1)):
        aux = auxiliary_game(g, eq_set.state, v1)
        for eq in eq_set.equilibria:
            ok, margins = check_value_inequality(aux, eq.mixes, v1)
            assert ok, f"margin {margins} below tolerance at state {eq_set.state}"
            assert np.all(margins >= -1e-6)


def test_value_inequality_flags_crafted_violation(sorin_v1):
    g, v1 = sorin_v1
    aux = auxiliary_game(g, 0, v1)
    # (B, L) drops player 1 to 0, far below 2/3.
    bad = (np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    ok, margins = check_value_inequality(aux, bad, v1)
    assert not ok
    assert margins[0] < -0.5


def test_sorin_equilibria_stay_home(sorin_v1):
    g, v1 = sorin_v1
    aux = auxiliary_game(g, 0, v1)
    eqs = _one_game(aux)
    assert eqs.equilibria
    for eq in eqs.equilibria:
        row = eq.correlated_row()
        # all staying mass: no weight on the quitting row
        assert row[2] == pytest.approx(0.0, abs=1e-9)
        assert row[3] == pytest.approx(0.0, abs=1e-9)


def test_three_player_path_reports_rather_than_fabricates():
    g = three_player_game()
    v1 = solve_uniform_minmax(g, schedule=default_schedule(8)).uniform_values
    aux = auxiliary_game(g, 0, v1)
    eqs = _one_game(aux)
    for eq in eqs.equilibria:
        bound = 1e-9 if eq.exact else 1e-6
        assert regret(aux, eq.mixes) <= bound + 1e-12


def test_profile_value_is_multilinear():
    rng = np.random.default_rng(4)
    table = rng.uniform(-1, 1, size=(4, 2))
    aux = AuxiliaryGame(0, table, (2, 2))
    x = rng.dirichlet(np.ones(2))
    y = rng.dirichlet(np.ones(2))
    direct = sum(x[i] * y[j] * table[2 * i + j] for i in range(2) for j in range(2))
    np.testing.assert_allclose(profile_value(aux, (x, y)), direct, atol=1e-12)


def _assert_same_equilibria(aux):
    """The stacked enumeration lists exactly the pure scan's and then the
    per-pair support enumeration's equilibria, in the same order, with the
    regrets `regret` gives them, bit for bit.  Returns the number of mixed
    ones."""
    got = _two_player_items(aux.table[None], aux.action_counts)[0]
    mixed = support_enumeration_oracle(aux, EXACT_EQ_TOL)
    want = pure_equilibria_oracle(aux, EXACT_EQ_TOL) + mixed
    assert len(got) == len(want)
    for eq, ref in zip(got, want):
        assert all(np.array_equal(a, b) for a, b in zip(eq.mixes, ref))
        assert eq.regret == regret(aux, ref)
    return len(mixed)


def _bimatrix(kind, table):
    """A (m, n, 2) payoff tensor with some rows or columns repeated, so that
    kernels of size >= 2 are exactly singular."""
    m, n, _ = table.shape
    if kind == "duplicate rows":
        return table[np.arange(m) // 2]
    if kind == "duplicate columns":
        return table[:, np.arange(n) // 2]
    if kind == "duplicate both":
        return table[np.arange(m) // 2][:, np.arange(n) // 2]
    return table


_bimatrix_games = st.tuples(st.integers(2, 4), st.integers(2, 4)).flatmap(
    lambda shape: st.builds(
        _bimatrix,
        st.sampled_from(["random", "duplicate rows", "duplicate columns", "duplicate both"]),
        arrays(np.float64, shape + (2,), elements=st.floats(-1, 1, allow_subnormal=False))
        | arrays(np.float64, shape + (2,), elements=st.sampled_from([-1.0, 0.0, 0.5, 1.0]))))


def _zero_sum(A):
    A = np.asarray(A, dtype=float)
    return np.stack([A, -A], axis=-1)


def _underflowing_kernels():
    """A 3x3 game with kernels whose bordered systems are regular but whose
    determinants underflow to 0, found by hypothesis: a determinant test
    drops one of its five equilibria."""
    tensor = np.zeros((3, 3, 2))
    tensor[0, 0] = [4e-223, 1.0]
    tensor[1, 0, 0] = 7e-187
    tensor[2, 1, 1] = 1.0
    return tensor


# Draws rarely have an equilibrium on a kernel larger than 2x2; these games
# have one fully mixed equilibrium each (matching and rock-paper-scissors).
@settings(max_examples=200, deadline=None)
@given(_bimatrix_games)
@example(_zero_sum(np.eye(3)))
@example(_zero_sum(np.diag([1.0, 0.5, 0.25, 0.125])))
@example(_zero_sum([[0, -1, 1], [1, 0, -1], [-1, 1, 0]]))
@example(_underflowing_kernels())
def test_support_enumeration_matches_the_per_pair_solve(tensor):
    m, n, _ = tensor.shape
    _assert_same_equilibria(AuxiliaryGame(0, tensor.reshape(m * n, 2), (m, n)))


def test_workload_equilibria_match_the_per_pair_solve(suite_results):
    """Every auxiliary game of the acceptance suite (2x2) at its pipeline
    values, and of the two wide dense games (3x3 and 4x4) at the values of
    an 8-point schedule, which costs a third of the pipeline's 24."""
    games = [(g, res.v1) for g, res in suite_results[1]]
    for g in (random_dense_game(6003, n_states=4, n_actions=3),
              random_dense_game(6004, n_states=3, n_actions=4)):
        report = solve_uniform_minmax(g, schedule=default_schedule(8))
        games.append((g, report.uniform_values))
    found = 0
    for g, v1 in games:
        for s in range(g.n_states):
            found += _assert_same_equilibria(auxiliary_game(g, s, v1))
    assert found


@st.composite
def _table_stacks(draw, shapes):
    """A stack of 1-5 tables of one action-count shape drawn from `shapes`.
    A game is random, drawn from a few levels (exact ties), or flat: every
    entry of a player equal, so that every profile is a pure equilibrium
    and, for two players, every bordered system of size >= 2 is singular."""
    counts = draw(st.sampled_from(shapes))
    n_profiles, n_players = int(np.prod(counts)), len(counts)
    tables = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["random", "levels", "flat"]))
        if kind == "flat":
            level = draw(st.lists(st.floats(-1, 1, allow_subnormal=False), min_size=n_players,
                                  max_size=n_players))
            tables.append(np.tile(level, (n_profiles, 1)))
            continue
        elements = (st.floats(-1, 1, allow_subnormal=False) if kind == "random"
                    else st.sampled_from([-1.0, 0.0, 0.5, 1.0]))
        tables.append(draw(arrays(np.float64, (n_profiles, n_players), elements=elements)))
    return np.stack(tables), counts


def _knife_edge_pure():
    """A 2x2 game whose profile (0, 0) passes the pure scan, its column's
    best 0.27392337564290864 within a + EXACT_EQ_TOL of a =
    0.2739233746429086 once rounded, while its regret, the rounded
    difference, reads 1.0000000272e-9 > EXACT_EQ_TOL: a pure equilibrium is
    kept whatever its regret reads."""
    a = 0.2739233746429086
    table = np.zeros((4, 2))
    table[[0, 2], 0] = [a, a + EXACT_EQ_TOL]
    return table[None], (2, 2)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_table_stacks([(2, 2), (2, 3), (3, 3)]))
@example(_knife_edge_pure())
def test_stacked_stage_matches_the_per_state_enumeration(case):
    # One stacked pass over every game against each game's own pure scan,
    # support pairs and regrets: the same JSON, bit for bit.
    tables, counts = case
    got = _equilibrium_sets(tables, counts)
    want = [equilibria_oracle(AuxiliaryGame(s, t, counts), EXACT_EQ_TOL)
            for s, t in enumerate(tables)]
    assert json.dumps(json_ready(got)) == json.dumps(json_ready(want))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(_table_stacks([(2,), (3,), (2, 2, 2), (3, 2, 2)]))
def test_stacked_pure_stage_matches_the_per_state_enumeration(case):
    # One player, or three: one pure scan over the stack and each regret on
    # its own table, against each game's own scan, bit for bit.
    tables, counts = case
    got = _equilibrium_sets(tables, counts)
    want = [equilibria_oracle(AuxiliaryGame(s, t, counts), EXACT_EQ_TOL)
            for s, t in enumerate(tables)]
    assert json.dumps(json_ready(got)) == json.dumps(json_ready(want))


@pytest.mark.parametrize("make", [three_player_game, mdp3_game])
def test_bundled_stage_of_one_or_three_players_matches_the_per_state_enumeration(make):
    g = make()
    v1 = solve_uniform_minmax(g, schedule=default_schedule(8)).uniform_values
    got = enumerate_all_states(g, continuation_values(g, v1))
    want = [equilibria_oracle(auxiliary_game(g, s, v1), EXACT_EQ_TOL)
            for s in range(g.n_states)]
    assert json.dumps(json_ready(got)) == json.dumps(json_ready(want))


def test_workload_stage_matches_the_per_state_enumeration(suite_results):
    """`enumerate_all_states` on the acceptance suite at its pipeline values,
    and on a 2x3 and a 3x3 dense game, against the per-state reference on
    each state's own table (`auxiliary_game`)."""
    games = [(g, res.v1) for g, res in suite_results[1]]
    for g in (random_dense_game(6003, n_states=4, n_actions=3),
              _two_by_three(random_dense_game(6005, n_states=3, n_actions=3))):
        games.append((g, solve_uniform_minmax(g, schedule=default_schedule(8)).uniform_values))
    for g, v1 in games:
        got = enumerate_all_states(g, continuation_values(g, v1))
        want = [equilibria_oracle(auxiliary_game(g, s, v1), EXACT_EQ_TOL)
                for s in range(g.n_states)]
        assert json.dumps(json_ready(got)) == json.dumps(json_ready(want)), g.name


def _two_by_three(game):
    """`game`, a two-player 3x3 game, with the row player's last action
    removed."""
    keep = [a for a in range(game.n_profiles) if a // 3 < 2]
    return StochasticGame(game.state_names, (game.action_names[0][:2], game.action_names[1]),
                          game.payoffs[:, keep].copy(), game.transitions[:, keep].copy(),
                          game.payoff_bound, game.name + "-2x3")
