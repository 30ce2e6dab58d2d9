import numpy as np
import pytest

from oracles import optimal_average_values, policy_iteration_oracle, response_mdp_oracle
from stogame.game import StochasticGame
from stogame.generators import (
    acceptance_suite,
    random_banded_exit_game,
    random_dense_game,
    random_mdp,
    sorin_game,
    three_player_game,
)
from stogame.matrixgame import solve_matrix_game
from stogame.minmax import (
    _policy_iteration,
    _response_mdp,
    _response_values,
    _stage_data,
    default_schedule,
    discounted_minmax,
    player_view,
    shapley_operator,
    solve_uniform_minmax,
    uniform_minmax,
)


def test_default_schedule():
    sched = default_schedule()
    assert len(sched) == 20
    assert sched[0] == 0.5
    assert sched[-1] == 1.0 - 2.0**-20
    assert all(a < b for a, b in zip(sched, sched[1:]))


def test_single_player_matches_discounted_mdp_value_iteration():
    g = random_mdp(3, n_states=3)
    lam = 0.9
    v, info = discounted_minmax(g, 0, lam)
    # plain value iteration oracle
    u = g.payoffs[:, :, 0]
    w = np.zeros(g.n_states)
    for _ in range(4000):
        w = np.max((1 - lam) * u + lam * (g.transitions @ w), axis=1)
    np.testing.assert_allclose(v, w, atol=1e-6)


def test_absorbing_state_value_is_its_payoff(sorin):
    for lam in (0.3, 0.9, 0.999):
        v1, _ = discounted_minmax(sorin, 0, lam)
        v2, _ = discounted_minmax(sorin, 1, lam)
        assert v1[1] == pytest.approx(0.0, abs=1e-9)
        assert v1[2] == pytest.approx(2.0, abs=1e-9)
        assert v2[1] == pytest.approx(1.0, abs=1e-9)
        assert v2[2] == pytest.approx(0.0, abs=1e-9)


def test_sorin_values_along_schedule(sorin):
    for lam in (0.5, 0.99, 1 - 2**-20):
        v1, _ = discounted_minmax(sorin, 0, lam)
        v2, _ = discounted_minmax(sorin, 1, lam)
        assert v1[0] == pytest.approx(2 / 3, abs=1e-8)
        assert v2[0] == pytest.approx(1 / 2, abs=1e-8)


def test_sorin_uniform_values(sorin):
    report = solve_uniform_minmax(sorin)
    np.testing.assert_allclose(report.uniform_values[0], [2 / 3, 0.5], atol=1e-9)
    assert all(c.converged for c in report.curves)


def test_state_independent_payoffs_equal_matrix_value():
    # Payoffs identical at both states: the value is the one-shot value at
    # every discount factor.
    rng = np.random.default_rng(8)
    M = rng.uniform(-1, 1, size=(2, 2))
    payoffs = np.zeros((2, 4, 2))
    for a in range(4):
        i, j = divmod(a, 2)
        payoffs[:, a, 0] = M[i, j]
        payoffs[:, a, 1] = -M[i, j]
    transitions = np.zeros((2, 4, 2))
    transitions[:, :, :] = 0.5
    g = StochasticGame(("x", "y"), (("a", "b"), ("c", "d")), payoffs, transitions)
    target = solve_matrix_game(M).value
    for lam in (0.0, 0.5, 0.9):
        v, _ = discounted_minmax(g, 0, lam)
        np.testing.assert_allclose(v, [target, target], atol=1e-8)
    curve = uniform_minmax(g, 0)
    np.testing.assert_allclose(curve.extrapolated, [target, target], atol=1e-8)


def test_uniform_estimate_stable_between_schedule_depths():
    g = random_dense_game(31, n_states=3)
    short = uniform_minmax(g, 0, schedule=default_schedule(18))
    long = uniform_minmax(g, 0, schedule=default_schedule(20))
    assert float(np.max(np.abs(short.extrapolated - long.extrapolated))) <= 1e-4
    assert long.converged


def test_two_player_zero_sum_consistency():
    # In a zero-sum game the two protected-player values are opposite.
    g = random_dense_game(12, n_states=3)
    payoffs = g.payoffs.copy()
    payoffs[:, :, 1] = -payoffs[:, :, 0]
    zs = StochasticGame(g.state_names, g.action_names, payoffs, g.transitions)
    v0, _ = discounted_minmax(zs, 0, 0.95)
    v1, _ = discounted_minmax(zs, 1, 0.95)
    np.testing.assert_allclose(v0, -v1, atol=1e-7)


def test_contraction_and_monotonicity_small():
    g = random_dense_game(5, n_states=3)
    lam = 0.85
    rng = np.random.default_rng(0)
    for _ in range(10):
        v = rng.uniform(-1, 1, 3)
        w = rng.uniform(-1, 1, 3)
        Tv, _, _ = shapley_operator(g, 0, lam, v)
        Tw, _, _ = shapley_operator(g, 0, lam, w)
        assert np.max(np.abs(Tv - Tw)) <= lam * np.max(np.abs(v - w)) + 1e-12
        lo = np.minimum(v, w)
        Tlo, _, _ = shapley_operator(g, 0, lam, lo)
        assert np.all(Tlo <= Tv + 1e-12)
        assert np.all(Tlo <= Tw + 1e-12)


def test_values_within_payoff_bound():
    g = random_dense_game(21, n_states=4)
    for i in range(2):
        v, _ = discounted_minmax(g, i, 0.99)
        assert np.all(np.abs(v) <= 1.0 + 1e-9)


def test_rejects_bad_discount(sorin):
    with pytest.raises(ValueError):
        discounted_minmax(sorin, 0, 1.0)


def test_mdp_uniform_value_matches_average_oracle():
    g = random_mdp(17, n_states=3, n_actions=2)
    curve = uniform_minmax(g, 0, schedule=default_schedule(24))
    oracle = optimal_average_values(g)
    np.testing.assert_allclose(curve.extrapolated, oracle, atol=1e-6)


def test_three_player_mode_flag():
    from stogame.generators import three_player_game

    rep = solve_uniform_minmax(three_player_game(), schedule=default_schedule(8))
    assert "lower bound" in rep.adversary_mode


def test_curve_keeps_solver_facts():
    g = random_banded_exit_game(4001)
    curve = uniform_minmax(g, 0, schedule=default_schedule(30))
    assert len(curve.rounds) == len(curve.certified_gaps) == len(curve.stalled) == 30
    assert all(r >= 1 for r in curve.rounds)
    # Close to discount 1 the gap stops shrinking and the solve is cut short.
    stalled_at = [k for k, flag in enumerate(curve.stalled) if flag]
    assert stalled_at and min(stalled_at) >= 20
    first, mid, last = curve.extrapolation_points
    assert (mid, last) == (first + 1, first + 2) and last <= 29
    doc = curve.to_dict()
    assert [k for k, flag in enumerate(doc["stalled"]) if flag] == stalled_at
    assert doc["extrapolation_points"] == [first, mid, last]


def _assert_batched_stage_matches_per_state(game, rng):
    for i in range(game.n_players):
        view = player_view(game, i)
        for lam in (0.5, 0.99, 1.0 - 2.0**-20):
            U, T = _stage_data(game, view, lam)
            v = rng.uniform(-1.0, 1.0, game.n_states)
            _, rows, cols = shapley_operator(game, i, lam, v, view)
            R_up, P_up = response_mdp_oracle(game, view, lam, cols, fix_rows=False)
            R_lo, P_lo = response_mdp_oracle(game, view, lam, rows, fix_rows=True)
            for got, want in ((_response_mdp(U, T, cols, fix_rows=False), (R_up, P_up)),
                              (_response_mdp(U, T, rows, fix_rows=True), (R_lo, P_lo))):
                assert np.array_equal(got[0], want[0])
                assert np.array_equal(got[1], want[1])
            v_up, v_lo = _response_values(U, T, lam, rows, cols)
            assert np.array_equal(v_up, policy_iteration_oracle(R_up, P_up, lam, maximize=True))
            assert np.array_equal(v_lo, policy_iteration_oracle(R_lo, P_lo, lam, maximize=False))


def test_batched_response_mdps_match_per_state_oracle_on_suite():
    rng = np.random.default_rng(0)
    for game in acceptance_suite():
        _assert_batched_stage_matches_per_state(game, rng)


@pytest.mark.parametrize("game", [
    random_dense_game(6003, n_states=4, n_actions=3),
    random_dense_game(5020, n_states=20),
    three_player_game(),  # own and coalition sides differ in size
], ids=["3x3", "20-state", "three-player"])
def test_batched_response_mdps_match_per_state_oracle(game):
    _assert_batched_stage_matches_per_state(game, np.random.default_rng(1))


@pytest.mark.parametrize("seed", range(6))
def test_stacked_policy_iteration_matches_single_mdp_oracle(seed):
    rng = np.random.default_rng(seed)
    n_states, n_actions = int(rng.integers(2, 7)), int(rng.integers(2, 5))
    R = rng.uniform(-1.0, 1.0, (2, n_states, n_actions))
    P = rng.dirichlet(np.ones(n_states), (2, n_states, n_actions))
    for lam in (0.3, 0.9, 0.9999):
        maxed = _policy_iteration(R, P, lam)
        mined = -_policy_iteration(-R, P, lam)
        for b in range(2):
            assert np.array_equal(maxed[b], policy_iteration_oracle(R[b], P[b], lam, True))
            assert np.array_equal(mined[b], policy_iteration_oracle(R[b], P[b], lam, False))
            assert np.array_equal(_policy_iteration(R[b:b + 1], P[b:b + 1], lam)[0], maxed[b])
