import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    best_recurrent_point_oracle,
    discounted_payoff_stationary,
    empirical_frequency,
    mixture_lp_oracle,
    pricing_lp_oracle,
    pure_profile,
    recurrent_points_oracle,
    stationary_frequency,
    type_a_feasibility,
)
from stogame.frequencies import (
    EnumerationSizeError,
    best_recurrent_point,
    enumerate_recurrent_points,
    max_slack_mixture,
    payoff_of_frequency,
    safe_sub_mdp,
)
from stogame.game import StochasticGame
from stogame.generators import random_dense_game, sorin_game
from stogame.matrixgame import KERNEL_TOL, _verify, kernel_solution
from stogame.minmax import default_schedule
from stogame.pipeline import run_pipeline


def test_two_cycle_uniform_frequency():
    payoffs = np.zeros((2, 1, 2))
    transitions = np.array([[[0.0, 1.0]], [[1.0, 0.0]]])
    g = StochasticGame(("a", "b"), (("x",), ("y",)), payoffs, transitions)
    rho = stationary_frequency(g, pure_profile(g, [(0, 0)] * 2), 0)
    np.testing.assert_allclose(rho[:, 0], [0.5, 0.5], atol=1e-12)
    assert rho.sum() == pytest.approx(1.0)


def test_absorbing_concentration(sorin):
    prof = pure_profile(sorin, [(1, 0)] * 3)   # (B, L): absorb at (0, 1)
    rho = stationary_frequency(sorin, prof, 0)
    assert rho[1].sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(payoff_of_frequency(sorin, rho), [0, 1], atol=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_frequency_matches_long_simulation(seed):
    g = random_dense_game(seed + 50, n_states=3)
    rng = np.random.default_rng(seed)
    table = np.stack([rng.dirichlet(np.ones(g.n_profiles)) for _ in range(3)])
    rho = stationary_frequency(g, table, 0)
    emp = empirical_frequency(g, table, 0, steps=10**6, seed=seed)
    assert float(np.max(np.abs(rho - emp))) <= 1e-2


def test_payoff_point_mass(sorin):
    rho = np.zeros((3, 4))
    rho[0, 0] = 1.0   # loop on (T, L)
    np.testing.assert_allclose(payoff_of_frequency(sorin, rho), [1, 0])


def test_payoff_matches_patient_discounted():
    g = random_dense_game(83, n_states=4)
    rng = np.random.default_rng(12)
    for _ in range(5):
        table = np.stack([rng.dirichlet(np.ones(g.n_profiles)) for _ in range(4)])
        rho = stationary_frequency(g, table, 0)
        gamma = discounted_payoff_stationary(g, table, 0.9999, 0)
        assert float(np.max(np.abs(payoff_of_frequency(g, rho) - gamma))) <= 0.02


def test_recurrent_points_single_state(sorin):
    points = enumerate_recurrent_points(sorin, [0])
    payoffs = sorted(tuple(p.payoff.round(9)) for p in points)
    assert payoffs == [(0.0, 1.0), (1.0, 0.0)]


def test_recurrent_points_exclude_exiting_classes(sorin):
    # On the whole state space every profile's classes are inside, but on
    # {s0} the quitting rows are excluded by region preservation.
    points = enumerate_recurrent_points(sorin, [0])
    for p in points:
        assert all(a in (0, 1) for a in p.actions.values())


@pytest.mark.parametrize("seed", [60, 61, 62])
def test_recurrent_points_match_oracle(seed):
    g = random_dense_game(seed, n_states=3)
    points = enumerate_recurrent_points(g, range(3))
    mine = {tuple(np.round(p.rho, 8).ravel()) for p in points}
    assert mine == recurrent_points_oracle(g, range(3))


def test_enumeration_guard():
    g = random_dense_game(99, n_states=5, n_actions=2)
    big = StochasticGame(
        tuple(f"s{k}" for k in range(5)),
        (tuple(f"a{j}" for j in range(16)), tuple(f"b{j}" for j in range(16))),
        np.zeros((5, 256, 2)),
        np.tile(np.full(5, 0.2), (5, 256, 1)),
    )
    with pytest.raises(EnumerationSizeError):
        enumerate_recurrent_points(big, range(5))
    del g


def test_feasibility_single_point():
    g = sorin_game()
    plan = type_a_feasibility(g, [1], np.array([0.0, 1.0]), eps=0.05)
    assert plan is not None
    np.testing.assert_allclose(plan.weights, [1.0])
    assert plan.slack >= 0.05 - 1e-12


def test_feasibility_symmetric_mixture(sorin):
    plan = type_a_feasibility(sorin, [0], np.array([0.4, 0.4]))
    assert plan is not None
    np.testing.assert_allclose(plan.weights, [0.5, 0.5], atol=1e-9)
    np.testing.assert_allclose(plan.achieved, [0.5, 0.5], atol=1e-9)


def test_feasibility_infeasible_target(sorin):
    assert type_a_feasibility(sorin, [0], np.array([2 / 3, 0.5]), eps=0.05) is None


@pytest.mark.parametrize("seed", range(4))
def test_feasibility_matches_grid(seed):
    g = random_dense_game(seed + 200, n_states=3)
    points = enumerate_recurrent_points(g, range(3))
    pays = np.stack([p.payoff for p in points])
    target = pays.mean(axis=0)
    plan = type_a_feasibility(g, range(3), target, points=points)
    # Grid search over mixture weights of the first three points as a bound.
    grid_best = -np.inf
    k = min(3, len(points))
    for w1 in np.linspace(0, 1, 101):
        for w2 in np.linspace(0, 1 - w1, max(2, int(101 * (1 - w1)) + 1)):
            w = np.zeros(k)
            w[0] = w1
            if k > 1:
                w[1] = w2
            if k > 2:
                w[2] = 1 - w1 - w2
            else:
                w[-1] += 1 - w.sum()
            mix = w @ pays[:k]
            grid_best = max(grid_best, float(np.min(mix - target)))
    assert plan is not None
    assert plan.slack >= grid_best - 1e-6


def test_plan_support_is_small():
    g = random_dense_game(77, n_states=4)
    points = enumerate_recurrent_points(g, range(4))
    target = np.stack([p.payoff for p in points]).mean(axis=0)
    plan = type_a_feasibility(g, range(4), target, points=points)
    assert plan is not None
    assert len(plan.atoms) <= g.n_players + 1
    assert np.all(plan.weights > 0)
    assert plan.weights.sum() == pytest.approx(1.0)


def test_priced_point_is_the_best_enumerated_point():
    g = random_dense_game(71, n_states=4)
    points = enumerate_recurrent_points(g, range(4))
    rng = np.random.default_rng(71)
    for _ in range(10):
        y = rng.dirichlet(np.ones(2))
        best = best_recurrent_point(g, safe_sub_mdp(g, range(4)), y)
        keys = [(p.states, p.actions) for p in points]
        assert (best.states, best.actions) in keys
        assert y @ best.payoff == pytest.approx(max(y @ p.payoff for p in points),
                                                abs=1e-12)


def test_pricing_skips_classes_leaking_into_dead_states():
    # Region {0, 1}: state 1 always moves to state 2, so it has no
    # region-preserving profile.  The paying action at state 0 leads there
    # and is excluded, as in the enumeration.
    payoffs = np.array([[[0.0], [1.0]], [[1.0], [1.0]], [[0.0], [0.0]]])
    transitions = np.zeros((3, 2, 3))
    transitions[0, 0, 0] = 1.0
    transitions[0, 1, 1] = 1.0
    transitions[1, :, 2] = 1.0
    transitions[2, :, 2] = 1.0
    g = StochasticGame(("a", "b", "c"), (("stay", "go"),), payoffs, transitions)
    best = best_recurrent_point(g, safe_sub_mdp(g, [0, 1]), np.array([1.0]))
    points = enumerate_recurrent_points(g, [0, 1])
    assert [(p.states, p.actions) for p in points] == [((0,), {0: 0})]
    assert (best.states, best.actions) == ((0,), {0: 0})
    assert safe_sub_mdp(g, [1]) is None


def test_pricing_pads_a_narrow_state_with_its_own_profile():
    # Region {0, 1}: state 0 keeps actions 1 and 2, state 1 only action 2,
    # so pricing pads state 1 with a copy of action 2.  Action 0 there pays
    # most but leaks half its mass out of the region, and leaked mass earns
    # nothing in the safe sub-MDP, better than these negative payoffs: a pad
    # that played it would be priced over the 0-1 cycle.
    payoffs = np.array([[[-1.0], [-0.6], [-0.5]], [[-0.1], [-1.0], [-0.5]], [[0.0], [0.0], [0.0]]])
    transitions = np.zeros((3, 3, 3))
    transitions[0, 0, 2] = transitions[1, 1, 2] = 1.0
    transitions[0, 1, 0] = transitions[0, 2, 1] = transitions[1, 2, 0] = 1.0
    transitions[1, 0, [1, 2]] = 0.5
    transitions[2, :, 2] = 1.0
    g = StochasticGame(("a", "b", "c"), (("out", "stay", "go"),), payoffs, transitions)
    best = best_recurrent_point(g, safe_sub_mdp(g, [0, 1]), np.array([1.0]))
    assert (best.states, best.actions) == ((0, 1), {0: 2, 1: 2})
    assert best.payoff[0] == pytest.approx(-0.5, abs=1e-12)


def _assert_columns_match_enumeration(game, result, eps=0.05):
    """Column generation and the full enumeration give the same type-A
    verdict, slack and A/B kind on every communicating set."""
    for cset, cls in zip(result.decomposition.sets, result.classifications):
        target = cset.value - eps
        points = enumerate_recurrent_points(game, cset.states)
        want = type_a_feasibility(game, cset.states, target, points=points)
        got = type_a_feasibility(game, cset.states, target)
        assert (got is None) == (want is None), f"{game.name} {cset.states}"
        if want is None:
            continue
        assert got.slack == pytest.approx(want.slack, abs=1e-9)
        floor = cset.value - eps / 2.0
        sustained = bool(np.all(want.achieved >= floor))
        assert bool(np.all(got.achieved >= floor)) == sustained
        if sustained:
            assert cls.kind == "A"
        else:
            assert cls.kind == "B" or cls.diagnostics.get("note", "").startswith("sustain")


def test_columns_match_enumeration_on_suite(suite_results):
    _, results = suite_results
    for game, res in results:
        _assert_columns_match_enumeration(game, res)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_columns_match_enumeration_on_dense_games(n):
    g = random_dense_game(5000 + n, n_states=n)
    _assert_columns_match_enumeration(g, run_pipeline(g, eps=0.05,
                                                      schedule=default_schedule(24)))


@st.composite
def _priced_regions(draw):
    """A small game, a region of it and pricing weights.  Payoffs come from a
    few levels, so ties are common; transition rows are deterministic or
    small integer mixes, and states outside the region make some region
    states dead (no profile stays inside)."""
    n_players = draw(st.integers(1, 2))
    n_actions = draw(st.lists(st.integers(1, 3), min_size=n_players, max_size=n_players))
    n_profiles = int(np.prod(n_actions))
    n_states = draw(st.integers(1, 5))
    levels = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(-1, 1, allow_subnormal=False)
    payoffs = np.array(draw(st.lists(levels, min_size=n_states * n_profiles * n_players,
                                     max_size=n_states * n_profiles * n_players)))
    rows = []
    for _ in range(n_states * n_profiles):
        if draw(st.booleans()):
            row = np.zeros(n_states)
            row[draw(st.integers(0, n_states - 1))] = 1.0
        else:
            row = np.array(draw(st.lists(st.integers(0, 3), min_size=n_states,
                                         max_size=n_states)), dtype=float)
            row[draw(st.integers(0, n_states - 1))] += 1.0
            row /= row.sum()
        rows.append(row)
    game = StochasticGame(
        tuple(f"s{k}" for k in range(n_states)),
        tuple(tuple(f"p{i}a{j}" for j in range(n)) for i, n in enumerate(n_actions)),
        payoffs.reshape(n_states, n_profiles, n_players),
        np.array(rows).reshape(n_states, n_profiles, n_states),
    )
    region = draw(st.lists(st.integers(0, n_states - 1), min_size=1, unique=True))
    if draw(st.booleans()):
        weights = np.zeros(n_players)
        weights[draw(st.integers(0, n_players - 1))] = 1.0
    else:
        weights = np.array(draw(st.lists(st.integers(1, 4), min_size=n_players,
                                         max_size=n_players)), dtype=float)
        weights /= weights.sum()
    return game, sorted(region), weights


@settings(max_examples=200, deadline=None)
@given(_priced_regions())
def test_policy_iteration_prices_like_the_lp(case):
    game, region, weights = case
    mdp = safe_sub_mdp(game, region)
    got = None if mdp is None else best_recurrent_point(game, mdp, weights)
    want = pricing_lp_oracle(game, region, weights)
    assert (got is None) == (want is None)
    if got is None:
        return
    points = enumerate_recurrent_points(game, region)
    value = weights @ got.payoff
    assert abs(value - max(weights @ p.payoff for p in points)) <= 1e-12
    assert (got.states, got.actions) in [(p.states, p.actions) for p in points]
    # HiGHS may stop short of the optimum by up to its dual feasibility
    # tolerance (1e-7): payoffs 0.5 and 0.5 - 3e-8 on two self-loops give it
    # the worse loop.  It is never better than the optimum.
    assert -1e-12 <= value - weights @ want.payoff <= 1e-7


_masters = st.tuples(st.integers(1, 6), st.integers(1, 3)).flatmap(
    lambda shape: st.tuples(
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(-1, 1, allow_subnormal=False),
                 min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])
        .map(lambda v: np.reshape(v, shape)),
        st.lists(st.floats(-1, 1, allow_subnormal=False), min_size=shape[1],
                 max_size=shape[1]).map(np.array)))


@settings(max_examples=200, deadline=None)
@given(_masters)
def test_master_matches_the_mixture_lp(case):
    payoffs, target = case
    sol = max_slack_mixture(payoffs, target)
    beta, t, y = sol.row_strategy, sol.value, sol.col_strategy
    # (beta, y) certifies t to 1e-12: beta guarantees it, y caps it.
    assert _verify(payoffs - target, t, beta, y, tol=1e-12)
    assert np.all(y >= 0.0) and y.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.count_nonzero(beta > 1e-12) <= payoffs.shape[1]
    # HiGHS's answer is only as exact as its feasibility tolerances (1e-7):
    # it reads a single point paying 2.7e-11 over the target as slack 0.
    assert abs(t - mixture_lp_oracle(payoffs, target)[1]) <= 1e-7


def test_pricing_on_a_prepared_sub_mdp_matches_the_one_call_build(suite_results):
    # Every set of the suite, priced at uniform, one-hot and random weights:
    # the same point, frequency and payoff bits as a build per call.
    rng = np.random.default_rng(5)
    priced = 0
    for game, res in suite_results[1]:
        for cset in res.decomposition.sets:
            mdp = safe_sub_mdp(game, cset.states)
            weights = [np.full(game.n_players, 1.0 / game.n_players), *np.eye(game.n_players),
                       rng.dirichlet(np.ones(game.n_players))]
            for y in weights:
                want = best_recurrent_point_oracle(game, cset.states, y)
                if mdp is None:
                    assert want is None
                    continue
                got = best_recurrent_point(game, mdp, y)
                assert (got.states, got.actions) == (want.states, want.actions)
                assert got.rho.tobytes() == want.rho.tobytes()
                assert got.payoff.tobytes() == want.payoff.tobytes()
                priced += 1
    assert priced


def _one_row_masters():
    """A row of 1-4 payoffs and a target: payoffs from a few levels, some
    within KERNEL_TOL of each other (ties the check must settle as the
    kernels do), and beyond 1 in size, where LAPACK's 1x1 kernel value can
    differ from the entry in its last bit."""
    base = st.sampled_from([0.0, 0.25, -0.5, 1.0]) | st.floats(-3, 3, allow_subnormal=False)
    shift = st.sampled_from([0.0, 0.0, 0.5, 0.999, 1.0, 1.001, 2.0, -0.999, -1.001])
    entry = st.tuples(base, shift).map(lambda v: v[0] + v[1] * KERNEL_TOL * max(1.0, abs(v[0])))
    return st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.lists(entry, min_size=n, max_size=n).map(lambda v: np.array([v])),
        st.lists(st.floats(-2, 2, allow_subnormal=False), min_size=n, max_size=n)
        .map(np.array)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_one_row_masters())
def test_one_row_master_matches_the_kernel_solution(case):
    payoffs, target = case
    got = max_slack_mixture(payoffs, target)
    want = kernel_solution(payoffs - target)
    assert got.method == want.method == "kernel"
    assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
    assert got.row_strategy.tobytes() == want.row_strategy.tobytes()
    assert got.col_strategy.tobytes() == want.col_strategy.tobytes()
