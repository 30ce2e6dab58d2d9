import functools
import json

import numpy as np
import pytest

import stogame.minmax
from oracles import (
    discounted_minmax_oracle,
    newton_minmax_oracle,
    optimal_average_values,
    policy_iteration_oracle,
    pure_average_extremum,
    random_mdp,
    response_mdp_oracle,
    shapley_operator,
)
from stogame._util import json_ready
from stogame.game import StochasticGame
from stogame.generators import (
    acceptance_suite,
    bundled_game,
    random_banded_exit_game,
    random_dense_game,
    random_soft_absorbing_game,
    sorin_game,
    three_player_game,
)
from stogame.matrixgame import solve_matrix_game
from stogame.minmax import (
    DIRECT_WIDTH,
    _AverageResponses,
    _lapack_solve,
    _policy_iteration,
    _solver_arrays,
    _Stage,
    default_schedule,
    direct_minmax,
    discounted_minmax,
    solve_uniform_minmax,
    uniform_minmax,
)
from stogame.pipeline import run_pipeline


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


def test_matrix_solves_counts_one_shot_games_off_the_closed_form(sorin):
    # A 3x3 game sends every state to solve_matrix_game in every round; the
    # 2x2 closed form solves all of Sorin's.
    g = random_dense_game(6003, n_states=4, n_actions=3)
    _, info = discounted_minmax(g, 0, 0.5)
    assert info["matrix_solves"] == info["rounds"] * g.n_states
    curve = uniform_minmax(sorin, 0, default_schedule(8))
    assert curve.matrix_solves == [0] * 8
    assert json_ready(curve)["matrix_solves"] == curve.matrix_solves


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


def test_empty_schedule_is_rejected(sorin):
    with pytest.raises(ValueError, match="schedule is empty"):
        uniform_minmax(sorin, 0, schedule=[])
    with pytest.raises(ValueError, match="schedule is empty"):
        run_pipeline(sorin, schedule=[])


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
    doc = json_ready(curve)
    assert [k for k, flag in enumerate(doc["stalled"]) if flag] == stalled_at
    assert doc["extrapolation_points"] == [first, mid, last]


# Soft-absorbing games of suite52 slots 17 to 56 whose curves stall near
# discount 1.
STALLING_SEEDS = (172001, 312003, 342002, 392003, 462009, 492006, 562003)
# Policy iteration (`_policy_iteration` and `policy_iteration_oracle`) stops
# once no action gains more than this.  Such a policy's value can lie
# PI_STOP / (1 - lam) below the optimum, so each side of a bracket may be
# that far off.
PI_STOP = 1e-13


def test_every_schedule_point_lies_within_its_certificate():
    # Each schedule point must lie within its certified gap, plus the
    # Newton oracle's own gap and both sides' policy iteration slack, of the
    # oracle's value.  Stalled points must lie inside without the slack.
    schedule = default_schedule(24)
    games = acceptance_suite() + [random_soft_absorbing_game(s) for s in STALLING_SEEDS]
    stalled = 0
    for game, curve in ((g, uniform_minmax(g, i, schedule))
                        for g in games for i in range(g.n_players)):
        v = None
        for k, lam in enumerate(schedule):
            v, gap = newton_minmax_oracle(game, curve.player, lam, v0=v)
            assert gap <= 2e-9
            error = float(np.max(np.abs(curve.values[k] - v)))
            bound = curve.certified_gaps[k] + gap
            assert error <= bound + 2.0 * PI_STOP / (1.0 - lam), (game.name, curve.player, k)
            if curve.stalled[k]:
                stalled += 1
                assert error <= bound, (game.name, curve.player, k)
    assert stalled


def _assert_batched_stage_matches_per_state(game, rng):
    for i in range(game.n_players):
        for lam in (0.5, 0.99, 1.0 - 2.0**-20):
            stage = _Stage(game, i, lam)
            v = rng.uniform(-1.0, 1.0, game.n_states)
            _, rows, cols = shapley_operator(game, i, lam, v)
            R_up, P_up = response_mdp_oracle(game, i, lam, cols, fix_rows=False)
            R_lo, P_lo = response_mdp_oracle(game, i, lam, rows, fix_rows=True)
            stage.response_mdps(rows, cols)
            for got, want in (((stage.R_up, stage.P_up), (R_up, P_up)),
                              ((stage.R_lo, stage.P_lo), (R_lo, P_lo))):
                assert np.array_equal(got[0], want[0])
                assert np.array_equal(got[1], want[1])
            v_up, v_lo = stage.response_values(rows, cols)
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
        maxed = _policy_iteration(R, P, lam, *_solver_arrays(R))
        mined = -_policy_iteration(-R, P, lam, *_solver_arrays(R))
        for b in range(2):
            assert np.array_equal(maxed[b], policy_iteration_oracle(R[b], P[b], lam, True))
            assert np.array_equal(mined[b], policy_iteration_oracle(R[b], P[b], lam, False))
            one = R[b:b + 1]
            assert np.array_equal(
                _policy_iteration(one, P[b:b + 1], lam, *_solver_arrays(one))[0], maxed[b])


def _hand_built(counts, n_states, seed, absorbing=False, zero=False, name=""):
    """A game with the given per-player action counts: uniform random payoffs
    in [-1, 1] (or all zero) and Dirichlet transitions (or every state
    absorbing)."""
    rng = np.random.default_rng(seed)
    n_profiles = int(np.prod(counts))
    payoffs = rng.uniform(-1.0, 1.0, (n_states, n_profiles, len(counts)))
    if zero:
        payoffs[:] = 0.0
    if absorbing:
        transitions = np.broadcast_to(np.eye(n_states)[:, None, :],
                                      (n_states, n_profiles, n_states)).copy()
    else:
        transitions = rng.dirichlet(np.ones(n_states), (n_states, n_profiles))
    actions = tuple(tuple(f"a{k}" for k in range(c)) for c in counts)
    return StochasticGame(tuple(f"s{k}" for k in range(n_states)), actions,
                          payoffs, transitions, name=name)


# Degenerate shapes: one action on a side, one state, one player, nothing
# moving, nothing paid, and a 2x3 game whose own and coalition sides differ
# in size for both players.
DEGENERATE = [
    _hand_built((1, 1), 2, 1, name="1x1"),
    _hand_built((1, 2), 3, 2, name="1x2"),
    _hand_built((2, 1), 3, 3, name="2x1"),
    _hand_built((2, 2), 1, 4, name="one-state"),
    _hand_built((3,), 3, 5, name="one-player"),
    _hand_built((2, 2), 3, 6, absorbing=True, name="all-absorbing"),
    _hand_built((2, 2), 3, 7, zero=True, name="zero-payoffs"),
    _hand_built((2, 3), 3, 8, name="2x3"),
]


# Each one-shot LP costs about 4 ms, so the games on the LP path run a
# shorter schedule: at depth 24 the 3x3 game alone takes 5.6 s per solve.
@pytest.mark.parametrize("game, depth", [(g, 24) for g in acceptance_suite()[::7]] + [
    (random_dense_game(381011, n_states=5), 24),  # Aitken denominator 3.3e-11
    (random_dense_game(5012, n_states=12), 24),
    (random_banded_exit_game(4001), 30),  # stalls from schedule point 20 on
    (random_dense_game(6003, n_states=4, n_actions=3), 4),
    (three_player_game(), 4),  # own and coalition sides differ in size
] + [(g, 8 if g.name == "2x3" else 24) for g in DEGENERATE],
    ids=lambda p: getattr(p, "name", None))
def test_whole_solve_matches_per_state_oracle(game, depth, monkeypatch):
    # Every player's schedule curve, also where the direct solve would close
    # the curve and no schedule would run.
    schedule = default_schedule(depth)

    def curves():
        return json.dumps([json_ready(uniform_minmax(game, i, schedule))
                           for i in range(game.n_players)])

    batched = curves()
    monkeypatch.setattr(stogame.minmax, "discounted_minmax", discounted_minmax_oracle)
    assert curves() == batched


@pytest.mark.parametrize("game", acceptance_suite()[::13] + [
    random_dense_game(6003, n_states=4, n_actions=3),
    three_player_game(),
] + DEGENERATE, ids=lambda g: g.name)
def test_rescaled_workspace_matches_a_fresh_one(game):
    # One workspace per curve: rescaling it must leave no trace of the
    # discount it was built at.
    rng = np.random.default_rng(2)
    for i in range(game.n_players):
        stage = _Stage(game, i, 0.5)
        for lam in (0.75, 1.0 - 2.0**-20, 0.0, 0.5):
            stage.rescale(lam)
            fresh = _Stage(game, i, lam)
            assert stage.U.strides == fresh.U.strides
            for name in ("payoff", "U"):
                assert getattr(stage, name).tobytes() == getattr(fresh, name).tobytes()
            v = rng.uniform(-1.0, 1.0, game.n_states)
            _, rows, cols = shapley_operator(game, i, lam, v)
            got = stage.response_values(rows, cols)
            want = fresh.response_values(rows, cols)
            for name in ("R_up", "P_up", "R_lo", "P_lo"):
                assert getattr(stage, name).tobytes() == getattr(fresh, name).tobytes()
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()


def test_one_workspace_per_player_and_nothing_left_on_the_game(monkeypatch):
    built = []

    class Counted(_Stage):
        def __init__(self, game, i, lam):
            built.append(i)
            super().__init__(game, i, lam)

    monkeypatch.setattr(stogame.minmax, "_Stage", Counted)
    for game in (sorin_game(), three_player_game(), DEGENERATE[4]):
        for name, attr in vars(StochasticGame).items():  # fill the shape caches
            if isinstance(attr, functools.cached_property):
                getattr(game, name)
        before = dict(game.__dict__)
        built.clear()
        report = solve_uniform_minmax(game, default_schedule(6))
        assert built == [c.player for c in report.curves if c.method == "schedule"]
        assert game.__dict__.keys() == before.keys()
        assert all(game.__dict__[key] is value for key, value in before.items())


@pytest.mark.parametrize("n_states", range(1, 21))
def test_lapack_gufunc_matches_numpy_solve(n_states):
    # The solve numpy's wrapper would make, without the wrapper: the same
    # LAPACK call on the same stack, so the same bits.
    rng = np.random.default_rng(n_states)
    for n_mdps in (1, 2):
        for lam in (0.5, 1.0 - 2.0**-24):
            P = rng.dirichlet(np.ones(n_states), (n_mdps, n_states))
            A = np.eye(n_states) - lam * P
            b = rng.uniform(-1.0, 1.0, (n_mdps, n_states, 1))
            got = _lapack_solve(A, b, signature="dd->d")
            want = np.linalg.solve(A, b)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_mdps", [1, 2])
def test_singular_policy_iteration_raises_at_once(n_mdps, monkeypatch):
    # At discount 1 an absorbing MDP's system I - P is all zeros.  The
    # gufunc answers it with NaN and numpy's "invalid value" warning, not an
    # exception; policy iteration must raise LinAlgError after that one
    # solve, as np.linalg.solve would, and not spin to its iteration cap.
    solves = []

    def counted(*args, **kwargs):
        solves.append(1)
        return _lapack_solve(*args, **kwargs)

    monkeypatch.setattr(stogame.minmax, "_lapack_solve", counted)
    R = np.arange(n_mdps * 6, dtype=float).reshape(n_mdps, 3, 2)
    P = np.broadcast_to(np.eye(3)[:, None, :], (n_mdps, 3, 2, 3)).copy()
    if n_mdps == 2:
        P[0] *= 0.5  # leaks half its mass, so only the second MDP is singular
    with pytest.warns(RuntimeWarning, match="invalid value encountered in solve"):
        with pytest.raises(np.linalg.LinAlgError):
            stogame.minmax._policy_iteration(R, P, 1.0, *_solver_arrays(R))
    assert solves == [1]


def _sparse_game(counts, n_states, seed):
    """`_hand_built`'s payoffs with transition rows on one or two states, so
    that many stationary pairs make the chain multichain."""
    base = _hand_built(counts, n_states, seed)
    rng = np.random.default_rng(seed)
    transitions = np.zeros_like(base.transitions)
    for s, a in np.ndindex(transitions.shape[:2]):
        support = rng.choice(n_states, size=int(rng.integers(1, 3)), replace=False)
        transitions[s, a, support] = rng.dirichlet(np.ones(len(support)))
    return StochasticGame(base.state_names, base.action_names, base.payoffs, transitions,
                          name=f"sparse-{base.name}")


# Games of 2-3 states with 2x2 and 2x3 actions: dense, sparse and absorbing.
SMALL_GAMES = [
    _hand_built((2, 2), 2, 11, name="2x2"),
    _hand_built((2, 3), 3, 12, name="2x3"),
    _sparse_game((2, 2), 3, 13),
    _sparse_game((2, 3), 2, 14),
    _sparse_game((2, 3), 3, 15),
    sorin_game(),
]


@pytest.mark.parametrize("game", SMALL_GAMES, ids=lambda g: g.name)
def test_howard_responses_reach_the_pure_policy_extremum(game):
    # Each side's best average response, from one warm-started Howard call
    # on the block-diagonal MDP, must equal the best gain over all pure
    # stationary policies of that side's MDP, computed in rationals.
    rng = np.random.default_rng(4)
    for i in range(game.n_players):
        own, other = game.player_indices[i].shape
        responses = _AverageResponses(game, i)
        for trial in range(6):
            rows = rng.dirichlet(np.ones(own), game.n_states)
            cols = rng.dirichlet(np.ones(other), game.n_states)
            if trial % 2:  # pure mixes
                rows = np.eye(own)[rng.integers(own, size=game.n_states)]
                cols = np.eye(other)[rng.integers(other, size=game.n_states)]
            settled, g_up, _, g_lo, _ = responses(rows, cols)
            assert settled
            R_up, P_up = response_mdp_oracle(game, i, 0.0, cols, fix_rows=False)
            R_lo, P_lo = response_mdp_oracle(game, i, 0.0, rows, fix_rows=True)
            assert np.max(np.abs(g_up - pure_average_extremum(R_up, P_up, True))) <= 1e-12
            assert np.max(np.abs(g_lo - pure_average_extremum(R_lo, P_lo, False))) <= 1e-12


@pytest.mark.parametrize("game", [bundled_game("mdp3"), DEGENERATE[7]], ids=lambda g: g.name)
def test_direct_bracket_never_crosses(game):
    # One side has fewer actions than the other, so the block-diagonal MDP
    # pads it; a padded action that won a Howard step would cross the
    # bracket.  Lower and upper are running extremes, so the last bracket
    # covers every iteration.
    for i in range(game.n_players):
        direct = direct_minmax(game, i)
        assert direct.outcome == "closed"
        assert (direct.lower <= direct.upper + 1e-12).all()


@pytest.mark.parametrize("game", [sorin_game(), random_banded_exit_game(4001)],
                         ids=lambda g: g.name)
def test_open_curves_are_the_schedules_own(game):
    # Stationary strategies do not guarantee these values, so the bracket
    # stays open and every curve is `uniform_minmax`'s, bit for bit.
    schedule = default_schedule(24)
    report = solve_uniform_minmax(game, schedule)
    assert all(d.outcome != "closed" and d.width > 1e-3 for d in report.direct)
    for i, curve in enumerate(report.curves):
        assert curve.method == "schedule"
        assert json.dumps(json_ready(curve)) == json.dumps(
            json_ready(uniform_minmax(game, i, schedule)))


def test_closed_midpoints_agree_with_the_schedule(suite_results):
    # A closed curve's value is its bracket's midpoint; Aitken's depth-24
    # value must lie within 1e-6 of it (its own error, not the bracket's).
    closed = 0
    for game, res in suite_results[1]:
        for curve in res.minmax.curves:
            if curve.method != "direct":
                continue
            closed += 1
            assert curve.outcome == "closed" and curve.width <= DIRECT_WIDTH
            want = uniform_minmax(game, curve.player, default_schedule(24)).extrapolated
            assert np.max(np.abs(curve.v1 - want)) <= 1e-6, (game.name, curve.player)
    assert closed


def test_non_stochastic_transitions_run_the_schedule_only():
    base = random_dense_game(1003, n_states=3)
    transitions = base.transitions.copy()
    transitions[0, 0] = [1.05, -0.05, 0.0]
    game = StochasticGame(base.state_names, base.action_names, base.payoffs, transitions)
    schedule = default_schedule(8)
    report = solve_uniform_minmax(game, schedule)
    assert report.direct == [None, None]
    for i, curve in enumerate(report.curves):
        assert json.dumps(json_ready(curve)) == json.dumps(
            json_ready(uniform_minmax(game, i, schedule)))
    with pytest.raises(ValueError, match="schedule is empty"):
        solve_uniform_minmax(DEGENERATE[0], [])  # closes, yet the schedule is checked
