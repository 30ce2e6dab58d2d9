"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the test outcomes.
"""

import time

import numpy as np
import pytest

from oracles import (
    chain_under,
    discounted_payoff_stationary,
    first_exit_distribution,
    irreducible_sets,
    maximal_communicating_oracle,
    minimal_closed_sets_of_chain,
    optimal_average_values,
    pure_profile,
    reachable_nodes,
    recurrent_points_oracle,
    shapley_operator,
    simulate_first_exit,
    stationary_frequency,
)
from stogame.builder import solve_eta
from stogame.frequencies import enumerate_recurrent_points, payoff_of_frequency
from stogame.game import StationaryProfile
from stogame.generators import (
    random_banded_exit_game,
    random_dense_game,
    random_layered_game,
    sorin_game,
)
from stogame.minmax import solve_uniform_minmax
from stogame.verify import check_minmax_acceptable, product_chain


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_sorin_uniform_values():
    start = time.monotonic()
    game = sorin_game()
    values = solve_uniform_minmax(game).uniform_values
    elapsed = time.monotonic() - start
    err1 = abs(values[0, 0] - 2 / 3)
    err2 = abs(values[0, 1] - 1 / 2)
    ok = err1 <= 1e-3 and err2 <= 1e-3 and elapsed < 5.0
    report(1, ok, f"values ({values[0,0]:.6f}, {values[0,1]:.6f}) vs (2/3, 1/2), "
                  f"errors ({err1:.1e}, {err2:.1e}), {elapsed:.2f}s")


def test_criterion_2_sorin_fixed_profile_fails():
    game = sorin_game()
    v1 = solve_uniform_minmax(game).uniform_values
    profile = StationaryProfile((np.tile([1.0, 0.0], (3, 1)),
                                 np.tile([2 / 3, 1 / 3], (3, 1))))
    result = check_minmax_acceptable(product_chain(game, profile), v1, eps=0.05)
    p2 = [e for e in result.entries if e.state == 0 and e.player == 1][0]
    ok = abs(p2.limit_payoff - 1 / 3) <= 1e-3 and not result.ok
    report(2, ok, f"player 2 limit payoff {p2.limit_payoff:.6f} (= 1/3), "
                  f"acceptability verdict {result.ok} (expected False)")


def test_criterion_3_profile_synthesis_end_to_end(suite_results):
    elapsed, results = suite_results
    n_games = len(results)
    problems = []
    for game, res in results:
        if res.errors:
            problems.append(f"{game.name}: {res.errors}")
            continue
        if any(c.kind == "unclassifiable" for c in res.classifications):
            problems.append(f"{game.name}: unclassifiable set")
        if not res.acceptability.ok:
            problems.append(f"{game.name}: profile not acceptable")
        if not res.size_audit.ok:
            problems.append(f"{game.name}: machine size over bound")
    ok = n_games >= 50 and not problems and elapsed < 600
    report(3, ok, f"{n_games} games, all classified/built/accepted, "
                  f"size bound |S|x|I| held, pipeline took {elapsed:.1f}s < 600s"
                  + (f"; problems: {problems[:3]}" if problems else ""))


def test_criterion_4_correlated_synthesis_end_to_end(suite_results):
    _, results = suite_results
    problems = []
    for game, res in results:
        if res.correlated is None:
            problems.append(f"{game.name}: correlated build failed {res.errors}")
            continue
        if not res.correlated_acceptability.ok:
            problems.append(f"{game.name}: correlated strategy not acceptable")
        if not res.correlated_size_audit.ok or \
                res.correlated_size_audit.bound != game.n_states:
            problems.append(f"{game.name}: correlated size bound violated")
    ok = not problems
    report(4, ok, f"stationary correlated strategy acceptable with size <= |S| "
                  f"on all {len(results)} games"
                  + (f"; problems: {problems[:3]}" if problems else ""))


def test_criterion_5_single_player_reduces_to_pure_stationary(mdp_results):
    worst = 0.0
    for game, res in mdp_results:
        assert not res.errors, res.errors
        model = product_chain(game, res.profile)
        # The machine must act as a pure stationary strategy on-path.
        seen = {}
        for node in reachable_nodes(model):
            s, _ = model.nodes[node]
            row = model.alpha[node]
            top = int(np.argmax(row))
            assert row[top] >= 1.0 - 1e-12, f"{game.name}: mixed output on-path"
            assert seen.setdefault(s, top) == top, \
                f"{game.name}: action at state {s} differs across machine states"
        values = model.limit
        mine = np.array([values[model.node_of(s), 0] for s in range(game.n_states)])
        oracle = optimal_average_values(game)
        worst = max(worst, float(np.max(np.abs(mine - oracle))))
    ok = worst <= 1e-6
    report(5, ok, f"20 single-player games reduce to pure stationary play; "
                  f"worst gap to enumeration oracle {worst:.2e} <= 1e-6")


def test_criterion_6_frequency_identity():
    rng = np.random.default_rng(606)
    checked = 0
    worst = 0.0
    games = ([random_dense_game(6000 + k, n_states=3 + k % 3) for k in range(8)]
             + [random_banded_exit_game(6100 + k) for k in range(6)]
             + [random_layered_game(6200 + k) for k in range(6)])
    while checked < 100:
        game = games[checked % len(games)]
        table = np.stack([rng.dirichlet(np.ones(game.n_profiles))
                          for _ in range(game.n_states)])
        gamma = discounted_payoff_stationary(game, table, 0.9999)
        P = chain_under(game, table)
        classes = minimal_closed_sets_of_chain(P)
        for cls in classes:
            s = cls[0]
            rho = stationary_frequency(game, table, s)
            gap = float(np.max(np.abs(payoff_of_frequency(game, rho) - gamma[s])))
            worst = max(worst, gap)
        checked += 1
    ok = worst <= 0.02
    report(6, ok, f"100 stationary profiles, classwise "
                  f"|payoff(rho) - gamma^0.9999| worst {worst:.2e} <= 0.02")


def test_criterion_7_oracle_equivalence(suite_results):
    rng = np.random.default_rng(707)
    decomposition_checked = 0
    irreducible_checked = 0
    points_checked = 0
    _, results = suite_results
    for game, res in results:
        assert game.n_states <= 5
        mine = [c.states for c in res.decomposition.sets]
        oracle_sets = maximal_communicating_oracle(game, res.eq_sets, res.v1)
        assert mine == list(oracle_sets), f"{game.name}: decomposition mismatch"
        decomposition_checked += 1
        # irreducible sets of a random pure profile
        actions = [tuple(int(rng.integers(0, k)) for k in game.action_counts)
                   for _ in range(game.n_states)]
        prof = pure_profile(game, actions)
        got = sorted(i.states for i in irreducible_sets(game, prof))
        want = sorted(minimal_closed_sets_of_chain(
            chain_under(game, prof.correlated_table())))
        assert got == want, f"{game.name}: irreducible sets mismatch"
        irreducible_checked += 1
        # recurrent frequency points per communicating set
        for cset in res.decomposition.sets:
            mine_pts = {tuple(np.round(p.rho, 8).ravel())
                        for p in enumerate_recurrent_points(game, cset.states)}
            assert mine_pts == recurrent_points_oracle(game, cset.states), \
                f"{game.name}: recurrent points mismatch on {cset.states}"
            points_checked += 1
    report(7, True, f"decomposition x{decomposition_checked}, irreducible "
                    f"x{irreducible_checked}, recurrent points x{points_checked} "
                    f"all match brute force")


def test_criterion_8_exit_tuning():
    rng = np.random.default_rng(808)
    worst_rt = 0.0
    sims = 0
    for k in range(100):
        L = int(rng.integers(1, 5))
        beta = rng.dirichlet(np.ones(L) * 1.5)
        beta = np.clip(beta, 0.01, None)
        beta = beta / beta.sum()
        eta = solve_eta(beta)
        worst_rt = max(worst_rt, float(np.max(np.abs(
            first_exit_distribution(eta) - beta))))
        emp = simulate_first_exit(eta, trials=10**5, seed=900 + k)
        se = np.sqrt(beta * (1.0 - beta) / 10**5)
        assert np.all(np.abs(emp - beta) <= 3.0 * se + 1e-12), \
            f"instance {k}: simulated law off by more than 3 standard errors"
        sims += 1
    ok = worst_rt <= 1e-10
    report(8, ok, f"100 round-trips worst error {worst_rt:.2e} <= 1e-10; "
                  f"{sims} simulated laws within 3 standard errors at 1e5 trials")


def test_criterion_9_contraction_and_monotonicity():
    rng = np.random.default_rng(909)
    games = [random_dense_game(6500 + k, n_states=3 + k % 3) for k in range(5)]
    worst_contraction = -np.inf
    checked = 0
    while checked < 100:
        game = games[checked % len(games)]
        lam = float(rng.uniform(0.3, 0.95))
        i = int(rng.integers(0, game.n_players))
        v = rng.uniform(-1, 1, game.n_states)
        w = rng.uniform(-1, 1, game.n_states)
        Tv, _, _ = shapley_operator(game, i, lam, v)
        Tw, _, _ = shapley_operator(game, i, lam, w)
        excess = float(np.max(np.abs(Tv - Tw)) - lam * np.max(np.abs(v - w)))
        worst_contraction = max(worst_contraction, excess)
        lo = np.minimum(v, w)
        Tlo, _, _ = shapley_operator(game, i, lam, lo)
        assert np.all(Tlo <= Tv + 1e-12) and np.all(Tlo <= Tw + 1e-12), \
            "monotonicity violated"
        checked += 1
    ok = worst_contraction <= 1e-12
    report(9, ok, f"100 pairs: contraction excess worst {worst_contraction:.2e}"
                  f" <= 1e-12, monotonicity held")


def test_criterion_10_ir_and_submartingale(suite_results):
    eps = 0.05
    worst_gain = -np.inf
    worst_drift = np.inf
    _, results = suite_results
    for game, res in results:
        assert res.ir_report is not None and res.submartingale is not None
        worst_gain = max(worst_gain, res.ir_report.worst_gain)
        worst_drift = min(worst_drift, res.submartingale.min_drift)
    ok = worst_gain <= 2 * eps and worst_drift >= -1e-6
    report(10, ok, f"suite-wide IR slack worst {worst_gain:.4f} <= {2*eps} and "
                   f"value drift worst {worst_drift:.2e} >= -1e-6")
