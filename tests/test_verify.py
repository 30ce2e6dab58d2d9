import numpy as np
import pytest

from oracles import (
    check_average_limit_acceptable,
    discounted_payoff_stationary,
    exact_discounted_payoff_automaton,
    stationary_frequency,
)
from stogame.automata import stationary_automaton
from stogame.builder import assemble_profile, classify_set
from stogame.frequencies import payoff_of_frequency
from stogame.game import StationaryProfile, StochasticGame, pure_profile
from stogame.generators import random_dense_game, sorin_game
from stogame.minmax import solve_uniform_minmax
from stogame.oneshot import continuation_values, enumerate_all_states
from stogame.simulate import simulate
from stogame.structure import decompose
from stogame.verify import (
    automaton_size_audit,
    check_individual_rationality,
    check_minmax_acceptable,
    check_submartingale,
    check_w_acceptable,
    product_chain,
)


@pytest.fixture(scope="module")
def sorin_ctx():
    g = sorin_game()
    v1 = solve_uniform_minmax(g).uniform_values
    eq_sets = enumerate_all_states(g, v1)
    d = decompose(g, eq_sets, v1)
    u_star = continuation_values(g, v1)
    cls = [classify_set(g, c, 0.05, u_star) for c in d.sets]
    prof = assemble_profile(g, d, cls, 0.05)
    return g, v1, d, cls, prof


def test_automaton_payoff_equals_stationary_collapse(sorin_ctx):
    g = sorin_ctx[0]
    prof = StationaryProfile((np.tile([1.0, 0.0], (3, 1)),
                              np.tile([2 / 3, 1 / 3], (3, 1))))
    for lam in (0.5, 0.9, 0.999):
        got = exact_discounted_payoff_automaton(g, prof, 0, lam)
        np.testing.assert_allclose(
            got, discounted_payoff_stationary(g, prof, lam, 0), atol=1e-10)


def test_automaton_payoff_matches_monte_carlo(sorin_ctx):
    g, _, _, _, prof = sorin_ctx
    exact = exact_discounted_payoff_automaton(g, prof, 0, 0.99)
    sim = simulate(g, 0, prof, 0.99, seed=3, replications=3000)
    assert np.all(np.abs(sim.mean - exact) <= 4 * sim.std_error + 1e-9)


def test_floor_payoff_always_acceptable(sorin_ctx):
    g, _, _, _, prof = sorin_ctx
    w = np.full((g.n_states, g.n_players), -2.0)
    assert check_w_acceptable(product_chain(g, prof), w).ok


def test_fixed_discount_equilibrium_fails(sorin_ctx):
    g, v1 = sorin_ctx[0], sorin_ctx[1]
    prof = StationaryProfile((np.tile([1.0, 0.0], (3, 1)),
                              np.tile([2 / 3, 1 / 3], (3, 1))))
    report = check_minmax_acceptable(product_chain(g, prof), v1, 0.05)
    assert not report.ok
    p2 = [e for e in report.entries if e.state == 0 and e.player == 1][0]
    assert p2.limit_payoff == pytest.approx(1 / 3, abs=1e-3)
    assert p2.limit_margin < 0


def test_synthesized_profile_accepts(sorin_ctx):
    g, v1, _, _, prof = sorin_ctx
    report = check_minmax_acceptable(product_chain(g, prof), v1, 0.05)
    assert report.ok
    assert report.threshold_from is not None


def test_average_and_limit_cross_check_unichain():
    g = random_dense_game(1009, n_states=3)
    rng = np.random.default_rng(5)
    table = np.stack([rng.dirichlet(np.ones(g.n_profiles)) for _ in range(3)])
    limit = payoff_of_frequency(g, stationary_frequency(g, table, 0))
    w = limit - 0.01
    W = np.tile(w, (3, 1))
    report = check_average_limit_acceptable(g, table, W, horizon=2000)
    assert report.limit_ok
    assert report.average_ok
    assert report.uniform_ok
    # three solvers agree: frequency, discounted tail, k-stage averages
    gamma = discounted_payoff_stationary(g, table, 0.99999, 0)
    assert float(np.max(np.abs(gamma - limit))) <= 1e-3


def test_absorbing_profile_average_equals_payoff(sorin_ctx):
    g = sorin_ctx[0]
    prof = pure_profile(g, [(1, 0)] * 3)
    w = np.tile([-0.1, 0.9], (3, 1))
    w[1] = [-1, -1]
    w[2] = [-1, -1]
    report = check_average_limit_acceptable(g, prof, w, horizon=500)
    assert report.limit_ok and report.average_ok


def test_ir_equilibrium_profile_zero_gain():
    # A one-state game where the profile plays the one-shot equilibrium of
    # the continuation game: deviations cannot raise the continuation value.
    payoffs = np.zeros((1, 4, 2))
    payoffs[0] = [(0.2, 0.2), (0.0, 0.4), (0.4, 0.0), (0.1, 0.1)]
    transitions = np.ones((1, 4, 1))
    g = StochasticGame(("s",), (("a", "b"), ("c", "d")), payoffs, transitions)
    v1 = solve_uniform_minmax(g).uniform_values
    prof = pure_profile(g, [(0, 0)])
    report = check_individual_rationality(product_chain(g, prof), v1, eps=0.0)
    assert report.ok
    assert report.worst_gain <= 1e-9


def test_ir_flags_value_ignoring_profile(sorin_ctx):
    g, v1 = sorin_ctx[0], sorin_ctx[1]
    # Always play (T, L): player 2 could deviate to R... staying keeps value;
    # instead play (B-trigger-rich) profile ignoring punishment: (T, R) loop
    # gives player 1 limit 0, and deviating to B against R reaches value 2.
    prof = pure_profile(g, [(0, 1)] * 3)
    report = check_individual_rationality(product_chain(g, prof), v1, eps=0.05)
    assert not report.ok
    assert report.worst_gain > 1.0


def test_ir_measures_known_gain_on_synthesized(sorin_ctx):
    g, v1, _, _, prof = sorin_ctx
    report = check_individual_rationality(product_chain(g, prof), v1, eps=0.05)
    # The quitting phase exposes player 1's rich exit: measured, not hidden.
    assert report.worst_gain == pytest.approx(2.0 - 7 / 9 - 0.05 * 0, abs=0.2)
    assert not report.ok


def test_submartingale_sorin(sorin_ctx):
    g, v1, d, cls, prof = sorin_ctx
    report = check_submartingale(product_chain(g, prof), v1, d, cls)
    assert report.ok
    assert report.min_drift >= 0.1   # departure mixture strictly above value


def test_submartingale_layered_transients():
    from stogame.generators import random_layered_game
    from stogame.minmax import default_schedule

    g = random_layered_game(3001)
    v1 = solve_uniform_minmax(g, schedule=default_schedule(24)).uniform_values
    eq_sets = enumerate_all_states(g, v1)
    d = decompose(g, eq_sets, v1)
    u_star = continuation_values(g, v1)
    cls = [classify_set(g, c, 0.05, u_star) for c in d.sets]
    prof = assemble_profile(g, d, cls, 0.05)
    report = check_submartingale(product_chain(g, prof), v1, d, cls)
    assert report.ok
    kinds = {e.kind for e in report.entries}
    assert "transient" in kinds


def test_size_audits(sorin_ctx):
    g, _, _, _, prof = sorin_ctx
    audit = automaton_size_audit(g, prof)
    assert audit.ok and audit.bound == 6
    stat = StationaryProfile((np.tile([1.0, 0.0], (3, 1)),
                              np.tile([1.0, 0.0], (3, 1))))
    audit2 = automaton_size_audit(g, stat)
    assert audit2.ok and audit2.sizes == [3, 3] and audit2.bound == 3


def test_reports_are_reproducible(sorin_ctx):
    g, v1, d, cls, prof = sorin_ctx
    a = check_minmax_acceptable(product_chain(g, prof), v1, 0.05).to_dict()
    b = check_minmax_acceptable(product_chain(g, prof), v1, 0.05).to_dict()
    assert a == b
    ia = check_individual_rationality(product_chain(g, prof), v1, 0.05).to_dict()
    ib = check_individual_rationality(product_chain(g, prof), v1, 0.05).to_dict()
    assert ia == ib


def test_discounted_tail_approaches_limit(sorin_ctx):
    g, _, _, _, prof = sorin_ctx
    from stogame.automata import discounted_value

    model = product_chain(g, prof)
    lim = model.limit[model.node_of(0)]
    gaps = []
    for lam in (0.9, 0.99, 0.999, 0.9999):
        gaps.append(float(np.max(np.abs(
            discounted_value(model, lam)[model.node_of(0)] - lim))))
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))


def test_subgame_perfect_variant_checks_all_nodes(sorin_ctx):
    g, v1, _, _, prof = sorin_ctx
    report = check_minmax_acceptable(product_chain(g, prof), v1, 0.05, subgame_perfect=True)
    assert report.ok
    machine_states = {e.machine_state for e in report.entries}
    assert len(machine_states) > 1   # mid-cycle nodes audited too
    # mid-cycle continuation shifts toward the later exit but keeps margins
    phase2 = [e for e in report.entries
              if e.state == 0 and e.machine_state == 1 and e.player == 1]
    assert phase2 and phase2[0].limit_margin >= 0.1
