import warnings
from dataclasses import replace

import numpy as np
import pytest

import stogame.builder
from oracles import (
    departure_values,
    exit_play_law,
    first_exit_distribution,
    profile_index,
    simulate_first_exit,
    sustain_payoff,
    type_a_feasibility,
)
from stogame._util import DIST_TOL, json_ready
from stogame.automata import first_play_law
from stogame.builder import (
    EXIT_SCALE,
    ExitPlan,
    _correlated_type_b_rows,
    assemble_profile,
    build_correlated_stationary,
    classify_set,
    companion_action,
    exit_options,
    solve_eta,
    sustain_target,
    tune_type_a,
)
from stogame.game import StationaryCorrelated, StochasticGame
from stogame.generators import (
    BUNDLED,
    bundled_game,
    random_banded_exit_game,
    random_dense_game,
    sorin_game,
)
from stogame.minmax import solve_uniform_minmax
from stogame.oneshot import continuation_values, enumerate_all_states
from stogame.pipeline import run_pipeline
from stogame.structure import CommunicatingSet, decompose, mutually_leading, safe_profiles
from stogame.verify import product_chain


@pytest.fixture(scope="module")
def sorin_ctx():
    g = sorin_game()
    v1 = solve_uniform_minmax(g).uniform_values
    u_star = continuation_values(g, v1)
    eq_sets = enumerate_all_states(g, u_star)
    d = decompose(g, eq_sets, v1)
    cls = [classify_set(g, c, 0.05, u_star) for c in d.sets]
    return g, v1, d, cls


def test_exits_fully_closed_region_empty(sorin_ctx):
    g = sorin_ctx[0]
    exits, q_min = exit_options(g, safe_profiles(g, [1]))
    assert exits == [] and q_min is None


def test_exits_sorin_core(sorin_ctx):
    g = sorin_ctx[0]
    exits, q_min = exit_options(g, safe_profiles(g, [0]))
    assert [(s, g.profile_key(a)) for s, a in exits] == [(0, "B/L"), (0, "B/R")]
    assert q_min == pytest.approx(1.0)


def test_exits_skip_leak_within_closed_tolerance():
    # Profile (0, 0) leaks 1e-10 from the singleton region, inside the
    # tolerance at which it counts as safe: it is a companion, not an exit.
    payoffs = np.zeros((2, 4, 2))
    transitions = np.zeros((2, 4, 2))
    transitions[0, :, 1] = 1.0
    transitions[0, 0] = [1.0 - 1e-10, 1e-10]
    transitions[1, :, 1] = 1.0
    g = StochasticGame(("a", "b"), (("x", "y"), ("u", "v")), payoffs, transitions)
    exits, q_min = exit_options(g, safe_profiles(g, [0]))
    assert exits == [(0, 1), (0, 2), (0, 3)] and q_min == pytest.approx(1.0)
    assert companion_action(g, safe_profiles(g, [0])[0], 1) == (0, 1)


def test_companion_single_switch(sorin_ctx):
    g = sorin_ctx[0]
    # (B, L) -> switch player 1 back to T
    comp, dev = companion_action(g, safe_profiles(g, [0])[0], profile_index(g, (1, 0)))
    assert g.profile_key(comp) == "T/L" and dev == 0
    comp, dev = companion_action(g, safe_profiles(g, [0])[0], profile_index(g, (1, 1)))
    assert g.profile_key(comp) == "T/R" and dev == 0


def test_companion_absent_when_every_switch_exits():
    # Both actions of both players leave the singleton region.
    payoffs = np.zeros((2, 4, 2))
    transitions = np.zeros((2, 4, 2))
    transitions[0, :, 1] = 1.0
    transitions[1, :, 1] = 1.0
    g = StochasticGame(("a", "b"), (("x", "y"), ("u", "v")), payoffs, transitions)
    assert companion_action(g, safe_profiles(g, [0])[0], 0) is None


def test_a_classified_set_reads_its_safe_profiles_once(sorin_ctx, monkeypatch):
    # The departure test's exits, companions and diagnostics share one
    # safe-profile scan (the sustain test builds its own sub-MDP), and the
    # classification is the same.
    g, v1, d, cls = sorin_ctx
    calls = []

    def counted(game, region):
        calls.append(tuple(region))
        return safe_profiles(game, region)

    monkeypatch.setattr(stogame.builder, "safe_profiles", counted)
    u_star = continuation_values(g, v1)
    for cset, want in zip(d.sets, cls):
        calls.clear()
        got = classify_set(g, cset, 0.05, u_star)
        assert calls == ([] if want.kind == "A" and "note" not in want.diagnostics
                         else [tuple(cset.states)])
        assert json_ready(got) == json_ready(want)
    assert any(c.kind == "B" for c in cls)


def test_solve_eta_single_exit():
    eta = solve_eta(np.array([1.0]))
    np.testing.assert_allclose(eta, [EXIT_SCALE])
    np.testing.assert_allclose(first_exit_distribution(eta), [1.0])


def test_solve_eta_symmetric():
    eta = solve_eta(np.array([0.5, 0.5]))
    law = first_exit_distribution(eta)
    np.testing.assert_allclose(law, [0.5, 0.5], atol=1e-12)
    assert eta[1] > eta[0]   # later phases compensate for earlier silence


@pytest.mark.parametrize("seed", range(5))
def test_solve_eta_round_trip_and_simulation(seed):
    rng = np.random.default_rng(seed)
    L = int(rng.integers(2, 5))
    beta = rng.dirichlet(np.ones(L) * 2.0)
    beta = np.clip(beta, 0.02, None)
    beta = beta / beta.sum()
    eta = solve_eta(beta)
    law = first_exit_distribution(eta)
    assert float(np.max(np.abs(law - beta))) <= 1e-10
    emp = simulate_first_exit(eta, trials=40_000, seed=seed)
    se = np.sqrt(beta * (1 - beta) / 40_000)
    assert np.all(np.abs(emp - beta) <= 4 * se + 1e-12)


def test_solve_eta_rejects_bad_input():
    with pytest.raises(ValueError):
        solve_eta(np.array([1.0, 0.0]))


def test_sorin_classification(sorin_ctx):
    g, v1, d, cls = sorin_ctx
    kinds = {c.states: k.kind for c, k in zip(d.sets, cls)}
    assert kinds == {(0,): "B", (1,): "A", (2,): "A"}
    plan = cls[0].exit_plan
    # Hand analysis: maximize t with 2(1-b) >= 0.6167 + t and b >= 0.45 + t
    # gives b = 11/18 and value mix (7/9, 11/18).
    np.testing.assert_allclose(plan.beta, [11 / 18, 7 / 18], atol=1e-9)
    np.testing.assert_allclose(plan.achieved, [7 / 9, 11 / 18], atol=1e-9)


def test_a_closed_set_above_its_best_payoff_keeps_a_thin_plan_or_none(sorin_ctx):
    # Sorin's absorbing state (1,) has no exits and sustains exactly its
    # value.  Raised by 0.4 eps, its value leaves the plan a slack of 0.6 eps,
    # enough for an outright acceptance; raised by 0.75 eps, a slack of
    # eps/4, short of the eps/2 that acceptance needs, and the departure
    # test has no exit to try; raised by 2 eps, no plan meets it at all.
    g, v1, d, cls = sorin_ctx
    absorbing, eps = d.sets[1], 0.05
    assert absorbing.states == (1,)
    u_star = continuation_values(g, v1)
    raised = replace(absorbing, value=absorbing.value + 0.4 * eps)
    kept = classify_set(g, raised, eps, u_star)
    assert kept.kind == "A" and "note" not in kept.diagnostics
    raised = replace(absorbing, value=absorbing.value + 0.75 * eps)
    thin = classify_set(g, raised, eps, u_star)
    assert thin.kind == "A" and thin.exit_plan is None
    assert thin.diagnostics["note"] == ("sustain plan kept with thin slack; "
                                        "departure test infeasible")
    np.testing.assert_allclose(thin.sustain.achieved, absorbing.value, atol=1e-12)
    assert thin.diagnostics["sustain_slack"] == pytest.approx(0.25 * eps, abs=1e-12)
    raised = replace(absorbing, value=absorbing.value + 2.0 * eps)
    none = classify_set(g, raised, eps, u_star)
    assert none.kind == "unclassifiable"
    assert none.sustain is None and none.exit_plan is None
    assert none.diagnostics["sustain_slack"] is None
    assert none.diagnostics["exit_count"] == 0 and none.diagnostics["min_exit_mass"] is None
    assert none.diagnostics["note"] == "both feasibility tests failed at the requested slack"


def test_exit_plan_invariants(sorin_ctx):
    g, v1, d, cls = sorin_ctx
    plan = cls[0].exit_plan
    u_star = continuation_values(g, v1)
    mix = plan.beta @ np.stack([u_star[s, a] for s, a in plan.exits])
    assert np.all(mix >= plan.target - 1e-9)           # E.1
    for (s, a), comp, dev in zip(plan.exits, plan.companions, plan.deviators):
        assert g.transitions[s, comp, 0] == pytest.approx(1.0)   # E.2: stays
        pa = g.profile_of_index(a)
        pc = g.profile_of_index(comp)
        diffs = [i for i in range(2) if pa[i] != pc[i]]
        assert diffs == [dev]                                     # E.3


def test_type_b_machine_exit_law_and_departure(sorin_ctx):
    g, v1, d, cls = sorin_ctx
    plan = cls[0].exit_plan
    law = exit_play_law(g, d.sets[0], plan)
    assert float(np.max(np.abs(law - plan.beta))) <= 1e-9
    W, stay = departure_values(g, d.sets[0], plan, v1)
    assert stay <= 1e-12                                   # F.2
    assert np.all(W >= plan.target - 1e-6)                 # F.3
    np.testing.assert_allclose(W[0], [7 / 9, 11 / 18], atol=1e-9)


def test_type_a_single_atom_exact(sorin_ctx):
    g, v1, d, cls = sorin_ctx
    plan = cls[1].sustain
    delta, payoff, _ = tune_type_a(g, d.sets[1], plan, 0.05)
    assert delta == 0.0
    np.testing.assert_allclose(payoff, [[0.0, 1.0]], atol=1e-12)


def test_type_a_mixture_converges_with_delta():
    # Two payoff-opposed cycles mixed half-and-half: the machine's long-run
    # payoff approaches the mixture as the switch rate vanishes.
    payoffs = np.zeros((2, 1, 2))
    payoffs[0, 0] = [1.0, 0.0]
    payoffs[1, 0] = [0.0, 1.0]
    transitions = np.zeros((2, 1, 2))
    transitions[0, 0, 0] = 1.0
    transitions[1, 0, 1] = 1.0
    g = StochasticGame(("a", "b"), (("x",), ("y",)), payoffs, transitions)
    # both singletons are absorbing cycles; region {0,1} is not communicating
    # under this kernel, so drive the mixture directly through the sustain
    # machinery on a connected variant:
    transitions = np.zeros((2, 1, 2))
    transitions[0, 0] = [0.9, 0.1]
    transitions[1, 0] = [0.1, 0.9]
    g = StochasticGame(("a", "b"), (("x",), ("y",)), payoffs, transitions)
    from stogame.frequencies import enumerate_recurrent_points

    points = enumerate_recurrent_points(g, [0, 1])
    assert len(points) == 1    # single mixing class
    plan = type_a_feasibility(g, [0, 1], np.array([0.4, 0.4]), points=points)
    assert plan is not None
    cset = CommunicatingSet((0, 1), np.full(2, 0.5), mutually_leading(g, (0, 1)))
    payoff = sustain_payoff(g, cset, plan, 0.0)
    np.testing.assert_allclose(payoff, [[0.5, 0.5]] * 2, atol=1e-9)


def test_delta_sweep_payoff_convergence():
    # Use a dense game where the best mixture may need several atoms.
    g = random_dense_game(1004, n_states=4)
    v1 = solve_uniform_minmax(g).uniform_values
    u_star = continuation_values(g, v1)
    eq_sets = enumerate_all_states(g, u_star)
    d = decompose(g, eq_sets, v1)
    cls = classify_set(g, d.sets[0], 0.05, u_star)
    plan = cls.sustain
    if len(plan.atoms) >= 2:
        target = plan.achieved
        errs = []
        for delta in (0.1, 0.01, 0.001):
            delta = min(delta, float(plan.weights.min()) / 2)
            payoff = sustain_payoff(g, d.sets[0], plan, delta)
            errs.append(float(np.max(np.abs(payoff - target))))
        assert errs[-1] <= max(errs[0], 1e-6)
        assert errs[-1] <= 0.01


def test_classify_dense_is_sustainable():
    g = random_dense_game(1007, n_states=3)
    v1 = solve_uniform_minmax(g).uniform_values
    u_star = continuation_values(g, v1)
    eq_sets = enumerate_all_states(g, u_star)
    d = decompose(g, eq_sets, v1)
    assert len(d.sets) == 1
    cls = classify_set(g, d.sets[0], 0.05, u_star)
    assert cls.kind == "A"
    assert np.all(cls.sustain.achieved >= d.sets[0].value - 0.025)


def test_assemble_blocks_on_unclassifiable(sorin_ctx):
    g, v1, d, cls = sorin_ctx
    from stogame.builder import Classification

    broken = [Classification("unclassifiable")] + cls[1:]
    with pytest.raises(RuntimeError):
        assemble_profile(g, d, broken, 0.05)


def test_assembled_machine_size_bound(sorin_ctx):
    g, v1, d, cls = sorin_ctx
    prof = assemble_profile(g, d, cls, 0.05)
    assert prof.joint.size <= g.n_states * g.n_players
    assert set(prof.joint.init) == set(range(g.n_states))


def test_correlated_sorin_exit_law(sorin_ctx):
    g, v1, d, cls = sorin_ctx
    corr = build_correlated_stationary(g, d, cls, 0.05)
    plan = cls[0].exit_plan
    row = corr.table[0]
    exit_mass = np.array([row[a] for _, a in plan.exits])
    np.testing.assert_allclose(exit_mass / exit_mass.sum(), plan.beta, atol=1e-9)
    # rows are distributions
    np.testing.assert_allclose(corr.table.sum(axis=1), np.ones(3), atol=1e-12)


def test_multi_state_departing_set_machinery():
    g = random_banded_exit_game(4003)   # two-core symmetric variant
    v1 = solve_uniform_minmax(g).uniform_values
    u_star = continuation_values(g, v1)
    eq_sets = enumerate_all_states(g, u_star)
    d = decompose(g, eq_sets, v1)
    two_state = [c for c in d.sets if len(c.states) == 2]
    assert two_state, "expected a two-state departing set"
    cls = classify_set(g, two_state[0], 0.05, u_star)
    assert cls.kind == "B"
    law = exit_play_law(g, two_state[0], cls.exit_plan)
    assert float(np.max(np.abs(law - cls.exit_plan.beta))) <= 1e-9
    W, stay = departure_values(g, two_state[0], cls.exit_plan, v1)
    assert stay <= 1e-10
    assert np.all(W >= two_state[0].value - 1e-6)


def partial_exit_game():
    """Quitting core whose exits put half their mass back into the core, so
    playing an exit does not always end the block."""
    g = random_banded_exit_game(4000)
    payoffs = g.payoffs.copy()
    transitions = g.transitions.copy()
    # exits at the core state 0: profiles 2 and 3; return half the mass home
    for a, dest in ((2, 1), (3, 2)):
        transitions[0, a, :] = 0.0
        transitions[0, a, 0] = 0.5
        transitions[0, a, dest] = 0.5
    return StochasticGame(g.state_names, g.action_names, payoffs, transitions,
                          name="partial-exit")


def test_partial_mass_exits_end_to_end():
    g = partial_exit_game()
    v1 = solve_uniform_minmax(g).uniform_values
    u_star = continuation_values(g, v1)
    eq_sets = enumerate_all_states(g, u_star)
    d = decompose(g, eq_sets, v1)
    cls = [classify_set(g, c, 0.05, u_star) for c in d.sets]
    core = [k for k, c in enumerate(d.sets) if 0 in c.states]
    assert core and cls[core[0]].kind == "B"
    plan = cls[core[0]].exit_plan
    ex, q_min = exit_options(g, safe_profiles(g, d.sets[core[0]].states))
    assert q_min == pytest.approx(0.5)
    # first-played law still exact (the coin process ignores where mass goes)
    law = exit_play_law(g, d.sets[core[0]], plan)
    assert float(np.max(np.abs(law - plan.beta))) <= 1e-9
    W, stay = departure_values(g, d.sets[core[0]], plan, v1)
    assert stay <= 1e-10
    assert np.all(W >= d.sets[core[0]].value - 1e-6)
    prof = assemble_profile(g, d, cls, 0.05)
    from stogame.verify import check_minmax_acceptable, check_submartingale

    chain = product_chain(g, prof)
    assert check_minmax_acceptable(chain, v1, 0.05).ok
    sub = check_submartingale(chain, v1, d, cls)
    assert sub.min_drift >= -1e-6


def test_absorbing_state_with_action_dependent_payoffs():
    # A matching-pennies absorbing state still classifies sustainable: the
    # balanced action mixture meets both players' values.
    payoffs = np.zeros((1, 4, 2))
    payoffs[0] = [(0.4, -0.4), (-0.4, 0.4), (-0.4, 0.4), (0.4, -0.4)]
    transitions = np.ones((1, 4, 1))
    g = StochasticGame(("arena",), (("h", "t"), ("H", "T")), payoffs, transitions)
    v1 = solve_uniform_minmax(g).uniform_values
    np.testing.assert_allclose(v1[0], [0.0, 0.0], atol=1e-8)
    u_star = continuation_values(g, v1)
    eq_sets = enumerate_all_states(g, u_star)
    d = decompose(g, eq_sets, v1)
    cls = classify_set(g, d.sets[0], 0.05, u_star)
    assert cls.kind == "A"
    assert np.all(cls.sustain.achieved >= -1e-9)


def opposed_cycles_game():
    """Two opposed home states: staying together pays the host player (1, 0)
    or (0, 1); any movement profile pays (-0.2, -0.2) and swaps the state."""
    payoffs = np.zeros((2, 4, 2))
    transitions = np.zeros((2, 4, 2))
    for s in (0, 1):
        for a in range(4):
            if a == 0:
                payoffs[s, a] = [1.0, 0.0] if s == 0 else [0.0, 1.0]
                transitions[s, a, s] = 1.0
            else:
                payoffs[s, a] = [-0.2, -0.2]
                transitions[s, a, 1 - s] = 1.0
    return StochasticGame(("home0", "home1"), (("stay", "go"), ("stay", "go")),
                          payoffs, transitions, name="opposed-cycles")


def test_opposed_cycles_delta_sweep():
    g = opposed_cycles_game()
    v1 = solve_uniform_minmax(g).uniform_values
    np.testing.assert_allclose(v1, -0.2, atol=1e-8)
    u_star = continuation_values(g, v1)
    eq_sets = enumerate_all_states(g, u_star)
    d = decompose(g, eq_sets, v1)
    assert [c.states for c in d.sets] == [(0, 1)]
    cls = classify_set(g, d.sets[0], 0.05, u_star)
    assert cls.kind == "A"
    plan = cls.sustain
    np.testing.assert_allclose(plan.weights, [0.5, 0.5], atol=1e-9)
    np.testing.assert_allclose(plan.achieved, [0.5, 0.5], atol=1e-9)
    # long-run payoff approaches the balanced mixture as the switch rate
    # vanishes; at 1e-3 the frequency sits within 0.01 of it
    gaps = []
    for delta in (0.1, 0.01, 0.001):
        payoff = sustain_payoff(g, d.sets[0], plan, delta)
        gaps.append(float(np.max(np.abs(payoff - 0.5))))
    assert gaps[2] <= gaps[0] + 1e-12
    assert gaps[2] <= 0.01


def test_opposed_cycles_correlated_multichain_tuner():
    g = opposed_cycles_game()
    res_rows = None
    v1 = solve_uniform_minmax(g).uniform_values
    u_star = continuation_values(g, v1)
    eq_sets = enumerate_all_states(g, u_star)
    d = decompose(g, eq_sets, v1)
    cls = classify_set(g, d.sets[0], 0.05, u_star)
    from stogame.builder import _correlated_type_a_rows

    rows = _correlated_type_a_rows(g, d.sets[0], cls.sustain, 0.05)
    table = np.stack([rows[0], rows[1]])
    from stogame.verify import check_minmax_acceptable

    chain = product_chain(g, StationaryCorrelated(table))
    assert check_minmax_acceptable(chain, v1, 0.05).ok
    # both states keep most mass on staying home, with a small travel blend
    assert table[0, 0] > 0.9 and table[1, 0] > 0.9


def _correlated_exit_law(game, table, region, plan):
    """First-exit law of a stationary correlated table on the verifiers'
    product chain, one row per state of the region."""
    model = product_chain(game, table)
    inside = [model.node_of(s) for s in region]
    marked = {(model.node_of(s), a): l for l, (s, a) in enumerate(plan.exits)}
    return first_play_law(model, inside, marked, len(plan.exits))


def test_degenerate_exit_law_ends_the_correlated_tuner():
    # With these exits the scaling shrinks the exit weights until none of
    # them registers in the law (round 37); the tuner must stop there,
    # without dividing by the law's zero mass, and keep its best rows
    # (round 24, residual 3.8e-9).
    g = random_banded_exit_game(4003)
    v1 = solve_uniform_minmax(g).uniform_values
    d = decompose(g, enumerate_all_states(g, continuation_values(g, v1)), v1)
    cset = next(c for c in d.sets if len(c.states) == 2)
    region = cset.states
    exits = [(0, 2), (1, 2)]
    found = [companion_action(g, safe_profiles(g, region)[s], a) for s, a in exits]
    beta = np.array([0.5, 0.5])
    plan = ExitPlan(exits=exits, companions=[c for c, _ in found],
                    deviators=[i for _, i in found], beta=beta,
                    eta=solve_eta(beta), scale=EXIT_SCALE, target=np.zeros(2),
                    achieved=np.zeros(2), slack=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = _correlated_type_b_rows(g, cset, plan)
    best = np.array([0.9999999940395355, 0.0, 5.960464477539063e-09, 0.0])
    assert sorted(rows) == list(region)
    for s in region:
        np.testing.assert_array_equal(rows[s], best)
    table = np.full((g.n_states, g.n_profiles), 1.0 / g.n_profiles)
    for s in region:
        table[s] = rows[s]
    law = _correlated_exit_law(g, table, region, plan)
    assert float(np.max(np.abs(law - beta))) <= 1e-7


def test_shipped_correlated_table_is_the_tuned_one(suite_results):
    # The verifiers judge the shipped table on the product chain of its
    # stationary machine: there every departing set plays its planned
    # first-exit law from each of its states, and every sustainable set's
    # limit payoffs clear the target its rows were tuned to.
    _, results = suite_results
    seen = {"A": 0, "B": 0}
    for game, res in results:
        limit = {(e.state, e.player): e.limit_payoff
                 for e in res.correlated_acceptability.entries}
        for cset, cls in zip(res.decomposition.sets, res.classifications):
            seen[cls.kind] += 1
            if cls.kind == "B":
                law = _correlated_exit_law(game, res.correlated, cset.states, cls.exit_plan)
                assert float(np.max(np.abs(law - cls.exit_plan.beta))) <= 1e-7, game.name
            else:
                target = sustain_target(cset.value, cls.sustain, res.eps)
                for s in cset.states:
                    for i in range(game.n_players):
                        assert limit[(s, i)] >= target[i] - 1e-9, (game.name, s, i)
    assert seen["A"] and seen["B"]


def test_classification_makes_no_lp_call(suite_results, monkeypatch):
    # Every master is a matrix game its kernels solve, and pricing is policy
    # iteration, so classifying the suite's sets never reaches linprog.
    def no_lp(*args, **kwargs):
        raise AssertionError("classification called linprog")

    monkeypatch.setattr("stogame.matrixgame.linprog", no_lp)
    monkeypatch.setattr("stogame.frequencies.linprog", no_lp, raising=False)
    _, results = suite_results
    for game, res in results:
        u_star = continuation_values(game, res.v1)
        for cset, cls in zip(res.decomposition.sets, res.classifications):
            again = classify_set(game, cset, res.eps, u_star)
            assert again.diagnostics["master_lp"] == 0
            assert json_ready(again) == json_ready(cls)


def test_tuning_certifies_the_shipped_machine(suite_results):
    # The per-set analysis runs on each set's standalone machine; the
    # verifiers read the assembled machine.  Both must see the same numbers:
    # the tuned entry payoffs of every sustainable set are the assembled
    # chain's limit payoffs, and the departure values of every departing set
    # are the submartingale check's.
    _, results = suite_results
    seen = {"A": 0, "B": 0}
    for game, res in results:
        model = product_chain(game, res.profile)
        lim = model.limit
        at_departure = {(e.detail["set"], e.state): e.detail["expected_at_departure"]
                        for e in res.submartingale.entries if e.kind == "departing-set"}
        for k, (cset, cls) in enumerate(zip(res.decomposition.sets, res.classifications)):
            seen[cls.kind] += 1
            if cls.kind == "A":
                shipped = [lim[model.node_of(s)] for s in cset.states]
                np.testing.assert_allclose(res.profile.meta["set_meta"][k]["entry_payoffs"],
                                           shipped, rtol=0, atol=1e-12)
            else:
                W, _ = departure_values(game, cset, cls.exit_plan, res.v1)
                checked = [at_departure[(k, s)] for s in cset.states]
                np.testing.assert_allclose(W, checked, rtol=0, atol=1e-12)
    assert seen["A"] and seen["B"]


def test_set_machines_never_fall_back_inside_their_set(suite_results):
    # Every input a set machine can meet while play stays in its set has a
    # stored transition; only transient states re-dispatch by fallback.
    _, results = suite_results
    for game, res in results:
        joint = res.profile.joint
        regions = res.profile.meta["regions"]
        for s, q in product_chain(game, joint).nodes:
            label = joint.labels[q]
            if label[0] == "tr" or s not in regions[label[0]]:
                continue
            for a in np.nonzero(joint.outputs[q] > DIST_TOL)[0]:
                for s_next in np.nonzero(game.transitions[s, a] > DIST_TOL)[0]:
                    assert (q, int(a), int(s_next)) in joint.transitions, (game.name, label)


def test_every_node_at_a_set_state_runs_that_sets_machine(suite_results):
    # `check_submartingale` takes a departing set's nodes to be the product
    # nodes at its states: every edge into a set re-dispatches there.
    _, results = suite_results
    for game, res in results:
        joint = res.profile.joint
        set_of = {s: k for k, region in enumerate(res.profile.meta["regions"])
                  for s in region}
        for s, q in product_chain(game, joint).nodes:
            assert joint.labels[q][0] == set_of.get(s, "tr"), (game.name, s, joint.labels[q])


def _travel_phases(res):
    """Every (set machine, phase, off-target state, flat profile it plays,
    witness profile) of `res`'s machine: a departing set's phase travels to
    its exit state, a sustainable set's to its atom's class, both by the
    witness of the phase's target (the exit state, the class's first
    state)."""
    joint = res.profile.joint
    node = {lab: q for q, lab in enumerate(joint.labels)}
    out = []
    for k, (cset, cls) in enumerate(zip(res.decomposition.sets, res.classifications)):
        assert cset.states == tuple(sorted(cset.states))
        if cls.kind == "A":
            phases = [(atom.states[0], set(atom.actions)) for atom in cls.sustain.atoms]
        else:
            phases = [(s, {s}) for s, _ in cls.exit_plan.exits]
        for l, (target, arrived) in enumerate(phases):
            for s in cset.states:
                if s in arrived:
                    continue
                played = np.flatnonzero(joint.outputs[node[(k, l, s)]]).tolist()
                out.append((k, l, s, played, [cset.travel_witnesses[target][s]]))
    return out


def test_set_machines_travel_by_the_decompositions_witnesses(suite_results):
    # The travel actions shipped in `decompose.json` are the ones the
    # machines play, on the acceptance suite (whose sustainable atoms cover
    # their sets) and the bundled games (where mdp3's does not).
    results = list(suite_results[1])
    results += [(g, run_pipeline(g, eps=0.05)) for g in map(bundled_game, sorted(BUNDLED))]
    seen = {"A": 0, "B": 0}
    for game, res in results:
        for k, l, s, played, witness in _travel_phases(res):
            assert played == witness, (game.name, k, l, s)
            seen[res.classifications[k].kind] += 1
    assert seen["A"] and seen["B"]


def test_a_multi_state_class_is_reached_by_its_first_states_witness():
    # From "start", x moves to "right" and y to "left"; the sustain plan
    # cycles on {left, right} with x.  The attractor of the whole class
    # takes x at "start", the witness of its first state "left" takes y.
    payoffs = np.zeros((3, 2, 2))
    transitions = np.zeros((3, 2, 3))
    transitions[0, 0, 2] = transitions[0, 1, 1] = 1.0
    transitions[1, 0, 2] = transitions[1, 1, 0] = 1.0
    transitions[2, 0, 1] = transitions[2, 1, 0] = 1.0
    payoffs[1, 0] = payoffs[2, 0] = 1.0
    g = StochasticGame(("start", "left", "right"), (("x", "y"), ("z",)), payoffs,
                       transitions, name="two-door-cycle")
    res = run_pipeline(g, eps=0.05)
    assert res.ok
    [cls] = res.classifications
    assert cls.kind == "A" and [a.states for a in cls.sustain.atoms] == [(1, 2)]
    assert _travel_phases(res) == [(0, 0, 0, [1], [1])]
    assert res.correlated.table[0].tolist() == [0.0, 1.0]
