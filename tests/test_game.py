import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    discounted_payoff_stationary,
    extend_payoff,
    extend_transition,
    induced_chain,
    pure_profile,
    validate_game_oracle,
)
import stogame
from stogame.game import (
    GameFormatError,
    StationaryProfile,
    StochasticGame,
    game_from_dict,
    game_to_dict,
    load_game,
    save_game,
    validate_game,
)
from stogame.generators import BUNDLED, random_dense_game, sorin_game, three_player_game
from stogame.simulate import simulate


def one_state_game(payoff=(0.5,)):
    payoffs = np.array([[[p for p in payoff]]], dtype=float)
    transitions = np.ones((1, 1, 1))
    return StochasticGame(("s",), tuple(("a",) for _ in payoff), payoffs, transitions)


@pytest.mark.parametrize("counts", [(2, 2), (3, 3), (2, 2, 2), (2, 1, 3)])
def test_player_indices_lay_out_own_action_by_coalition_profile(counts):
    names = tuple(tuple(f"p{i}a{k}" for k in range(c)) for i, c in enumerate(counts))
    n = math.prod(counts)
    game = StochasticGame(("s",), names, np.zeros((1, n, len(counts))), np.ones((1, n, 1)))
    flat = {profile: k for k, profile in enumerate(itertools.product(*map(range, counts)))}
    for i, index in enumerate(game.player_indices):
        others = [range(c) for k, c in enumerate(counts) if k != i]
        want = [[flat[rest[:i] + (a,) + rest[i:]] for rest in itertools.product(*others)]
                for a in range(counts[i])]
        assert index.tolist() == want
        assert not index.flags.writeable
    # Player 0's matrix is C-ordered and the last player's a transposed
    # (Fortran-ordered) view: the memory order the stage products use.
    first, last = game.player_indices[0], game.player_indices[-1]
    assert first.flags.c_contiguous
    assert last.flags.f_contiguous and not last.flags.c_contiguous
    assert game.player_indices is game.player_indices


def test_validate_well_formed():
    assert validate_game(one_state_game()) == []


def test_validate_bad_transition_mass():
    g = one_state_game()
    bad = StochasticGame(g.state_names, g.action_names, g.payoffs,
                         np.full((1, 1, 1), 0.9))
    report = validate_game(bad)
    assert len(report) == 1
    assert "transition mass 0.9" in report[0]


def test_validate_out_of_range_payoff():
    g = one_state_game(payoff=(1.5,))
    report = validate_game(g)
    assert any("outside" in msg for msg in report)


def test_validate_sorin_file_empty(tmp_path, sorin):
    path = tmp_path / "sorin.json"
    save_game(sorin, path)
    assert validate_game(load_game(path)) == []


def test_extend_transition_point_mass(sorin):
    alpha = np.zeros(4)
    alpha[0] = 1.0   # (T, L)
    np.testing.assert_allclose(extend_transition(sorin, 0, alpha), [1, 0, 0])


def test_extend_transition_mixture_linearity(sorin):
    alpha = np.array([0.5, 0.0, 0.5, 0.0])
    out = extend_transition(sorin, 0, alpha)
    np.testing.assert_allclose(out, 0.5 * sorin.transitions[0, 0] + 0.5 * sorin.transitions[0, 2])


def test_extend_payoff_entries(sorin):
    tl = np.array([1.0, 0, 0, 0])
    br = np.array([0, 0, 0, 1.0])
    np.testing.assert_allclose(extend_payoff(sorin, 0, tl), [1, 0])
    np.testing.assert_allclose(extend_payoff(sorin, 0, br), [2, 0])
    half = np.array([0.5, 0.5, 0, 0])
    np.testing.assert_allclose(extend_payoff(sorin, 0, half), [0.5, 0.5])


def test_extend_rejects_bad_distribution(sorin):
    with pytest.raises(ValueError):
        extend_transition(sorin, 0, np.array([0.5, 0.2, 0.0, 0.0]))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_extension_is_linear_in_alpha(seed, t):
    g = random_dense_game(seed % 1000 + 1, n_states=3)
    rng = np.random.default_rng(seed)
    a = rng.dirichlet(np.ones(g.n_profiles))
    b = rng.dirichlet(np.ones(g.n_profiles))
    mix = t * a + (1 - t) * b
    np.testing.assert_allclose(
        extend_transition(g, 0, mix),
        t * extend_transition(g, 0, a) + (1 - t) * extend_transition(g, 0, b),
        atol=1e-12)
    np.testing.assert_allclose(
        extend_payoff(g, 0, mix),
        t * extend_payoff(g, 0, a) + (1 - t) * extend_payoff(g, 0, b),
        atol=1e-12)


def test_discounted_constant_stream():
    g = one_state_game(payoff=(0.3, -0.2))
    prof = StationaryProfile((np.ones((1, 1)), np.ones((1, 1))))
    for lam in (0.0, 0.5, 0.9, 0.999):
        np.testing.assert_allclose(
            discounted_payoff_stationary(g, prof, lam, 0), [0.3, -0.2])


def test_discounted_sorin_fixed_profile_approaches_one_third(sorin):
    prof = StationaryProfile((np.tile([1.0, 0.0], (3, 1)),
                              np.tile([2 / 3, 1 / 3], (3, 1))))
    for lam in (0.9, 0.99, 0.9999):
        pay = discounted_payoff_stationary(sorin, prof, lam, 0)
        np.testing.assert_allclose(pay, [2 / 3, 1 / 3], atol=1e-12)


def test_discounted_sorin_immediate_absorption(sorin):
    prof = pure_profile(sorin, [(1, 0)] * 3)   # (B, L) everywhere
    np.testing.assert_allclose(
        discounted_payoff_stationary(sorin, prof, 0.5, 0), [0, 1], atol=1e-12)


def test_discounted_rejects_bad_lambda(sorin):
    prof = pure_profile(sorin, [(0, 0)] * 3)
    with pytest.raises(ValueError):
        discounted_payoff_stationary(sorin, prof, 1.0, 0)


def test_bellman_one_step_consistency():
    g = random_dense_game(7, n_states=4)
    rng = np.random.default_rng(3)
    table = np.stack([rng.dirichlet(np.ones(g.n_profiles)) for _ in range(4)])
    lam = 0.9
    P, r = induced_chain(g, table)
    gamma = discounted_payoff_stationary(g, table, lam)
    np.testing.assert_allclose(gamma, (1 - lam) * r + lam * P @ gamma, atol=1e-9)


def test_simulate_deterministic_game_zero_variance():
    g = one_state_game(payoff=(0.4,))
    prof = StationaryProfile((np.ones((1, 1)),))
    res = simulate(g, 0, prof, 0.5, seed=1, replications=50)
    np.testing.assert_allclose(res.mean, [0.4], atol=1e-12)
    np.testing.assert_allclose(res.std_error, [0.0], atol=1e-12)


def test_simulate_matches_exact_within_four_se(sorin):
    prof = StationaryProfile((np.tile([1.0, 0.0], (3, 1)),
                              np.tile([2 / 3, 1 / 3], (3, 1))))
    for lam, reps in ((0.5, 4000), (0.9, 4000), (0.99, 2000)):
        exact = discounted_payoff_stationary(sorin, prof, lam, 0)
        res = simulate(sorin, 0, prof, lam, seed=11, replications=reps)
        assert np.all(np.abs(res.mean - exact) <= 4 * res.std_error + 1e-9)


def test_simulate_seed_determinism(sorin):
    prof = pure_profile(sorin, [(0, 0)] * 3)
    a = simulate(sorin, 0, prof, 0.9, seed=5, replications=300)
    b = simulate(sorin, 0, prof, 0.9, seed=5, replications=300)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.state_visits, b.state_visits)


def test_game_file_round_trip(tmp_path):
    g = random_dense_game(42, n_states=3)
    path = tmp_path / "g.json"
    save_game(g, path)
    h = load_game(path)
    assert np.array_equal(g.payoffs, h.payoffs)
    assert np.array_equal(g.transitions, h.transitions)
    assert g.state_names == h.state_names


def test_bundled_game_files_match_their_generators():
    # `scripts/make_bundled_games.py` writes one file per bundled game.
    data = Path(stogame.__file__).parent / "data"
    assert sorted(p.stem for p in data.glob("*.json")) == sorted(BUNDLED)
    for name, make in BUNDLED.items():
        doc = json.loads((data / f"{name}.json").read_text())
        assert doc == game_to_dict(make()), name


def test_unspecified_transitions_parse_as_zero(sorin):
    doc = game_to_dict(sorin)
    del doc["transitions"]["s0"]["T/L"]["s0"]
    g = game_from_dict(doc)
    report = validate_game(g)
    assert any("transition mass 0.0" in msg for msg in report)


def test_parse_errors_raise(tmp_path):
    with pytest.raises(GameFormatError):
        load_game(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(GameFormatError):
        load_game(bad)
    nopay = tmp_path / "nopay.json"
    nopay.write_text(json.dumps({
        "players": 1, "states": ["s"], "actions": [["a"]],
        "payoffs": {}, "transitions": {"s": {"a": {"s": 1.0}}}}))
    with pytest.raises(GameFormatError):
        load_game(nopay)


@pytest.mark.parametrize("make", [sorin_game, three_player_game,
                                  lambda: random_dense_game(5, n_states=2, n_actions=3)])
def test_game_shape_is_computed_once(make):
    made = make()
    g = StochasticGame(made.state_names, made.action_names, made.payoffs, made.transitions)
    assert "action_counts" not in vars(g) and "n_profiles" not in vars(g)
    counts, n_profiles = g.action_counts, g.n_profiles
    assert vars(g)["action_counts"] is counts and vars(g)["n_profiles"] == n_profiles
    assert counts == tuple(len(acts) for acts in g.action_names)
    assert n_profiles == math.prod(counts) == g.payoffs.shape[1]


def _broken(game, seed: int, kinds, bound=None) -> StochasticGame:
    """`game` with each kind of violation in `kinds` at a few random (state,
    profile) pairs: a negative probability that keeps the mass, a mass off
    by more than the tolerance, a payoff beyond the bound, or a NaN or
    infinite transition probability or payoff; `bound` replaces the
    payoff bound when given."""
    rng = np.random.default_rng(seed)
    payoffs = game.payoffs.copy()
    transitions = game.transitions.copy()
    for kind in kinds:
        for _ in range(rng.integers(1, 4)):
            s, a = rng.integers(game.n_states), rng.integers(game.n_profiles)
            if kind == "negative":
                transitions[s, a, -1] += transitions[s, a, 0] + 0.25
                transitions[s, a, 0] = -0.25
            elif kind == "mass":
                transitions[s, a] *= 1.0 + rng.choice([-1, 1]) * rng.uniform(1e-8, 0.5)
            elif kind == "payoff":
                payoffs[s, a, rng.integers(game.n_players)] = rng.choice([-1, 1]) * 1.5
            elif kind == "wild transition":
                transitions[s, a, rng.integers(game.n_states)] = rng.choice([np.nan, np.inf])
            else:
                payoffs[s, a, rng.integers(game.n_players)] = rng.choice([np.nan, -np.inf])
    return StochasticGame(game.state_names, game.action_names, payoffs, transitions,
                          game.payoff_bound if bound is None else bound, game.name)


@pytest.mark.parametrize("seed", range(8))
def test_validation_matches_the_pair_by_pair_loop(seed):
    kinds = [["negative"], ["mass"], ["payoff"], ["negative", "mass", "payoff"]][seed % 4]
    for game in (random_dense_game(seed, n_states=4), three_player_game()):
        broken = _broken(game, seed, kinds)
        want = validate_game_oracle(broken)
        assert want and validate_game(broken) == want
    assert validate_game(random_dense_game(seed, n_states=4)) == []


@pytest.mark.parametrize("seed", range(6))
def test_non_finite_entries_match_the_pair_by_pair_loop(seed):
    # NaN compares false, so each non-finite entry needs its own test; a
    # non-finite row or payoff is reported as such and nothing else, and
    # the bound must be a finite non-negative number.
    kinds = [["wild transition"], ["wild payoff"],
             ["wild transition", "wild payoff", "negative", "mass", "payoff"]][seed % 3]
    bound = [None, np.nan, np.inf, -0.5, None, 2.0][seed]
    for game in (random_dense_game(seed, n_states=4), three_player_game()):
        broken = _broken(game, seed, kinds, bound)
        want = validate_game_oracle(broken)
        assert validate_game(broken) == want
        assert any(p.startswith("non-finite") for p in want)
        assert (bound is None or bound == 2.0) != any(p.startswith("payoff bound") for p in want)
    for bound in (np.nan, np.inf, -0.5):
        broken = _broken(random_dense_game(seed, n_states=2), seed, [], bound)
        problems = validate_game(broken)
        assert problems == validate_game_oracle(broken)
        assert problems[0] == f"payoff bound {bound!r} is not a finite non-negative number"
        assert (len(problems) > 1) == (bound == -0.5)


@pytest.mark.parametrize("field", ["payoff", "transition", "payoff_bound"])
@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", '"x"', "null"])
def test_non_finite_game_files_are_format_errors(tmp_path, field, value):
    # JSON accepts NaN and Infinity literals; such a file is a parse error,
    # like an entry that is not a number and a negative payoff bound.
    doc = game_to_dict(sorin_game())
    text = json.dumps(doc)
    if field == "payoff":
        text = text.replace("[1.0, 0.0]", f"[{value}, 0.0]", 1)
    elif field == "transition":
        text = text.replace('{"s0": 1.0}', f'{{"s0": {value}}}', 1)
    else:
        text = text.replace('"payoff_bound": 2.0', f'"payoff_bound": {value}')
    assert text != json.dumps(doc)
    path = tmp_path / "wild.json"
    path.write_text(text)
    what = {"payoff": "payoff at ('s0', 'T/L')", "payoff_bound": "payoff_bound",
            "transition": "transition probability at ('s0', 'T/L')"}[field]
    want = f"non-finite {what}" if value[0] in "NI-" else f"{what} is not a number"
    with pytest.raises(GameFormatError) as info:
        load_game(path)
    assert str(info.value).startswith(want)
    doc["payoff_bound"] = -1.0
    with pytest.raises(GameFormatError, match="payoff_bound -1.0 is negative"):
        game_from_dict(doc)


def test_shape_errors_match_the_pair_by_pair_loop():
    g = one_state_game()
    games = [
        StochasticGame(g.state_names, g.action_names, np.zeros((1, 2, 1)), g.transitions),
        StochasticGame(g.state_names, g.action_names, g.payoffs, np.ones((1, 1, 2))),
        StochasticGame(g.state_names, ((), ("y",)), np.zeros((1, 0, 2)), np.ones((1, 0, 1))),
        StochasticGame((), g.action_names, np.zeros((0, 1, 1)), np.zeros((0, 1, 0))),
    ]
    for bad in games:
        want = validate_game_oracle(bad)
        assert want and validate_game(bad) == want
