"""A set's product chain holds only the set's own nodes, and it must equal,
bit for bit, the set's block of the chain closed from every game state
(`oracles.whole_game_chain`): the machine fragments' rows, payoffs and
entry payoffs, the correlated sustainable rows' chain and limit, and the
correlated departing rows' first-exit law."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import hub_game, whole_game_chain
from stogame.automata import first_play_law, stationary_automaton
from stogame.builder import (
    _correlated_model,
    _entry_payoffs,
    _set_model,
    _standalone,
    build_type_a_fragment,
    build_type_b_fragment,
)
from stogame.chains import limit_average_values
from stogame.game import StochasticGame
from stogame.generators import acceptance_suite
from stogame.minmax import default_schedule
from stogame.pipeline import run_pipeline


def _fragment(game, cset, cls, set_meta):
    """The set's shipped fragment; a sustainable set whose tuning failed
    gets the fragment of the tuner's first delta."""
    if cls.kind == "B":
        return build_type_b_fragment(game, cset, cls.exit_plan)
    plan = cls.sustain
    if set_meta is not None:
        delta = set_meta["delta"]
    else:
        delta = 0.0 if len(plan.atoms) == 1 else float(plan.weights.min()) / 2.0
    return build_type_a_fragment(game, cset, plan, delta)


def _check_fragment(game, fragment, kind):
    model = _set_model(game, fragment)
    joint = _standalone(game, fragment).joint
    # The set's machine states, as `_set_model` starts them.
    labels = [(lab[2], q) for q, lab in enumerate(joint.labels) if lab[0] == 0]
    ref, ids = whole_game_chain(game, joint, labels)
    n = len(ids)
    assert model.nodes[:n] == labels
    block = ref.P[np.ix_(ids, ids)]
    np.testing.assert_array_equal(model.P[:n, :n], block)
    np.testing.assert_array_equal(model.r[:n], ref.r[ids])
    # Nodes outside the set are reached but never expanded.
    assert not model.P[n:].any()
    assert all(s not in fragment.region for s, _ in model.nodes[n:])
    if kind == "A":
        assert model.n_nodes == n
        want = limit_average_values(block, ref.r[ids])[:len(fragment.region)]
        np.testing.assert_array_equal(_entry_payoffs(game, fragment), want)


def _check_correlated(game, region, table, cls):
    rows = {s: table[s] for s in region}
    model = _correlated_model(game, region, rows)
    full = np.full((game.n_states, game.n_profiles), 1.0 / game.n_profiles)
    for s in region:
        full[s] = table[s]
    ref, ids = whole_game_chain(game, stationary_automaton(game, full),
                                [(s, s) for s in region])
    n = len(region)
    assert [s for s, _ in model.nodes[:n]] == list(region)
    if cls.kind == "A":
        block = ref.P[np.ix_(ids, ids)]
        np.testing.assert_array_equal(model.P[:n, :n], block)
        np.testing.assert_array_equal(
            limit_average_values(model.P[:n, :n], model.r[:n]),
            limit_average_values(block, ref.r[ids]))
    else:
        exits = cls.exit_plan.exits
        law = first_play_law(model, range(n),
                             {(region.index(s), a): l for l, (s, a) in enumerate(exits)},
                             len(exits))
        want = first_play_law(ref, ids,
                              {(ids[region.index(s)], a): l for l, (s, a) in enumerate(exits)},
                              len(exits))
        np.testing.assert_array_equal(law, want)


def _check_game(game, res) -> dict:
    """Check every classified set of a pipeline result; count them by kind."""
    seen = {"A": 0, "B": 0, "correlated": 0}
    if not res.classifications:
        return seen
    set_meta = None if res.profile is None else res.profile.meta["set_meta"]
    for k, (cset, cls) in enumerate(zip(res.decomposition.sets, res.classifications)):
        if cls.kind == "unclassifiable":
            continue
        seen[cls.kind] += 1
        fragment = _fragment(game, cset, cls, None if set_meta is None else set_meta[k])
        _check_fragment(game, fragment, cls.kind)
        if res.correlated is not None:
            seen["correlated"] += 1
            _check_correlated(game, cset.states, res.correlated.table, cls)
    return seen


def test_suite_set_chains_are_their_whole_game_blocks(suite_results):
    _, results = suite_results
    total = {"A": 0, "B": 0, "correlated": 0}
    for game, res in results:
        assert not res.errors, (game.name, res.errors)
        for key, count in _check_game(game, res).items():
            total[key] += count
    assert total["A"] and total["B"]
    assert total["correlated"] == total["A"] + total["B"]


def test_hub_set_chains_are_their_whole_game_blocks():
    game = hub_game(acceptance_suite()[::2], seed=7)
    assert game.n_states >= 90
    res = run_pipeline(game, eps=0.05, schedule=default_schedule(24))
    assert not res.errors, res.errors
    seen = _check_game(game, res)
    assert seen["A"] >= 10 and seen["B"] >= 1
    assert seen["correlated"] == seen["A"] + seen["B"]


@st.composite
def _small_games(draw):
    """Games of one to three states whose rows are point masses or
    Dirichlet draws, with one or two actions per player."""
    n = draw(st.integers(1, 3))
    counts = (draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    seed = draw(st.integers(0, 2**32 - 1))
    absorbing = draw(st.booleans())
    return _small_game(n, counts, seed, absorbing)


def _small_game(n, counts, seed, absorbing):
    rng = np.random.default_rng(seed)
    A = counts[0] * counts[1]
    transitions = np.zeros((n, A, n))
    for s in range(n):
        for a in range(A):
            if absorbing:
                transitions[s, a, s] = 1.0
            elif rng.random() < 0.5:
                transitions[s, a, rng.integers(n)] = 1.0
            else:
                transitions[s, a] = rng.dirichlet(np.ones(n))
    payoffs = rng.uniform(-1.0, 1.0, (n, A, 2)).round(2)
    actions = tuple(tuple(f"a{b}" for b in range(k)) for k in counts)
    return StochasticGame(tuple(f"s{s}" for s in range(n)), actions, payoffs,
                          transitions, name=f"small-{n}-{seed}")


# Every state absorbing, one state, and a player with one action.
_DEGENERATE = [(3, (2, 2), 1, True), (1, (2, 2), 2, False), (3, (1, 2), 3, False)]


@settings(max_examples=25, deadline=None)
@given(_small_games())
@example(_small_game(*_DEGENERATE[0]))
@example(_small_game(*_DEGENERATE[1]))
@example(_small_game(*_DEGENERATE[2]))
def test_small_game_set_chains_are_their_whole_game_blocks(game):
    res = run_pipeline(game, eps=0.05, schedule=default_schedule(12))
    _check_game(game, res)


@pytest.mark.parametrize("spec", _DEGENERATE)
def test_degenerate_examples_reach_the_checks(spec):
    # Each explicit example above has a set to check.
    game = _small_game(*spec)
    res = run_pipeline(game, eps=0.05, schedule=default_schedule(12))
    seen = _check_game(game, res)
    assert seen["A"] + seen["B"] >= 1
