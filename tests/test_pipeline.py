import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import hub_game
from stogame.game import StochasticGame
from stogame.minmax import default_schedule
from stogame.pipeline import classify_game, run_pipeline
from test_structure import two_block_game


def test_pipeline_sorin(sorin_result):
    res = sorin_result
    assert res.ok
    summ = res.summary()
    assert summ["kinds"] == ["B", "A", "A"]
    assert summ["profile_acceptable"] and summ["correlated_acceptable"]
    np.testing.assert_allclose(res.v1[0], [2 / 3, 0.5], atol=1e-6)


def test_each_strategy_is_judged_on_one_chain_with_one_limit(sorin, monkeypatch):
    # One chain for the machine profile and one for the correlated table,
    # each with its Cesaro limit solved once, however many checks read it.
    import stogame.automata
    import stogame.verify

    calls = {"chains": 0, "limits": 0}

    def counted(key, original):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(stogame.verify, "build_product_model",
                        counted("chains", stogame.verify.build_product_model))
    monkeypatch.setattr(stogame.automata, "limit_average_values",
                        counted("limits", stogame.automata.limit_average_values))
    res = run_pipeline(sorin, eps=0.05)
    assert res.ok
    assert calls == {"chains": 2, "limits": 2}


def test_pipeline_two_block_game():
    res = run_pipeline(two_block_game(), eps=0.05, schedule=default_schedule(22))
    assert res.ok
    assert [c.states for c in res.decomposition.sets] == [(1, 2), (3, 4, 5)]
    assert res.decomposition.transient == (0,)


def test_pipeline_three_action_game():
    rng = np.random.default_rng(31337)
    n_states, n_profiles = 3, 9
    payoffs = rng.uniform(-1, 1, size=(n_states, n_profiles, 2))
    transitions = np.zeros((n_states, n_profiles, n_states))
    for s in range(n_states):
        for a in range(n_profiles):
            row = rng.dirichlet(np.ones(n_states))
            row = 0.7 * row + 0.1
            transitions[s, a] = row / row.sum()
    game = StochasticGame(("x", "y", "z"), (("a", "b", "c"), ("d", "e", "f")),
                          payoffs, transitions, name="dense-3x3")
    res = run_pipeline(game, eps=0.05, schedule=default_schedule(18))
    assert res.ok
    assert [c.kind for c in res.classifications] == ["A"]


def test_pipeline_rejects_nonpositive_eps(sorin):
    with pytest.raises(ValueError):
        run_pipeline(sorin, eps=0.0)


def test_summary_is_json_ready(sorin_result):
    import json

    json.dumps(sorin_result.summary())


def test_reports_serialize_by_their_fields(sorin_result, tmp_path):
    from dataclasses import dataclass, fields

    from stogame._util import dump_json, json_ready

    @dataclass
    class Renamed:
        x: int

        def to_dict(self):
            return {"renamed": self.x}

    @dataclass
    class Inner:
        z: np.float64
        pair: tuple

    @dataclass
    class Outer:
        name: str
        values: np.ndarray
        inner: Inner
        keyed: dict
        missing: object

    inner = Inner(np.float64(1.5), (np.int64(2), np.bool_(True)))
    doc = json_ready(Outer("o", np.arange(3) / 2, inner, {1: Renamed(4)}, None))
    # Fields in declaration order, recursively; a `to_dict` takes precedence.
    assert doc == {"name": "o", "values": [0.0, 0.5, 1.0],
                   "inner": {"z": 1.5, "pair": [2, True]},
                   "keyed": {"1": {"renamed": 4}}, "missing": None}
    assert list(doc) == ["name", "values", "inner", "keyed", "missing"]
    assert list(doc["inner"]) == ["z", "pair"]
    assert [type(v) for v in (doc["inner"]["z"], *doc["inner"]["pair"])] == [float, int, bool]
    assert json_ready(None) is None
    res = sorin_result
    assert list(json_ready(res.acceptability)) == [f.name for f in fields(res.acceptability)]
    # `dump_json` applies the same rule: a report and its `json_ready` write
    # the same bytes.
    reports = {"minmax": res.minmax, "acceptability": res.acceptability, "ir": res.ir_report,
               "submartingale": res.submartingale, "decomposition": res.decomposition,
               "classifications": res.classifications, "profile": res.profile}
    dump_json(reports, tmp_path / "a.json")
    dump_json(json_ready(reports), tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


@pytest.mark.parametrize("eps", [float("nan"), float("inf")])
def test_classify_game_rejects_non_finite_eps(sorin, eps):
    with pytest.raises(ValueError, match="eps must be finite"):
        classify_game(sorin, eps=eps)


@pytest.mark.parametrize("eps", [0.01, 0.2])
def test_pipeline_eps_sensitivity(eps):
    from stogame.generators import random_banded_exit_game, random_dense_game

    for game in (random_dense_game(1003, n_states=3), random_banded_exit_game(4002)):
        res = run_pipeline(game, eps=eps, schedule=default_schedule(22))
        assert not res.errors, res.errors
        assert res.acceptability.ok
        assert res.correlated_acceptability.ok


@pytest.mark.parametrize("seed, n_states", [(5010, 10), (5012, 12)])
def test_pipeline_dense_games_beyond_enumeration_reach(seed, n_states):
    # 4^10 and 4^12 pure profiles: classification prices recurrent points
    # instead of enumerating them.
    from stogame.generators import random_dense_game

    res = run_pipeline(random_dense_game(seed, n_states=n_states), eps=0.05,
                       schedule=default_schedule(24))
    assert res.ok
    assert [c.kind for c in res.classifications] == ["A"]


def test_pipeline_gives_no_verdict_on_an_invalid_game():
    # A negative transition probability: the product chain of any profile
    # would have rows that are not distributions, so nothing is verified.
    from stogame.generators import random_dense_game

    base = random_dense_game(1003, n_states=3)
    transitions = base.transitions.copy()
    transitions[0, 0] = [1.05, -0.05, 0.0]
    game = StochasticGame(base.state_names, base.action_names, base.payoffs,
                          transitions, name="negative-probability")
    res = run_pipeline(game, eps=0.05, schedule=default_schedule(18))
    assert not res.ok
    assert res.classifications == [] and res.profile is None
    assert len(res.errors) == 1 and res.errors[0].startswith("invalid game: 1 violations")
    assert res.v1.shape == (3, 2)


def test_stalled_minmax_solves_are_warned_not_gated():
    from stogame.generators import random_banded_exit_game

    res = run_pipeline(random_banded_exit_game(4001), eps=0.05, schedule=default_schedule(30))
    assert [sum(c.stalled) for c in res.minmax.curves] == [1, 2]
    assert res.warnings == [
        "player 0: min-max curve has 1 of 30 discounted solves stalled",
        "player 1: min-max curve has 2 of 30 discounted solves stalled",
    ]
    assert res.summary()["warnings"] == res.warnings
    assert res.ok and not res.errors


def test_converged_clean_curves_give_no_warnings(sorin_result):
    assert sorin_result.warnings == []
    assert sorin_result.summary()["warnings"] == []


def leaky_swap_game():
    """States 0 and 1 swap under every profile, but state 0 leaks 5e-10, a
    mass between DIST_TOL and CLOSED_TOL, to the absorbing state 2."""
    payoffs = np.zeros((3, 4, 2))
    payoffs[:2] = 0.5
    transitions = np.zeros((3, 4, 3))
    transitions[0, :, 1] = 1.0 - 5e-10
    transitions[0, :, 2] = 5e-10
    transitions[1, :, 0] = 1.0
    transitions[2, :, 2] = 1.0
    return StochasticGame(("s0", "s1", "s2"), (("a0", "a1"), ("b0", "b1")),
                          payoffs, transitions, name="leaky-swap")


def test_a_sub_tolerance_leak_out_of_a_set_re_dispatches():
    # {0, 1} counts as closed, yet the leak is an edge of the set machine.
    # That edge re-dispatches to the machine of state 2, so the run ends
    # with a report instead of a KeyError, and it is reproducible.  Play
    # drains into state 2 in the limit, so every uniform value is 0, which
    # the direct average-reward solve finds exactly, and the profile meets
    # it.
    game = leaky_swap_game()
    res = run_pipeline(game, eps=0.05)
    assert [c.states for c in res.decomposition.sets] == [(0, 1), (2,)]
    assert not res.errors and res.profile is not None
    joint = res.profile.joint
    leaks = {(q, a): dist for (q, a, s_next), dist in joint.transitions.items()
             if s_next == 2 and q != joint.init[2]}
    assert leaks and all(dist == ((joint.init[2], 1.0),) for dist in leaks.values())
    assert not res.v1.any() and [d.outcome for d in res.minmax.direct] == ["closed"] * 2
    assert res.acceptability is not None and res.ok
    again = run_pipeline(game, eps=0.05)
    assert json.dumps(again.summary(), sort_keys=True) == json.dumps(res.summary(), sort_keys=True)


def degenerate_game(kind):
    """Hand-built games at the edges of the input space."""
    two = (("a0", "a1"), ("b0", "b1"))
    if kind == "one-state-1x1":
        return StochasticGame(("s0",), (("a0",), ("b0",)), np.array([[[0.3, -0.2]]]),
                              np.ones((1, 1, 1)), name=kind)
    if kind == "zero-payoffs-2x2":
        # A matched profile stays, a mismatched one swaps the two states.
        transitions = np.zeros((2, 4, 2))
        for s in range(2):
            transitions[s, [0, 3], s] = 1.0
            transitions[s, [1, 2], 1 - s] = 1.0
        return StochasticGame(("s0", "s1"), two, np.zeros((2, 4, 2)), transitions, name=kind)
    if kind == "all-absorbing":
        payoffs = np.array([[[1, -1], [-1, 1], [-1, 1], [1, -1]],
                            [[0.5, 0.5], [0, 1], [1, 0], [0.2, 0.2]],
                            [[-0.4, 0.3], [-0.4, 0.3], [-0.4, 0.3], [-0.4, 0.3]]], dtype=float)
        transitions = np.zeros((3, 4, 3))
        for s in range(3):
            transitions[s, :, s] = 1.0
        return StochasticGame(("s0", "s1", "s2"), two, payoffs, transitions, name=kind)
    if kind == "one-action-player-1":
        # Player 2 alone decides whether to stay or to move on.
        payoffs = np.array([[[0.2, 0.8], [0.6, 0.1]], [[-0.5, 0.4], [0.9, -0.3]]])
        transitions = np.zeros((2, 2, 2))
        for s in range(2):
            transitions[s, 0, s] = 1.0
            transitions[s, 1, 1 - s] = 1.0
        return StochasticGame(("s0", "s1"), (("a0",), ("b0", "b1")), payoffs, transitions,
                              name=kind)
    if kind == "constant-uniform":
        return StochasticGame(("s0", "s1", "s2"), two, np.full((3, 4, 2), 0.5),
                              np.full((3, 4, 3), 1 / 3), name=kind)
    assert kind == "deterministic-3-cycle"
    payoffs = np.array([[[0.1, 0.9], [0.4, 0.4], [0.7, -0.2], [-0.3, 0.6]],
                        [[0.5, 0.0], [-0.6, 0.8], [0.2, 0.2], [0.9, -0.9]],
                        [[0.0, 0.3], [0.3, 0.0], [-0.1, -0.1], [0.6, 0.5]]])
    transitions = np.zeros((3, 4, 3))
    for s in range(3):
        transitions[s, :, (s + 1) % 3] = 1.0
    return StochasticGame(("s0", "s1", "s2"), two, payoffs, transitions, name=kind)


@pytest.mark.parametrize("kind", ["one-state-1x1", "zero-payoffs-2x2", "all-absorbing",
                                  "one-action-player-1", "constant-uniform",
                                  "deterministic-3-cycle"])
def test_degenerate_games_end_ok_and_reproducibly(kind):
    game = degenerate_game(kind)
    res = run_pipeline(game, schedule=default_schedule(24))
    assert res.ok and res.errors == []
    again = run_pipeline(game, schedule=default_schedule(24))
    assert json.dumps(again.summary(), sort_keys=True) == json.dumps(res.summary(), sort_keys=True)


@pytest.mark.parametrize("seed", range(3))
def test_hub_of_degenerate_2x2_games_ends_ok_and_reproducibly(seed):
    # The four 2x2 degenerate games behind one transient hub state.
    kinds = ["zero-payoffs-2x2", "all-absorbing", "constant-uniform", "deterministic-3-cycle"]
    game = hub_game([degenerate_game(kind) for kind in kinds], seed)
    assert game.n_states == 12
    res = run_pipeline(game, schedule=default_schedule(24))
    assert res.ok and res.errors == []
    assert res.decomposition.transient == (0,)
    assert [c.kind for c in res.classifications] == ["A"] * 6
    again = run_pipeline(game, schedule=default_schedule(24))
    assert json.dumps(again.summary(), sort_keys=True) == json.dumps(res.summary(), sort_keys=True)


def stalled_induction_game():
    """Three players with 2, 1 and 3 actions (flat profile p0 * 3 + p2).
    No communicating set survives the refinement, so the union is empty and
    transient induction has nothing to move toward."""
    transitions = np.array([
        [[1, 0, 0], [0, 1, 0], [1 / 3, 2 / 3, 0], [1, 0, 0], [1, 0, 0], [.5, .25, .25]],
        [[0, 1, 0], [1 / 3, 1 / 3, 1 / 3], [0, 1, 0], [1, 0, 0], [0, 1, 0],
         [1 / 3, 1 / 3, 1 / 3]],
        [[1 / 6, 2 / 3, 1 / 6]] + [[0, 0, 1]] * 5,
    ])
    payoffs = np.array([
        [[.5, 0, .5], [1, .25, 1], [.5, 0, 0], [-1, -1, -1], [-1, 0, .5], [1, .5, -1]],
        [[1, .25, 1], [.5, .25, .25], [.25, 1, -1], [.5, 0, .25], [-1, 1, -1], [0, 0, 1]],
        [[.5, .5, .5], [.5, 1, 1], [-1, 0, 0], [.5, 1, .25], [.25, 0, 0], [.25, .5, .25]],
    ])
    return StochasticGame(("s0", "s1", "s2"), (("a0", "a1"), ("b0",), ("c0", "c1", "c2")),
                          payoffs, transitions, name="stalled-induction")


STALLED_ERROR = ("decomposition: transient induction stalled; states [0, 1, 2] have no "
                 "listed equilibrium moving toward the communicating union")


def test_a_stalled_decomposition_is_an_error_not_a_traceback():
    res = run_pipeline(stalled_induction_game(), schedule=default_schedule(8))
    assert res.decomposition is None and res.classifications == [] and res.profile is None
    assert res.errors == [STALLED_ERROR]
    summary = json.loads(json.dumps(res.summary()))
    assert summary["sets"] is None and summary["transient"] is None
    assert summary["errors"] == [STALLED_ERROR] and summary["ok"] is False


@st.composite
def degenerate_games(draw):
    """Games of 1-3 states with 1-2 players of 1-2 actions each.  Payoffs
    are all zero or come from three levels (ties everywhere); each state's
    rows are point masses, uniform, or stay put (every state absorbing when
    all do)."""
    n = draw(st.integers(1, 3))
    counts = draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
    n_profiles = int(np.prod(counts))
    size = n * n_profiles * len(counts)
    if draw(st.booleans()):
        payoffs = np.zeros(size)
    else:
        payoffs = np.array(draw(st.lists(st.sampled_from([-0.5, 0.0, 0.5]),
                                         min_size=size, max_size=size)))
    transitions = np.zeros((n, n_profiles, n))
    for s in range(n):
        kind = draw(st.sampled_from(["absorbing", "uniform", "point"]))
        for a in range(n_profiles):
            if kind == "absorbing":
                transitions[s, a, s] = 1.0
            elif kind == "uniform":
                transitions[s, a] = 1.0 / n
            else:
                transitions[s, a, draw(st.integers(0, n - 1))] = 1.0
    return StochasticGame(tuple(f"s{k}" for k in range(n)),
                          tuple(tuple(f"p{i}a{j}" for j in range(c)) for i, c in enumerate(counts)),
                          payoffs.reshape(n, n_profiles, len(counts)), transitions,
                          name="drawn")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(degenerate_games())
def test_drawn_degenerate_games_end_ok_or_with_errors_reproducibly(game):
    res = run_pipeline(game)
    assert res.ok or res.errors
    again = run_pipeline(game)
    assert json.dumps(again.summary(), sort_keys=True) == json.dumps(res.summary(), sort_keys=True)
