import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import stogame
import stogame.matrixgame
from oracles import exact_2x2_value, grid_matrix_value, solve_2x2_oracle
from stogame.matrixgame import (
    KERNEL_LIMIT,
    MINIMAX_TOL,
    _verify,
    closed_form_2x2,
    kernel_solution,
    solve_matrix_game,
)


def test_matching_pennies():
    sol = solve_matrix_game([[1, -1], [-1, 1]])
    assert sol.value == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(sol.row_strategy, [0.5, 0.5], atol=1e-9)
    np.testing.assert_allclose(sol.col_strategy, [0.5, 0.5], atol=1e-9)


def test_dominant_row():
    sol = solve_matrix_game([[1, 1], [0, 0]])
    assert sol.value == pytest.approx(1.0, abs=1e-9)
    assert sol.row_strategy[0] == pytest.approx(1.0, abs=1e-9)


def test_single_column_and_row():
    sol = solve_matrix_game([[0.2], [0.7], [-0.1]])
    assert sol.value == pytest.approx(0.7)
    sol = solve_matrix_game([[0.2, 0.7, -0.1]])
    assert sol.value == pytest.approx(-0.1)


@pytest.mark.parametrize("seed", range(8))
def test_random_3x3_matches_grid_search(seed):
    rng = np.random.default_rng(seed)
    M = rng.uniform(-1, 1, size=(3, 3))
    sol = solve_matrix_game(M)
    assert abs(sol.value - grid_matrix_value(M, step=1e-3)) <= 2e-3


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, (3, 4), elements=st.floats(-1, 1)))
def test_minimax_inequalities(M):
    sol = solve_matrix_game(M)
    # Row strategy guarantees the value; column strategy caps it.
    assert float(np.min(sol.row_strategy @ M)) >= sol.value - 1e-7
    assert float(np.max(M @ sol.col_strategy)) <= sol.value + 1e-7
    np.testing.assert_allclose(sol.row_strategy.sum(), 1.0, atol=1e-9)
    np.testing.assert_allclose(sol.col_strategy.sum(), 1.0, atol=1e-9)


def test_near_constant_matrix_solved_on_rescaled_entries():
    # The entries spread over 1.1e-7, below HiGHS's absolute tolerances: the
    # raw LP pair reports a duality gap of -1.1e-7.
    M = np.array([
        [0.5272882505219256, 0.5272883014254396, 0.5272882494240854],
        [0.5272881895398908, 0.5272882076585059, 0.5272882495536748],
        [0.527288255191621, 0.5272882489602788, 0.527288292654472],
    ])
    sol = solve_matrix_game(M)
    assert sol.method == "lp"
    assert _verify(M, sol.value, sol.row_strategy, sol.col_strategy, tol=1e-9)


def test_unknown_highs_status_falls_through_to_rescaled_retry():
    # A one-shot matrix of random_dense_game(186004, n_states=3, n_actions=4):
    # on the raw entries HiGHS stops with status 15 (model status unknown).
    M = np.array([
        [0.21791950468369894, 0.21791921608504491, 0.2179193860069247, 0.21791944656857207],
        [0.21791917388380636, 0.21791914715402635, 0.21791938763919377, 0.21791922227864682],
        [0.21791950707076985, 0.2179194317002654, 0.2179194536547161, 0.21791936452753033],
        [0.21791947443023488, 0.21791951030711332, 0.21791945441065333, 0.2179194447375674],
    ])
    sol = solve_matrix_game(M)
    assert sol.method == "lp"
    assert _verify(M, sol.value, sol.row_strategy, sol.col_strategy, tol=1e-9)


def _degenerate_2x2(kind, a, b):
    if kind == "zero denominator":  # a + d - b - c == 0; the saddle scan takes it
        return np.array([[a, b], [a, b]])
    if kind == "constant":
        return np.full((2, 2), a)
    if kind == "tied":
        return np.array([[a, a], [b, b]])
    if kind == "saddle":  # row 0 dominates and column 1 is its minimum
        return np.array([[a + 1.0, a], [a - 1.0, a - 2.0]])
    # cancelling: a fully mixed game 1e-12 wide, whose closed-form value
    # loses every digit to cancellation and fails the minimax check until it
    # is retried on the entries minus their minimum
    c = 0.5 + 0.25 * (a + 1.0)
    return np.array([[c + 1e-12, c], [c, c + 1e-12]])


_entries = st.floats(-1, 1, allow_subnormal=False)
_stacks = st.integers(1, 24).flatmap(
    lambda n: arrays(np.float64, (n, 2, 2), elements=_entries))
_degenerate = st.lists(
    st.builds(_degenerate_2x2,
              st.sampled_from(["zero denominator", "constant", "tied", "saddle",
                               "cancelling"]),
              _entries, _entries),
    min_size=1, max_size=4).map(np.stack)


@settings(max_examples=80, deadline=None)
@given(st.one_of(_stacks, _degenerate, st.tuples(_stacks, _degenerate).map(np.concatenate)))
def test_stacked_closed_form_matches_one_game_at_a_time(stack):
    values, rows, cols, failed = closed_form_2x2(stack)
    assert failed == sorted(set(failed))
    for k, M in enumerate(stack):
        # The per-game closed form, as it was before the stack, retried on
        # the shifted entries where it fails.
        value, x, y, passes = solve_2x2_oracle(M)
        assert (k not in failed) == passes
        sol = solve_matrix_game(M)
        assert (sol.method == "closed-form") == passes
        if passes:
            assert sol.value == values[k] == value
            assert np.array_equal(sol.row_strategy, rows[k])
            assert np.array_equal(sol.col_strategy, cols[k])
            assert np.array_equal(x, rows[k]) and np.array_equal(y, cols[k])
        first_value, _, _, first_passes = solve_2x2_oracle(M, retry=False)
        if first_passes:  # the retry never touches a game the first try solves
            assert values[k] == first_value


def _near_constant_2x2(base, offsets):
    return base + np.reshape(offsets, (2, 2))


_offsets = st.just(0.0) | st.floats(-12, -7).map(lambda e: 10.0**e)
_near_constant = st.lists(
    st.builds(_near_constant_2x2, st.floats(0.1, 0.9), st.lists(_offsets, min_size=4, max_size=4))
    | st.builds(_degenerate_2x2, st.just("cancelling"), _entries, _entries),
    min_size=1, max_size=6).map(np.stack)


@settings(max_examples=200, deadline=None)
@given(_near_constant)
def test_near_constant_2x2_games_keep_off_the_lp(stack):
    values, rows, cols, failed = closed_form_2x2(stack)
    assert failed == []
    for k, M in enumerate(stack):
        assert _verify(M, values[k], rows[k], cols[k])
        first_value, _, _, first_passes = solve_2x2_oracle(M, retry=False)
        if first_passes:
            # Kept bit for bit: a value the minimax check accepts, which
            # cancellation can leave up to MINIMAX_TOL off the exact one.
            assert values[k] == first_value
            assert abs(Fraction(values[k]) - exact_2x2_value(M)) <= Fraction(MINIMAX_TOL)
        else:
            # The retried value is off by the rounding of value + lo alone.
            assert abs(Fraction(values[k]) - exact_2x2_value(M)) <= Fraction(1e-16)


@pytest.mark.parametrize("solver", [solve_matrix_game, kernel_solution])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_are_rejected(solver, bad):
    M = np.array([[0.3, -0.2, 0.5], [0.1, bad, -0.4]])
    with pytest.raises(ValueError, match="entries must be finite"):
        solver(M)


_KERNEL_SHAPES = [(2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (4, 4)] + [(L, 2) for L in range(1, 13)]


def _degenerate_game(kind, M):
    m, n = M.shape
    if kind == "duplicate rows":
        return M[np.arange(m) // 2]
    if kind == "duplicate columns":
        return M[:, np.arange(n) // 2]
    if kind == "constant":
        return np.full((m, n), M[0, 0])
    if kind == "rank one":
        return np.outer(M[:, 0], M[0])
    return M


_kernel_games = st.sampled_from(_KERNEL_SHAPES).flatmap(
    lambda shape: st.builds(
        _degenerate_game,
        st.sampled_from(["random", "duplicate rows", "duplicate columns", "constant",
                         "rank one"]),
        arrays(np.float64, shape, elements=st.floats(-1, 1, allow_subnormal=False))
        | arrays(np.float64, shape, elements=st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]))))


@settings(max_examples=300, deadline=None)
@given(_kernel_games)
def test_kernel_solution_matches_the_lp(M):
    sol = kernel_solution(M)
    assert sol is not None and sol.method == "kernel"
    assert abs(sol.value - solve_matrix_game(M).value) <= 1e-9
    assert _verify(M, sol.value, sol.row_strategy, sol.col_strategy)
    bound = min(M.shape)
    assert np.count_nonzero(sol.row_strategy) <= bound
    assert np.count_nonzero(sol.col_strategy) <= bound
    assert sol.row_strategy.sum() == pytest.approx(1.0, abs=1e-12)
    assert sol.col_strategy.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("shape", [(13, 2), (2, 13), (7, 3), (5, 5), (300, 2)])
def test_kernel_solution_declines_above_the_limit(shape):
    m, n = shape
    # 13x2 has 104 square submatrices, 7x3 has 119 and 5x5 has 251.
    assert math.comb(m + n, m) - 1 > KERNEL_LIMIT
    M = np.random.default_rng(m * n).uniform(-1, 1, size=shape)
    assert kernel_solution(M) is None


# scipy is imported at the first LP, so a run that solves none never loads it,
# and a 2x2 game reaches the LP only when both closed-form tries fail.

ROCK_PAPER_SCISSORS = [[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]]


def _fresh_interpreter(script: str, *args: str) -> str:
    """Last line printed by `script` run in a new interpreter that imports
    stogame from the same sources as this one."""
    src = str(Path(stogame.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, check=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": src})
    return done.stdout.splitlines()[-1]


def test_lp_free_runs_never_import_scipy(tmp_path):
    script = """
import json, sys
import stogame
from stogame.cli import main
from stogame.generators import acceptance_suite, random_layered_game, sorin_game
from stogame.minmax import default_schedule
from stogame.pipeline import run_pipeline

# random_layered_game(93005) sends 23 nearly constant one-shot games through
# the closed form's shifted retry.
for game in (sorin_game(), acceptance_suite()[0], random_layered_game(93005)):
    assert run_pipeline(game, schedule=default_schedule(24)).ok
assert main(["solve", "--game", "builtin:sorin", "--out", sys.argv[1]]) == 0
print(json.dumps([m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]))
"""
    assert json.loads(_fresh_interpreter(script, str(tmp_path))) == []


def test_first_lp_imports_scipy():
    script = f"""
import sys
from stogame.matrixgame import solve_matrix_game

before = "scipy.optimize" in sys.modules
sol = solve_matrix_game({ROCK_PAPER_SCISSORS})
print(before, sol.method, abs(sol.value) <= 1e-9, "scipy.optimize" in sys.modules)
"""
    assert _fresh_interpreter(script) == "False lp True True"


def test_one_shot_lp_goes_through_the_module_linprog(monkeypatch):
    class Called(Exception):
        pass

    def no_lp(*args, **kwargs):
        raise Called

    monkeypatch.setattr(stogame.matrixgame, "linprog", no_lp)
    with pytest.raises(Called):
        solve_matrix_game(ROCK_PAPER_SCISSORS)
