import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import grid_matrix_value, solve_2x2_oracle
from stogame.matrixgame import _verify, closed_form_2x2, solve_matrix_game


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
    # loses every digit to cancellation and fails the minimax check
    c = 0.5 + 0.25 * (a + 1.0)
    return np.array([[c + 1e-12, c], [c, c + 1e-12]])


_entries = st.floats(-1, 1, allow_subnormal=False)
_stacks = st.integers(1, 6).flatmap(
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
    values, rows, cols, ok = closed_form_2x2(stack)
    for k, M in enumerate(stack):
        # The per-game closed form, as it was before the stack.
        value, x, y, passes = solve_2x2_oracle(M)
        assert bool(ok[k]) == passes
        sol = solve_matrix_game(M)
        assert (sol.method == "closed-form") == bool(ok[k])
        if ok[k]:
            assert sol.value == values[k] == value
            assert np.array_equal(sol.row_strategy, rows[k])
            assert np.array_equal(sol.col_strategy, cols[k])
            assert np.array_equal(x, rows[k]) and np.array_equal(y, cols[k])
