import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import grid_matrix_value
from stogame.matrixgame import _verify, solve_matrix_game


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
