import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import cesaro_doubling

from stogame.chains import gain_bias, optimal_average_policy, recurrent_classes

# Rewards from a few levels, so that ties are common.
_rewards = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(-1, 1, allow_subnormal=False)


def _row(draw, n: int) -> np.ndarray:
    """A point mass or a small integer mix over n states."""
    row = np.zeros(n)
    if draw(st.booleans()):
        row[draw(st.integers(0, n - 1))] = 1.0
    else:
        row[:] = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        row[draw(st.integers(0, n - 1))] += 1.0
        row /= row.sum()
    return row


@st.composite
def _masked_mdps(draw):
    """An MDP of 1-3 states and 1-3 actions with a mask of at least one
    action per state.  Point-mass rows make it multichain often.  Masked
    actions carry a reward above every valid one, so a solver that reads
    them shows."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    R = np.array(draw(st.lists(_rewards, min_size=n * m, max_size=n * m))).reshape(n, m)
    P = np.array([_row(draw, n) for _ in range(n * m)]).reshape(n, m, n)
    valid = np.array(draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m)))
    valid = valid.reshape(n, m)
    valid[np.arange(n), draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))] = True
    return np.where(valid, R, 5.0), P, valid


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_masked_mdps())
def test_optimal_average_policy_reaches_the_best_pure_gain(case):
    R, P, valid = case
    rows = np.arange(len(R))
    choice, settled, _, _ = optimal_average_policy(R, P, valid, start=None, bias_scaled=True)
    assert settled and valid[rows, choice].all()
    best = np.full(len(R), -np.inf)
    for combo in itertools.product(*[np.flatnonzero(v) for v in valid]):
        best = np.maximum(best, cesaro_doubling(P[rows, combo]) @ R[rows, combo])
    got = cesaro_doubling(P[rows, choice]) @ R[rows, choice]
    assert np.allclose(got, best, rtol=0.0, atol=1e-9)


@st.composite
def _chains(draw):
    """A chain of 1-5 states whose rows are point masses, small integer
    mixes or zero; some rows leak a quarter or half of their mass."""
    n = draw(st.integers(1, 5))
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["row", "zero", "leak"]))
        if kind == "zero":
            rows.append(np.zeros(n))
        else:
            row = _row(draw, n)
            rows.append(row * draw(st.sampled_from([0.75, 0.5])) if kind == "leak" else row)
    r = np.array(draw(st.lists(_rewards, min_size=n, max_size=n)))
    return np.array(rows), r


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_chains())
def test_gain_bias_solves_the_multichain_equations(case):
    P, r = case
    g, h = gain_bias(P, r)
    classes, _ = recurrent_classes(P)
    residual = g + h - P @ h - r
    stochastic = np.isclose(P.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    checked = np.ones(len(r), dtype=bool)
    for cls in classes:
        assert h[cls[0]] == 0.0
        if stochastic[cls].all():
            # A closed class: the gain is constant on it and g = P g.
            assert np.allclose(g[cls], P[cls] @ g, rtol=0.0, atol=1e-12)
        elif len(cls) > 1:
            # A leaking class satisfies the bias equation off its first state.
            checked[cls[0]] = False
    assert np.allclose(residual[checked], 0.0, rtol=0.0, atol=1e-9)
    if stochastic.all():
        assert np.allclose(g, cesaro_doubling(P) @ r, rtol=0.0, atol=1e-9)
