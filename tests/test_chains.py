import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    cesaro_doubling,
    eager_average_policy,
    exit_values,
    per_class_gain,
    reach_probability,
    recurrent_classes_oracle,
    stationary_law_oracle,
)

from stogame import chains
from stogame.chains import (
    CACHED_STATES,
    first_passage,
    gain_bias,
    limit_average_values,
    optimal_average_policy,
    recurrent_laws,
)
from stogame.structure import transient_reach_probability
from stogame.verify import DEFAULT_LAMBDA_GRID, product_chain

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
def _padded_mdps(draw):
    """A ragged MDP of 1-3 states with 1-3 distinct actions per state, each
    state padded to the widest with copies of its first action, and the
    mask of the distinct actions.  Point-mass rows make it multichain
    often."""
    n = draw(st.integers(1, 3))
    counts = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    m = max(counts)
    R = np.array(draw(st.lists(_rewards, min_size=n * m, max_size=n * m))).reshape(n, m)
    P = np.array([_row(draw, n) for _ in range(n * m)]).reshape(n, m, n)
    valid = np.arange(m) < np.array(counts)[:, None]
    R = np.where(valid, R, R[:, :1])
    P = np.where(valid[:, :, None], P, P[:, :1])
    return R, P, valid


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_padded_mdps())
def test_optimal_average_policy_reaches_the_best_pure_gain(case):
    # Against every pure policy over the distinct actions.  A chosen copy
    # has its original's reward and transitions.
    R, P, valid = case
    rows = np.arange(len(R))
    choice, settled, _, _ = optimal_average_policy(R, P, start=None, bias_scaled=True)
    assert settled
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
    classes, _ = recurrent_classes_oracle(P)
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


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_padded_mdps(), st.booleans(), st.booleans(), st.sampled_from([1, 2, 100]),
       st.randoms(use_true_random=False))
def test_optimal_average_policy_matches_the_eager_loop(case, bias_scaled, warm, cap, rnd):
    # Solving the bias only where the loop reads it must not move a bit of
    # the choice, `settled`, the gain or the bias, for pricing's tolerance
    # and min-max's, from the greedy policy or a given one, settled or cut
    # off by the cap.
    R, P, _ = case
    start = None
    if warm:
        start = np.array([rnd.randrange(R.shape[1]) for _ in R])
    every = np.ones(R.shape, dtype=bool)
    with mock.patch.object(chains, "POLICY_ITERATION_CAP", cap):
        got = optimal_average_policy(R, P, start=start, bias_scaled=bias_scaled)
        want = eager_average_policy(R, P, every, start=start, bias_scaled=bias_scaled)
    assert _same_bits(got[0], want[0]) and got[1] == want[1]
    assert _same_bits(got[2], want[2]) and _same_bits(got[3], want[3])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_padded_mdps(), st.booleans(), st.booleans(), st.sampled_from([1, 2, 100]),
       st.randoms(use_true_random=False))
def test_copy_padding_matches_the_masked_loop(case, bias_scaled, warm, cap, rnd):
    # Howard's loop on the copy-padded MDP, which masks nothing, against the
    # loop that masks the copies: the same `settled` and the same gain and
    # bias bits, and every chosen column the same real action (a copy is
    # its state's first action).
    R, P, valid = case
    rows = np.arange(len(R))
    start = None
    if warm:
        start = np.array([rnd.choice(np.flatnonzero(v).tolist()) for v in valid])
    with mock.patch.object(chains, "POLICY_ITERATION_CAP", cap):
        got = optimal_average_policy(R, P, start=start, bias_scaled=bias_scaled)
        want = eager_average_policy(R, P, valid, start=start, bias_scaled=bias_scaled)
    assert np.array_equal(np.where(valid[rows, got[0]], got[0], 0), want[0])
    assert got[1] == want[1]
    assert _same_bits(got[2], want[2]) and _same_bits(got[3], want[3])


@pytest.mark.parametrize("seed", range(8))
def test_copy_padding_matches_the_masked_loop_on_wide_mdps(seed):
    # 8-15 dense states with one or two actions, padded to 5-7: BLAS may
    # round a copy's row of P @ g an ulp away from its original's, and then
    # Howard's loop may switch to the copy instead.  It must still choose the
    # masked loop's real action, with its settling and its gain and bias bits.
    rng = np.random.default_rng(seed)
    for _ in range(10):
        n, m = int(rng.integers(8, 16)), int(rng.integers(5, 8))
        valid = np.arange(m) < rng.integers(1, 3, n)[:, None]
        R = rng.uniform(-1.0, 1.0, (n, m))
        R = np.where(valid, R, R[:, :1])
        P = rng.dirichlet(np.ones(n), (n, m))
        P = np.where(valid[:, :, None], P, P[:, :1])
        rows = np.arange(n)
        for start in (None, valid.sum(axis=1) - 1):
            for bias_scaled in (True, False):
                got = optimal_average_policy(R, P, start=start, bias_scaled=bias_scaled)
                want = eager_average_policy(R, P, valid, start=start, bias_scaled=bias_scaled)
                assert np.array_equal(np.where(valid[rows, got[0]], got[0], 0), want[0])
                assert got[1] == want[1]
                assert _same_bits(got[2], want[2]) and _same_bits(got[3], want[3])


def test_a_capped_loop_returns_the_evaluated_policys_bias():
    # State 0 first plays into the absorbing state 2 (gain 0, bias 1), and
    # the gain step moves it to state 1's loop (gain 0.5).  Cut off there,
    # the loop returns the new choice with the evaluated policy's gain and
    # bias, which it solves only on the way out.
    R = np.array([[1.0, 0.5], [0.5, 0.5], [0.0, 0.0]])
    P = np.eye(3)[[[2, 1], [1, 0], [2, 2]]]
    with mock.patch.object(chains, "POLICY_ITERATION_CAP", 1):
        choice, settled, g, h = optimal_average_policy(R, P, start=None, bias_scaled=False)
    assert choice.tolist() == [1, 0, 0] and not settled
    assert g.tolist() == [0.0, 0.5, 0.0] and h.tolist() == [1.0, 0.0, 0.0]


@pytest.mark.parametrize("n", [4, CACHED_STATES + 6])
def test_recurrent_classes_are_fresh_lists(n):
    # Two cycles and a transient state, on either side of the memo's size
    # limit: changing one call's lists and laws must not change the next
    # call's.
    P = np.zeros((n, n))
    half = (n - 1) // 2
    for k in range(half):
        P[k, (k + 1) % half] = 1.0
        P[half + k, half + (k + 1) % half] = 1.0
    P[n - 1, [0, half]] = 0.5
    P[n - 2:n - 1] = 0.0
    P[n - 2, n - 2] = 1.0
    found = recurrent_laws(P)
    want = ([list(range(half)), list(range(half, 2 * half))]
            + ([[n - 2]] if 2 * half < n - 1 else []))
    assert [cls for cls, _ in found] == want
    assert all(type(cls) is list for cls, _ in found) and type(found) is list
    laws = [law.copy() for _, law in found]
    assert all(_same_bits(law, stationary_law_oracle(P, cls)) for cls, law in zip(want, laws))
    found[0][0].append(99)
    found[0][1][:] = 7.0
    found.append(([7], np.ones(1)))
    again = recurrent_laws(P)
    assert [cls for cls, _ in again] == want
    assert all(_same_bits(law, want_law) for (_, law), want_law in zip(again, laws))


def test_singular_systems_raise():
    # The gufunc answers a singular system with NaN and an "invalid value"
    # warning; the chain routines raise LinAlgError, as np.linalg.solve did.
    # Two absorbing states read as one class make the stationary system
    # singular, and the bias of the identity chain read as one class with
    # two states has a zero row.
    group = (np.array([0]), np.array([[0, 1]]))
    with pytest.warns(RuntimeWarning, match="invalid value"):
        with pytest.raises(np.linalg.LinAlgError):
            chains._group_laws(np.eye(2), (group,))
    with pytest.warns(RuntimeWarning, match="invalid value"):
        with pytest.raises(np.linalg.LinAlgError):
            chains._bias(np.eye(2), np.ones(2), np.ones(2), np.array([0]))


def test_leaking_rows_are_read_as_documented():
    # A class whose own rows leak keeps its renormalized law (a known
    # failure: the Cesaro limit of [[0.5]] is 0), a zero row is a class that
    # earns its own reward, and what a transient row leaks earns nothing.
    assert limit_average_values(np.array([[0.5]]), np.array([1.0])).tolist() == [1.0]
    assert limit_average_values(np.zeros((1, 1)), np.array([2.0])).tolist() == [2.0]
    P = np.array([[0.0, 0.5], [0.0, 1.0]])
    assert limit_average_values(P, np.array([3.0, 1.0])).tolist() == [0.5, 1.0]
    assert limit_average_values(P, np.array([[3.0, 2.0], [1.0, 4.0]])).tolist() == [[0.5, 2.0],
                                                                                      [1.0, 4.0]]


@st.composite
def _multichains(draw):
    """Chains of 1-6 irreducible blocks of 1-4 states (several of one size)
    and 0-3 transient states, shuffled, with stage values of shape (n,) or
    (n, 2); blocks may leak a little.  One draw in ten widens the first
    block past CACHED_STATES, where no plan is remembered."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    if draw(st.integers(0, 9)) == 0:
        sizes[0] = CACHED_STATES + 3
    n_transient = draw(st.integers(0, 3))
    n = sum(sizes) + n_transient
    order = draw(st.permutations(range(n)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    P = np.zeros((n, n))
    first = 0
    for k in sizes:
        block = order[first:first + k]
        for s in block:
            weights = rng.integers(1, 6, size=k).astype(float)
            P[s, block] = weights / weights.sum() * rng.choice([1.0, 0.9])
        first += k
    for s in order[first:]:
        weights = rng.integers(0, 4, size=n).astype(float)
        weights[order[0]] += 1.0  # into the first block, so s stays transient
        P[s] = weights / weights.sum()
    shape = (n,) if draw(st.booleans()) else (n, 2)
    r = rng.choice([0.0, 0.5, 1.0], size=shape) + rng.uniform(-1, 1, size=shape)
    return P, r


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_multichains())
def test_planned_gain_matches_the_per_class_gain(case):
    # The plan's stacked sums, laws and products against each class's own,
    # bit for bit, and the bias against np.linalg.solve on the same system.
    P, r = case
    g, plan = chains._gain(P, r)
    want, classes = per_class_gain(P, r)
    assert _same_bits(g, want)
    assert plan.firsts.tolist() == [cls[0] for cls in classes]
    if r.ndim == 1:
        got_g, got_h = gain_bias(P, r)
        firsts = [cls[0] for cls in classes]
        A = np.eye(len(r)) - P
        A[firsts] = 0.0
        A[firsts, firsts] = 1.0
        b = r - want
        b[firsts] = 0.0
        assert _same_bits(got_g, want) and _same_bits(got_h, np.linalg.solve(A, b))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_multichains())
def test_stacked_stationary_laws_match_per_class_solves(case):
    # Each class's law from the stacked solve of its size, against its own
    # np.linalg.solve, bit for bit, and the classes against a closure.
    P, _ = case
    classes, _ = recurrent_classes_oracle(P)
    found = recurrent_laws(P)
    assert [cls for cls, _ in found] == classes
    for cls, law in found:
        assert _same_bits(law, stationary_law_oracle(P, cls))


def test_cached_plans_are_read_only():
    # A plan is shared by every chain of its support pattern: none of its
    # arrays, nor the cached identities and ranges, can be written.
    P = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
    _, plan = chains._gain(P, np.ones(3))
    arrays = [plan.rows, plan.firsts, *(a for group in plan.sizes for a in group),
              chains._eye(3), chains._range(3)]
    assert all(not a.flags.writeable for a in arrays)
    assert [cls for cls, _ in recurrent_laws(P)] == [[0, 1]] and plan.rows.tolist() == [2]


def test_first_passage_matches_the_entrywise_references(suite_results):
    # On every departing set's block of the verifier's chain and every
    # transient selection of the acceptance suite, the same bits as the
    # systems built entry by entry and solved by np.linalg.solve: the
    # departure values of v1 (as the submartingale audit reports them) and
    # of ones (a vector payout), and the transient states' reach.
    sets = selections = 0
    for game, res in suite_results[1]:
        d = res.decomposition
        chain = product_chain(game, res.profile)
        node_states = np.array([s for s, _ in chain.nodes])
        reported = {(e.detail["set"], e.state): e.detail["expected_at_departure"]
                    for e in res.submartingale.entries if e.kind == "departing-set"}
        for k, (cset, cls) in enumerate(zip(d.sets, res.classifications)):
            if cls.kind != "B":
                continue
            at_set = np.isin(node_states, cset.states)
            inside, outside = np.flatnonzero(at_set), np.flatnonzero(~at_set)
            rows = chain.P[inside]
            want = exit_values(chain, inside.tolist(), res.v1)
            for s in cset.states:
                assert reported[k, s] == want[inside.tolist().index(chain.node_of(s))].tolist()
            leave = first_passage(rows[:, inside], rows[:, outside].sum(axis=1))
            assert _same_bits(leave, exit_values(chain, inside.tolist(),
                                                 np.ones(game.n_states)))
            sets += 1
        if d.transient:
            union = sorted(set(range(game.n_states)) - set(d.transient))
            P = np.eye(game.n_states)
            for s, eq in d.transient_profile.items():
                P[s] = eq.correlated_row() @ game.transitions[s]
            h = reach_probability(P, union)
            got = first_passage(P[np.ix_(d.transient, d.transient)],
                                P[np.ix_(d.transient, union)].sum(axis=1))
            assert _same_bits(got, h[list(d.transient)])
            # The certificate is the oracle's minimum clipped to [0, 1].
            assert (transient_reach_probability(game, d.transient_profile, union)
                    == float(np.clip(got.min(), 0.0, 1.0)))
            selections += 1
    assert sets and selections


def test_first_passage_gives_the_discounted_payoffs_of_np_linalg_solve(suite_results):
    # The grid's stack, X = (1 - lam) r + lam P X, against np.linalg.solve on
    # each discount of one suite game's product chain, bit for bit.
    game, res = suite_results[1][0]
    chain = product_chain(game, res.profile)
    lams = np.array(DEFAULT_LAMBDA_GRID)
    got = first_passage(lams[:, None, None] * chain.P, (1.0 - lams)[:, None, None] * chain.r)
    for lam, x in zip(DEFAULT_LAMBDA_GRID, got):
        want = np.linalg.solve(np.eye(chain.n_nodes) - lam * chain.P, (1.0 - lam) * chain.r)
        assert _same_bits(x, want)


def test_first_passage_leaked_mass_pays_nothing_and_a_closed_class_raises():
    # State 0 leaks half its mass and sends half to state 1, which pays 1 and
    # leaks the rest: 0.5 from state 0.  A state that keeps its mass can
    # never leave, so its system is singular.
    Q = np.array([[0.0, 0.5], [0.0, 0.0]])
    assert first_passage(Q, np.array([0.0, 1.0])).tolist() == [0.5, 1.0]
    assert first_passage(Q, np.array([[0.0, 2.0], [1.0, 4.0]])).tolist() == [[0.5, 4.0],
                                                                               [1.0, 4.0]]
    closed = np.array([[0.5, 0.0, 0.5], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    for payout in (np.ones(3), np.ones((3, 2))):
        with pytest.warns(RuntimeWarning, match="invalid value"):
            with pytest.raises(np.linalg.LinAlgError):
                first_passage(closed, payout)
