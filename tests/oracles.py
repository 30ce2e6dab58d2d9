"""Independent brute-force oracles used to cross-check the library.

Everything here deliberately avoids the library's own algorithms: reachability
is by policy enumeration, long-run averages by matrix power doubling, matrix
game values by grid search, and set structure by direct subset scans.  The
min-max references redo the batched solve one state at a time; only games
larger than 2x2 (and 2x2 games whose closed form fails its check on the raw
and on the shifted entries) borrow the library's LP, `solve_matrix_game`.
`support_enumeration_oracle` solves each support pair's two indifference
systems on their own, where the library stacks every kernel of a size
(`matrixgame.kernel_equalizers`); the two must list the same equilibria bit
for bit.  `equilibria_oracle` lists one state's equilibria on its own table
(`auxiliary_game`), the reference of the stacked one-shot stage.
`exact_2x2_value` gives a 2x2 game's value in rationals, and
`newton_minmax_oracle` a discounted min-max value by another algorithm
(Newton steps on stationary pairs), with its own best-response bracket.
`per_class_gain` is the multichain gain computed class by class, the
reference of `chains._gain`, which reads every class of a size at once; its
classes come from a transitive closure (`recurrent_classes_oracle`), not the
library's Tarjan, and its laws from one `np.linalg.solve` per class
(`stationary_law_oracle`), the reference of `chains.recurrent_laws`.
`pure_average_extremum` is the best or worst long-run average of a small
MDP over all its pure stationary policies, each policy's gain computed in
rationals (`exact_gain`): the reference of the direct min-max solve's Howard
step.  `eager_average_policy` is Howard's loop over an action mask,
solving every evaluation's bias: `chains.optimal_average_policy`, which
solves the bias only where the loop reads it and masks nothing, must match
it bit for bit, and on a copy-padded MDP with the copies masked, up to
which copy it chooses.  `cross_direct_minmax` is the direct min-max solve
with cross steps only: every curve it closes, the library's
Newton-then-cross solve must close within both brackets.
Classification's two references are linear programs solved by HiGHS:
`pricing_lp_oracle` over the invariant frequency polytope of a region's
safe sub-MDP, and `mixture_lp_oracle` for the column-generation master.
The library solves both without an LP.

The remaining sections hold helpers only the tests call.  `shapley_operator`
is one min-max round's one-shot step; `pure_profile` and `random_mdp` build
a pure stationary profile and a random single-player game.  The exact stationary-strategy
references solve the induced state chain: discounted payoffs, the Cesaro
state occupation (by absorption probabilities into the recurrent classes)
and the (state, profile) frequency.  The multilinear
extensions give a correlated mixed action's next-state law and stage payoff
vector.  The path-level executors replay a profile through its joint machine
and through its per-player views (`PlayerAutomaton`) on the same random
streams, reading flat profile indices off `profile_index`.  The helpers
built on the library's own product chain give exact payoffs of an automaton
profile, finite-horizon average acceptability, the nodes reachable from the
start nodes by a search over the chain's rows (`reachable_nodes`, which
must list every node of a verifier's chain), the margins from every
reachable node (`node_margins`), long-run node frequencies and a simulation
of the exit-cycling scheme.  The
per-set analyses read a set machine's exit law, departure values and
long-run payoff off its standalone product chain, through `builder`'s own
`_set_model`; the departure values come from `exit_values`, which builds
the block's system entry by entry, the reference of
`chains.first_passage`.  `whole_game_chain` is the reference that set
chain must equal on the set's block: the chain closed from every game
state, with every node expanded; `hub_game` lays games behind a fan-out
state to make many sets in one game.  Next to them sit the cyclic scheme's
closed-form exit law, the type-A mixture over given recurrent points and
the one-shot value inequality.  The last section holds the irreducible sets
of a stationary strategy (`recurrent_classes_oracle`), the leads-to test
and the hitting probability of a travel strategy, built on
`reach_probability` (one `np.linalg.solve` with the targets absorbing, the
reference of the transient-reach certificate's first passage), the hitting
probability of a set's C.2 witness by repeated squaring, without them
(`witness_hitting`), and the minimal closed sets of
the equilibrium support chain.  Next to them,
`almost_sure_reach_two_pass` is the pruning-then-layering reach that the
library's one-pass `almost_sure_reach` must equal, witness order included.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from stogame import chains
from stogame._util import DIST_TOL
from stogame.automata import (
    ProductModel,
    build_product_model,
    discounted_value,
    first_play_law,
)
from stogame.builder import (
    REDISPATCH,
    ExitPlan,
    _entry_payoffs,
    _set_model,
    build_type_a_fragment,
    build_type_b_fragment,
)
from stogame.chains import strongly_connected_components
from stogame.frequencies import (
    SustainPlan,
    _mixture_plan,
    _profile_points,
    max_slack_mixture,
    sustain_by_columns,
)
from stogame.game import StationaryProfile, StochasticGame, as_correlated_table
from stogame.generators import _dirichlet_floor
from stogame.matrixgame import solve_matrix_game
from stogame.minmax import (
    DIRECT_CAP,
    DIRECT_GAIN_WEIGHT,
    DIRECT_PATIENCE,
    DIRECT_WIDTH,
    DirectSolve,
    _one_shot,
    _Stage,
)
from stogame.oneshot import (
    AuxiliaryGame,
    Equilibrium,
    EquilibriumSet,
    _best_response_dynamics,
    profile_value,
    regret,
)
from stogame.structure import almost_sure_reach, safe_profiles
from stogame.verify import DEFAULT_LAMBDA_GRID, MARGIN_TOL, check_w_acceptable, product_chain


def cesaro_doubling(P: np.ndarray, doublings: int = 30) -> np.ndarray:
    """Cesaro average lim (1/k) sum_{n<=k} P^n via doubling:
    A_{2k} = (A_k + P^k A_k) / 2, P^{2k} = P^k P^k.

    Rows are renormalized each step (repeated squaring otherwise compounds
    rounding exponentially) and the O(1/k) truncation term is removed by one
    Richardson step across the final doubling."""
    A = P.copy()
    Pk = P.copy()
    prev = P.copy()
    for _ in range(doublings):
        prev = A
        A = 0.5 * (A + Pk @ A)
        Pk = Pk @ Pk
        Pk = Pk / Pk.sum(axis=1, keepdims=True)
        A = A / A.sum(axis=1, keepdims=True)
    out = 2.0 * A - prev
    return out / out.sum(axis=1, keepdims=True)


def grid_matrix_value(M: np.ndarray, step: float = 1e-3) -> float:
    """Brute-force maximin over a grid of row mixed strategies."""
    m, n = M.shape
    if m == 2:
        ps = np.arange(0.0, 1.0 + step / 2, step)
        X = np.stack([ps, 1.0 - ps], axis=1)
    elif m == 3:
        pts = []
        ps = np.arange(0.0, 1.0 + step / 2, step)
        for p in ps:
            qs = np.arange(0.0, 1.0 - p + step / 2, step)
            for q in qs:
                pts.append((p, q, 1.0 - p - q))
        X = np.array(pts)
    else:
        raise ValueError("grid oracle supports 2 or 3 rows")
    vals = (X @ M).min(axis=1)
    return float(vals.max())


def validate_game_oracle(game) -> list:
    """`game.validate_game` one (state, profile) pair at a time: the loop
    that its array checks must equal, message for message and in order."""
    problems = []
    if game.n_players < 1:
        problems.append("player set is empty")
    if game.n_states < 1:
        problems.append("state set is empty")
    for i, acts in enumerate(game.action_names):
        if len(acts) < 1:
            problems.append(f"player {i} has an empty action set")
    expected_pay = (game.n_states, game.n_profiles, game.n_players)
    if game.payoffs.shape != expected_pay:
        problems.append(f"payoff table shape {game.payoffs.shape} != {expected_pay}")
        return problems
    expected_tr = (game.n_states, game.n_profiles, game.n_states)
    if game.transitions.shape != expected_tr:
        problems.append(f"transition table shape {game.transitions.shape} != {expected_tr}")
        return problems
    bound = game.payoff_bound
    if not (math.isfinite(bound) and bound >= 0.0):
        problems.append(f"payoff bound {bound!r} is not a finite non-negative number")
    for s in range(game.n_states):
        for a in range(game.n_profiles):
            where = f"({game.state_names[s]}, {game.profile_key(a)})"
            row = game.transitions[s, a]
            if not all(math.isfinite(p) for p in row):
                problems.append(f"non-finite transition probability at {where}")
            else:
                if np.any(row < -DIST_TOL):
                    problems.append(f"negative transition probability at {where}")
                mass = float(row.sum())
                if abs(mass - 1.0) > DIST_TOL:
                    problems.append(f"transition mass {mass!r} at {where}")
            pay = game.payoffs[s, a]
            if not all(math.isfinite(u) for u in pay):
                problems.append(f"non-finite payoff {pay.tolist()} at {where}")
            elif np.any(np.abs(pay) > bound + 1e-12):
                problems.append(f"payoff {pay.tolist()} outside [-{bound}, {bound}] at {where}")
    return problems


def chain_under(game, table) -> np.ndarray:
    return np.einsum("sa,sat->st", table, game.transitions)


def closed_sets_of_chain(P: np.ndarray) -> list:
    """All closed subsets by direct scan."""
    n = P.shape[0]
    out = []
    for mask in range(1, 1 << n):
        states = [s for s in range(n) if mask >> s & 1]
        if all(P[s, states].sum() >= 1.0 - 1e-9 for s in states):
            out.append(tuple(states))
    return out


def minimal_closed_sets_of_chain(P: np.ndarray) -> list:
    closed = closed_sets_of_chain(P)
    return sorted(c for c in closed
                  if not any(set(d) < set(c) for d in closed if d != c))


def safe_profiles_oracle(game, region) -> dict:
    region = sorted(region)
    out = {}
    for s in region:
        out[s] = [a for a in range(game.n_profiles)
                  if game.transitions[s, a, region].sum() >= 1.0 - 1e-9]
    return out


def leads_oracle(game, region, source: int, target: int) -> bool:
    """Policy enumeration: does some pure stationary region-preserving
    profile reach `target` from `source` almost surely?"""
    if source == target:
        return True
    region = sorted(region)
    safe = safe_profiles_oracle(game, region)
    others = [s for s in region if s != target]
    if any(not safe[s] for s in others if s != target):
        # a state without any preserving profile cannot be passed through;
        # policies below simply cannot be formed if the source is affected
        pass
    choices = [safe[s] for s in others]
    if any(not c for c in choices):
        # enumerate only over states that do have safe actions; others are
        # dead ends the policy may not visit, model them as leaking
        choices = [c if c else [None] for c in choices]
    n = game.n_states
    for combo in itertools.product(*choices):
        P = np.zeros((n + 1, n + 1))     # extra index = "left the region"
        P[target, target] = 1.0
        ok = True
        for s, a in zip(others, combo):
            if a is None:
                P[s, n] = 1.0
                continue
            row = game.transitions[s, a]
            for t in range(n):
                if t in region:
                    P[s, t] = row[t]
                else:
                    P[s, n] += row[t]
        P[n, n] = 1.0
        for s in range(n):
            if s not in region:
                P[s, s] = 1.0
        A = cesaro_doubling(P)
        if A[source, target] >= 1.0 - 1e-9:
            return True
    return False


def communicating_oracle(game, eq_sets, v1, states, tol_v: float = 1e-4) -> bool:
    """Direct check of the three communicating-set conditions."""
    states = sorted(states)
    for s in states:
        for eq in eq_sets[s].equilibria:
            row = eq.correlated_row() @ game.transitions[s]
            if row[states].sum() < 1.0 - 1e-9:
                return False
    sub = v1[states]
    if len(states) and float(np.max(sub.max(axis=0) - sub.min(axis=0))) > tol_v:
        return False
    for s in states:
        for t in states:
            if not leads_oracle(game, states, s, t):
                return False
    return True


def maximal_communicating_oracle(game, eq_sets, v1, tol_v: float = 1e-4) -> list:
    n = game.n_states
    communicating = []
    for mask in range(1, 1 << n):
        states = tuple(s for s in range(n) if mask >> s & 1)
        if communicating_oracle(game, eq_sets, v1, states, tol_v):
            communicating.append(states)
    return sorted(c for c in communicating
                  if not any(set(c) < set(d) for d in communicating))


def recurrent_points_oracle(game, region) -> set:
    """Distinct in-region recurrent frequency supports and laws by full
    profile enumeration plus Cesaro doubling."""
    region = sorted(region)
    found = set()
    n = game.n_states
    for combo in itertools.product(range(game.n_profiles), repeat=len(region)):
        P = np.zeros((n, n))
        for s, a in zip(region, combo):
            P[s] = game.transitions[s, a]
        for s in range(n):
            if s not in region:
                P[s, s] = 1.0
        A = cesaro_doubling(P)
        for k, s in enumerate(region):
            # s recurrent and its reachable closure inside the region?
            if A[s, s] <= 1e-9:
                continue
            cls = [t for t in range(n) if A[s, t] > 1e-9]
            if any(t not in region for t in cls):
                continue
            # class must be mutually recurrent
            if any(A[t, s] <= 1e-9 for t in cls):
                continue
            rho = np.zeros((n, game.n_profiles))
            okay = True
            for t in cls:
                if t not in region:
                    okay = False
                    break
                rho[t, combo[region.index(t)]] = A[s, t]
            if okay and abs(rho.sum() - 1.0) <= 1e-8:
                found.add(tuple(np.round(rho, 8).ravel()))
    return found


def pricing_lp_oracle(game, region, weights: np.ndarray):
    """The recurrent point of `region` maximizing weights . payoff, or None,
    by the pricing LP over the invariant frequency polytope of the safe
    sub-MDP, solved with dual simplex so the optimum is a vertex: one action
    per support state, the support a recurrent class of that pure profile.
    """
    region = sorted(region)
    allowed = safe_profiles(game, region)
    live = [s for s in region if allowed[s]]
    if not live:
        return None
    states = [s for s in live for _ in allowed[s]]
    profiles = [a for s in live for a in allowed[s]]
    # Flow balance on every region state: outflow minus inflow is zero.  A
    # dead state has no outflow variables, so its inflow is forced to zero.
    row = {s: k for k, s in enumerate(region)}
    A_eq = np.zeros((len(region) + 1, len(states)))
    A_eq[:-1] = -game.transitions[states, profiles][:, region].T
    A_eq[[row[s] for s in states], np.arange(len(states))] += 1.0
    A_eq[-1] = 1.0
    b_eq = np.zeros(len(region) + 1)
    b_eq[-1] = 1.0
    gain = game.payoffs[states, profiles] @ weights
    res = linprog(-gain, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs-ds")
    if res.status == 2:  # infeasible: every class leaves the region
        return None
    if not res.success:
        raise RuntimeError(f"pricing LP failed on region {region}: {res.message}")
    rho = np.zeros((game.n_states, game.n_profiles))
    rho[states, profiles] = res.x
    # Off the support any preserving action will do: the support's class is
    # the same whatever the other states play.
    acts = [int(np.argmax(rho[s])) if rho[s].sum() > 0.0 else allowed[s][0]
            for s in live]
    points = _profile_points(game, region, live, acts)
    if not points:
        raise RuntimeError(f"pricing LP vertex on region {region} holds no recurrent class")
    return max(points, key=lambda p: float(weights @ p.payoff))


def best_recurrent_point_oracle(game, region, weights: np.ndarray):
    """Pricing as one call that builds the region's safe sub-MDP for itself:
    the reference of `frequencies.best_recurrent_point` on the sub-MDP that
    `safe_sub_mdp` builds once per set.  Drops, until nothing changes, every
    profile leaking more than DIST_TOL into a region state without a safe
    profile; pads every live state to the widest with copies of its first
    profile; runs Howard's loop on weights . u and returns the best
    recurrent class of the chosen profile, or None with no live state."""
    region = sorted(region)
    allowed = safe_profiles(game, region)
    while True:
        dead = [s for s in region if not allowed[s]]
        leak = game.transitions[:, :, dead].sum(axis=2)
        kept = {s: [a for a in acts if leak[s, a] <= DIST_TOL] for s, acts in allowed.items()}
        if kept == allowed:
            break
        allowed = kept
    live = [s for s in region if allowed[s]]
    if not live:
        return None
    width = max(len(allowed[s]) for s in live)
    acts = np.array([allowed[s] + allowed[s][:1] * (width - len(allowed[s])) for s in live])
    states = np.array(live)[:, None]
    R = game.payoffs[states, acts] @ weights
    P = game.transitions[states, acts][:, :, live]
    choice, settled, _, _ = chains.optimal_average_policy(R, P, start=None, bias_scaled=True)
    assert settled
    points = _profile_points(game, region, live, acts[np.arange(len(live)), choice].tolist())
    return max(points, key=lambda p: float(weights @ p.payoff))


def mixture_lp_oracle(payoffs: np.ndarray, target: np.ndarray):
    """maximize t s.t. sum_l beta_l payoff_l >= target + t, beta in simplex,
    as one LP.  Returns (beta, t, y), y being the dual weights of the target
    rows.  Solved with dual simplex so the optimum is a vertex."""
    L, n_i = payoffs.shape
    c = np.zeros(L + 1)
    c[-1] = -1.0
    A_ub = np.hstack([-payoffs.T, np.ones((n_i, 1))])
    b_ub = -target
    A_eq = np.zeros((1, L + 1))
    A_eq[0, :L] = 1.0
    bounds = [(0, None)] * L + [(None, None)]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0],
                  bounds=bounds, method="highs-ds")
    if not res.success:
        raise RuntimeError(f"mixture LP failed: {res.message}")
    beta = np.clip(res.x[:L], 0.0, None)
    beta /= beta.sum()
    return beta, float(res.x[-1]), -res.ineqlin.marginals


def optimal_average_values(game) -> np.ndarray:
    """Single-player oracle: best long-run average per start state over all
    pure stationary policies, evaluated by Cesaro doubling."""
    assert game.n_players == 1
    n = game.n_states
    best = np.full(n, -np.inf)
    for combo in itertools.product(range(game.n_profiles), repeat=n):
        P = np.stack([game.transitions[s, combo[s]] for s in range(n)])
        r = np.array([game.payoffs[s, combo[s], 0] for s in range(n)])
        vals = cesaro_doubling(P) @ r
        best = np.maximum(best, vals)
    return best


def empirical_frequency(game, table, s1: int, steps: int, seed: int) -> np.ndarray:
    """Single long trajectory frequency of (state, profile) pairs.

    Two uniforms per step, drawn in blocks (the same stream as one draw per
    call); each draw is inverted against a cumulative row with `bisect`."""
    rng = np.random.default_rng(seed)
    counts = [[0] * game.n_profiles for _ in range(game.n_states)]
    cum_table = np.cumsum(table, axis=1).tolist()
    cum_q = np.cumsum(game.transitions, axis=2).tolist()
    last_a, last_s = game.n_profiles - 1, game.n_states - 1
    s = s1
    for start in range(0, steps, 1 << 16):
        u = rng.random(2 * min(1 << 16, steps - start)).tolist()
        for k in range(0, len(u), 2):
            a = min(bisect.bisect_left(cum_table[s], u[k]), last_a)
            counts[s][a] += 1
            s = min(bisect.bisect_left(cum_q[s][a], u[k + 1]), last_s)
    return np.array(counts, dtype=float) / steps


# Per-state reference forms of the min-max stage's batched numerics.  They
# keep the loop-per-state arithmetic, so the batched code must match them bit
# for bit.

def _closed_form_2x2_oracle(M: np.ndarray):
    """One try of the 2x2 closed form: (value, x, y, passes the minimax
    check on M)."""
    row_mins = M.min(axis=1)
    col_maxs = M.max(axis=0)
    if row_mins.max() >= col_maxs.min() - 1e-15:
        i = int(np.argmax(row_mins))
        j = int(np.argmin(col_maxs))
        x = np.zeros(2)
        y = np.zeros(2)
        x[i] = 1.0
        y[j] = 1.0
        value = float(M[i, j])
    else:
        a, b = M[0]
        c, d = M[1]
        with np.errstate(divide="ignore", invalid="ignore"):
            denom = a + d - b - c
            x1 = (d - c) / denom
            y1 = (d - b) / denom
            value = float((a * d - b * c) / denom)
        x = np.array([x1, 1.0 - x1])
        y = np.array([y1, 1.0 - y1])
    return value, x, y, _minimax_check_2x2(M, value, x, y)


def _minimax_check_2x2(M, value, x, y) -> bool:
    with np.errstate(invalid="ignore"):
        return (float(np.min(x @ M)) >= value - 1e-9
                and float(np.max(M @ y)) <= value + 1e-9)


def solve_2x2_oracle(M: np.ndarray, retry: bool = True):
    """Closed form of one 2x2 game: (value, x, y, passes the minimax check).
    A game that fails is, with `retry`, solved once more on M - M.min(), and
    (that value + M.min(), the same mixes) is checked on M."""
    value, x, y, ok = _closed_form_2x2_oracle(M)
    if not ok and retry:
        lo = float(M.min())
        value, x, y, _ = _closed_form_2x2_oracle(M - lo)
        value += lo
        ok = _minimax_check_2x2(M, value, x, y)
    return value, x, y, ok


def exact_2x2_value(M) -> Fraction:
    """The exact value of a 2x2 game with float entries, in rationals."""
    a, b, c, d = (Fraction(float(e)) for e in np.ravel(M))
    lower = max(min(a, b), min(c, d))
    upper = min(max(a, c), max(b, d))
    if lower == upper:
        return lower
    return (a * d - b * c) / (a + d - b - c)


def response_mdp_oracle(game, i: int, lam: float, fixed, fix_rows: bool):
    """Player i's best-response MDP (R, P) built one state at a time."""
    index = game.player_indices[i]
    n_states = game.n_states
    n_act = index.shape[1] if fix_rows else index.shape[0]
    R = np.empty((n_states, n_act))
    P = np.empty((n_states, n_act, n_states))
    for s in range(n_states):
        u_mat = (1.0 - lam) * game.payoffs[s, :, i][index]
        t_mat = game.transitions[s][index]
        w = np.asarray(fixed[s])
        if fix_rows:
            R[s] = w @ u_mat
            P[s] = np.einsum("r,rct->ct", w, t_mat)
        else:
            R[s] = u_mat @ w
            P[s] = np.einsum("rct,c->rt", t_mat, w)
    return R, P


def policy_iteration_oracle(R: np.ndarray, P: np.ndarray, lam: float,
                            maximize: bool, cap: int = 10_000) -> np.ndarray:
    """Discounted solve of one MDP, R (S, A) and P (S, A, S), maximizing or
    minimizing."""
    n_states = R.shape[0]
    states = np.arange(n_states)
    sign = 1.0 if maximize else -1.0
    policy = np.argmax(sign * R, axis=1)
    eye = np.eye(n_states)
    for _ in range(cap):
        value = np.linalg.solve(eye - lam * P[states, policy], R[states, policy])
        q = R + lam * (P @ value)
        improved = np.argmax(sign * q, axis=1)
        gains = sign * (q[states, improved] - q[states, policy])
        if np.all(gains <= 1e-13):
            return value
        policy = np.where(gains > 1e-13, improved, policy)
    raise RuntimeError("policy iteration did not terminate")


def exact_gain(P: np.ndarray, r: np.ndarray) -> list:
    """Long-run average of r (n,) under the chain P (n, n), in rationals.

    Any solution (g, h) of g = P g and g + h = r + P h has g = P* r, the
    Cesaro limit applied to r (multiply the second equation by P*), so one
    row reduction of those 2n equations over `Fraction`s, free unknowns set
    to 0, gives the exact gain.  Each row's largest entry is first set so
    that the row sums to exactly 1: a float row that sums to 1 - 1e-16
    would leak mass in exact arithmetic, and every gain would be 0."""
    n = len(r)
    F = [[Fraction(x) for x in row] for row in P]
    for row in F:
        top = row.index(max(row))
        row[top] = 1 - (sum(row) - row[top])
    eye = [[Fraction(int(s == t)) for t in range(n)] for s in range(n)]
    zero = [Fraction(0)] * n
    system = [[eye[s][t] - F[s][t] for t in range(n)] + zero + [Fraction(0)] for s in range(n)]
    system += [eye[s] + [eye[s][t] - F[s][t] for t in range(n)] + [Fraction(r[s])]
               for s in range(n)]
    pivots = []
    row = 0
    for col in range(2 * n):
        pick = next((k for k in range(row, len(system)) if system[k][col] != 0), None)
        if pick is None:
            continue
        system[row], system[pick] = system[pick], system[row]
        lead = system[row][col]
        system[row] = [x / lead for x in system[row]]
        for k in range(len(system)):
            if k != row and system[k][col] != 0:
                factor = system[k][col]
                system[k] = [a - factor * b for a, b in zip(system[k], system[row])]
        pivots.append(col)
        row += 1
    solution = [Fraction(0)] * (2 * n)
    for k, col in enumerate(pivots):
        solution[col] = system[k][-1]
    return solution[:n]


def recurrent_classes_oracle(P: np.ndarray):
    """Recurrent classes of P, in the order of their first states, and its
    transient states, as lists, from the transitive closure of the support
    above `chains.SUPPORT_CUTOFF` (Warshall): a state is recurrent when
    every state it reaches reaches it back, and so is a zero row."""
    n = len(P)
    reach = (P > chains.SUPPORT_CUTOFF) | np.eye(n, dtype=bool)
    for k in range(n):
        reach |= reach[:, k:k + 1] & reach[k]
    recurrent = [s for s in range(n) if reach[reach[s], s].all()]
    classes = []
    for s in recurrent:
        if not any(s in cls for cls in classes):
            classes.append([t for t in recurrent if reach[s, t]])
    return classes, [s for s in range(n) if s not in recurrent]


def stationary_law_oracle(P: np.ndarray, cls) -> np.ndarray:
    """One class's invariant law by its own `np.linalg.solve` on the system
    that `chains._group_laws` stacks: the class's sub.T - I with its last
    row set to ones, clipped at 0 and renormalized; 1.0 for one state."""
    idx = list(cls)
    if len(idx) == 1:
        return np.ones(1)
    sub = P[idx][:, idx]
    M = sub.T - np.eye(len(idx))
    M[-1, :] = 1.0
    b = np.zeros(len(idx))
    b[-1] = 1.0
    pi = np.clip(np.linalg.solve(M, b), 0.0, None)
    return pi / pi.sum()


def per_class_gain(P: np.ndarray, r: np.ndarray):
    """`chains._gain` class by class: the absorption right-hand side, the
    stationary law (`stationary_law_oracle`) and the class value of each
    recurrent class on their own, from `recurrent_classes_oracle`.  Returns
    (gain, classes); the library's plan must give the same bits."""
    single = r.ndim == 1
    rv = r[:, None] if single else r
    classes, transient = recurrent_classes_oracle(P)
    absorb = np.zeros((P.shape[0], len(classes)))
    for j, cls in enumerate(classes):
        absorb[cls, j] = 1.0
    if transient:
        rows = P[transient]
        rhs = np.zeros((len(transient), len(classes)))
        for j, cls in enumerate(classes):
            rhs[:, j] = rows[:, cls].sum(axis=1)
        Q = rows[:, transient]
        absorb[transient] = np.linalg.solve(np.eye(len(transient)) - Q, rhs)
    class_vals = np.zeros((len(classes), rv.shape[1]))
    for j, cls in enumerate(classes):
        class_vals[j] = stationary_law_oracle(P, cls) @ rv[cls]
    g = absorb @ class_vals
    return (g[:, 0] if single else g), classes


def pure_average_extremum(R: np.ndarray, P: np.ndarray, maximize: bool) -> np.ndarray:
    """Largest (or smallest) long-run average per start state over every
    pure stationary policy of the MDP with rewards R (S, A) and transitions
    P (S, A, S), each policy's gain computed exactly (`exact_gain`)."""
    n_states, n_actions = R.shape
    rows = np.arange(n_states)
    gains = [exact_gain(P[rows, combo], R[rows, combo])
             for combo in itertools.product(range(n_actions), repeat=n_states)]
    pick = max if maximize else min
    return np.array([float(pick(g[s] for g in gains)) for s in range(n_states)])


def eager_average_policy(R: np.ndarray, P: np.ndarray, valid: np.ndarray,
                         start: np.ndarray | None, bias_scaled: bool):
    """Reference of `chains.optimal_average_policy`: the same Howard loop,
    solving every evaluation's bias (`gain_bias`) whether or not the loop
    reads it, over the actions that `valid` (n, m) allows.  With every
    action allowed it has the library's returns and bits; on an MDP padded
    with copies of each state's first action, the copies masked, it has the
    library's gains and biases, and its choices up to copies.  Its cap is
    read from `chains` at call time."""
    rows = np.arange(len(R))
    choice = np.where(valid, R, -np.inf).argmax(axis=1) if start is None else start
    scale = 1.0 + np.abs(R).max()
    for _ in range(chains.POLICY_ITERATION_CAP):
        g, h = chains.gain_bias(P[rows, choice], R[rows, choice])
        tol = chains.IMPROVE_TOL * (scale + np.abs(h).max() if bias_scaled else scale)
        q = np.where(valid, P @ g, -np.inf)
        new = chains._improve(q, choice, tol)
        if np.array_equal(new, choice):
            gain_optimal = valid & (q >= q.max(axis=1, keepdims=True) - tol)
            new = chains._improve(np.where(gain_optimal, R + P @ h, -np.inf), choice, tol)
            if np.array_equal(new, choice):
                return choice, True, g, h
        choice = new
    return choice, False, g, h


def cross_direct_minmax(game, i: int) -> DirectSolve:
    """`minmax.direct_minmax` with cross steps only: every iteration solves
    the player's one-shot games at the coalition's last best average
    response and the coalition's at the player's, then narrows the bracket
    with both best responses (`_Stage.average_responses`).  Same constants
    and stop rules."""
    n = game.n_states
    payoff, transitions, index = game.payoffs[:, :, i], game.transitions, game.player_indices[i]
    stage = _Stage(game, i, 0.0)
    lower, upper = np.full(n, -np.inf), np.full(n, np.inf)
    w_up = w_lo = np.zeros(n)
    matrix_solves = 0
    best, halved_at = np.inf, 0
    outcome = "cap"
    for it in range(1, DIRECT_CAP + 1):
        _, rows, _, solved_rows = _one_shot(payoff, transitions, index, 1.0, w_lo)
        _, _, cols, solved_cols = _one_shot(payoff, transitions, index, 1.0, w_up)
        matrix_solves += solved_rows + solved_cols
        settled, g_up, h_up, g_lo, h_lo = stage.average_responses(rows, cols)
        if not settled:
            outcome = "unsettled"
            break
        np.maximum(lower, g_lo, out=lower)
        np.minimum(upper, g_up, out=upper)
        if np.max(lower - upper) > DIRECT_WIDTH:
            outcome = "crossed"
            break
        width = float(np.max(upper - lower))
        if width <= DIRECT_WIDTH:
            outcome = "closed"
            break
        if width <= 0.5 * best:
            best, halved_at = width, it
        elif it - halved_at >= DIRECT_PATIENCE:
            outcome = "stalled"
            break
        w_up = h_up + DIRECT_GAIN_WEIGHT * (g_up - g_up.min())
        w_lo = h_lo + DIRECT_GAIN_WEIGHT * (g_lo - g_lo.min())
    return DirectSolve(i, 0.5 * (lower + upper), lower, upper, it, 0, matrix_solves, outcome)


def discounted_minmax_oracle(game, i: int, lam: float, tol: float = 1e-9, v0=None,
                             _stage=None):
    """Per-state reference of `minmax.discounted_minmax`: the same rounds,
    stop rules, stall bookkeeping and `matrix_solves` count, with every
    one-shot game solved on its own (`solve_2x2_oracle`, or
    `solve_matrix_game` where both its tries fail or the game is not 2x2), every
    response MDP built one state at a time and each side's MDP solved on its
    own.  The curve's workspace `_stage` is accepted and ignored."""
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"discount factor {lam} outside [0, 1)")
    index = game.player_indices[i]
    v = np.zeros(game.n_states) if v0 is None else np.array(v0, dtype=float)
    rounds = 0
    matrix_solves = 0
    best_gap = np.inf
    best_mid = None
    since_improved = 0
    while True:
        q_flat = (1.0 - lam) * game.payoffs[:, :, i] + lam * (game.transitions @ v)
        rows, cols = [], []
        for s in range(game.n_states):
            M = q_flat[s][index]
            ok = False
            if M.shape == (2, 2):
                _, x, y, ok = solve_2x2_oracle(M)
            if not ok:
                matrix_solves += 1
                sol = solve_matrix_game(M)
                x, y = sol.row_strategy, sol.col_strategy
            rows.append(x)
            cols.append(y)
        rounds += 1
        R_up, P_up = response_mdp_oracle(game, i, lam, cols, fix_rows=False)
        v_up = policy_iteration_oracle(R_up, P_up, lam, maximize=True)
        R_lo, P_lo = response_mdp_oracle(game, i, lam, rows, fix_rows=True)
        v_lo = policy_iteration_oracle(R_lo, P_lo, lam, maximize=False)
        gap = float(np.max(np.abs(v_up - v_lo)))
        if gap < best_gap * 0.9:
            best_gap = gap
            best_mid = 0.5 * (v_up + v_lo)
            since_improved = 0
        else:
            since_improved += 1
        if gap <= 2.0 * tol:
            return 0.5 * (v_up + v_lo), {"rounds": rounds, "matrix_solves": matrix_solves,
                                         "certified_gap": gap}
        if since_improved >= 8 or rounds >= 200:
            return best_mid, {"rounds": rounds, "matrix_solves": matrix_solves,
                              "certified_gap": best_gap, "stalled": True}
        v = v_up


def newton_minmax_oracle(game, i: int, lam: float, v0=None):
    """Discounted min-max value of player i by Newton steps (Pollatschek &
    Avi-Itzhak 1969): take both sides' one-shot mixes at v, then move v to
    the value of that stationary pair, the solution of (I - lam P) v = r.
    After each pair it solves both best responses (`response_mdp_oracle`,
    `policy_iteration_oracle`) and stops once that bracket is at most 2e-9
    wide, as `minmax.discounted_minmax` certifies, or after 50 pairs.  Returns the midpoint and width of the
    narrowest bracket: the value lies within half the width of the midpoint,
    up to each policy iteration's stop (a gain of 1e-13 can hide
    1e-13 / (1 - lam) of value)."""
    n_states = game.n_states
    v = np.zeros(n_states) if v0 is None else np.array(v0, dtype=float)
    best_mid, best_gap = None, np.inf
    for _ in range(50):
        _, rows, cols = shapley_operator(game, i, lam, v)
        R_up, P_up = response_mdp_oracle(game, i, lam, cols, fix_rows=False)
        v_up = policy_iteration_oracle(R_up, P_up, lam, maximize=True)
        R_lo, P_lo = response_mdp_oracle(game, i, lam, rows, fix_rows=True)
        v_lo = policy_iteration_oracle(R_lo, P_lo, lam, maximize=False)
        gap = float(np.max(np.abs(v_up - v_lo)))
        if gap < best_gap:
            best_mid, best_gap = 0.5 * (v_up + v_lo), gap
        if gap <= 2e-9:
            break
        r = np.einsum("sr,sr->s", rows, R_up)
        P = np.einsum("sr,srt->st", rows, P_up)
        v = np.linalg.solve(np.eye(n_states) - lam * P, r)
    return best_mid, best_gap


def indifference_solve(M, own_support, opp_support):
    """The opponent mix on opp_support equalizing M over own_support, one
    bordered system solved on its own; None when a weight is below -1e-9.
    Raises LinAlgError on an exactly singular system."""
    k = len(own_support)
    sub = M[np.ix_(own_support, opp_support)]
    lhs = np.zeros((k + 1, k + 1))
    lhs[:k, :k] = sub
    lhs[:k, k] = -1.0
    lhs[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    sol = np.linalg.solve(lhs, rhs)
    w = sol[:k]
    if np.any(w < -1e-9):
        return None
    w = np.clip(w, 0.0, None)
    return w / w.sum()


def support_enumeration_oracle(aux, tol: float) -> list:
    """Per-pair reference of `oneshot._support_candidates_2p`: every support
    pair of equal size >= 2, rows then columns in lexicographic order, with
    each side's indifference system solved on its own."""
    m, n = aux.action_counts
    A = aux.tensor()[..., 0]
    B = aux.tensor()[..., 1]
    found = []
    for k in range(2, min(m, n) + 1):
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                try:
                    y = indifference_solve(A, rows, cols)
                    x = indifference_solve(B.T, cols, rows)
                except np.linalg.LinAlgError:
                    continue
                if x is None or y is None:
                    continue
                xm = np.zeros(m)
                ym = np.zeros(n)
                xm[list(rows)] = x
                ym[list(cols)] = y
                if regret(aux, (xm, ym)) <= tol:
                    found.append((xm, ym))
    return found


def pure_equilibria_oracle(aux, tol: float) -> list:
    """The pure scan of one auxiliary game, profile by profile in
    `itertools.product` order: a profile from which no player's switch
    gains more than tol, as one-hot mixes."""
    counts = aux.action_counts
    tensor = aux.tensor()
    found = []
    for profile in itertools.product(*[range(k) for k in counts]):
        if all(tensor[profile[:i] + (slice(None),) + profile[i + 1:] + (i,)].max()
               <= tensor[profile + (i,)] + tol for i in range(len(counts))):
            found.append(tuple(np.eye(k)[a] for k, a in zip(counts, profile)))
    return found


def auxiliary_game(game, s: int, v1: np.ndarray) -> AuxiliaryGame:
    """The auxiliary game at state s on its own, its table by one
    `transitions[s] @ v1`; `oneshot.continuation_values` stacks every
    state's product."""
    return AuxiliaryGame(s, game.transitions[s] @ v1, game.action_counts)


def equilibria_oracle(aux, tol: float) -> EquilibriumSet:
    """Per-state reference of the stacked one-shot stage
    (`oneshot.enumerate_all_states`): the pure scan, then for two players
    every support pair on its own (`support_enumeration_oracle`), each
    regret by `regret`, and best-response dynamics (the library's) for
    three or more players or when nothing was found; of equal keys rounded
    to 8 digits the first exact one is kept, sorted by key."""
    n_players = len(aux.action_counts)
    found = pure_equilibria_oracle(aux, tol)
    if n_players == 2:
        found += support_enumeration_oracle(aux, tol)
    items = [Equilibrium(mixes, True, regret(aux, mixes)) for mixes in found]
    notes = []
    if n_players >= 3 or not items:
        for mixes, r in _best_response_dynamics(aux):
            items.append(Equilibrium(mixes, False, r))
        if n_players >= 3 and not items:
            notes.append("no equilibrium found by pure scan or best-response restarts")
    seen = {}
    for eq in items:
        key = tuple(tuple(round(float(v), 8) for v in m) for m in eq.mixes)
        if key not in seen or (eq.exact and not seen[key].exact):
            seen[key] = eq
    ordered = [seen[k] for k in sorted(seen)]
    if not ordered:
        notes.append("equilibrium list is empty")
    return EquilibriumSet(aux.state, ordered, notes)


def shapley_operator(game, i: int, lam: float, v: np.ndarray):
    """One application of the min-max dynamic-programming operator, as one
    round of `minmax.discounted_minmax` computes it: (Tv, the protected
    player's per-state optimal mixes (S, own), the coalition's (S, other)),
    all for the one-shot games at v."""
    return _one_shot((1.0 - lam) * game.payoffs[:, :, i], game.transitions,
                     game.player_indices[i], lam, v)[:3]


# Test-only builders: a pure stationary profile and a random finite MDP.

def pure_profile(game, actions_by_state) -> StationaryProfile:
    """Build a pure stationary profile from per-state action-index tuples."""
    mixes = []
    for i, count in enumerate(game.action_counts):
        mix = np.zeros((game.n_states, count))
        for s in range(game.n_states):
            mix[s, actions_by_state[s][i]] = 1.0
        mixes.append(mix)
    return StationaryProfile(tuple(mixes))


def random_mdp(seed: int, n_states: int | None = None, n_actions: int = 3
               ) -> StochasticGame:
    """Single-player game (a finite MDP) with dense transitions."""
    rng = np.random.default_rng(seed)
    n_states = int(rng.integers(2, 6)) if n_states is None else n_states
    payoffs = rng.uniform(-1.0, 1.0, size=(n_states, n_actions, 1))
    transitions = np.zeros((n_states, n_actions, n_states))
    for s in range(n_states):
        for a in range(n_actions):
            transitions[s, a] = _dirichlet_floor(rng, n_states)
    return StochasticGame(
        state_names=tuple(f"s{k}" for k in range(n_states)),
        action_names=(tuple(f"a{j}" for j in range(n_actions)),),
        payoffs=payoffs,
        transitions=transitions,
        name=f"mdp-{seed}",
    )


# Exact stationary-strategy references on the state chain.

def induced_chain(game, table: np.ndarray):
    """State chain P and per-state stage payoffs r under a correlated table."""
    P = np.einsum("sa,sat->st", table, game.transitions)
    r = np.einsum("sa,sai->si", table, game.payoffs)
    return P, r


def discounted_payoff_stationary(game, strategy, lam: float, s1=None) -> np.ndarray:
    """Exact discounted payoff of a stationary strategy.

    Solves gamma = (1-lam) r + lam P gamma per player.  Returns the (S, I)
    matrix of payoffs by initial state, or the row for `s1` when given.
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"discount factor {lam} outside [0, 1)")
    P, r = induced_chain(game, as_correlated_table(game, strategy))
    gamma = np.linalg.solve(np.eye(game.n_states) - lam * P, (1.0 - lam) * r)
    return gamma if s1 is None else gamma[s1]


def absorption_probabilities(P: np.ndarray, classes, transient) -> np.ndarray:
    """Probability of absorption in each recurrent class, per start state.

    Returns an (n, len(classes)) matrix; rows of recurrent states are the
    indicator of their own class.
    """
    n = P.shape[0]
    k = len(classes)
    out = np.zeros((n, k))
    for j, cls in enumerate(classes):
        for s in cls:
            out[s, j] = 1.0
    if transient:
        t_idx = list(transient)
        Q = P[np.ix_(t_idx, t_idx)]
        rhs = np.zeros((len(t_idx), k))
        for j, cls in enumerate(classes):
            rhs[:, j] = P[np.ix_(t_idx, cls)].sum(axis=1)
        B = np.linalg.solve(np.eye(len(t_idx)) - Q, rhs)
        for row, s in enumerate(t_idx):
            out[s] = B[row]
    return out


def limit_occupation(P: np.ndarray, s1: int) -> np.ndarray:
    """Cesaro-limit state occupation started from s1: the absorption-weighted
    mixture of the recurrent classes' invariant laws."""
    classes, transient = recurrent_classes_oracle(P)
    absorb = absorption_probabilities(P, classes, transient)
    occ = np.zeros(P.shape[0])
    for j, cls in enumerate(classes):
        w = absorb[s1, j]
        if w <= 0.0:
            continue
        occ[cls] += w * stationary_law_oracle(P, cls)
    return occ


def stationary_frequency(game, strategy, s1: int) -> np.ndarray:
    """Exact long-run (state, profile) frequency rho, shape (S, A), of a
    stationary strategy from s1."""
    table = as_correlated_table(game, strategy)
    P, _ = induced_chain(game, table)
    return limit_occupation(P, s1)[:, None] * table


# Multilinear extensions of the stage game to correlated mixed actions.

def validate_distribution(weights, size: int, what: str = "distribution") -> np.ndarray:
    """Validate and return a probability vector of the requested size."""
    arr = np.asarray(weights, dtype=float)
    if arr.shape != (size,):
        raise ValueError(f"{what} has shape {arr.shape}, expected ({size},)")
    if np.any(arr < -DIST_TOL):
        raise ValueError(f"{what} has negative entries")
    if abs(float(arr.sum()) - 1.0) > DIST_TOL:
        raise ValueError(f"{what} sums to {float(arr.sum())!r}, expected 1")
    return arr


def extend_transition(game, s: int, alpha) -> np.ndarray:
    """Next-state distribution q(. | s, alpha) for a correlated mixed action."""
    alpha = validate_distribution(alpha, game.n_profiles, "correlated mixed action")
    return alpha @ game.transitions[s]


def extend_payoff(game, s: int, alpha) -> np.ndarray:
    """Stage payoff vector u(s, alpha) for a correlated mixed action."""
    alpha = validate_distribution(alpha, game.n_profiles, "correlated mixed action")
    return alpha @ game.payoffs[s]


# Path-level execution of a profile: the joint machine against the
# per-player views.

@dataclass(frozen=True, eq=False)
class PlayerAutomaton:
    """Player view of a joint machine with product outputs: identical states,
    inputs and transitions, output restricted to the player's own factor."""

    joint: object
    player: int

    @property
    def size(self) -> int:
        return self.joint.size

    def output(self, q: int) -> np.ndarray:
        return self.joint.factors[q][self.player]


def player_views(profile) -> list:
    """One `PlayerAutomaton` per player of a profile whose joint machine has
    product outputs; an empty list for correlated outputs."""
    joint = profile.joint
    if joint.factors is None:
        return []
    return [PlayerAutomaton(joint, i) for i in range(len(joint.factors[0]))]


def profile_index(game, profile) -> int:
    """The flat index of the per-player action tuple `profile`."""
    return int(np.ravel_multi_index(tuple(profile), game.action_counts))


def _draw(rng, weights) -> int:
    u = rng.random()
    return int(min(np.sum(np.cumsum(weights) < u), len(weights) - 1))


def sample_play_joint(game, profile, s1: int, stages: int, seed: int) -> list:
    """Sample a play path through the joint machine.

    Action coins are drawn per player from dedicated streams; machine
    transitions and nature use shared public streams, so the per-player
    execution below reproduces the path exactly.
    """
    joint = profile.joint
    if joint.factors is None:
        raise ValueError("joint machine has correlated outputs; no per-player view")
    n_players = len(joint.factors[0])
    rng_nature = np.random.default_rng([0, seed])
    rng_machine = np.random.default_rng([1, seed])
    rng_act = [np.random.default_rng([10 + i, seed]) for i in range(n_players)]
    s, q = s1, joint.init[s1]
    path = []
    for _ in range(stages):
        actions = tuple(_draw(rng_act[i], joint.factors[q][i]) for i in range(n_players))
        a = profile_index(game, actions)
        s_next = _draw(rng_nature, game.transitions[s, a])
        dist = joint.step_dist(q, a, s_next)
        probs = np.array([p for _, p in dist])
        q_next = dist[_draw(rng_machine, probs)][0]
        path.append((s, a, s_next))
        s, q = s_next, q_next
    return path


def sample_play_per_player(game, profile, s1: int, stages: int, seed: int) -> list:
    """Same play, executed through the per-player automaton views."""
    players = player_views(profile)
    if not players:
        raise ValueError("profile has no per-player decomposition")
    n_players = len(players)
    rng_nature = np.random.default_rng([0, seed])
    rng_machine = np.random.default_rng([1, seed])
    rng_act = [np.random.default_rng([10 + i, seed]) for i in range(n_players)]
    joint = profile.joint
    s = s1
    qs = [view.joint.init[s1] for view in players]
    path = []
    for _ in range(stages):
        actions = tuple(_draw(rng_act[i], players[i].output(qs[i]))
                        for i in range(n_players))
        a = profile_index(game, actions)
        s_next = _draw(rng_nature, game.transitions[s, a])
        # All machines consume the same public coin for their common
        # stochastic transition.
        dist = joint.step_dist(qs[0], a, s_next)
        probs = np.array([p for _, p in dist])
        pick = _draw(rng_machine, probs)
        q_next = dist[pick][0]
        path.append((s, a, s_next))
        s = s_next
        qs = [q_next] * n_players
    return path


# Test-only helpers on the library's product chain and exit scheme.

def exact_discounted_payoff_automaton(game, profile, s1: int, lam: float) -> np.ndarray:
    """Exact discounted payoff of an automaton (or stationary) strategy."""
    model = product_chain(game, profile)
    return discounted_value(model, [lam])[0, model.node_of(s1)]


def node_frequency(model: ProductModel, node: int) -> np.ndarray:
    """Long-run (game state, profile) frequency from a start node."""
    occ = limit_occupation(model.P, node)
    rho = np.zeros((model.game.n_states, model.game.n_profiles))
    for n in np.nonzero(occ)[0]:
        rho[model.nodes[n][0]] += occ[n] * model.alpha[n]
    return rho


def reachable_nodes(model: ProductModel) -> list:
    """Node ids reachable with positive probability (above DIST_TOL) from
    the start node of every game state, by a search over the chain's rows."""
    seen = set()
    stack = [model.node_of(s) for s in range(model.game.n_states)]
    seen.update(stack)
    while stack:
        n = stack.pop()
        for n2 in np.nonzero(model.P[n] > DIST_TOL)[0]:
            if int(n2) not in seen:
                seen.add(int(n2))
                stack.append(int(n2))
    return sorted(seen)


@dataclass
class AverageLimitReport:
    average_ok: bool
    limit_ok: bool
    discounted_ok: bool
    uniform_ok: bool
    average_threshold: dict        # per state, first stage count passing onward
    horizon: int
    details: dict


def check_average_limit_acceptable(game, profile, w: np.ndarray, horizon: int = 4000,
                                   lam_grid=DEFAULT_LAMBDA_GRID) -> AverageLimitReport:
    """Finite-horizon average and limit-average acceptability.

    Expected k-stage averages are computed by exact transient analysis on the
    product chain for k up to `horizon`; the limit uses the recurrent-class
    decomposition.  The two must agree at the horizon for the average
    criterion to conclude.
    """
    model = product_chain(game, profile)
    lim = model.limit
    thresholds = {}
    average_ok = True
    stage_gap = 0.0
    for s in range(game.n_states):
        node = model.node_of(s)
        dist = np.zeros(model.n_nodes)
        dist[node] = 1.0
        cum = np.zeros(game.n_players)
        margins_ok_from = None
        for k in range(1, horizon + 1):
            cum += dist @ model.r
            avg = cum / k
            if np.all(avg - w[s] >= -MARGIN_TOL):
                if margins_ok_from is None:
                    margins_ok_from = k
            else:
                margins_ok_from = None
            dist = dist @ model.P
        thresholds[str(s)] = margins_ok_from
        if margins_ok_from is None:
            average_ok = False
        # Stage payoffs converge geometrically; once they sit on the limit,
        # averages beyond the horizon are mixtures of the verified horizon
        # average and the (separately checked) limit.
        stage_gap = max(stage_gap, float(np.max(np.abs(dist @ model.r - lim[node]))))
    converged = stage_gap <= 1e-6
    limit_ok = all(
        np.all(lim[model.node_of(s)] - w[s] >= -MARGIN_TOL)
        for s in range(game.n_states)
    )
    disc = check_w_acceptable(model, w, lam_grid)
    average_ok = average_ok and converged and limit_ok
    return AverageLimitReport(
        average_ok=average_ok,
        limit_ok=limit_ok,
        discounted_ok=disc.ok,
        uniform_ok=bool(average_ok and limit_ok and disc.ok),
        average_threshold=thresholds,
        horizon=horizon,
        details={"tail_converged": converged, "stage_gap_at_horizon": stage_gap},
    )


@dataclass
class NodeMargin:
    state: int
    machine_state: int
    player: int
    margins: list          # per grid discount factor
    limit_margin: float

    @property
    def ok(self) -> bool:
        """Passes in the limit and at the largest grid discount, so from
        some grid point on, as `check_w_acceptable` judges a start."""
        return self.limit_margin >= -MARGIN_TOL and self.margins[-1] >= -MARGIN_TOL


def node_margins(chain: ProductModel, w: np.ndarray, lam_grid=DEFAULT_LAMBDA_GRID) -> list:
    """Acceptability after every on-path history: for every reachable
    (game state, machine state) node of the product chain and every player,
    the margins over w(state) of the discounted payoffs on the grid and of
    the limit payoff, where `check_w_acceptable` judges only the start
    nodes."""
    by_lam = discounted_value(chain, lam_grid)
    lim = chain.limit
    entries = []
    for node in reachable_nodes(chain):
        s, q = chain.nodes[node]
        for i in range(chain.game.n_players):
            entries.append(NodeMargin(
                s, q, i, [float(v[node, i] - w[s, i]) for v in by_lam],
                float(lim[node, i] - w[s, i])))
    return entries


def simulate_first_exit(eta, trials: int, seed: int) -> np.ndarray:
    """Empirical first-exit frequencies of the cyclic scheme.

    Simulated cycle by cycle: each pending trial draws the cycle outcome
    (fire at phase l, or a silent cycle) from the coin process's per-cycle
    law; silent trials go around again.
    """
    rng = np.random.default_rng(seed)
    eta = np.asarray(eta, dtype=float)
    silent = np.cumprod(1.0 - eta)
    before = np.concatenate([[1.0], silent[:-1]])
    per_cycle = np.concatenate([before * eta, [silent[-1]]])
    cum = np.cumsum(per_cycle)
    L = eta.size
    counts = np.zeros(L)
    pending = trials
    while pending:
        draws = np.searchsorted(cum, rng.random(pending))
        fired = np.bincount(draws[draws < L], minlength=L)
        counts += fired
        pending = int((draws == L).sum())
    return counts / trials


# Per-set analyses and feasibility tests: the exact first-played-exit law,
# departure values and long-run payoff of a set's standalone machine, read
# off its product chain as the tuner reads it; the cyclic scheme's
# closed-form exit law; the type-A mixture over given recurrent points; and
# the one-shot value inequality.

def exit_play_law(game, cset, plan: ExitPlan) -> np.ndarray:
    """Exact first-played-exit law per entry state (rows, one per state of
    the set `cset`), with exit plays absorbing; every row should equal
    plan.beta."""
    fragment = build_type_b_fragment(game, cset, plan)
    model = _set_model(game, fragment)
    node = {lab: k for k, lab in enumerate(fragment.local_states)}
    marked = {(node[lab], a): lab[0] for (lab, a, _), dist in fragment.table.items()
              if dist[0][0] is REDISPATCH}
    inside = range(len(node))
    return first_play_law(model, inside, marked, len(plan.exits))[:len(fragment.region)]


def exit_values(model: ProductModel, inside, values: np.ndarray) -> np.ndarray:
    """Expected `values` at the game state of the first node outside the node
    set `inside`, per node of `inside` (rows in its order), with the system
    built entry by entry; play must leave `inside` almost surely.  The
    reference of `chains.first_passage` on a departing set's block."""
    pos = {n: j for j, n in enumerate(inside)}
    T = np.zeros((len(inside), len(inside)))
    b = np.zeros((len(inside),) + values.shape[1:])
    for n in inside:
        for n2 in np.nonzero(model.P[n] > 0)[0]:
            n2 = int(n2)
            p = model.P[n, n2]
            if n2 in pos:
                T[pos[n], pos[n2]] += p
            else:
                b[pos[n]] += p * values[model.nodes[n2][0]]
    return np.linalg.solve(np.eye(len(inside)) - T, b)


def departure_values(game, cset, plan: ExitPlan, v1: np.ndarray):
    """Expected uniform min-max value at the first state outside the set
    `cset`, per entry state, plus the probability of never leaving."""
    fragment = build_type_b_fragment(game, cset, plan)
    model = _set_model(game, fragment)
    inside = range(len(fragment.local_states))
    entry = len(fragment.region)
    W = exit_values(model, inside, v1)
    leave = exit_values(model, inside, np.ones(game.n_states))
    return W[:entry], float(1.0 - min(leave[:entry]))


def sustain_payoff(game, cset, plan: SustainPlan, delta: float) -> np.ndarray:
    """Exact long-run payoff of the sustainable machine of the set `cset`,
    per entry state."""
    return _entry_payoffs(game, build_type_a_fragment(game, cset, plan, delta))


def whole_game_chain(game, automaton, nodes):
    """The product chain closed from every game state's initial node plus
    the (s, q) `nodes`, so that every node is expanded, and the ids of
    `nodes` in it: a set chain must equal its block on the set's nodes."""
    starts = [(s, automaton.init[s]) for s in range(game.n_states)] + list(nodes)
    model = build_product_model(game, automaton, starts)
    return model, [model.index[node] for node in nodes]


def hub_game(games, seed: int) -> StochasticGame:
    """`games`, which share their players' action sets, laid block-diagonally
    behind a new state 0: every profile there moves to all their states by
    its own Dirichlet row, and pays uniform draws in [-1, 1]."""
    rng = np.random.default_rng(seed)
    first = games[0]
    n = 1 + sum(g.n_states for g in games)
    shape = (first.n_profiles, first.n_players)
    payoffs = np.zeros((n,) + shape)
    transitions = np.zeros((n, first.n_profiles, n))
    payoffs[0] = rng.uniform(-1.0, 1.0, shape)
    transitions[0, :, 1:] = rng.dirichlet(np.ones(n - 1), first.n_profiles)
    names = ["hub"]
    at = 1
    for k, g in enumerate(games):
        block = slice(at, at + g.n_states)
        payoffs[block] = g.payoffs
        transitions[block, :, block] = g.transitions
        names.extend(f"{k}:{name}" for name in g.state_names)
        at += g.n_states
    return StochasticGame(tuple(names), first.action_names, payoffs, transitions,
                          payoff_bound=max(1.0, *(g.payoff_bound for g in games)),
                          name=f"hub-{n}-{seed}")


def first_exit_distribution(eta) -> np.ndarray:
    """Closed-form law of the first exit played under the cyclic scheme."""
    eta = np.asarray(eta, dtype=float)
    silent = np.cumprod(1.0 - eta)
    before = np.concatenate([[1.0], silent[:-1]])
    mass = before * eta
    return mass / (1.0 - silent[-1])


def type_a_feasibility(game, region, target, eps: float | None = None,
                       points: list | None = None) -> SustainPlan | None:
    """Feasibility of sustaining `target` inside `region` by mixing recurrent
    points.  Returns a plan with small support, or None when infeasible.

    When `eps` is given the target is lowered by eps per player (the caller
    passes the common set value).  Without `points` the mixture is found by
    column generation (`sustain_by_columns`); with them, over exactly those.
    """
    target = np.asarray(target, dtype=float)
    if eps is not None:
        target = target - eps
    if points is None:
        return sustain_by_columns(game, region, target, {"master_lp": 0})[0]
    if not points:
        return None
    sol = max_slack_mixture(np.stack([p.payoff for p in points]), target)
    return _mixture_plan(points, sol.row_strategy, sol.value, target)


def check_value_inequality(aux, mixes, v1: np.ndarray, tol: float = 1e-6):
    """Margins U_i(s; x) - v1_i(s) and whether any drops below -tol."""
    margins = profile_value(aux, mixes) - v1[aux.state]
    return bool(np.all(margins >= -tol)), margins


# Test-only helpers on the library's chain and reachability routines.

@dataclass(frozen=True)
class IrreducibleSet:
    states: tuple


def irreducible_sets(game, strategy) -> list:
    """Minimal closed sets (recurrent classes) of the induced state chain."""
    table = as_correlated_table(game, strategy)
    P, _ = induced_chain(game, table)
    classes, _ = recurrent_classes_oracle(P)
    return [IrreducibleSet(tuple(c)) for c in classes]


def leads_in_set(game, region, s: int, target: int):
    """Whether `s` leads to `target` inside `region`, with a pure witness."""
    if s == target:
        return True, {}
    reachable, policy = almost_sure_reach(game, region, {target})
    return (s in reachable), policy


def almost_sure_reach_two_pass(game, region, targets):
    """The library's `almost_sure_reach` as it was written before its
    witness came out of the pruning pass: prune to the states that reach
    `targets` almost surely, then layer them by safe-support distance to
    the targets in a second pass, each state taking its first safe profile
    that moves into an earlier layer.  Supports are read off the
    transition array, not `StochasticGame.successors`."""
    targets = set(targets) & set(region)
    live = set(region)
    if not targets:
        return set(), {}
    while True:
        allowed = safe_profiles(game, live)
        reach = set(t for t in targets if t in live)
        grew = True
        while grew:
            grew = False
            for s in live - reach:
                for a in allowed.get(s, []):
                    support = np.nonzero(game.transitions[s, a] > DIST_TOL)[0]
                    if any(t in reach for t in support):
                        reach.add(s)
                        grew = True
                        break
        if reach == live:
            break
        live = reach
    reachable = live
    allowed = safe_profiles(game, reachable)
    layer = {t: 0 for t in targets if t in reachable}
    policy = {}
    frontier = set(layer)
    depth = 0
    while frontier:
        depth += 1
        new = set()
        for s in reachable - set(layer):
            for a in allowed.get(s, []):
                support = np.nonzero(game.transitions[s, a] > DIST_TOL)[0]
                if any(t in layer for t in support):
                    layer[s] = depth
                    policy[s] = a
                    new.add(s)
                    break
        if not new:
            break
        frontier = new
    return reachable, policy


def reach_probability(P: np.ndarray, targets) -> np.ndarray:
    """Probability of ever hitting `targets`, per start state (targets made
    absorbing), by one `np.linalg.solve` over the other states: the
    reference of `chains.first_passage` on a transient selection."""
    n = P.shape[0]
    targets = set(targets)
    rest = [s for s in range(n) if s not in targets]
    h = np.zeros(n)
    for t in targets:
        h[t] = 1.0
    if rest:
        Q = P[np.ix_(rest, rest)]
        r = P[np.ix_(rest, sorted(targets))].sum(axis=1) if targets else np.zeros(len(rest))
        sol = np.linalg.solve(np.eye(len(rest)) - Q, r)
        for row, s in enumerate(rest):
            h[s] = sol[row]
    return h


def verify_travel(game, region, targets, policy) -> float:
    """Minimum probability, over source states, of hitting the targets before
    leaving the region under the travel `policy` (should be 1)."""
    n = game.n_states
    P = np.zeros((n, n))
    outside = [s for s in range(n) if s not in region]
    for s in region:
        if s in targets:
            P[s, s] = 1.0
        else:
            P[s] = game.transitions[s, policy[s]]
    for s in outside:
        P[s, s] = 1.0
    h = reach_probability(P, set(targets))
    sources = [s for s in region if s not in targets]
    return float(min((h[s] for s in sources), default=1.0))


def witness_hitting(game, states, target: int, policy: dict) -> np.ndarray:
    """Per state of `states` (sorted), the probability that the pure
    `policy`, a flat profile per state but `target`, hits `target` without
    leaving `states`, read off 2^40 steps of the chain on `states` with the
    target absorbing and the mass that leaves dropped: repeated squaring,
    no linear solve."""
    states = sorted(states)
    M = np.zeros((len(states), len(states)))
    for k, s in enumerate(states):
        M[k] = (np.eye(game.n_states)[s] if s == target
                else game.transitions[s, policy[s]])[states]
    for _ in range(40):
        M = M @ M
    return M[:, states.index(target)]


def equilibrium_support_chain(game, eq_sets) -> list:
    """Adjacency list: edge s -> s' iff some listed equilibrium at s moves
    there with positive probability."""
    adj = []
    for s in range(game.n_states):
        mass = np.zeros(game.n_states)
        for eq in eq_sets[s].equilibria:
            mass += eq.correlated_row() @ game.transitions[s]
        adj.append(np.nonzero(mass > DIST_TOL)[0].tolist())
    return adj


def minimal_closed_sets_under_E(game, eq_sets) -> list:
    """Minimal closed sets of the equilibrium support chain (its bottom
    strongly connected components)."""
    adj = equilibrium_support_chain(game, eq_sets)
    comps = strongly_connected_components(adj)
    out = []
    for comp in comps:
        members = set(comp)
        if all(all(t in members for t in adj[s]) for s in comp):
            out.append(tuple(sorted(comp)))
    out.sort()
    return out
