"""Independent brute-force oracles used to cross-check the library.

Everything here deliberately avoids the library's own algorithms: reachability
is by policy enumeration, long-run averages by matrix power doubling, matrix
game values by grid search, and set structure by direct subset scans.
"""

from __future__ import annotations

import bisect
import itertools

import numpy as np


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
        for eq in eq_sets[s].items:
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

def solve_2x2_oracle(M: np.ndarray):
    """Closed form of one 2x2 game: (value, x, y, passes the minimax check)."""
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
    with np.errstate(invalid="ignore"):
        ok = (float(np.min(x @ M)) >= value - 1e-9
              and float(np.max(M @ y)) <= value + 1e-9)
    return value, x, y, ok


def response_mdp_oracle(game, view, lam: float, fixed, fix_rows: bool):
    """Best-response MDP (R, P) built one state at a time."""
    i = view.player
    n_states = game.n_states
    n_act = view.other if fix_rows else view.own
    R = np.empty((n_states, n_act))
    P = np.empty((n_states, n_act, n_states))
    for s in range(n_states):
        u_mat = (1.0 - lam) * game.payoffs[s, :, i][view.index]
        t_mat = game.transitions[s][view.index]
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
