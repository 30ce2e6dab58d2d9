"""Finite Markov chains: recurrent classes, stationary laws, reach, and the
multichain average-reward solver (Puterman 1994, ch. 8-9).  `_gain` is the
one gain computation: the verifiers read it through `limit_average_values`,
Howard's loop (`optimal_average_policy`) through `gain_bias`.

P is row-stochastic of shape (n, n), or leaks mass out of its states.
Support is decided with a small positive cutoff so that numerically-zero
entries do not create phantom edges.
"""

from __future__ import annotations

import numpy as np

SUPPORT_CUTOFF = 1e-14
# Howard's loop: its cap on policy evaluations, and the margin, times the
# rewards' scale (and the biases', for pricing), by which an action must beat
# the current one to replace it.
POLICY_ITERATION_CAP = 100
IMPROVE_TOL = 1e-13


def strongly_connected_components(adjacency) -> list:
    """Tarjan's SCC algorithm, iterative.  Returns components in reverse
    topological order of the condensation (sources last)."""
    n = len(adjacency)
    indices = {}
    lowlinks = {}
    stack_pos = {}
    stack = []
    sccs = []
    counter = [0]

    BEGIN, CONTINUE, RETURN = 0, 1, 2
    for root in range(n):
        if root in indices:
            continue
        work = [(root, None, None, BEGIN)]
        while work:
            v, w, succ_i, state = work.pop()
            if state == BEGIN:
                counter[0] += 1
                indices[v] = counter[0]
                lowlinks[v] = counter[0]
                stack_pos[v] = len(stack)
                stack.append(v)
                work.append((v, None, 0, CONTINUE))
            elif state == CONTINUE:
                succs = adjacency[v]
                if succ_i == len(succs):
                    if lowlinks[v] == indices[v]:
                        pos = stack_pos[v]
                        comp = stack[pos:]
                        del stack[pos:]
                        for u in comp:
                            del stack_pos[u]
                        sccs.append(sorted(comp))
                else:
                    w2 = succs[succ_i]
                    if w2 not in indices:
                        work.append((v, w2, succ_i, RETURN))
                        work.append((w2, None, None, BEGIN))
                    else:
                        if w2 in stack_pos:
                            lowlinks[v] = min(lowlinks[v], indices[w2])
                        work.append((v, None, succ_i + 1, CONTINUE))
            else:
                lowlinks[v] = min(lowlinks[v], lowlinks[w])
                work.append((v, None, succ_i + 1, CONTINUE))
    return sccs


def recurrent_classes(P: np.ndarray):
    """Recurrent classes (bottom SCCs) and transient states of a chain."""
    adj = [np.flatnonzero(row).tolist() for row in P > SUPPORT_CUTOFF]
    sccs = strongly_connected_components(adj)
    classes = []
    transient = []
    for comp in sccs:
        members = set(comp)
        closed = all(all(t in members for t in adj[s]) for s in comp)
        if closed:
            classes.append(sorted(comp))
        else:
            transient.extend(comp)
    classes.sort(key=lambda c: c[0])
    return classes, sorted(transient)


def stationary_distribution(P: np.ndarray, class_states) -> np.ndarray:
    """Unique invariant distribution of the chain restricted to one
    irreducible class.  Returned over the class states, in their order."""
    idx = list(class_states)
    if len(idx) == 1:
        return np.ones(1)  # what the solve below gives, without its cost
    sub = P[idx][:, idx]
    k = len(idx)
    M = sub.T - np.eye(k)
    M[-1, :] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    pi = np.linalg.solve(M, b)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def reach_probability(P: np.ndarray, targets) -> np.ndarray:
    """Probability of ever hitting `targets`, per start state (targets made
    absorbing)."""
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


def _gain(P: np.ndarray, r: np.ndarray):
    """Multichain gain of stage values r (shape (n,) or (n, d)) under P, and
    the recurrent classes it was read from: each class's stationary average,
    carried to the transient states by their absorption probabilities.  Mass
    that P leaks out of its states earns nothing."""
    single = r.ndim == 1
    rv = r[:, None] if single else r
    classes, transient = recurrent_classes(P)
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
        class_vals[j] = stationary_distribution(P, cls) @ rv[cls]
    g = absorb @ class_vals
    return (g[:, 0] if single else g), classes


def limit_average_values(P: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Long-run average of stage values r (shape (n,) or (n, d)) per start state."""
    return _gain(P, r)[0]


def gain_bias(P: np.ndarray, r: np.ndarray):
    """Gain g and bias h of stage values r (shape (n,)) under P: g as in
    `limit_average_values`, and h solves g + (I - P) h = r, zero at each
    recurrent class's first state (Puterman 1994, ch. 8-9).  One solve over
    the whole chain: I - P with each first state's row set to its unit row."""
    g, classes = _gain(P, r)
    firsts = [cls[0] for cls in classes]
    A = np.eye(len(r)) - P
    A[firsts] = 0.0
    A[firsts, firsts] = 1.0
    b = r - g
    b[firsts] = 0.0
    return g, np.linalg.solve(A, b)


def _improve(q: np.ndarray, choice: np.ndarray, mask: np.ndarray, tol: float):
    """Per state, the masked action with the largest q when it beats the
    current choice by more than tol; the current choice otherwise."""
    q = np.where(mask, q, -np.inf)
    rows = np.arange(len(choice))
    better = q.max(axis=1) > q[rows, choice] + tol
    return np.where(better, q.argmax(axis=1), choice)


def optimal_average_policy(R: np.ndarray, P: np.ndarray, valid: np.ndarray,
                           start: np.ndarray | None, bias_scaled: bool):
    """Howard's multichain policy iteration: a pure policy with the largest
    long-run average reward from every state of the MDP with rewards R
    (n, m), transition rows P (n, m, n) and allowed actions valid (n, m).
    From `start` (an allowed action per state), or from the greedy policy
    when it is None, each iteration improves the gain, or, where no gain
    improves, the bias among the gain-optimal actions; a tie keeps the
    current action.  An action replaces the current one when it beats it by
    more than IMPROVE_TOL times 1 + max |R|, plus max |h| when `bias_scaled`.
    Returns (action per state, settled, gain, bias): settled is False when
    POLICY_ITERATION_CAP evaluations did not settle the loop, and gain and
    bias are the last evaluation's, those of the returned policy when
    settled.
    """
    rows = np.arange(len(R))
    choice = np.where(valid, R, -np.inf).argmax(axis=1) if start is None else start
    scale = 1.0 + np.abs(R).max()
    for _ in range(POLICY_ITERATION_CAP):
        g, h = gain_bias(P[rows, choice], R[rows, choice])
        tol = IMPROVE_TOL * (scale + np.abs(h).max() if bias_scaled else scale)
        q = P @ g
        new = _improve(q, choice, valid, tol)
        if np.array_equal(new, choice):
            best = np.where(valid, q, -np.inf).max(axis=1, keepdims=True)
            gain_optimal = valid & (q >= best - tol)
            new = _improve(R + P @ h, choice, gain_optimal, tol)
            if np.array_equal(new, choice):
                return choice, True, g, h
        choice = new
    return choice, False, g, h
