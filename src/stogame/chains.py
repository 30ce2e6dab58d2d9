"""Finite Markov chain structure: recurrent classes, stationary laws, absorption.

All functions take a row-stochastic matrix P of shape (n, n).  Support is
decided with a small positive cutoff so that numerically-zero entries do not
create phantom edges.
"""

from __future__ import annotations

import numpy as np

SUPPORT_CUTOFF = 1e-14


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


def support_adjacency(P: np.ndarray) -> list:
    return [[int(t) for t in np.nonzero(P[s] > SUPPORT_CUTOFF)[0]]
            for s in range(P.shape[0])]


def recurrent_classes(P: np.ndarray):
    """Recurrent classes (bottom SCCs) and transient states of a chain."""
    adj = support_adjacency(P)
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
    sub = P[np.ix_(idx, idx)]
    k = len(idx)
    M = sub.T - np.eye(k)
    M[-1, :] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    pi = np.linalg.solve(M, b)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


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


def limit_average_values(P: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Long-run average of stage values r (shape (n,) or (n, d)) per start state."""
    single = r.ndim == 1
    rv = r[:, None] if single else r
    classes, transient = recurrent_classes(P)
    absorb = absorption_probabilities(P, classes, transient)
    class_vals = np.zeros((len(classes), rv.shape[1]))
    for j, cls in enumerate(classes):
        pi = stationary_distribution(P, cls)
        class_vals[j] = pi @ rv[cls]
    out = absorb @ class_vals
    return out[:, 0] if single else out
