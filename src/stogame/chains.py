"""Finite Markov chains: recurrent classes and their stationary laws,
first passages, and the multichain average-reward solver (Puterman 1994,
ch. 8-9).  `_gain` is the one gain computation: the verifiers read it
through `limit_average_values`, Howard's loop (`optimal_average_policy`)
through `_gain` and `_bias`, the two halves of `gain_bias`.
`recurrent_laws` reads the classes and laws off the same plan and stacked
solves.  `first_passage` is the one solve of X = B + QX: `_gain`'s
absorption, the acceptability grid's discounted payoffs and the first
marked play (`automata`), a departing set's departure values (`verify`)
and the transient states' reach (`structure`).

P is row-stochastic of shape (n, n), or leaks mass out of its states.
Support is decided with a small positive cutoff so that numerically-zero
entries do not create phantom edges.

Howard's loop evaluates a policy of a few states at a time, so numpy's fixed
cost per call, not the arithmetic, sets its time.  So every evaluation
costs a fixed number of numpy calls per chain, however many classes it
has, bit for bit:
* Each support pattern gets one plan (`_Plan`) of the read-only index
  arrays that `_gain` and `_bias` read: the transient states, the
  recurrent classes grouped by size as (positions, states) arrays and each
  class's first state; `recurrent_laws` builds its fresh lists from
  them.  The plans of the last CLASS_CACHE_SIZE patterns of at most
  CACHED_STATES states are remembered (a Howard loop revisits a few
  patterns, and Tarjan costs more than the key); a larger chain's key would
  cost more memory than the search saves time.  A plan's arrays hold n
  indices in all: 1024 plans of 21-state chains take about 1 MB with their
  keys.
* Per class size, one stacked solve gives the stationary laws, one stacked
  sum the absorption right-hand sides and one stacked product the class
  values; every class gets the bits of its own solve, sum and product.
* Every solve calls the LAPACK gufunc behind `np.linalg.solve` directly, as
  `minmax._policy_iteration` does: the same dgesv, without the wrapper's
  checks and `errstate` context.  Without that context a singular system
  comes back as NaN (numpy warns of an invalid value), which `_solved`
  turns into LinAlgError.  Identities and row ranges of chains of at most
  CACHED_STATES states are cached, read-only.
The bias is solved only when the loop reads it (see
`optimal_average_policy`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg._umath_linalg import solve as _lapack_solve
from numpy.linalg._umath_linalg import solve1 as _lapack_solve1

SUPPORT_CUTOFF = 1e-14
# Howard's loop: its cap on policy evaluations, and the margin, times the
# rewards' scale (and the biases', for pricing), by which an action must beat
# the current one to replace it.
POLICY_ITERATION_CAP = 100
IMPROVE_TOL = 1e-13
# The plan memo: the chains it keeps (at most CACHED_STATES states, so a key
# is at most 512 bytes) and how many it keeps.
CACHED_STATES = 64
CLASS_CACHE_SIZE = 1024


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


@dataclass(frozen=True, eq=False, slots=True)
class _Plan:
    """What Howard's evaluation needs of one support pattern, as read-only
    index arrays: `rows`, the transient states; `sizes`, per class size k,
    the positions (m,) of the recurrent classes of that size, in the order
    of their first states, and their states (m, k); `firsts`, each class's
    first state."""

    rows: np.ndarray
    sizes: tuple
    firsts: np.ndarray


def _plan(P: np.ndarray) -> _Plan:
    """The plan of P's support pattern, remembered for chains of at most
    CACHED_STATES states."""
    support = P > SUPPORT_CUTOFF
    if len(P) > CACHED_STATES:
        return _support_plan(support)
    return _cached_plan(P.shape, np.packbits(support).tobytes())


@lru_cache(maxsize=CLASS_CACHE_SIZE)
def _cached_plan(shape: tuple, packed: bytes) -> _Plan:
    """`_support_plan` of the support pattern packed by `np.packbits`."""
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=shape[0] * shape[1])
    return _support_plan(bits.reshape(shape).astype(bool))


def _support_plan(support: np.ndarray) -> _Plan:
    """The plan of the chain whose edges are `support` (Tarjan)."""
    adj = [np.flatnonzero(row).tolist() for row in support]
    classes = []
    transient = []
    for comp in strongly_connected_components(adj):
        members = set(comp)
        if all(all(t in members for t in adj[s]) for s in comp):
            classes.append(tuple(comp))
        else:
            transient.extend(comp)
    classes.sort(key=lambda c: c[0])
    transient.sort()
    by_size = {}  # class positions per size, in the order sizes first appear
    for j, cls in enumerate(classes):
        by_size.setdefault(len(cls), []).append(j)
    sizes = tuple((_index(members), _index([list(classes[j]) for j in members]))
                  for members in by_size.values())
    return _Plan(_index(transient), sizes, _index([cls[0] for cls in classes]))


def _index(values) -> np.ndarray:
    """values as a read-only index array."""
    out = np.array(values, dtype=np.intp)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _cached_eye(n: int) -> np.ndarray:
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def _eye(n: int) -> np.ndarray:
    """np.eye(n), read-only and cached for n <= CACHED_STATES."""
    return _cached_eye(n) if n <= CACHED_STATES else np.eye(n)


@lru_cache(maxsize=None)
def _cached_range(n: int) -> np.ndarray:
    return _index(range(n))


def _range(n: int) -> np.ndarray:
    """np.arange(n), read-only and cached for n <= CACHED_STATES."""
    return _cached_range(n) if n <= CACHED_STATES else np.arange(n)


def _solved(x: np.ndarray) -> np.ndarray:
    """x, a LAPACK gufunc's answer; LinAlgError where it is NaN, as
    `np.linalg.solve` raises on a singular system."""
    if np.isnan(x).any():
        raise LinAlgError("Singular matrix")
    return x


def first_passage(Q: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The X of X = B + QX: the expected payout collected before play stops
    or leaves, where Q (..., k, k) holds the substochastic steps among k
    states and B (k,) or (..., k, d) what each state pays; mass that a row
    of Q leaks pays nothing more.  A stack of systems goes to LAPACK in one
    call, and each gets the bits of its own `np.linalg.solve`.  Raises
    LinAlgError where play cannot leave (I - Q singular)."""
    A = _eye(Q.shape[-1]) - Q
    if B.ndim == 1:
        return _solved(_lapack_solve1(A, B, signature="dd->d"))
    return _solved(_lapack_solve(A, B, signature="dd->d"))


def recurrent_laws(P: np.ndarray) -> list:
    """(states, stationary law) of each recurrent class (bottom SCC) of P,
    by first state, as fresh lists and arrays: `_gain`'s laws (`_group_laws`),
    so a class whose own rows leak is read with its law renormalized."""
    plan = _plan(P)
    found = [None] * len(plan.firsts)
    for (positions, idx), laws in zip(plan.sizes, _group_laws(P, plan.sizes)):
        for j, states, law in zip(positions.tolist(), idx.tolist(), laws):
            found[j] = (states, law)
    return found


def _group_laws(P: np.ndarray, groups) -> list:
    """The stationary laws (m, k) of the classes of each size group of a
    plan (`_Plan.sizes`).  The classes of one size share one stacked solve, which
    gives every class the bits of its own; one-state classes get 1.0
    without a solve."""
    laws = []
    for _, idx in groups:
        m, k = idx.shape
        if k == 1:
            laws.append(np.ones((m, 1)))
            continue
        M = P[idx[:, None, :], idx[:, :, None]] - _eye(k)  # each class's sub.T - I
        M[:, -1, :] = 1.0
        b = np.zeros((m, k))
        b[:, -1] = 1.0
        pi = np.clip(_solved(_lapack_solve1(M, b, signature="dd->d")), 0.0, None)
        pi /= pi.sum(axis=1, keepdims=True)
        laws.append(pi)
    return laws


def _gain(P: np.ndarray, r: np.ndarray):
    """Multichain gain of stage values r (shape (n,) or (n, d)) under P, and
    the plan (`_Plan`) it was read from: each class's stationary average,
    carried to the transient states by their absorption probabilities.  Mass
    that a transient state's row leaks out of the states earns nothing.  A
    class whose own rows leak is still read with its stationary law
    renormalized over the class: `limit_average_values([[0.5]], [1.0])` is
    1.0, not the Cesaro limit 0, and a zero row, such as an unexpanded node
    of `automata.build_product_model`, is a class of its own that earns its
    own reward."""
    single = r.ndim == 1
    rv = r[:, None] if single else r
    plan = _plan(P)
    absorb = np.zeros((len(P), len(plan.firsts)))
    for positions, idx in plan.sizes:
        absorb[idx, positions[:, None]] = 1.0
    if len(plan.rows):
        rows = P[plan.rows]
        rhs = np.zeros((len(plan.rows), len(plan.firsts)))
        for positions, idx in plan.sizes:
            rhs[:, positions] = rows[:, idx].sum(axis=-1)  # each class's rows[:, cls].sum(1)
        absorb[plan.rows] = first_passage(rows[:, plan.rows], rhs)
    class_vals = np.zeros((len(plan.firsts), rv.shape[1]))
    for (positions, idx), laws in zip(plan.sizes, _group_laws(P, plan.sizes)):
        class_vals[positions] = (laws[:, None, :] @ rv[idx])[:, 0]  # each law @ rv[cls]
    g = absorb @ class_vals
    return (g[:, 0] if single else g), plan


def limit_average_values(P: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Long-run average of stage values r (shape (n,) or (n, d)) per start state."""
    return _gain(P, r)[0]


def gain_bias(P: np.ndarray, r: np.ndarray):
    """Gain g and bias h of stage values r (shape (n,)) under P: g as in
    `limit_average_values`, and h solves g + (I - P) h = r, zero at each
    recurrent class's first state (Puterman 1994, ch. 8-9)."""
    g, plan = _gain(P, r)
    return g, _bias(P, r, g, plan.firsts)


def _bias(P: np.ndarray, r: np.ndarray, g: np.ndarray, firsts: np.ndarray) -> np.ndarray:
    """The bias of `gain_bias`, from the gain g and the first state of each
    recurrent class `_gain` read it from.  One solve over the whole chain:
    I - P with each class's first state's row set to its unit row."""
    A = _eye(len(r)) - P
    A[firsts] = 0.0
    A[firsts, firsts] = 1.0
    b = r - g
    b[firsts] = 0.0
    return _solved(_lapack_solve1(A, b, signature="dd->d"))


def _improve(q: np.ndarray, choice: np.ndarray, tol: float):
    """Per state, the action with the largest q when it beats the current
    choice by more than tol; the current choice otherwise."""
    better = q.max(axis=1) > q[_range(len(choice)), choice] + tol
    return np.where(better, q.argmax(axis=1), choice)


def optimal_average_policy(R: np.ndarray, P: np.ndarray, start: np.ndarray | None,
                           bias_scaled: bool):
    """Howard's multichain policy iteration: a pure policy with the largest
    long-run average reward from every state of the MDP with rewards R
    (n, m) and transition rows P (n, m, n).  A state with fewer than m
    actions fills its last columns with copies of its first action, which
    carry its reward and transitions, so no action mask is needed: `argmax`
    gives an exact tie to the first index, and where BLAS rounds a copy's
    row an ulp away from its original's, the copy is chosen only where the
    original would be, since the improvement margin is far above an ulp.
    From `start` (an action per state), or from the greedy policy when it is
    None, each iteration improves the gain, or, where no gain improves, the
    bias among the gain-optimal actions; a tie keeps the current action.  An
    action replaces the current one when it beats it by more than
    IMPROVE_TOL times 1 + max |R|, plus max |h| when `bias_scaled`.
    Returns (action per state, settled, gain, bias): settled is False when
    POLICY_ITERATION_CAP evaluations did not settle the loop, and gain and
    bias are the last evaluation's, those of the returned policy when
    settled.
    """
    rows = _range(len(R))
    choice = R.argmax(axis=1) if start is None else start
    scale = 1.0 + np.abs(R).max()
    for _ in range(POLICY_ITERATION_CAP):
        P_pol, r_pol = P[rows, choice], R[rows, choice]
        g, plan = _gain(P_pol, r_pol)
        # The bias is solved here only when the tolerance reads it; the gain
        # step does not.
        h = _bias(P_pol, r_pol, g, plan.firsts) if bias_scaled else None
        tol = IMPROVE_TOL * (scale + np.abs(h).max() if bias_scaled else scale)
        q = P @ g
        new = _improve(q, choice, tol)
        if (new == choice).all():
            if h is None:
                h = _bias(P_pol, r_pol, g, plan.firsts)
            gain_optimal = q >= q.max(axis=1, keepdims=True) - tol
            new = _improve(np.where(gain_optimal, R + P @ h, -np.inf), choice, tol)
            if (new == choice).all():
                return choice, True, g, h
        choice = new
    if h is None:
        h = _bias(P_pol, r_pol, g, plan.firsts)
    return choice, False, g, h
