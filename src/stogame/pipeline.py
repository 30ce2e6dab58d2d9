"""End-to-end orchestration: solve, decompose, classify, build, verify."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._util import VALUE_SPREAD_TOL, json_ready
from .builder import (
    assemble_profile,
    build_correlated_stationary,
    classify_set,
)
from .game import StochasticGame, validate_game
from .minmax import MinMaxReport, default_schedule, solve_uniform_minmax
from .oneshot import EXACT_EQ_TOL, continuation_values, enumerate_all_states
from .structure import Decomposition, decompose
from .verify import (
    DEFAULT_LAMBDA_GRID,
    automaton_size_audit,
    check_individual_rationality,
    check_minmax_acceptable,
    check_submartingale,
    product_chain,
)

# Accepted loss below the uniform min-max values.
DEFAULT_EPS = 0.05


@dataclass
class PipelineResult:
    game: StochasticGame
    eps: float
    minmax: MinMaxReport
    v1: np.ndarray
    eq_sets: list
    decomposition: Decomposition | None
    classifications: list
    profile: object = None
    correlated: object = None
    acceptability: object = None
    correlated_acceptability: object = None
    ir_report: object = None
    submartingale: object = None
    size_audit: object = None
    correlated_size_audit: object = None
    errors: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        checks = [self.acceptability, self.correlated_acceptability,
                  self.submartingale, self.size_audit, self.correlated_size_audit]
        if self.errors:
            return False
        if any(c is None for c in checks):
            return False
        return all(c.ok for c in checks)

    @property
    def warnings(self) -> list:
        """One line per player whose schedule curve did not converge or has a
        stalled discounted solve: that player's `v1` rests on an
        extrapolation without a clean certificate.  A curve closed by the
        direct solve is certified by its bracket.  Reported, not gated."""
        lines = []
        for curve in self.minmax.curves:
            if curve.method == "direct":
                continue
            stalled = sum(curve.stalled)
            problems = [] if curve.converged else ["did not converge"]
            if stalled:
                problems.append(f"has {stalled} of {len(curve.stalled)} discounted solves stalled")
            if problems:
                lines.append(f"player {curve.player}: min-max curve " + " and ".join(problems))
        return lines

    def summary(self) -> dict:
        return json_ready({
            "game": self.game.name,
            "eps": self.eps,
            "uniform_values": self.v1,
            "adversary_mode": self.minmax.adversary_mode,
            "sets": None if self.decomposition is None
            else [list(c.states) for c in self.decomposition.sets],
            "kinds": [c.kind for c in self.classifications],
            "transient": None if self.decomposition is None
            else list(self.decomposition.transient),
            "profile_acceptable": None if self.acceptability is None else self.acceptability.ok,
            "correlated_acceptable": None if self.correlated_acceptability is None
            else self.correlated_acceptability.ok,
            "ir_worst_gain": None if self.ir_report is None else self.ir_report.worst_gain,
            "submartingale_min_drift": None if self.submartingale is None
            else self.submartingale.min_drift,
            "machine_sizes": None if self.size_audit is None else self.size_audit.sizes,
            "errors": self.errors,
            "warnings": self.warnings,
            "ok": self.ok,
        })


def classify_game(game: StochasticGame, eps: float = DEFAULT_EPS, schedule=None,
                  tol_v: float = VALUE_SPREAD_TOL,
                  eq_tol: float = EXACT_EQ_TOL) -> PipelineResult:
    """Solve, decompose and classify one game: the stages up to, not
    including, the profile build.

    A game that fails `validate_game` (say, a negative transition
    probability) gets its values and decomposition but no classification,
    and its result carries the error: its product chain would not be a
    Markov chain, and no check on it would mean anything.  A decomposition
    that stalls is an error too, and the result has none (`None`).
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    problems = validate_game(game)
    schedule = default_schedule() if schedule is None else list(schedule)
    minmax = solve_uniform_minmax(game, schedule=schedule)
    v1 = minmax.uniform_values
    eq_sets = enumerate_all_states(game, v1, exact_tol=eq_tol)
    result = PipelineResult(game, eps, minmax, v1, eq_sets, None, [])
    if problems:
        result.errors.append(f"invalid game: {len(problems)} violations, "
                             f"first {problems[0]}")
    try:
        result.decomposition = decompose(game, eq_sets, v1, tol_v=tol_v)
    except RuntimeError as exc:
        result.errors.append(f"decomposition: {exc}")
    if result.errors:
        return result
    u_star = continuation_values(game, v1)
    result.classifications = [classify_set(game, cset, eps, u_star)
                              for cset in result.decomposition.sets]
    return result


def run_pipeline(game: StochasticGame, eps: float = DEFAULT_EPS, schedule=None,
                 tol_v: float = VALUE_SPREAD_TOL, lam_grid=DEFAULT_LAMBDA_GRID,
                 eq_tol: float = EXACT_EQ_TOL) -> PipelineResult:
    """Run the full chain on one game: `classify_game`, then build both the
    machine profile and the stationary correlated variant, and judge each on
    its own product chain.

    Build or verification failures are collected in `errors` rather than
    raised, so callers can report partial results.  An invalid game, or one
    whose decomposition stalls, stops after `classify_game`, with its error.
    """
    result = classify_game(game, eps, schedule, tol_v, eq_tol)
    if result.errors:
        return result
    v1, decomposition, classifications = (
        result.v1, result.decomposition, result.classifications)
    try:
        result.profile = assemble_profile(game, decomposition, classifications, eps)
    except RuntimeError as exc:
        result.errors.append(f"profile build: {exc}")
        return result
    chain = product_chain(game, result.profile)
    result.acceptability = check_minmax_acceptable(chain, v1, eps, lam_grid=lam_grid)
    result.ir_report = check_individual_rationality(chain, v1, eps)
    result.submartingale = check_submartingale(chain, v1, decomposition,
                                               classifications)
    result.size_audit = automaton_size_audit(game, result.profile)
    try:
        result.correlated = build_correlated_stationary(
            game, decomposition, classifications, eps)
        result.correlated_acceptability = check_minmax_acceptable(
            product_chain(game, result.correlated), v1, eps, lam_grid=lam_grid)
        result.correlated_size_audit = automaton_size_audit(game, result.correlated)
    except RuntimeError as exc:
        result.errors.append(f"correlated build: {exc}")
    return result
