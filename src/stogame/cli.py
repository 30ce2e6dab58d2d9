"""Command-line interface.

Exit codes: 0 success, 1 failed verdicts (validation violations, acceptability
failures, unclassifiable sets, pipeline errors), 2 file or parse errors and
out-of-range flags, each checked before any solve.
`decompose` stops after classification; `build`, `build-correlated`,
`verify`, `simulate` and `demo-sorin` run the whole pipeline.
Every command writes a deterministic JSON artifact into the output directory.
Each command takes only the flags it reads (`COMMANDS`); any other flag, or
an abbreviation of one, is a parse error (exit 2).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from ._util import VALUE_SPREAD_TOL, dump_json
from .game import (
    GameFormatError,
    StationaryProfile,
    StochasticGame,
    load_game,
    validate_game,
)
from .generators import BUNDLED, bundled_game, sorin_game
from .minmax import DEFAULT_SCHEDULE_DEPTH, default_schedule, solve_uniform_minmax
from .oneshot import EXACT_EQ_TOL
from .pipeline import DEFAULT_EPS, classify_game, run_pipeline
from .simulate import simulate
from .verify import DEFAULT_LAMBDA_GRID, check_minmax_acceptable, product_chain


# Every flag some command reads; `COMMANDS` says which command reads which.
FLAGS = {
    "--game": dict(help="path to a game JSON file, or builtin:<name> "
                        f"(builtins: {', '.join(sorted(BUNDLED))})"),
    "--epsilon": dict(type=float, default=DEFAULT_EPS,
                      help=f"acceptability slack (default {DEFAULT_EPS})"),
    "--lambda-grid": dict(default=None,
                          help="comma-separated verification discount grid"),
    "--schedule-depth": dict(type=int, default=DEFAULT_SCHEDULE_DEPTH,
                             help="discount schedule length for the uniform solve"),
    "--out": dict(default="out", help="artifact directory"),
    "--tol-v": dict(type=float, default=VALUE_SPREAD_TOL,
                    help="value-equality tolerance for communicating sets"),
    "--eq-tol": dict(type=float, default=EXACT_EQ_TOL,
                     help="equilibrium regret tolerance (exact paths)"),
    "--lam": dict(type=float, default=None,
                  help="simulation discount factor (default 0.99)"),
    "--replications": dict(type=int, default=2000),
    "--seed": dict(type=int, default=0, help="simulation random seed (default 0)"),
}
_PIPELINE = ("--game", "--epsilon", "--lambda-grid", "--schedule-depth", "--out",
             "--tol-v", "--eq-tol")


def _load(args) -> StochasticGame:
    if not args.game:
        raise GameFormatError("no --game given")
    if args.game.startswith("builtin:"):
        try:
            return bundled_game(args.game.split(":", 1)[1])
        except KeyError as exc:
            raise GameFormatError(str(exc)) from exc
    return load_game(args.game)


def _grid(args):
    if args.lambda_grid is None:
        return DEFAULT_LAMBDA_GRID
    try:
        grid = tuple(float(x) for x in args.lambda_grid.split(","))
    except ValueError as exc:
        raise GameFormatError(f"bad --lambda-grid: {exc}") from exc
    if any(not 0.0 <= x < 1.0 for x in grid) or list(grid) != sorted(set(grid)):
        raise GameFormatError("--lambda-grid must be strictly increasing in [0, 1)")
    return grid


def _schedule(args) -> list:
    if args.schedule_depth < 1:
        raise GameFormatError(
            f"--schedule-depth must be at least 1, got {args.schedule_depth}")
    return default_schedule(args.schedule_depth)


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _epsilon(args) -> float:
    if not (math.isfinite(args.epsilon) and args.epsilon > 0.0):
        raise GameFormatError(f"--epsilon must be finite and positive, got {args.epsilon}")
    return args.epsilon


def _solver_inputs(args):
    """Load the game and check `--epsilon`, `--schedule-depth`, `--tol-v`
    and `--eq-tol`, which `decompose` and the pipeline commands read."""
    game = _load(args)
    _epsilon(args)
    for flag, tol in (("--tol-v", args.tol_v), ("--eq-tol", args.eq_tol)):
        if not (math.isfinite(tol) and tol >= 0.0):
            raise GameFormatError(f"{flag} must be finite and at least 0, got {tol}")
    return game, _schedule(args)


def _run(args):
    """Check every pipeline flag, then run the pipeline."""
    game, schedule = _solver_inputs(args)
    lam_grid = _grid(args)
    return game, run_pipeline(game, eps=args.epsilon, schedule=schedule,
                              tol_v=args.tol_v, lam_grid=lam_grid,
                              eq_tol=args.eq_tol)


def cmd_validate(args) -> int:
    game = _load(args)
    problems = validate_game(game)
    dump_json({"game": game.name, "violations": problems, "ok": not problems},
              os.path.join(_outdir(args), "validate.json"))
    for p in problems:
        print(f"violation: {p}")
    print(f"{game.name or 'game'}: {'ok' if not problems else f'{len(problems)} violations'}")
    return 0 if not problems else 1


def cmd_solve(args) -> int:
    game = _load(args)
    report = solve_uniform_minmax(game, schedule=_schedule(args))
    dump_json(report, os.path.join(_outdir(args), "solve.json"))
    print(f"adversary mode: {report.adversary_mode}")
    for curve, direct in zip(report.curves, report.direct):
        vals = ", ".join(f"{name}={v:.6f}" for name, v in zip(game.state_names, curve.v1))
        flag = "" if curve.method == "direct" or curve.converged else "  [non-convergence flagged]"
        print(f"player {curve.player}: {vals}{flag}")
        if direct is None:
            print(f"  method {curve.method}; no direct solve: transition rows are not distributions")
        else:
            print(f"  method {curve.method}; direct solve: {direct.outcome}, "
                  f"{direct.iterations} iterations, bracket width {direct.width:.3g}, "
                  f"lower {np.round(direct.lower, 9).tolist()}, "
                  f"upper {np.round(direct.upper, 9).tolist()}")
    return 0


def cmd_decompose(args) -> int:
    game, schedule = _solver_inputs(args)
    res = classify_game(game, args.epsilon, schedule, args.tol_v, args.eq_tol)
    doc = {
        "uniform_values": res.v1,
        "decomposition": res.decomposition,
        "classifications": res.classifications,
        "errors": res.errors,
        "warnings": res.warnings,
    }
    dump_json(doc, os.path.join(_outdir(args), "decompose.json"))
    if res.decomposition is not None:
        for cset, cls in zip(res.decomposition.sets, res.classifications):
            names = [game.state_names[s] for s in cset.states]
            print(f"set {names}: value {np.round(cset.value, 6).tolist()}, kind {cls.kind}")
        print(f"transient: {[game.state_names[s] for s in res.decomposition.transient]}")
    for err in res.errors:
        print(f"error: {err}")
    for warning in res.warnings:
        print(f"warning: {warning}")
    bad = [k for k, c in enumerate(res.classifications) if c.kind == "unclassifiable"]
    return 1 if bad or res.errors else 0


def cmd_build(args) -> int:
    game, res = _run(args)
    out = _outdir(args)
    if res.profile is None:
        dump_json({"errors": res.errors}, os.path.join(out, "build.json"))
        print("build failed:", "; ".join(res.errors))
        return 1
    dump_json(res.profile, os.path.join(out, "automaton.json"))
    doc = {
        "summary": res.summary(),
        "acceptability": res.acceptability,
        "size_audit": res.size_audit,
    }
    dump_json(doc, os.path.join(out, "build.json"))
    print(f"machine size {res.profile.joint.size} "
          f"(bound {game.n_states * game.n_players}); "
          f"acceptable: {res.acceptability.ok}")
    return 0 if res.acceptability.ok else 1


def cmd_build_correlated(args) -> int:
    game, res = _run(args)
    out = _outdir(args)
    if res.correlated is None:
        dump_json({"errors": res.errors}, os.path.join(out, "correlated.json"))
        print("build failed:", "; ".join(res.errors))
        return 1
    doc = {
        "table": res.correlated.table,
        "acceptability": res.correlated_acceptability,
        "size_audit": res.correlated_size_audit,
    }
    dump_json(doc, os.path.join(out, "correlated.json"))
    print(f"stationary correlated strategy over {game.n_states} states; "
          f"acceptable: {res.correlated_acceptability.ok}")
    return 0 if res.correlated_acceptability.ok else 1


def cmd_verify(args) -> int:
    game, res = _run(args)
    doc = {
        "summary": res.summary(),
        "minmax": res.minmax,
        "acceptability": res.acceptability,
        "correlated_acceptability": res.correlated_acceptability,
        "individual_rationality": res.ir_report,
        "submartingale": res.submartingale,
        "size_audit": res.size_audit,
    }
    dump_json(doc, os.path.join(_outdir(args), "verify.json"))
    summ = res.summary()
    print(f"{game.name or 'game'}: ok={summ['ok']} kinds={summ['kinds']} "
          f"ir_worst_gain={summ['ir_worst_gain']} "
          f"min_drift={summ['submartingale_min_drift']}")
    for err in res.errors:
        print(f"error: {err}")
    for warning in res.warnings:
        print(f"warning: {warning}")
    return 0 if res.ok else 1


def cmd_simulate(args) -> int:
    lam = 0.99 if args.lam is None else args.lam
    if not 0.0 <= lam < 1.0:
        raise GameFormatError(f"--lam must lie in [0, 1), got {lam}")
    if args.replications < 1:
        raise GameFormatError(f"--replications must be at least 1, got {args.replications}")
    if args.seed < 0:
        raise GameFormatError(f"--seed must be at least 0, got {args.seed}")
    game, res = _run(args)
    if res.profile is None:
        dump_json({"lam": lam, "errors": res.errors},
                  os.path.join(_outdir(args), "simulate.json"))
        print("build failed:", "; ".join(res.errors))
        return 1
    results = {game.state_names[s]: simulate(game, s, res.profile, lam, seed=args.seed,
                                             replications=args.replications)
               for s in range(game.n_states)}
    dump_json({"lam": lam, "results": results},
              os.path.join(_outdir(args), "simulate.json"))
    for name, sim in results.items():
        print(f"{name}: mean {np.round(sim.mean, 5).tolist()} "
              f"(se {np.round(sim.std_error, 5).tolist()})")
    return 0


def cmd_demo_sorin(args) -> int:
    """Full pipeline on the bundled quitting game, reproducing its headline
    numbers: uniform values (2/3, 1/2), the failure of the fixed-discount
    equilibrium limit, and a passing synthesized profile."""
    game = sorin_game()
    eps, schedule, lam_grid = _epsilon(args), _schedule(args), _grid(args)
    res = run_pipeline(game, eps=eps, schedule=schedule, lam_grid=lam_grid)
    v0 = res.v1[0]
    print(f"uniform min-max values at {game.state_names[0]}: "
          f"player 1 = {v0[0]:.6f} (exact 2/3), player 2 = {v0[1]:.6f} (exact 1/2)")

    fixed = StationaryProfile((
        np.tile([1.0, 0.0], (3, 1)),
        np.tile([2.0 / 3.0, 1.0 / 3.0], (3, 1)),
    ))
    fixed_report = check_minmax_acceptable(product_chain(game, fixed), res.v1,
                                           eps, lam_grid=lam_grid)
    p2 = [e for e in fixed_report.entries if e.state == 0 and e.player == 1][0]
    print(f"fixed-discount equilibrium limit: player 2 gets {p2.limit_payoff:.6f} "
          f"(= 1/3) < {res.v1[0, 1]:.6f} - eps  ->  acceptable: {fixed_report.ok}")

    print(f"synthesized profile: acceptable at eps={eps}: "
          f"{res.acceptability.ok}; machine size {res.profile.joint.size} "
          f"(bound {game.n_states * game.n_players})")
    print(f"stationary correlated variant acceptable: "
          f"{res.correlated_acceptability.ok}; size {game.n_states}")

    dump_json({
        "uniform_values": res.v1,
        "fixed_profile_acceptable": fixed_report.ok,
        "fixed_profile_player2_limit": p2.limit_payoff,
        "synthesized_acceptable": res.acceptability.ok,
        "correlated_acceptable": res.correlated_acceptability.ok,
        "summary": res.summary(),
    }, os.path.join(_outdir(args), "demo_sorin.json"))
    ok = (res.acceptability.ok and res.correlated_acceptability.ok
          and not fixed_report.ok)
    return 0 if ok else 1


# Each command with the flags it reads; it rejects every other flag.
COMMANDS = {
    "validate": (cmd_validate, ("--game", "--out")),
    "solve": (cmd_solve, ("--game", "--schedule-depth", "--out")),
    "decompose": (cmd_decompose, ("--game", "--epsilon", "--schedule-depth", "--out",
                                  "--tol-v", "--eq-tol")),
    "build": (cmd_build, _PIPELINE),
    "build-correlated": (cmd_build_correlated, _PIPELINE),
    "verify": (cmd_verify, _PIPELINE),
    "simulate": (cmd_simulate, _PIPELINE + ("--lam", "--replications", "--seed")),
    "demo-sorin": (cmd_demo_sorin, ("--epsilon", "--lambda-grid", "--schedule-depth",
                                    "--out")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stogame",
        description="Solve, decompose, synthesize and verify acceptable "
                    "strategy profiles in finite stochastic games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        # No abbreviations: `--lam` must not pass for `--lambda-grid`.
        p = sub.add_parser(name, allow_abbrev=False)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command][0](args)
    except GameFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
