"""Per-game runs, correctness checks and metrics of the benchmark.

A game's outcome is a data point whatever happens: an exception, a
non-empty `errors`, an unclassifiable set, a failed verdict or a mismatch
against the recorded reference all count the game as failed, with the
stage, the failure type and the message, and the run goes on.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stogame.pipeline import run_pipeline
from tracer import HOOKS, Tracer
from workloads import EPS, schedule

REFERENCE = Path(__file__).resolve().parent / "reference.json"
V1_TOL = 1e-6

# Stage of an exception, by the pipeline function it left.
STAGE_OF = {attr: span for module, attr, span, _ in HOOKS if module == "stogame.pipeline"}

# Counters reported under another name than the tracer's.
COUNT_SOURCE = {"frequencies.enumerations": "frequencies.calls"}

# End-to-end metrics that BENCHMARK.json bounds: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("verified_share", "ratio"),
    ("max_verified_states", "count"),
    ("peak_rss_mb", "MB"),
)
# Printed but not bounded.  Throughput is verified games per pass over
# `pass_s`, two bounded metrics, and as a reciprocal it spreads more than
# `pass_s` between seeds.  Which games sit at the latency percentiles changes
# with the seed, so between seeds they move by 0.3-0.4 of their median.
UNBOUNDED = (
    ("verified_games_per_s", "1/s"),
    ("game_s_p50", "s"),
    ("game_s_p90", "s"),
)

# Per-layer metrics: (name, unit, end-to-end metric it should move).
PER_LAYER = (
    ("minmax.busy_s", "s", "pass_s, game_s_p50 on suite52; barely dense-ladder"),
    ("minmax.self_s", "s", "pass_s, game_s_p50 on suite52; barely dense-ladder"),
    ("minmax.discounted_solves", "count", "pass_s on suite52"),
    ("minmax.rounds", "count", "pass_s on suite52"),
    ("minmax.stalled_solves", "count", "pass_s on suite52"),
    ("matrixgame.calls", "count", "pass_s on suite52 and wide-actions"),
    ("matrixgame.closed_form", "count", "pass_s, game_s_p50 on suite52"),
    ("matrixgame.lp", "count", "pass_s on wide-actions"),
    ("matrixgame.pure", "count", "pass_s on wide-actions"),
    ("matrixgame.busy_s", "s", "pass_s on suite52 and wide-actions"),
    ("builder.classify.busy_s", "s", "pass_s, max_verified_states on dense-ladder; game_s_p90 on suite52"),
    ("frequencies.busy_s", "s", "pass_s on dense-ladder; game_s_p90 on suite52"),
    ("frequencies.enumerations", "count", "pass_s on dense-ladder"),
    ("frequencies.recurrent_points", "count", "pass_s on dense-ladder"),
    ("frequencies.guard_trips", "count", "verified_share, max_verified_states on dense-ladder"),
    ("builder.classify.kind_A", "count", "verified_share on dense-ladder"),
    ("builder.classify.kind_B", "count", "verified_share on dense-ladder"),
    ("builder.classify.kind_unclassifiable", "count", "verified_share, max_verified_states on dense-ladder"),
    ("structure.busy_s", "s", "pass_s on dense-ladder (12-20 states)"),
    ("structure.sets", "count", "verified_share on dense-ladder"),
    ("structure.transient_states", "count", "verified_share on dense-ladder"),
    ("structure.greedy_only", "count", "verified_share on dense-ladder (16-20 states)"),
    ("oneshot.busy_s", "s", "pass_s on wide-actions; about 1% of suite52"),
    ("oneshot.equilibria", "count", "pass_s on wide-actions"),
    ("builder.assemble.busy_s", "s", "pass_s once dense-ladder verifies 10+ states"),
    ("builder.correlated.busy_s", "s", "pass_s once dense-ladder verifies 10+ states"),
    ("builder.machine_states", "count", "pass_s once dense-ladder verifies 10+ states"),
    ("verify.acceptability.busy_s", "s", "pass_s once dense-ladder verifies 10+ states"),
    ("verify.ir.busy_s", "s", "pass_s once dense-ladder verifies 10+ states"),
    ("verify.submartingale.busy_s", "s", "pass_s once dense-ladder verifies 10+ states"),
    ("verify.size_audit.busy_s", "s", "pass_s once dense-ladder verifies 10+ states"),
    ("automata.product_models", "count", "pass_s once dense-ladder verifies 10+ states"),
    ("automata.product_nodes", "count", "pass_s once dense-ladder verifies 10+ states"),
    ("pipeline.self_s", "s", "pass_s everywhere"),
    ("trace.overhead_s", "s", "none: traced minus untraced pass_s"),
)


@dataclass
class Outcome:
    """One game run: wall seconds, deterministic summary, failure if any."""

    states: int
    seconds: float
    summary: dict
    failure: dict | None = None


@dataclass
class Pass:
    traced: bool
    seconds: float
    outcomes: list
    tracer: Tracer | None = None
    rss_mb: float = 0.0          # peak resident memory of the process so far


def fingerprint(game) -> str:
    h = hashlib.sha256()
    for arr in (game.payoffs, game.transitions):
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def summarize(result) -> dict:
    """The deterministic part of a result that the reference records."""
    return {
        "ok": bool(result.ok),
        "kinds": [c.kind for c in result.classifications],
        "sets": [[int(s) for s in c.states] for c in result.decomposition.sets],
        "transient": [int(s) for s in result.decomposition.transient],
        "v1": np.asarray(result.v1, dtype=float).tolist(),
    }


def failed_stage(tb) -> str:
    """The stage an exception left `run_pipeline` from: the stogame function
    called by the innermost `stogame/pipeline.py` frame."""
    frames = [f for f in traceback.extract_tb(tb) if Path(f.filename).parent.name == "stogame"]
    for k in range(len(frames) - 1, -1, -1):
        if Path(frames[k].filename).name == "pipeline.py":
            return STAGE_OF.get(frames[k + 1].name, "pipeline") if k + 1 < len(frames) else "pipeline"
    return "pipeline"


def verdict_failure(result):
    """(stage, type, message) of a result that is not ok, else None."""
    for c in result.classifications:
        if c.kind == "unclassifiable":
            diag = c.diagnostics
            return ("builder.classify", "unclassifiable",
                    diag.get("recurrent_points_error") or diag.get("note", ""))
    for err in result.errors:
        stage = "builder.correlated" if err.startswith("correlated") else "builder.assemble"
        return stage, "error", err
    checks = (
        ("verify.acceptability", "profile acceptability", result.acceptability),
        ("verify.acceptability", "correlated acceptability", result.correlated_acceptability),
        ("verify.submartingale", "submartingale", result.submartingale),
        ("verify.size_audit", "size audit", result.size_audit),
        ("verify.size_audit", "correlated size audit", result.correlated_size_audit),
    )
    for stage, what, check in checks:
        if check is None or not check.ok:
            return stage, "verdict", f"{what} {'not run' if check is None else 'failed'}"
    return None


def run_game(game, game_id, tracer: Tracer | None = None) -> Outcome:
    """Run the pipeline on one game; never raises for a failing game."""
    if tracer is not None:
        tracer.game = game_id
        span = tracer.open("pipeline")
    t0 = time.perf_counter()
    try:
        result = run_pipeline(game, eps=EPS, schedule=schedule())
    except Exception as exc:  # a failing game is a data point
        result = exc
    finally:
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(span)
    if isinstance(result, Exception):
        failure = (failed_stage(result.__traceback__), type(result).__name__, str(result))
        summary = {"exception": type(result).__name__}
    else:
        failure = verdict_failure(result)
        summary = summarize(result)
    out = Outcome(game.n_states, seconds, summary)
    if failure is not None:
        out.failure = dict(zip(("stage", "type", "message"), failure))
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(games, passes: int, seconds: float, trace: bool, between=None) -> list:
    """Closed loop of `passes` whole passes over `games`.

    The pass count is fixed per workload, so that every commit gets as many
    tries at each game.  `seconds` is only a safety limit: no new pass
    starts once it is spent.  With `trace`, passes alternate untraced and
    traced, starting untraced, and at least one of each runs.  `between`, if
    given, is called before each pass and after the last, outside the timing."""
    deadline = time.perf_counter() + seconds
    done = []
    while len(done) < max(passes, 2 if trace else 1):
        if len(done) >= (2 if trace else 1) and time.perf_counter() >= deadline:
            break
        if between is not None:
            between()
        traced = trace and len(done) % 2 == 1
        tracer = Tracer() if traced else None
        t0 = time.perf_counter()
        with tracer or nullcontext():
            outcomes = [run_game(g, k, tracer) for k, g in enumerate(games)]
        done.append(Pass(traced, time.perf_counter() - t0, outcomes, tracer, peak_rss_mb()))
    if between is not None:
        between()
    return done


def load_reference(workload: str, seed: int):
    """(slot, recorded summaries by game name) of `workload` at `seed`.

    The reference holds seeds 0 to n-1 of each workload; a seed stands for
    slot `seed % n`, and the workload is generated at that slot, so every
    seed runs games whose results are recorded."""
    with open(REFERENCE) as fh:
        recorded = json.load(fh).get(workload, {})
    if not recorded:
        return seed, None
    if sorted(map(int, recorded)) != list(range(len(recorded))):
        raise ValueError(f"reference seeds of {workload} are not 0..n-1")
    slot = seed % len(recorded)
    return slot, recorded[str(slot)]


def compare(ref: dict, summary: dict, fp: str) -> list:
    """Differences of a summary from its reference entry.

    Values, sets and transient states are compared wherever the reference
    has them; kinds and `ok` only where the reference verified, so that a
    game that failed when the reference was recorded may start to verify."""
    if ref["fingerprint"] != fp:
        return ["game differs from the reference game"]
    if "exception" in ref:
        return []
    if "exception" in summary:
        return [f"raised {summary['exception']} where the reference completed"]
    bad = []
    v, v_ref = np.asarray(summary["v1"]), np.asarray(ref["v1"])
    if v.shape != v_ref.shape:
        bad.append(f"v1 shape {v.shape} != reference {v_ref.shape}")
    elif np.max(np.abs(v - v_ref)) > V1_TOL:
        bad.append(f"v1 differs by {np.max(np.abs(v - v_ref)):.3e} > {V1_TOL:g}")
    keys = ("sets", "transient") + (("kinds", "ok") if ref["ok"] else ())
    bad += [f"{k} {summary[k]} != reference {ref[k]}" for k in keys if summary[k] != ref[k]]
    return bad


@dataclass
class Evaluation:
    attempted: int = 0
    failed: int = 0
    verified_states: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)     # game -> failure record
    mismatches: dict = field(default_factory=dict)   # game -> differences
    games: int = 0                                    # distinct games run
    checked: int = 0                                  # of these, with a reference

    @property
    def correct(self) -> bool:
        """Every game was checked against the reference and none differs."""
        return self.checked == self.games > 0 and not any(self.mismatches.values())


def evaluate(passes, games, reference) -> Evaluation:
    """Count failures over every game run, checking each game against the
    reference and against its own first pass.  The run reads as correct
    only if the reference covers every game."""
    ev = Evaluation()
    first = {}
    for p in passes:
        for game, out in zip(games, p.outcomes):
            ev.attempted += 1
            if game.name not in first:
                first[game.name] = out.summary
                ev.games += 1
                ref = None if reference is None else reference.get(game.name)
                if ref is not None:
                    ev.checked += 1
                    ev.mismatches[game.name] = compare(ref, out.summary, fingerprint(game))
            elif out.summary != first[game.name]:
                ev.mismatches.setdefault(game.name, []).append(
                    "result differs from the game's first pass")
            diffs = ev.mismatches.get(game.name)
            failure = out.failure
            if failure is None and diffs:
                failure = {"stage": "reference", "type": "mismatch", "message": "; ".join(diffs)}
            if failure is None:
                ev.verified_states.append(out.states)
                continue
            ev.failed += 1
            ev.failures.setdefault(game.name, {"game": game.name, "states": out.states, **failure})
    return ev


def percentile_90(samples) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def fastest_pass(passes) -> float:
    """Seconds of one pass at each game's fastest time over `passes`."""
    return sum(min(per_game) for per_game in zip(*([o.seconds for o in p.outcomes] for p in passes)))


def end_to_end_metrics(passes, ev: Evaluation, setup_s: float) -> dict:
    """End-to-end and latency metrics of the untraced passes.

    `pass_s` is one pass at each game's fastest time over the workload's
    fixed number of passes.  On a shared host, other load slows stretches of
    a few seconds by up to half, and the fastest of several tries per game
    is the least disturbed reading of the program's own speed.  Peak
    memory is read after the first pass: what one pass over the workload
    needs, before the allocator holds on to memory of later passes."""
    plain = [p for p in passes if not p.traced]
    times = [o.seconds for p in plain for o in p.outcomes]
    pass_s = fastest_pass(plain)
    verified_per_pass = len(ev.verified_states) / len(passes)
    return {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "verified_games_per_s": verified_per_pass / pass_s,
        "game_s_p50": statistics.median(times),
        "game_s_p90": percentile_90(times),
        "verified_share": (ev.attempted - ev.failed) / ev.attempted,
        "max_verified_states": max(ev.verified_states, default=0),
        "peak_rss_mb": passes[0].rss_mb,
    }


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass."""
    busy, own, counts = tracer.busy(), tracer.self_times(), tracer.counts
    out = {name: counts[COUNT_SOURCE.get(name, name)]
           for name, unit, _ in PER_LAYER if unit == "count"}
    out.update({name: busy[name[:-len(".busy_s")]]
                for name, _, _ in PER_LAYER if name.endswith(".busy_s")})
    out["minmax.self_s"] = own["minmax"]
    out["pipeline.self_s"] = own["pipeline"]
    return out


def per_layer_metrics(passes) -> dict:
    """Median over traced passes of each layer metric, plus the tracing
    overhead: `fastest_pass` of the traced passes minus that of the others."""
    traced = [p for p in passes if p.traced]
    per_pass = [layer_metrics(p.tracer) for p in traced]
    out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    out["trace.overhead_s"] = fastest_pass(traced) - fastest_pass(
        [p for p in passes if not p.traced])
    return out
