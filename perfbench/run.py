#!/usr/bin/env python3
"""Benchmark of stogame's chain from a game to a verified profile.

Usage, from the repository root:

    python3 perfbench/run.py --workload suite52 --seed 0 --seconds 60 --trace 0

The reference holds seeds 0 to n-1 of each workload; `--seed` stands for
slot `seed % n`, so any seed runs games with recorded results.  Runs
`run_pipeline` in a closed loop over the workload's games for the
workload's fixed number of passes (no new pass starts after `--seconds`),
checks every result against `perfbench/reference.json` and against its own
first pass, prints one line per metric with its unit, and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates untraced
and traced passes, reports the per-layer metrics of the traced ones and
writes their spans to `perfbench/out/spans-<workload>.csv`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from env import describe, pin_environment

HERE = Path(__file__).resolve().parent
# Fresh-process set-ups timed per run, spread over the gaps between passes.
SETUP_PROBES = 6


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup_prober(workload: str, slot: int, gaps: int):
    """A callable that times about SETUP_PROBES / `gaps` fresh-process
    set-ups per call into the returned list.  Called in each gap between
    passes, the probes sample the whole run, not one stretch of it."""
    samples = []

    def probe():
        for _ in range(max(1, round(SETUP_PROBES / gaps))):
            done = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), workload, str(slot)],
                capture_output=True, text=True, check=True, timeout=120)
            samples.append(float(done.stdout.split()[-1]))
    return probe, samples


def show(name, value, unit, note="") -> None:
    print(f"  {name:38s} {value:>14.6g} {unit:6s} {note}".rstrip())


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    # Imported only after pinning, so numpy starts with the pinned threads.
    import harness
    from workloads import PASSES, WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    slot, reference = harness.load_reference(args.workload, args.seed)
    games = WORKLOADS[args.workload](slot)
    probe, setup = setup_prober(args.workload, slot, PASSES[args.workload] + 1)
    passes = harness.measure(games, PASSES[args.workload], args.seconds, trace=bool(args.trace),
                             between=None if args.trace else probe)
    ev = harness.evaluate(passes, games, reference)

    print("env " + json.dumps({**describe(args.seed), "slot": slot}, sort_keys=True))
    plain = [p for p in passes if not p.traced]
    print(f"workload {args.workload}: {len(games)} games, {len(passes)} passes "
          f"({len(passes) - len(plain)} traced), closed loop, one game at a time; "
          "pass seconds " + " ".join(f"{p.seconds:.3f}{'t' if p.traced else ''}" for p in passes))
    print(f"games attempted {ev.attempted}, failed {ev.failed} "
          f"(failed_share {ev.failed / ev.attempted:.4f}); "
          f"reference: {ev.checked} of {ev.games} games checked")
    if ev.checked < ev.games:
        print(f"  NOT VERIFIED: the reference covers {ev.checked} of {ev.games} games at "
              f"slot {slot}, so the run reads correct=false; record the workload "
              "with perfbench/record_reference.py from a trusted commit")
    for f in ev.failures.values():
        print(f"  failed {f['game']} |S|={f['states']} stage={f['stage']} "
              f"type={f['type']}: {f['message']}")
    for game, diffs in ev.mismatches.items():
        for d in diffs:
            print(f"  MISMATCH {game}: {d}")

    if args.trace:
        values = harness.per_layer_metrics(passes)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        traced = [p for p in passes if p.traced]
        for k, p in enumerate(traced):
            p.tracer.write(out_dir / f"spans-{args.workload}.csv", pass_id=k, append=k > 0)
        unobserved = sorted({k for p in traced for k in p.tracer.counts if k.endswith(".unobserved")})
        if unobserved:
            print("  results of these calls had an unexpected type: " + ", ".join(unobserved))
        missing = sorted({name for p in traced for name in p.tracer.missing})
        if missing:
            print("  NOT HOOKED, their counters and busy times read 0: " + ", ".join(missing))
        specs = [(name, unit, f"-> {moves}") for name, unit, moves in harness.PER_LAYER]
        print(f"per-layer metrics, median of {len(traced)} traced passes "
              f"(spans in {out_dir.name}/spans-{args.workload}.csv):")
    else:
        values = harness.end_to_end_metrics(passes, ev, statistics.median(setup))
        n = sum(len(p.outcomes) for p in plain)
        p90 = values["game_s_p90"]
        above = sum(o.seconds > p90 for p in plain for o in p.outcomes)
        notes = {
            "setup_s": f"median of {len(setup)} fresh processes",
            "pass_s": f"each game's fastest of {len(plain)} passes"
                      + ("" if len(plain) == PASSES[args.workload] else
                         f", cut from {PASSES[args.workload]} by --seconds"),
            "game_s_p50": f"n={n}",
            "game_s_p90": f"n={n}, {above} above"
                          + ("" if above >= 10 else ": fewer than 10 above, not resolved"),
        }
        specs = [(name, unit, notes.get(name, "")) for name, unit in harness.END_TO_END]
        print("printed, not bounded:")
        for name, unit in harness.UNBOUNDED:
            show(name, values[name], unit, notes.get(name, ""))
        print("end-to-end metrics:")
    for name, unit, note in specs:
        show(name, values[name], unit, note)
    print(json.dumps({
        "correct": ev.correct,
        "attempted": ev.attempted,
        "failed": ev.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in specs},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
