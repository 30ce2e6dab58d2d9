#!/usr/bin/env python3
"""Paired timing of `run_pipeline` in one process: another checkout against this one.

Usage, from the repository root:

    python3 scripts/ab_time.py --parent ../other-checkout --workload suite52 --slots 0-0

Both checkouts' `stogame` packages are imported side by side, under the
names `stogame_parent` and `stogame_change`, and each side generates the
workload's games from its own `perfbench/workloads.py` with its own
generators.  Every game of every slot in the inclusive range then runs
through each side's `run_pipeline` (the benchmark's eps and schedule)
REPEATS times, the two sides alternating in a random order that is drawn
afresh for every repetition.  The script prints each side's sum over games
of the fastest time per game, and the ratio of the change's sum to the
parent's.  Next to each side's sum it prints the median and quartiles of
its REPEATS pass sums, the k-th pass sum being the sum over games of the
k-th repetition's time, so that a ratio can be read against each side's own
spread.  A game that raises is timed up to the exception, as the
benchmark does, and listed with its exception's type after its side's sum.

Timing both sides in one process, interleaved, cancels most of a shared
host's drift, which swamps a 10-20% change between separate benchmark runs.
The threads are pinned as in the benchmark (`perfbench/env.py`).
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from env import THREADS  # noqa: E402

# Pinned before either side imports numpy.
os.environ.update(THREADS)

REPEATS = 6
SIDES = ("parent", "change")


def slot_range(text: str) -> range:
    """`A-B`, both ends included."""
    try:
        lo, hi = (int(end) for end in text.split("-"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B, got {text!r}") from None
    if not 0 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"expected 0 <= A <= B, got {text!r}")
    return range(lo, hi + 1)


def load_side(checkout: Path, side: str):
    """(package, workloads module) of the checkout's `src/stogame`,
    imported as the package `stogame_<side>`, with its `pipeline`,
    `generators` and `minmax` modules as attributes.  The checkout's
    `perfbench/workloads.py` is executed while `stogame` names that package,
    so its generators are the side's own.  The modules the script and
    `workloads.py` read are imported before the aliases are built, whether
    or not the package's `__init__` imports them, so that no `stogame.*`
    module made while the aliases stand outlives them."""
    name = f"stogame_{side}"
    pkg_dir = checkout / "src" / "stogame"
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("pipeline", "generators", "minmax"):
        importlib.import_module(f"{name}.{module}")
    aliases = {"stogame": package}
    aliases.update({f"stogame.{key[len(name) + 1:]}": module
                    for key, module in sys.modules.items() if key.startswith(name + ".")})
    saved = {key: sys.modules.get(key) for key in aliases}
    sys.modules.update(aliases)
    try:
        spec = importlib.util.spec_from_file_location(
            f"workloads_{side}", checkout / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        for key, module in saved.items():
            if module is None:
                sys.modules.pop(key)
            else:
                sys.modules[key] = module
    return package, workloads


def timed(run_pipeline, workloads, game):
    """(seconds, exception type name or None) of one pipeline run."""
    start = time.perf_counter()
    try:
        run_pipeline(game, eps=workloads.EPS, schedule=workloads.schedule())
    except Exception as exc:  # a failing game is a data point, as in the benchmark
        return time.perf_counter() - start, type(exc).__name__
    return time.perf_counter() - start, None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True,
                    help="root of the checkout to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--slots", type=slot_range, required=True)
    args = ap.parse_args(argv)

    sides = {"parent": load_side(args.parent.resolve(), "parent"),
             "change": load_side(ROOT, "change")}
    for _, workloads in sides.values():
        if args.workload not in workloads.WORKLOADS:
            ap.error(f"unknown workload {args.workload!r}")
    order = random.Random(0)
    best = dict.fromkeys(SIDES, 0.0)
    passes = {side: [0.0] * REPEATS for side in SIDES}
    failed = {side: set() for side in SIDES}
    n_games = 0
    for slot in args.slots:
        games = {side: sides[side][1].WORKLOADS[args.workload](slot) for side in SIDES}
        for k in range(len(games["parent"])):
            fastest = dict.fromkeys(SIDES, float("inf"))
            for rep in range(REPEATS):
                for side in order.sample(SIDES, 2):
                    package, workloads = sides[side]
                    seconds, error = timed(package.pipeline.run_pipeline, workloads,
                                           games[side][k])
                    fastest[side] = min(fastest[side], seconds)
                    passes[side][rep] += seconds
                    if error is not None:
                        failed[side].add((slot, k, error))
            for side in SIDES:
                best[side] += fastest[side]
            n_games += 1
    print(f"{args.workload} slots {args.slots.start}-{args.slots.stop - 1}: {n_games} games, "
          f"fastest of {REPEATS} per game")
    for side in SIDES:
        raised = "".join(f"; {error} at slot {slot} game {k}"
                         for slot, k, error in sorted(failed[side]))
        q1, median, q3 = statistics.quantiles(passes[side], n=4)
        print(f"{side:7s} {best[side]:.3f} s; pass sums median {median:.3f} s, "
              f"quartiles {q1:.3f}-{q3:.3f} s{raised}")
    print(f"ratio   {best['change'] / best['parent']:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
