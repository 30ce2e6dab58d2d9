#!/usr/bin/env python3
"""One sha256 over the min-max reports of a benchmark workload's games.

Usage, from the repository root:

    python3 scripts/minmax_digest.py --workload suite52 --slots 0-63

For every slot in the inclusive range, in order, the workload's games are
generated exactly as `perfbench/run.py` generates them, and each game's
`json.dumps(solve_uniform_minmax(game, default_schedule(24)).to_dict())` is
fed to one hash.  Two checkouts that print the same digest gave
bit-identical min-max reports (values, rounds, certificates, stalls and the
one-shot games sent to `solve_matrix_game`) on every game.  The script only
imports `perfbench/env.py` and `perfbench/workloads.py`; it pins the same
threads as the benchmark and runs the `src/` of its own checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from env import pin_environment  # noqa: E402

pin_environment()

from stogame.minmax import default_schedule, solve_uniform_minmax  # noqa: E402
from workloads import SCHEDULE_DEPTH, WORKLOADS  # noqa: E402


def slot_range(text: str) -> range:
    """`A-B`, both ends included."""
    try:
        lo, hi = (int(end) for end in text.split("-"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B, got {text!r}") from None
    if not 0 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"expected 0 <= A <= B, got {text!r}")
    return range(lo, hi + 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--slots", type=slot_range, required=True)
    args = ap.parse_args(argv)

    schedule = default_schedule(SCHEDULE_DEPTH)
    digest = hashlib.sha256()
    n_games = 0
    start = time.monotonic()
    for slot in args.slots:
        for game in WORKLOADS[args.workload](slot):
            report = solve_uniform_minmax(game, schedule)
            digest.update(json.dumps(report.to_dict()).encode())
            n_games += 1
    print(f"{args.workload} slots {args.slots.start}-{args.slots.stop - 1}: "
          f"{n_games} games in {time.monotonic() - start:.1f}s")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
