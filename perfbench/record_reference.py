#!/usr/bin/env python3
"""Record the reference summaries that every benchmark pass is checked against.

Usage, from the repository root:

    python3 perfbench/record_reference.py --seeds 0-31 [--workload suite52 ...]
        [--out perfbench/reference.json]

Runs one untraced pass of each workload at each seed and merges each game's
summary (`ok`, kinds, sets, transient states, uniform values) and input
fingerprint into the output file.  Record only from a commit whose results
are trusted: the benchmark treats any later difference as a failure.
Per-game seconds go to standard error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from env import pin_environment

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def rounded(summary: dict) -> dict:
    """The summary with values cut to 12 significant digits."""
    if "v1" not in summary:
        return summary
    return {**summary, "v1": [[float(f"{x:.12g}") for x in row] for row in summary["v1"]]}


def dump(reference: dict) -> str:
    """JSON with one game per line."""
    lines = ["{"]
    for w, (workload, seeds) in enumerate(sorted(reference.items())):
        lines.append(f" {json.dumps(workload)}: {{")
        ordered = sorted(seeds.items(), key=lambda kv: int(kv[0]))
        for s, (seed, games) in enumerate(ordered):
            lines.append(f"  {json.dumps(seed)}: {{")
            rows = [f"   {json.dumps(name)}: {json.dumps(val, sort_keys=True)}"
                    for name, val in games.items()]
            lines.append(",\n".join(rows))
            lines.append("  }" + ("," if s < len(ordered) - 1 else ""))
        lines.append(" }" + ("," if w < len(reference) - 1 else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0", help="one seed or an inclusive range a-b")
    ap.add_argument("--workload", action="append", help="default: every workload")
    ap.add_argument("--out", type=Path, default=HERE / "reference.json")
    args = ap.parse_args(argv)
    pin_environment()
    import harness
    from workloads import WORKLOADS

    reference = json.loads(args.out.read_text()) if args.out.exists() else {}
    for workload in args.workload or sorted(WORKLOADS):
        for seed in seed_range(args.seeds):
            games = WORKLOADS[workload](seed)
            recorded = {}
            for k, game in enumerate(games):
                outcome = harness.run_game(game, k)
                recorded[game.name] = {"fingerprint": harness.fingerprint(game),
                                       **rounded(outcome.summary)}
                print(f"{workload} {seed} {game.name} {game.n_states} "
                      f"{outcome.seconds:.3f} {outcome.failure}", file=sys.stderr, flush=True)
            reference.setdefault(workload, {})[str(seed)] = recorded
            args.out.write_text(dump(reference))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
