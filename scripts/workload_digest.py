#!/usr/bin/env python3
"""Five sha256 digests over the pipeline runs of a benchmark workload's games.

Usage, from the repository root:

    python3 scripts/workload_digest.py --workload suite52 --slots 0-63

For every slot in the inclusive range, in order, the workload's games are
generated exactly as `perfbench/run.py` generates them, and each game goes
through one `run_pipeline` call with the benchmark's eps and schedule.  The
script prints five digests, each over all games in order:

* min-max: over `json.dumps(json_ready(result.minmax))`.  Equal digests mean
  bit-identical min-max reports (values, the direct solve's brackets and
  iterations, the schedule's rounds, certificates and stalls, and the
  one-shot games sent to `solve_matrix_game`) on every game.
* build: over each game's `json_ready(profile)` and stationary correlated
  table, as in the last line of `scripts/run_suite.py`.  Equal digests mean
  bit-identical machines and correlated strategies.
* oneshot: over each game's `json_ready(res.eq_sets)`.  Equal
  digests mean bit-identical one-shot equilibrium lists at every state.
* verify: over the `json_ready` of each game's five verifier reports
  (acceptability of both variants, individual rationality, submartingale
  and size audit; `None` where a report is missing).  Equal digests mean
  bit-identical verdicts, payoffs and margins.
* decompose: over each game's `json_ready` of its decomposition,
  classifications and errors, as `stogame decompose` writes them to
  `decompose.json`.  Equal digests mean bit-identical communicating sets,
  travel witnesses, transient selections and their reach, and
  classification plans.

After the digests it checks every game against `perfbench/reference.json`
as the benchmark does (`harness.compare`), and prints one line per game that
differs: its slot, its name, the largest difference of its `v1` from the
reference, each player's min-max method ("direct" where the average-reward
bracket closed, "schedule" otherwise), the number of stalled discounted
solves on each player's curve, each player's bracket width (the widest
`upper - lower` over the states; `inf` where no direct try ran) and the
differences found.  A stalled solve's value is not certified, so a mismatch
on a curve that has them may be the reference's error; the width says how
far its bracket certifies it.  The last line counts the games that differ
among those the reference records.

The script imports `perfbench/env.py`, `perfbench/workloads.py`,
`perfbench/harness.py` and `scripts/ab_time.py`'s `slot_range`; it pins the
same threads as the benchmark and runs the `src/` of its own checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from ab_time import slot_range  # noqa: E402
from env import pin_environment  # noqa: E402

pin_environment()

import numpy as np  # noqa: E402
from harness import compare, fingerprint, load_reference, summarize  # noqa: E402
from stogame._util import json_ready  # noqa: E402
from stogame.pipeline import run_pipeline  # noqa: E402
from workloads import EPS, WORKLOADS, schedule  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--slots", type=slot_range, required=True)
    args = ap.parse_args(argv)

    minmax_digest = hashlib.sha256()
    build_digest = hashlib.sha256()
    oneshot_digest = hashlib.sha256()
    verify_digest = hashlib.sha256()
    decompose_digest = hashlib.sha256()
    n_games = 0
    checked = 0
    differing = []
    start = time.monotonic()
    for slot in args.slots:
        _, recorded = load_reference(args.workload, slot)
        for game in WORKLOADS[args.workload](slot):
            res = run_pipeline(game, eps=EPS, schedule=schedule())
            ref = None if recorded is None else recorded.get(game.name)
            if ref is not None:
                checked += 1
                problems = compare(ref, summarize(res), fingerprint(game))
                if problems:
                    v, v_ref = np.asarray(res.v1), np.asarray(ref.get("v1", []))
                    off = float(np.max(np.abs(v - v_ref))) if v.shape == v_ref.shape else np.nan
                    methods = [c.method for c in res.minmax.curves]
                    stalled = [sum(c.stalled) if c.method == "schedule" else 0
                               for c in res.minmax.curves]
                    widths = [f"{np.max(c.upper - c.lower):.3e}" for c in res.minmax.curves]
                    differing.append(f"slot {slot} {game.name}: largest v1 difference "
                                     f"{off:.3e}, method per player {methods}, "
                                     f"stalled solves per player {stalled}, "
                                     f"bracket width per player [{', '.join(widths)}]; "
                                     + "; ".join(problems))
            minmax_digest.update(json.dumps(json_ready(res.minmax)).encode())
            build_digest.update(json.dumps(json_ready({
                "profile": res.profile,
                "correlated": None if res.correlated is None else res.correlated.table,
            })).encode())
            oneshot_digest.update(json.dumps(json_ready(res.eq_sets)).encode())
            reports = (res.acceptability, res.correlated_acceptability, res.ir_report,
                       res.submartingale, res.size_audit)
            verify_digest.update(json.dumps(json_ready(reports)).encode())
            decompose_digest.update(json.dumps(json_ready({
                "decomposition": res.decomposition,
                "classifications": res.classifications,
                "errors": res.errors,
            })).encode())
            n_games += 1
    print(f"{args.workload} slots {args.slots.start}-{args.slots.stop - 1}: "
          f"{n_games} games in {time.monotonic() - start:.1f}s")
    print(f"min-max {minmax_digest.hexdigest()}")
    print(f"build {build_digest.hexdigest()}")
    print(f"oneshot {oneshot_digest.hexdigest()}")
    print(f"verify {verify_digest.hexdigest()}")
    print(f"decompose {decompose_digest.hexdigest()}")
    for line in differing:
        print(line)
    print(f"reference: {len(differing)} of {checked} recorded games differ")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
