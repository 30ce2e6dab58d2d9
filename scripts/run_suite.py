#!/usr/bin/env python3
"""Run the full pipeline over the fixed acceptance suite and print a table.

Usage: python scripts/run_suite.py [--eps 0.05] [--depth 24] [--json out.json]

Per game the table shows the set kinds, the transient-state count, the
recurrent points priced by the sustainability test's column generation over
all sets (cols=), the classification masters that fell back to an LP
(master_lp=, expected 0: kernels solve them), the min-max strategy-iteration
rounds over the players and discounts of the curves that ran the schedule
(rounds=), the players whose curve the direct average-reward solve closed
(closed=), the direct solve's iterations over all players (direct=) and how
many of them took their mixes from a Newton step (newton=), the
min-max one-shot games that left the stacked closed form for
`solve_matrix_game` (lp=, expected 0 on the suite), the min-max warnings,
one per player whose schedule curve has a stalled solve (warn=), the
worst individual-rationality gain, the submartingale drift and the wall
time; the summary line adds the suite's totals of rounds, closed curves,
direct iterations, Newton steps, master LPs, one-shot LPs and warnings.
The --json rows are `PipelineResult.summary()`.

The last line is one sha256 over every game's `json_ready(profile)` and
correlated table, in suite order.  Two checkouts that print the same digest
built bit-identical machines and stationary correlated strategies.

The script runs the `src/` of its own checkout, whatever `PYTHONPATH` says.
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stogame._util import json_ready  # noqa: E402
from stogame.generators import acceptance_suite  # noqa: E402
from stogame.minmax import default_schedule  # noqa: E402
from stogame.pipeline import DEFAULT_EPS, run_pipeline  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--eps", type=float, default=DEFAULT_EPS)
    ap.add_argument("--depth", type=int, default=24)
    ap.add_argument("--json", default=None, help="optional summary output path")
    args = ap.parse_args()

    schedule = default_schedule(args.depth)
    rows = []
    total_rounds = 0
    total_closed = 0
    total_direct = 0
    total_newton = 0
    total_lp = 0
    total_oneshot_lp = 0
    total_warn = 0
    digest = hashlib.sha256()
    start = time.monotonic()
    for game in acceptance_suite():
        t0 = time.monotonic()
        res = run_pipeline(game, eps=args.eps, schedule=schedule)
        summ = res.summary()
        summ["seconds"] = round(time.monotonic() - t0, 3)
        rows.append(summ)
        digest.update(json.dumps(json_ready({
            "profile": res.profile,
            "correlated": None if res.correlated is None else res.correlated.table,
        })).encode())
        flag = "ok " if summ["ok"] else "FAIL"
        cols = sum(c.diagnostics.get("sustain_columns", 0) for c in res.classifications)
        master_lp = sum(c.diagnostics.get("master_lp", 0) for c in res.classifications)
        scheduled = [curve for curve in res.minmax.curves if curve.method == "schedule"]
        tries = [c.direct for c in res.minmax.curves if c.direct is not None]
        rounds = sum(sum(curve.rounds) for curve in scheduled)
        closed = len(res.minmax.curves) - len(scheduled)
        direct = sum(d.iterations for d in tries)
        newton = sum(d.newton_steps for d in tries)
        oneshot_lp = (sum(sum(curve.matrix_solves) for curve in scheduled)
                      + sum(d.matrix_solves for d in tries))
        total_rounds += rounds
        total_closed += closed
        total_direct += direct
        total_newton += newton
        total_lp += master_lp
        total_oneshot_lp += oneshot_lp
        total_warn += len(summ["warnings"])
        print(f"{flag} {summ['game']:22s} sets={''.join(summ['kinds']):6s} "
              f"tr={len(summ['transient'])} cols={cols:<3d} master_lp={master_lp} "
              f"rounds={rounds:<4d} closed={closed} direct={direct:<3d} newton={newton:<3d} "
              f"lp={oneshot_lp} "
              f"warn={len(summ['warnings'])} "
              f"ir={summ['ir_worst_gain']:.4f} "
              f"drift={summ['submartingale_min_drift']:+.2e} "
              f"t={summ['seconds']:.2f}s")
    total = time.monotonic() - start
    n_ok = sum(1 for r in rows if r["ok"])
    print(f"\n{n_ok}/{len(rows)} games ok in {total:.1f}s, {total_rounds} min-max rounds, "
          f"{total_closed} closed curves, {total_direct} direct iterations "
          f"({total_newton} Newton steps), "
          f"master_lp={total_lp}, lp={total_oneshot_lp}, warn={total_warn}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(json_ready(rows), fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    print(digest.hexdigest())
    return 0 if n_ok == len(rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
