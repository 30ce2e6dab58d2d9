#!/usr/bin/env python3
"""Per-curve comparison of the uniform min-max values of two checkouts.

Usage, from the repository root:

    python3 scripts/curve_diff.py --parent ../other-checkout --workload suite52 --slots 0-63

Both checkouts' `stogame` packages are imported side by side, as
`scripts/ab_time.py` does, and each side generates the workload's games from
its own `perfbench/workloads.py`.  Every game of every slot in the
inclusive range goes through each side's `solve_uniform_minmax` with the
benchmark's schedule.  A curve is one player of one game; its method is
"direct" where the direct average-reward solve closed it and "schedule"
otherwise.  The curves fall into four categories: direct on both sides,
schedule on both, and the two kinds of flip.  Per category the script
prints the number of curves, the largest `|v1 change - v1 parent|` over
them with its curve (`slot/game/player`), each side's direct-solve
iterations summed over the category (a schedule curve's failed try
included) and, for the curves on the schedule on both sides, how many
curves' JSON differs.
Each flipped curve is listed by name with its `v1` change.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from ab_time import ROOT, SIDES, load_side, slot_range

CATEGORIES = {
    ("direct", "direct"): "direct on both",
    ("schedule", "schedule"): "schedule on both",
    ("direct", "schedule"): "direct at the parent, schedule here",
    ("schedule", "direct"): "schedule at the parent, direct here",
}


def _direct_try(report, player):
    """The player's direct try, None where none ran: the curve's `direct`, or
    the report's list of tries in a checkout that keeps them beside the
    curves (`MinMaxReport.direct`, before the try moved into its curve)."""
    tries = getattr(report, "direct", None)
    return report.curves[player].direct if tries is None else tries[player]


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
    stats = {key: {"curves": 0, "largest": 0.0, "where": None, "json_differs": 0,
                   "iterations": dict.fromkeys(SIDES, 0), "flipped": []}
             for key in CATEGORIES}
    for slot in args.slots:
        games = {side: sides[side][1].WORKLOADS[args.workload](slot) for side in SIDES}
        for k in range(len(games["parent"])):
            reports, texts = {}, {}
            for side in SIDES:
                package, workloads = sides[side]
                report = package.minmax.solve_uniform_minmax(games[side][k],
                                                             workloads.schedule())
                reports[side] = report
                texts[side] = [json.dumps(package._util.json_ready(curve))
                               for curve in report.curves]
            name = games["change"][k].name
            for player, (old, new) in enumerate(zip(reports["parent"].curves,
                                                    reports["change"].curves)):
                entry = stats[old.method, new.method]
                entry["curves"] += 1
                for side in SIDES:
                    direct = _direct_try(reports[side], player)
                    entry["iterations"][side] += 0 if direct is None else direct.iterations
                where = f"{slot}/{name}/{player}"
                move = float(max(abs(a - b) for a, b in zip(old.v1, new.v1)))
                if move > entry["largest"] or entry["where"] is None:
                    entry["largest"], entry["where"] = move, where
                if old.method == new.method == "schedule" and texts["parent"][player] != texts["change"][player]:
                    entry["json_differs"] += 1
                if old.method != new.method:
                    entry["flipped"].append(f"{where} ({move:.2e})")
    print(f"{args.workload} slots {args.slots.start}-{args.slots.stop - 1}")
    for key, label in CATEGORIES.items():
        entry = stats[key]
        line = f"{label}: {entry['curves']} curves"
        if entry["curves"]:
            line += (f"; largest |dv1| {entry['largest']:.3e} at {entry['where']}; "
                     f"direct iterations parent {entry['iterations']['parent']}, "
                     f"change {entry['iterations']['change']}")
        if key == ("schedule", "schedule"):
            line += f"; JSON differs on {entry['json_differs']}"
        print(line)
        for flipped in entry["flipped"]:
            print(f"  {flipped}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
