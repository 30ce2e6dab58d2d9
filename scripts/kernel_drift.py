#!/usr/bin/env python3
"""How far a workload's results move between OpenBLAS kernels.

Usage, from the repository root:

    python3 scripts/kernel_drift.py --workload suite52 --slots 0-0

The script runs the workload's games of every slot in the inclusive range
through `run_pipeline` (the benchmark's eps and schedule) in one child
process per kernel: first under the kernel OpenBLAS detects, then with
`OPENBLAS_CORETYPE` set to each of CORETYPES.  Only the children's
environment is set.  A core type whose child fails, or that loads a kernel
already run (OpenBLAS falls back to one the host can run, and names it), is
skipped.  Each child prints its kernel's name and, per game, each player's
min-max method and `v1`, the sets, kinds and transient states, the verdict
(`harness.verdict_failure`, or the exception's type), the one-shot
equilibrium lists and the machines (the machine profile and the stationary
correlated table, as `scripts/workload_digest.py`'s build digest reads
them) with every number rounded to 8 decimals.

Per kernel, against the detected one, it prints the largest `v1` move over
the curves the direct solve closed under both kernels and over the curves
that ran the schedule under both, the number of curves whose method
changed, the number of games whose equilibrium lists differ in any bit and
of those whose rounded machines differ, and every game whose sets, kinds,
verdict or rounded machines changed.  With
`--emit`, it runs the games in this process and prints the child's JSON
line instead.  Threads are pinned as in the benchmark (`perfbench/env.py`).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from ab_time import slot_range  # noqa: E402
from env import pin_environment  # noqa: E402

# Core types tried after the detected kernel: x86-64 kernels from the
# newest to the oldest instruction sets (Prescott loads OpenBLAS's Katmai).
CORETYPES = ("SkylakeX", "Haswell", "Sandybridge", "Nehalem", "Prescott")


def kernel_name() -> str:
    """The kernel numpy's bundled OpenBLAS loaded, or "unknown"."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    try:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.argtypes = []
    corename.restype = ctypes.c_char_p
    return corename().decode()


def rounded(doc):
    """`doc`, a JSON document, with every float rounded to 8 decimals."""
    if isinstance(doc, float):
        return round(doc, 8)
    if isinstance(doc, list):
        return [rounded(v) for v in doc]
    if isinstance(doc, dict):
        return {k: rounded(v) for k, v in doc.items()}
    return doc


def emit(workload: str, slots: range) -> dict:
    """Every game's methods, values, structure, verdict, equilibrium lists
    and rounded machines under this process's kernel."""
    import numpy as np
    from harness import verdict_failure
    from stogame._util import json_ready
    from stogame.pipeline import run_pipeline
    from workloads import EPS, WORKLOADS, schedule

    games = []
    for slot in slots:
        for game in WORKLOADS[workload](slot):
            doc = {"slot": slot, "game": game.name}
            try:
                res = run_pipeline(game, eps=EPS, schedule=schedule())
            except Exception as exc:  # a failing game is a data point
                doc["verdict"] = type(exc).__name__
            else:
                failure = verdict_failure(res)
                doc.update({
                    "methods": [c.method for c in res.minmax.curves],
                    "v1": np.asarray(res.v1).T.tolist(),
                    "structure": None if res.decomposition is None else [
                        [list(c.states) for c in res.decomposition.sets],
                        [c.kind for c in res.classifications],
                        list(res.decomposition.transient)],
                    "verdict": "ok" if failure is None else list(failure[:2]),
                    "equilibria": json_ready(res.eq_sets),
                    "machines": rounded(json_ready({
                        "profile": res.profile,
                        "correlated": None if res.correlated is None else res.correlated.table,
                    })),
                })
            games.append(doc)
    return {"kernel": kernel_name(), "games": games}


def child_env(coretype: str | None) -> dict:
    """This process's environment with `OPENBLAS_CORETYPE` set to
    `coretype`, or removed for None (the detected kernel)."""
    env = dict(os.environ)
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    return env


def child_kernel(coretype: str) -> str | None:
    """The kernel a child loads under `coretype`, or None when it fails."""
    code = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            "from kernel_drift import kernel_name; print(kernel_name())")
    done = subprocess.run([sys.executable, "-c", code], env=child_env(coretype),
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def run_child(args, coretype: str | None):
    """The child's JSON under `coretype` (None: the detected kernel), or
    None when it fails."""
    slots = f"{args.slots.start}-{args.slots.stop - 1}"
    done = subprocess.run([sys.executable, __file__, "--workload", args.workload,
                           "--slots", slots, "--emit"],
                          env=child_env(coretype), capture_output=True, text=True)
    if done.returncode != 0:
        return None
    return json.loads(done.stdout.splitlines()[-1])


def compare(base: dict, other: dict) -> list:
    """Report lines of `other` against `base`."""
    moves = {"direct": [0, 0.0], "schedule": [0, 0.0]}
    method_changes = 0
    equilibria = machines = 0
    changed = []
    for a, b in zip(base["games"], other["games"]):
        name = f"slot {a['slot']} {a['game']}"
        if a["verdict"] != b["verdict"]:
            changed.append(f"{name}: verdict {a['verdict']} -> {b['verdict']}")
        if "methods" not in a or "methods" not in b:
            continue
        if a["structure"] != b["structure"]:
            changed.append(f"{name}: sets, kinds or transient states changed")
        equilibria += a["equilibria"] != b["equilibria"]
        if a["machines"] != b["machines"]:
            machines += 1
            changed.append(f"{name}: machines changed beyond 1e-8")
        for m_a, m_b, v_a, v_b in zip(a["methods"], b["methods"], a["v1"], b["v1"]):
            if m_a != m_b:
                method_changes += 1
                continue
            move = max(abs(x - y) for x, y in zip(v_a, v_b))
            moves[m_a][0] += 1
            moves[m_a][1] = max(moves[m_a][1], move)
    lines = [f"  closed curves {moves['direct'][0]}, largest v1 move {moves['direct'][1]:.3g}; "
             f"schedule curves {moves['schedule'][0]}, largest v1 move "
             f"{moves['schedule'][1]:.3g}; method changes {method_changes}; "
             f"games with changed equilibrium lists {equilibria}, with changed rounded "
             f"machines {machines}, with changed sets, kinds or verdicts "
             f"{len(changed) - machines}"]
    return lines + [f"  {line}" for line in changed]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--slots", type=slot_range, required=True)
    ap.add_argument("--emit", action="store_true",
                    help="run the games here and print one JSON line")
    args = ap.parse_args(argv)
    if args.emit:
        pin_environment()
        print(json.dumps(emit(args.workload, args.slots)))
        return 0

    base = run_child(args, None)
    if base is None:
        raise SystemExit("the run under the detected kernel failed")
    print(f"{args.workload} slots {args.slots.start}-{args.slots.stop - 1}: "
          f"{len(base['games'])} games, detected kernel {base['kernel']}")
    seen = {base["kernel"]}
    for coretype in CORETYPES:
        kernel = child_kernel(coretype)
        if kernel in seen and kernel != "unknown":
            print(f"OPENBLAS_CORETYPE={coretype}: loads {kernel}, already run")
            continue
        other = None if kernel is None else run_child(args, coretype)
        if other is None:
            print(f"OPENBLAS_CORETYPE={coretype}: the run failed, skipped")
            continue
        seen.add(kernel)
        print(f"OPENBLAS_CORETYPE={coretype} (kernel {kernel}):")
        for line in compare(base, other):
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
