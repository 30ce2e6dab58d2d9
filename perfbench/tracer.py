"""Outside-in tracing of stogame's layers.

`Tracer` replaces the module-global names that `stogame.pipeline` and
`stogame.minmax` call with thin wrappers that record a span (name, start,
end, parent span, game id) and update counters, then restores the originals.
Nothing under `src/` is edited.  A hooked name that a later version of the
package no longer defines is skipped and listed in `Tracer.missing`, since
its counters and busy times then read 0.

The benchmark is single-threaded (AP_THREADS=1), so one stack of open spans
gives every span its parent.
"""

from __future__ import annotations

import csv
import functools
import importlib
import time
from collections import Counter

# Method labels of `MatrixGameSolution.method`, as counter names.
_METHODS = {"closed-form": "closed_form", "lp": "lp", "pure": "pure"}


def _count_minmax_solve(counts, out):
    _, info = out
    counts["minmax.discounted_solves"] += 1
    counts["minmax.rounds"] += int(info.get("rounds", 0))
    counts["minmax.stalled_solves"] += int(bool(info.get("stalled", False)))


def _count_matrix_method(counts, out):
    counts["matrixgame." + _METHODS.get(out.method, out.method)] += 1


def _count_equilibria(counts, out):
    counts["oneshot.equilibria"] += sum(len(eq_set) for eq_set in out)


def _count_decomposition(counts, out):
    counts["structure.sets"] += len(out.sets)
    counts["structure.transient_states"] += len(out.transient)
    counts["structure.greedy_only"] += sum("greedy merge only" in note for note in out.notes)


def _count_kind(counts, out):
    counts["builder.classify.kind_" + out.kind] += 1


def _count_points(counts, out):
    counts["frequencies.recurrent_points"] += len(out)


def _count_machine(counts, out):
    joint = getattr(out, "joint", None)
    counts["builder.machine_states"] += getattr(joint, "size", 0)


def _count_product(counts, out):
    counts["automata.product_models"] += 1
    counts["automata.product_nodes"] += out.n_nodes


# (module, global name, span name or None for counters only, result hook).
# Every hook also counts `<span or global name>.calls`.
HOOKS = (
    ("stogame.pipeline", "solve_uniform_minmax", "minmax", None),
    ("stogame.pipeline", "enumerate_all_states", "oneshot", _count_equilibria),
    ("stogame.pipeline", "decompose", "structure", _count_decomposition),
    ("stogame.pipeline", "classify_set", "builder.classify", _count_kind),
    ("stogame.pipeline", "assemble_profile", "builder.assemble", _count_machine),
    ("stogame.pipeline", "build_correlated_stationary", "builder.correlated", None),
    ("stogame.pipeline", "check_minmax_acceptable", "verify.acceptability", None),
    ("stogame.pipeline", "check_individual_rationality", "verify.ir", None),
    ("stogame.pipeline", "check_submartingale", "verify.submartingale", None),
    ("stogame.pipeline", "automaton_size_audit", "verify.size_audit", None),
    ("stogame.minmax", "discounted_minmax", None, _count_minmax_solve),
    ("stogame.minmax", "solve_matrix_game", "matrixgame", _count_matrix_method),
    ("stogame.builder", "enumerate_recurrent_points", "frequencies", _count_points),
    ("stogame.verify", "build_product_model", None, _count_product),
)

# Exceptions counted by type name where they leave a hooked call.
RAISED_COUNTERS = {"EnumerationSizeError": "frequencies.guard_trips"}


class Tracer:
    """Spans and counters of one traced pass.  Use as a context manager:
    entering installs the hooks, leaving restores the original names."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, game id]
        self.counts = Counter()
        self.game = None         # id stamped on spans opened from now on
        self._stack = []
        self._patches = []
        self.missing = []        # "module.name" of hooks that could not be installed

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.game])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, original, span, observe, label):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            self.counts[label + ".calls"] += 1
            idx = None if span is None else self.open(span)
            try:
                out = original(*args, **kwargs)
            except Exception as exc:
                counter = RAISED_COUNTERS.get(type(exc).__name__)
                if counter:
                    self.counts[counter] += 1
                raise
            finally:
                if idx is not None:
                    self.close(idx)
            if observe is not None:
                try:
                    observe(self.counts, out)
                except Exception:  # a changed result type must not fail the game
                    self.counts[label + ".unobserved"] += 1
            return out
        return traced

    def __enter__(self):
        for module_name, attr, span, observe in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            label = span or f"{module_name.rsplit('.', 1)[-1]}.{attr}"
            setattr(module, attr, self._wrap(original, span, observe, label))
            self._patches.append((module, attr, original))
        return self

    def __exit__(self, *exc_info):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)
        return False

    def busy(self) -> Counter:
        """Summed span duration per span name."""
        out = Counter()
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return out

    def self_times(self) -> Counter:
        """Summed self time per span name: each span's duration minus the
        part of it that its child spans cover."""
        children = [[] for _ in self.spans]
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out = Counter()
        for (name, start, end, _, _), kids in zip(self.spans, children):
            out[name] += (end - start) - covered(kids, start, end)
        return out

    def write(self, path, pass_id: int, append: bool) -> None:
        """Write the spans as CSV rows; times are seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "a" if append else "w", newline="") as fh:
            out = csv.writer(fh)
            if not append:
                out.writerow(["pass", "span", "name", "start_s", "end_s", "parent", "game"])
            for idx, (name, start, end, parent, game) in enumerate(self.spans):
                out.writerow([pass_id, idx, name, f"{start - t0:.9f}",
                              f"{end - t0:.9f}", parent, game])


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
