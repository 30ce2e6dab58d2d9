"""Every defaulted parameter of a function in `stogame` is set by some call.

A parameter that no call sets only ever takes its default: it is a constant
dressed up as a setting.  The scan parses every call in `src/`, `tests/`,
`scripts/` and `perfbench/` and matches it to the functions of that name by
the keywords it passes and the positions it fills.  A `*args` or `**kwargs`
splat fills nothing it does not name, so a default that only a splat could
reach counts as unset.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "scripts", "perfbench")


def _defaulted_parameters():
    """(name, qualified name, positional parameters, first position a call
    fills, defaulted parameters) of every function and method in stogame;
    a class's `__init__` goes by the class's name."""
    found = []

    def visit(node, module, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                              if d is not None]
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in child.decorator_list)
                name = cls if child.name == "__init__" else child.name
                qualified = ".".join(p for p in (module, cls, child.name) if p)
                found.append((name, qualified, positional,
                              int(cls is not None and not static), defaulted))
                visit(child, module, None)

    for path in sorted((ROOT / "src" / "stogame").glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return found


def _set_by_calls(functions):
    """Qualified name -> the parameters some call sets."""
    by_name = defaultdict(list)
    for name, qualified, positional, first, _ in functions:
        by_name[name].append((qualified, positional, first))
    set_by = defaultdict(set)
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                n_positional = next((k for k, a in enumerate(node.args)
                                     if isinstance(a, ast.Starred)), len(node.args))
                for qualified, positional, first in by_name.get(name, ()):
                    set_by[qualified].update(positional[first:first + n_positional])
                    set_by[qualified].update(kw.arg for kw in node.keywords if kw.arg)
    return set_by


def test_every_defaulted_parameter_is_set_by_some_call():
    functions = _defaulted_parameters()
    set_by = _set_by_calls(functions)
    unset = [f"{qualified}({param})"
             for _, qualified, _, _, defaulted in functions
             for param in defaulted if param not in set_by[qualified]]
    assert not unset, "defaulted parameters that no call sets: " + ", ".join(unset)


def test_the_scan_sees_calls_by_keyword_position_and_method():
    # The scan itself: positional, keyword and method calls all count.
    functions = _defaulted_parameters()
    set_by = _set_by_calls(functions)
    assert {"schedule"} <= set_by["minmax.uniform_minmax"]          # keyword
    assert {"k_max"} <= set_by["minmax.default_schedule"]           # position
    assert {"exact_tol"} <= set_by["oneshot.enumerate_equilibria"]  # keyword
    total = sum(len(defaulted) for *_, defaulted in functions)
    assert 0 < total <= 34
