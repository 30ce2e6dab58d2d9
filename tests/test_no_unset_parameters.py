"""Every setting and every helper in `stogame` has a reader outside the tests.

A defaulted parameter that no call sets only ever takes its default: it is a
constant dressed up as a setting.  The first scan parses every call in
`src/`, `scripts/` and `perfbench/` and matches it to the functions of that
name by the keywords it passes and the positions it fills.  A `*args` or
`**kwargs` splat fills nothing it does not name, so a default that only a
splat could reach counts as unset.  A call from a test does not count: a
setting that only tests turn is a second code path kept for them.

The second scan asks the same of names: every function, class, method and
property that `src/stogame` defines (dunders aside) must be read somewhere
in `src/`, `scripts/` or `perfbench/` outside its own definition.  Helpers
that only tests call belong in `tests/oracles.py`.  The scan matches names,
not bindings, so a name that is also a local variable or an attribute of
another object counts as read.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Trees whose code counts as a reader; test modules among them do not.
READERS = ("src", "scripts", "perfbench")


def _reader_trees():
    for top in READERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if not path.name.startswith("test_"):
                yield ast.parse(path.read_text())


def _stogame_trees():
    for path in sorted((ROOT / "src" / "stogame").glob("*.py")):
        yield path.stem, ast.parse(path.read_text())


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

    for module, tree in _stogame_trees():
        visit(tree, module, None)
    return found


def _set_by_calls(functions):
    """Qualified name -> the parameters some call outside the tests sets."""
    by_name = defaultdict(list)
    for name, qualified, positional, first, _ in functions:
        by_name[name].append((qualified, positional, first))
    set_by = defaultdict(set)
    for tree in _reader_trees():
        for node in ast.walk(tree):
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


def _defined_names():
    """(name, qualified name) of every function, class, method and property
    that stogame defines, dunders aside."""
    found = []

    def visit(node, module, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    found.append((child.name,
                                  ".".join(p for p in (module, cls, child.name) if p)))
                visit(child, module, child.name if isinstance(child, ast.ClassDef) else None)

    for module, tree in _stogame_trees():
        visit(tree, module, None)
    return found


def _read_names():
    """Every name, attribute and imported name read outside the tests, but
    not inside a definition of that same name (a recursive call does not
    make a function live)."""
    read = set()

    def visit(node, enclosing):
        for child in ast.iter_child_nodes(node):
            inner = enclosing
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = enclosing | {child.name}
            name = (getattr(child, "id", None) if isinstance(child, ast.Name)
                    else getattr(child, "attr", None) if isinstance(child, ast.Attribute)
                    else getattr(child, "name", None) if isinstance(child, ast.alias)
                    else None)
            if name is not None and name not in enclosing:
                read.add(name)
            visit(child, inner)

    for tree in _reader_trees():
        visit(tree, frozenset())
    return read


def test_every_defaulted_parameter_is_set_by_some_call():
    functions = _defaulted_parameters()
    set_by = _set_by_calls(functions)
    unset = [f"{qualified}({param})"
             for _, qualified, _, _, defaulted in functions
             for param in defaulted if param not in set_by[qualified]]
    assert not unset, "defaulted parameters that no call sets: " + ", ".join(unset)


def test_every_defined_name_is_read_outside_the_tests():
    read = _read_names()
    unread = [qualified for name, qualified in _defined_names() if name not in read]
    assert not unread, "names that only tests read: " + ", ".join(unread)


def test_the_scan_sees_calls_by_keyword_position_and_method():
    # The scans themselves: positional, keyword and method calls all count.
    functions = _defaulted_parameters()
    set_by = _set_by_calls(functions)
    assert {"schedule"} <= set_by["minmax.uniform_minmax"]          # keyword
    assert {"k_max"} <= set_by["minmax.default_schedule"]           # position
    assert {"lam_grid"} <= set_by["pipeline.run_pipeline"]          # keyword
    assert {"replications"} <= set_by["simulate.simulate"]          # keyword
    total = sum(len(defaulted) for *_, defaulted in functions)
    assert 0 < total <= 18
    defined = dict(_defined_names())
    assert {"discounted_minmax", "_policy_iteration", "uniform_values"} <= set(defined)
    assert "__init__" not in defined
    read = _read_names()
    assert {"discounted_minmax", "_policy_iteration", "uniform_values"} <= read
