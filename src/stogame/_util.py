"""Shared tolerances and JSON helpers."""

from __future__ import annotations

import dataclasses
import json

# Probability mass accounting (distribution rows).
DIST_TOL = 1e-12


def dump_json(obj, path) -> None:
    """Write `json_ready(obj)` as deterministic JSON (sorted keys, fixed
    layout)."""
    with open(path, "w") as fh:
        json.dump(json_ready(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def json_ready(obj):
    """Recursively convert `obj` to plain JSON types.

    A value with a `to_dict` gives that dict, and any other dataclass its
    fields in declaration order; dict keys become strings, tuples lists, and
    numpy arrays and scalars plain Python values."""
    import numpy as np

    if hasattr(obj, "to_dict"):
        return obj.to_dict()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: json_ready(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [json_ready(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj
