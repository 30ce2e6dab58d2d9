"""Shared tolerances and JSON helpers."""

from __future__ import annotations

import json

# Probability mass accounting (distribution rows).
DIST_TOL = 1e-12
# Equality of extrapolated per-state values (communicating-set condition).
VALUE_SPREAD_TOL = 1e-4


def dump_json(obj, path) -> None:
    """Write `obj` as deterministic JSON (sorted keys, fixed layout)."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def json_ready(obj):
    """Recursively convert numpy scalars/arrays to plain Python types."""
    import numpy as np

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
