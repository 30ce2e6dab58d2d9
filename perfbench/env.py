"""Thread pinning and import path shared by the benchmark's entry points."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One worker thread and one BLAS thread: never more than `nproc`, and the
# same on every commit measured.
THREADS = {
    "AP_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def pin_environment() -> None:
    """Pin threads and put the checkout's `src/` first on the import path.

    Call before numpy is imported.  Exits with a non-zero code and no result
    when the checkout has no stogame sources, so the benchmark never
    measures another installed copy."""
    if not (SRC / "stogame" / "__init__.py").is_file():
        raise SystemExit(f"stogame sources not found under {SRC}")
    os.environ.update(THREADS)
    sys.path.insert(0, str(SRC))


def describe(seed: int) -> dict:
    """Versions, core count, thread settings and seed, for the run record."""
    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, ValueError):
            return "unknown"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        **{k: os.environ[k] for k in THREADS},
        "seed": seed,
    }
