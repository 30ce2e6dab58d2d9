#!/usr/bin/env python3
"""One sha256 over every CLI artifact, stdout and exit code on the bundled games.

Usage, from anywhere:

    python3 scripts/artifact_digest.py

The script runs `validate`, `solve`, `decompose`, `build`,
`build-correlated`, `verify` and `simulate` with default flags on each
bundled game, in name order, and then `demo-sorin`.  Each command runs in
its own `python -m stogame.cli` process on the `src/` of the script's own
checkout, inside a temporary directory, with one BLAS thread.  The digest
covers, per command and in that order, its arguments, its exit code, its
stdout and every artifact it wrote (file name and bytes, by name).  Two
checkouts that print the same digest write byte-identical artifacts and
print the same lines.  Stderr is left out: a traceback names file paths.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from stogame.generators import BUNDLED  # noqa: E402

COMMANDS = ("validate", "solve", "decompose", "build", "build-correlated", "verify",
            "simulate")
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def runs():
    """The argument list of every command run, in digest order."""
    for name in sorted(BUNDLED):
        for command in COMMANDS:
            yield [command, "--game", f"builtin:{name}"]
    yield ["demo-sorin"]


def main() -> int:
    env = {**os.environ, **THREADS, "PYTHONPATH": str(SRC)}
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for k, argv in enumerate(runs()):
            out = Path(tmp) / str(k)
            done = subprocess.run([sys.executable, "-m", "stogame.cli", *argv,
                                   "--out", str(out)],
                                  cwd=tmp, env=env, capture_output=True)
            digest.update(" ".join(argv).encode() + b"\0")
            digest.update(f"exit {done.returncode}\0".encode())
            digest.update(done.stdout + b"\0")
            for path in sorted(out.iterdir()) if out.is_dir() else ():
                digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
