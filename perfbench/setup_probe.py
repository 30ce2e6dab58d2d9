"""Time one benchmark set-up: import stogame and generate a workload's games.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
Prints the elapsed seconds.  Run in a fresh process, so the import is cold.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

from env import pin_environment  # noqa: E402


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    pin_environment()
    from workloads import WORKLOADS

    WORKLOADS[workload](seed)
    print(f"{time.perf_counter() - T0:.9f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
