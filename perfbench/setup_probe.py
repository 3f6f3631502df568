"""Time one benchmark set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD ROOT

Prints the seconds spent importing reslat from ROOT/src and building the
workload's inputs, as a ``repr`` float on one line.
"""

import sys
import time
from pathlib import Path

import workloads


def main():
    name, root = sys.argv[1], Path(sys.argv[2])
    sys.path.insert(0, str(root / "src"))
    t0 = time.perf_counter()
    workloads.build(name, root)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
