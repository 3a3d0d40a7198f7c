"""Set-up probe: import knotforge from this checkout and build one
workload's request list, then print time.monotonic().

run.py starts this script in a fresh interpreter and subtracts its own
monotonic reading taken just before the start, so the difference is what a
CLI user pays before the first request: interpreter start-up, importing
knotforge and generating the inputs.

Usage: python3 perfbench/probe.py WORKLOAD SEED
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import knotforge.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.requests(sys.argv[1], int(sys.argv[2]))
print(repr(time.monotonic()))
