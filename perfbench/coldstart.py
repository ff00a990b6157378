"""One cold start, timed from outside: import the CLI and build the inputs.

run.py starts this script in a fresh interpreter several times and reports
the median as setup_s. The script prints the system-wide monotonic clock
(nanoseconds) once the inputs are built:

    python3 perfbench/coldstart.py WORKLOAD SEED SIZE
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import artifact.cli  # noqa: E402,F401

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
    print(time.monotonic_ns())
