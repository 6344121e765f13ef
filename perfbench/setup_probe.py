"""Time seqstop's set-up in a fresh interpreter and print it in seconds.

Set-up is importing seqstop (numpy, and scipy through fixed_ci) and
building the workload's plans, schedules and specs, or its request
list.  Run from the repository root:

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import os
import sys
import time


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    t0 = time.perf_counter()
    import workloads
    program = workloads.import_program()
    workloads.build(name, seed, program, "")
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
