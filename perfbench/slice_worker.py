"""Run one part of a workload's check slice in its own process.

For every configuration of the workload, runs
``sim.coverage_chunk(reps=REPS, rep_offset=OFFSET)`` with the decisions
captured and prints one JSON line per configuration with the chunk and
the decision tuples.  Run from the repository root:

    python3 perfbench/slice_worker.py WORKLOAD SEED OFFSET REPS
"""

import json
import os
import sys


def main() -> int:
    name, seed, offset, reps = sys.argv[1], *map(int, sys.argv[2:5])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads
    program = workloads.import_program()
    wl = workloads.build(name, seed, program, "")
    for cfg in wl.configs:
        with workloads.capture_decisions(program) as decisions:
            chunk = program.sim.coverage_chunk(
                cfg.procedure, cfg.spec, reps=reps, rep_offset=offset,
                **cfg.kwargs)
        print(json.dumps({"chunk": chunk, "decisions": decisions}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
