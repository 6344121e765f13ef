"""seqstop benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports seqstop from ``src/``.  The
next operation starts when the previous one returns, in this process,
without a worker pool.  After one untimed warm-up round the workload's
configurations are visited round robin, in whole rounds, for S seconds.

A fixed check slice (the first rounds of replications or requests) then
gives the decision digest and the quality metrics; for simulation
workloads it is re-run split over 2 worker processes with
``coverage_chunk(rep_offset=...)`` and merged with
``report_from_chunks``, and both digest and report must match.  With
``--trace 1`` the slice runs under the span tracer and the run prints
the per-layer metrics instead of the end-to-end ones.

The last line of standard output is the JSON result; the lines before it
record the environment, every metric with its unit, the digest, each
failed operation and each input that hit the program's known defect.
The exit code is 0 when every output check passed, 1 when one failed and
2 when the program cannot be loaded.
"""

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 5
# The timed loop is split into SEGMENTS parts; timing metrics are the
# median over the parts, so that a slowdown of the shared machine lasting
# under two fifths of the run does not move them.
SEGMENTS = 5
SETUP_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 120
MAX_LOGGED_FAILURES = 20

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "obs_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "mean_n": "obs",
    "coverage": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def percentile(sorted_values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * \
        (pos - lo)


def over_segments(segments, metric) -> float:
    """Median of a per-segment metric."""
    return statistics.median(metric(seg) for seg in segments)


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": git_commit(),
        "load": "closed loop, 1 client, in-process, no worker pool",
    }


def setup_seconds(args) -> list:
    """Set-up time of SETUP_PROBES fresh interpreters, one after another."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"),
             args.workload, str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=SETUP_TIMEOUT_S)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


@dataclass
class Segment:
    """Operation times (sorted once the segment ends) of one timed part."""

    times: List[float] = field(default_factory=list)
    obs: int = 0
    failed: int = 0
    defects: int = 0
    elapsed: float = 0.0


class Run:
    """Operation loop state of one workload run."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.records = {}      # (config, rep) -> record, for rep < slice
        self.errors = []       # exceptions and violated output checks
        self.problems = []     # failures of the checks after the loop

    def op(self, index: int, rep: int):
        """One operation; returns (seconds, observations, outcome)."""
        import workloads
        t0 = time.perf_counter()
        try:
            record, nobs, outcome = self.wl.op(index, rep)
        except Exception as exc:  # CheckFailed, or a traceback on valid input
            dt = time.perf_counter() - t0
            self.errors.append(f"{self.wl.configs[index].label} rep {rep}: "
                               f"{exc!r}")
            return dt, 0, workloads.FAILED
        dt = time.perf_counter() - t0
        if rep < self.wl.slice_rounds:
            self.records[(index, rep)] = record
        return dt, nobs, outcome

    def timed_loop(self, seconds: float):
        """Whole rounds from round 1 on, in SEGMENTS parts of equal length."""
        import workloads
        segments = []
        rep = 1
        for _ in range(SEGMENTS):
            seg = Segment()
            start = time.perf_counter()
            while True:
                for i in range(len(self.wl.configs)):
                    dt, nobs, outcome = self.op(i, rep)
                    seg.times.append(dt)
                    seg.obs += nobs
                    seg.failed += outcome == workloads.FAILED
                    seg.defects += outcome == workloads.KNOWN_DEFECT
                rep += 1
                if time.perf_counter() - start >= seconds / SEGMENTS:
                    break
            seg.elapsed = time.perf_counter() - start
            seg.times.sort()
            segments.append(seg)
        return segments


def run_slice(run: Run, tracer):
    """Run the check slice once in this process.

    A simulation workload runs ``coverage_chunk(reps=K, rep_offset=0)``
    once per configuration, as a single-process ``seqstop simulate``
    does; records[i] is its chunk and decisions[i] its decision tuples.
    interval_requests repeats its requests; records[(i, rep)] is each
    request's record.  Returns records, decisions and the elapsed time.
    """
    import workloads
    wl = run.wl
    program = wl.program
    k = wl.slice_rounds
    records, decisions = {}, {}
    if tracer is not None:
        tracer.install(program)
    start = time.perf_counter()
    try:
        with workloads.capture_decisions(program) as captured:
            keys = [(i, rep) for rep in range(k)
                    for i in range(len(wl.configs))]
            if wl.is_sim:
                keys = list(range(len(wl.configs)))
            for key in keys:
                before = len(captured)
                try:
                    if wl.is_sim:
                        cfg = wl.configs[key]
                        records[key] = program.sim.coverage_chunk(
                            cfg.procedure, cfg.spec, reps=k, rep_offset=0,
                            **cfg.kwargs)
                        decisions[key] = captured[before:]
                    else:
                        records[key] = wl.op(*key)[0]
                except Exception as exc:
                    run.problems.append(f"slice {key}: {exc!r}")
        elapsed = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.remove()
    if wl.is_sim:
        for i, cfg in enumerate(wl.configs):
            if len(decisions.get(i, ())) != k:
                run.problems.append(f"{cfg.label}: not {k} decisions")
            for rep, d in enumerate(decisions.get(i, ())):
                problem = workloads.decision_problem(cfg, d)
                if problem:
                    run.problems.append(f"{cfg.label} rep {rep}: {problem}")
            timed = [run.records.get((i, rep)) for rep in range(k)]
            if i in records and None not in timed and \
                    report(wl, i, timed) != report(wl, i, [records[i]]):
                run.problems.append(f"{cfg.label}: one replication per call "
                                    f"and {k} in one call report differently")
    else:
        for key, rec in records.items():
            if key in run.records and run.records[key] != rec:
                run.problems.append(f"request {key} differs from the timed "
                                    f"loop: {rec} != {run.records[key]}")
    return records, decisions, elapsed


def report(wl, index: int, chunks) -> str:
    cfg = wl.configs[index]
    return wl.program.sim.report_from_chunks(
        cfg.procedure, cfg.spec, wl.slice_rounds, chunks).to_json()


def two_process_check(run: Run, records, decisions) -> str:
    """Re-run the slice split over 2 worker processes, each running half of
    every configuration's replications with coverage_chunk(rep_offset=...).
    Decisions and merged report must equal the single-process run's.
    Returns the digest of the 2-process decisions."""
    import workloads
    wl = run.wl
    k = wl.slice_rounds
    half = k // 2
    workers = [subprocess.Popen(
        [sys.executable, os.path.join(HERE, "slice_worker.py"), wl.name,
         str(wl.seed), str(offset), str(reps)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
        for offset, reps in ((0, half), (half, k - half))]
    outputs = []
    try:
        for proc in workers:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
            if proc.returncode != 0:
                run.problems.append(f"slice worker exited {proc.returncode}")
            outputs.append([json.loads(line) for line in out.splitlines()])
    finally:
        for proc in workers:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    merged = []
    for i, cfg in enumerate(wl.configs):
        parts = [out[i] for out in outputs if i < len(out)]
        if len(parts) != 2 or i not in records:
            run.problems.append(f"{cfg.label}: no 2-process result")
            continue
        if report(wl, i, [part["chunk"] for part in parts]) != \
                report(wl, i, [records[i]]):
            run.problems.append(f"{cfg.label}: 2-process report differs")
        split = [tuple(d) for part in parts for d in part["decisions"]]
        if split != decisions[i]:
            run.problems.append(f"{cfg.label}: 2-process decisions differ")
        merged += split
    return workloads.digest(merged)


def quality(wl, records, decisions) -> dict:
    """mean_n, coverage and uncertified_rate over the check slice."""
    import workloads
    if wl.is_sim:
        ds = [d for i in sorted(decisions) for d in decisions[i]]
        return {
            "mean_n": statistics.fmean(d[1] for d in ds),
            "coverage": sum(chunk[0] for chunk in records.values()) / len(ds),
            "uncertified_rate": statistics.fmean(
                d[0] in workloads.UNCERTIFIED for d in ds),
        }
    ns, hits = [], []
    for (i, rep), rec in records.items():
        kind = wl.configs[i]
        ns.append(kind.files[rep % len(kind.files)].n)
        if kind.command == "ci" and rec[2] == 0:
            hits.append(rec[-1])
    return {"mean_n": statistics.fmean(ns),
            "coverage": statistics.fmean(hits) if hits else 0.0,
            "uncertified_rate": None}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "seqstop", "__init__.py")):
        print(f"error: no seqstop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    try:
        return bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))


def bench(args, workdir: str) -> int:
    import tracer as tracing
    import workloads
    try:
        program = workloads.import_program()
    except ImportError as exc:
        print(f"error: cannot import seqstop: {exc}", file=sys.stderr)
        return 2
    loaded = os.path.realpath(program.package.__file__)
    if not loaded.startswith(os.path.realpath(SRC) + os.sep):
        print(f"error: seqstop loaded from {loaded}, not {SRC}",
              file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(args)), flush=True)
    if args.workload == "interval_requests":
        os.makedirs(workdir)
        size = workloads.write_interval_data(args.seed, workdir)
        print(f"data: {size} bytes of interval input under {workdir}")
    wl = workloads.build(args.workload, args.seed, program, workdir)
    setup = None if args.trace else setup_seconds(args)

    run = Run(wl)
    for i in range(len(wl.configs)):  # warm-up round, untimed
        run.op(i, 0)
    segments = run.timed_loop(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tr = tracing.Tracer() if args.trace else None
    records, decisions, slice_s = run_slice(run, tr)
    leftover = tracing.leftover_wrappers(program)
    if leftover:
        run.problems.append(f"wrappers left installed: {leftover}")
    if wl.is_sim:
        digest = two_process_check(run, records, decisions)
    else:
        digest = workloads.digest(records[key] for key in sorted(records))
    q = quality(wl, records, decisions)
    slice_ops = wl.slice_rounds * len(wl.configs)

    attempted = sum(len(seg.times) for seg in segments)
    failed = sum(seg.failed for seg in segments) + len(run.problems)
    defects = sum(seg.defects for seg in segments)
    tail_q = wl.tail_percentile
    beyond = sum(sum(t > percentile(seg.times, tail_q) for t in seg.times)
                 for seg in segments)
    pcts = {pct: over_segments(segments,
                               lambda seg: percentile(seg.times, pct))
            for pct in sorted({50.0, tail_q, 75.0, 90.0, 95.0, 99.0, 99.9})}
    e2e = {
        "setup_s": statistics.median(setup) if setup else None,
        "ops_per_s": over_segments(segments,
                                   lambda seg: len(seg.times) / seg.elapsed),
        "obs_per_s": over_segments(segments,
                                   lambda seg: seg.obs / seg.elapsed),
        "op_p50_ms": pcts[50.0] * 1e3,
        "op_tail_ms": pcts[tail_q] * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "mean_n": q["mean_n"],
        "coverage": q["coverage"],
    }

    print(f"configs: {', '.join(c.label for c in wl.configs)}")
    print(f"timed: {attempted} ops in "
          f"{sum(seg.elapsed for seg in segments):.3f} s "
          f"({attempted // len(wl.configs)} rounds, {SEGMENTS} segments of "
          f"{', '.join(str(len(seg.times)) for seg in segments)} ops)")
    if setup:
        print("setup samples_s: " + " ".join(f"{s:.4f}" for s in setup))
    for name, value in e2e.items():
        if value is not None:
            print(f"metric {name} = {value!r} {END_TO_END_UNITS[name]}")
    print(f"metric op_tail_ms is p{tail_q:g}: {beyond} of {attempted} "
          f"samples lie beyond their segment's p{tail_q:g}" + (
              "" if beyond >= 10 else " (fewer than ten: tail not resolved)"))
    print("op percentiles_ms (median over segments): " + " ".join(
        f"p{pct:g}={value * 1e3:.4f}" for pct, value in pcts.items()))
    print(f"metric error_rate = {(failed + defects) / attempted!r} ratio "
          f"({failed} failed and {defects} known-defect exits of "
          f"{attempted})")
    if q["uncertified_rate"] is None:
        print("metric uncertified_rate = n/a (no stopping rule here)")
    else:
        print(f"metric uncertified_rate = {q['uncertified_rate']!r} ratio")
    print(f"quality metrics over the check slice: {wl.slice_rounds} rounds, "
          f"{slice_ops} ops")
    print(f"digest {digest} ({'decision tuples' if wl.is_sim else 'requests'}"
          f" of the check slice{', 1 and 2 processes' if wl.is_sim else ''})")
    for label, lines in (("known defect", wl.defects),
                         ("failed", wl.failures)):
        logged = list(dict.fromkeys(lines))
        for line in logged[:MAX_LOGGED_FAILURES]:
            print(f"{label}: {line}")
        if len(logged) > MAX_LOGGED_FAILURES:
            print(f"{label}: ... {len(logged) - MAX_LOGGED_FAILURES} more "
                  f"inputs")
    for line in run.errors + run.problems:
        print("check failed: " + line)

    if tr is not None:
        ops_off = e2e["ops_per_s"]
        ops_on = slice_ops / slice_s
        metrics = tr.per_layer(ops_off, ops_on)
        print(f"trace: slice {slice_ops} ops in {slice_s:.3f} s traced; "
              f"slowdown {ops_off / ops_on:.2f}x; wrappers left: "
              f"{len(leftover)}")
        for line in tr.span_lines():
            print(line)
        for name, unit, _, moves, on in tracing.PER_LAYER:
            print(f"layer {name} = {metrics[name]!r} {unit} "
                  f"[moves {moves} on {on}]")
        result = {name: {"value": metrics[name], "unit": unit}
                  for name, unit, *_ in tracing.PER_LAYER}
    else:
        result = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                  for name, value in e2e.items()}
    correct = not (run.errors or run.problems) and failed < attempted
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
