"""Command-line front end: schedule planning, streaming estimation,
coverage simulation, fixed-sample intervals, and region extraction.

Exit codes: 0 success, 2 usage or parameter error, 3 data error
(malformed or exhausted input stream).
"""

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional

from . import schedules, sim
from .fixed_ci import SampleSummary, ci_mean, region_boundary
from .rules import RULES, EstimationGoal, run_to_stop
from .schedules import StageSchedule
from .seq_mv import plan_mv, run_mv

USAGE_ERROR = 2
DATA_ERROR = 3


def _round_sig(x: float, digits: int = 12) -> float:
    if x == 0.0 or not math.isfinite(x):
        return x
    return float(f"{x:.{digits}g}")


def _json_12sig(text: str) -> str:
    """Re-serialize a JSON document with floats at 12 significant digits."""

    def walk(obj):
        if isinstance(obj, float):
            return _round_sig(obj)
        if isinstance(obj, list):
            return [walk(v) for v in obj]
        if isinstance(obj, dict):
            return {k: walk(v) for k, v in obj.items()}
        return obj

    return json.dumps(walk(json.loads(text)))


def _read_stream(path: str) -> List[float]:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return [float(token) for token in text.split()]


def _build_schedule(args, rule: str) -> StageSchedule:
    """The --schedule file if given, else the rule's default planner."""
    if args.schedule:
        with open(args.schedule, "r", encoding="utf-8") as fh:
            return StageSchedule.from_json(fh.read())
    if rule in ("A", "B"):
        return schedules.plan_bounded_abs(args.epsilon, args.delta,
                                          args.stages, rule)
    if rule == "D":
        return schedules.plan_geometric_mean(args.epsilon, args.delta,
                                             args.stages)
    return schedules.plan_unbounded(args.delta, args.m1, ratio=args.ratio,
                                    decay=args.decay, epsilon=args.epsilon,
                                    rule=rule, cap=args.cap)


def _cmd_plan(args) -> int:
    sched = _build_schedule(args, args.rule)
    print(_json_12sig(sched.to_json()))
    return 0


def _cmd_run(args) -> int:
    goal = RULES[args.rule].goal(args.epsilon, args.delta)
    sched = _build_schedule(args, args.rule)
    try:
        stream = _read_stream(args.input)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read stream: {exc}", file=sys.stderr)
        return DATA_ERROR
    try:
        decision = run_to_stop(iter(stream), args.rule, sched, goal)
    except ValueError as exc:
        print(f"error: bad observation: {exc}", file=sys.stderr)
        return DATA_ERROR
    print(_json_12sig(decision.to_json()))
    return DATA_ERROR if decision.status == "stream-exhausted" else 0


def _build_spec(args) -> sim.DistributionSpec:
    params = {}
    if args.dist == "bernoulli":
        params = {"p": args.p}
    elif args.dist == "scaled-beta":
        params = {"alpha": args.alpha, "beta": args.beta}
    elif args.dist == "discrete":
        params = {"support": [float(v) for v in args.support.split(",")],
                  "probs": [float(v) for v in args.probs.split(",")]}
    elif args.dist == "geometric":
        params = {"theta": args.theta}
    else:
        params = {"lam": args.lam}
    return sim.DistributionSpec(kind=args.dist, params=params, seed=args.seed)


def _cmd_simulate(args) -> int:
    spec = _build_spec(args)
    goal = None
    sched = None
    plan = None
    fixed_n = None
    if args.reps < 0:
        print("error: --reps must be nonnegative", file=sys.stderr)
        return USAGE_ERROR
    if args.procedure == "mv":
        plan = plan_mv(args.epsilon, args.delta, args.stages)
    elif args.procedure == "ci":
        goal = EstimationGoal("bounded", "abs", args.epsilon, args.delta)
        fixed_n = args.fixed_n
        if fixed_n is None or fixed_n < 1:
            print("error: procedure ci needs a positive --fixed-n",
                  file=sys.stderr)
            return USAGE_ERROR
    else:
        goal = RULES[args.procedure].goal(args.epsilon, args.delta)
        sched = _build_schedule(args, args.procedure)
    workers = args.workers or os.cpu_count() or 1
    reps = args.reps
    if workers <= 1 or reps < 2 * workers:
        chunks = [sim.coverage_chunk(args.procedure, spec, goal, sched, reps,
                                     0, fixed_n, plan)]
    else:
        base = reps // workers
        sizes = [base + (1 if i < reps % workers else 0)
                 for i in range(workers)]
        offsets = [sum(sizes[:i]) for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(sim.coverage_chunk, args.procedure, spec,
                            goal, sched, size, off, fixed_n, plan)
                for size, off in zip(sizes, offsets) if size > 0]
            chunks = [f.result() for f in futures]
    report = sim.report_from_chunks(args.procedure, spec, reps, chunks)
    print(_json_12sig(report.to_json()))
    return 0


def _summary_from_values(values: List[float]) -> SampleSummary:
    if not values:
        raise ValueError("empty stream")
    if any(not 0.0 <= v <= 1.0 for v in values):
        raise ValueError("observations must lie in [0, 1]")
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return SampleSummary(n=n, mean=mean, var=min(var, 0.25))


def _cmd_ci(args) -> int:
    try:
        summary = _summary_from_values(_read_stream(args.input))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    interval = ci_mean(summary, args.delta)
    print(_json_12sig(interval.to_json()))
    return 0


def _cmd_region(args) -> int:
    try:
        summary = _summary_from_values(_read_stream(args.input))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    region = region_boundary(summary, args.delta, resolution=args.resolution)
    if args.format == "json":
        doc = {"n": region.n, "mean": region.mean, "var": region.var,
               "delta": region.delta, "threshold": region.threshold,
               "points": [{"curve": c, "nu": nu, "vartheta": th}
                          for c, nu, th in region.points]}
        print(_json_12sig(json.dumps(doc)))
    else:
        sys.stdout.write(region.to_csv())
    return 0


def _add_goal_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.05)


def _add_schedule_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--stages", type=int, default=5,
                   help="number of stages for finite schedules")
    p.add_argument("--schedule", help="JSON schedule file overriding flags")
    p.add_argument("--m1", type=int, default=50,
                   help="first stage size for unbounded schedules")
    p.add_argument("--ratio", type=float, default=2.0)
    p.add_argument("--decay", type=float, default=0.5)
    p.add_argument("--cap", type=int, default=schedules.DEFAULT_CAP)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqstop",
        description="Sequential estimation with divergence-kernel "
                    "stopping rules and Hoeffding confidence sets.")
    parser.add_argument("--config", help="JSON file with default flag values")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="emit a stage schedule as JSON")
    p.add_argument("--rule", choices=list(RULES), default="A")
    _add_goal_flags(p)
    _add_schedule_flags(p)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("run", help="run a stopping rule over a stream")
    p.add_argument("--rule", choices=list(RULES), default="A")
    _add_goal_flags(p)
    _add_schedule_flags(p)
    p.add_argument("--input", default="-", help="stream path or - for stdin")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("simulate", help="Monte Carlo coverage experiment")
    _add_goal_flags(p)
    _add_schedule_flags(p)
    p.add_argument("--procedure", default="A",
                   choices=list(RULES) + ["mv", "ci"],
                   help="a rule letter, mv or ci")
    p.add_argument("--dist", default="bernoulli",
                   choices=["bernoulli", "scaled-beta", "discrete",
                            "geometric", "poisson"])
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--beta", type=float, default=5.0)
    p.add_argument("--theta", type=float, default=5.0)
    p.add_argument("--lam", type=float, default=4.0)
    p.add_argument("--support", default="0,1")
    p.add_argument("--probs", default="0.5,0.5")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--fixed-n", dest="fixed_n", type=int)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("ci", help="fixed-sample confidence interval")
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--input", default="-")
    p.set_defaults(func=_cmd_ci)

    p = sub.add_parser("region", help="joint mean/variance region boundary")
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--input", default="-")
    p.add_argument("--resolution", type=int, default=200)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_region)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # a config file supplies defaults; explicit flags still win because
    # they are parsed after the defaults are installed
    config_path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            config_path = argv[i + 1]
        elif tok.startswith("--config="):
            config_path = tok.split("=", 1)[1]
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                defaults = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"error: bad config file: {exc}", file=sys.stderr)
            return USAGE_ERROR
        for sp in parser._subparsers._group_actions[0].choices.values():
            sp.set_defaults(**{k: v for k, v in defaults.items()})
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
