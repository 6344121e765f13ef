"""Command-line front end: schedule planning, streaming estimation,
coverage simulation, fixed-sample intervals, and region extraction.

One lazy reader serves ``run``, ``ci`` and ``region``: ``run`` reads and
checks data only up to its decision; ``ci`` and ``region`` fold all of it
into a ``RunningSample``'s running sums, as every rule does.

Exit codes: 0 success, 2 usage or parameter error, 3 data error
(malformed or exhausted input stream).
"""

import argparse
import json
import math
import sys
from typing import Iterator, List, Optional

from . import schedules, sim
from .fixed_ci import SampleSummary, ci_mean, region_boundary
from .rules import (RULES, EstimationGoal, RunningSample, rule_for,
                    run_to_stop, source)
from .schedules import StageSchedule

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


def _observations(path: str) -> Iterator[float]:
    """The floats of path (- is stdin), read in blocks of whole lines and
    parsed one at a time, so a consumer that stops leaves the rest alone."""
    fh = sys.stdin if path == "-" else open(path, "r", encoding="utf-8")
    try:
        while lines := fh.readlines(1 << 16):
            yield from map(float, "".join(lines).split())
    finally:
        if fh is not sys.stdin:
            fh.close()


def _read_schedule(args, rule: str) -> StageSchedule:
    """The --schedule file, which must be planned for these flags."""
    path = args.schedule
    try:
        with open(path, "r", encoding="utf-8") as fh:
            sched = StageSchedule.from_json(fh.read())
        # plan writes floats at 12 significant digits
        for key, planned, flag in (
                ("rule", sched.rule, rule),
                ("epsilon", _round_sig(sched.epsilon),
                 _round_sig(args.epsilon)),
                ("delta", _round_sig(sched.delta), _round_sig(args.delta))):
            if planned != flag:
                raise ValueError(f"schedule file {path} has {key} "
                                 f"{planned!r} but the flags give {flag!r}")
    except KeyError as exc:
        raise ValueError(f"schedule file {path} lacks key {exc}") from None
    except (OSError, TypeError, AttributeError) as exc:
        raise ValueError(f"bad schedule file {path}: {exc}") from None
    return sched


def _build_schedule(args, rule: str) -> StageSchedule:
    """The --schedule file if given, else the rule's default planner."""
    if args.schedule:
        return _read_schedule(args, rule)
    return RULES[rule].plan(epsilon=args.epsilon, delta=args.delta,
                            stages=args.stages, m1=args.m1, ratio=args.ratio,
                            decay=args.decay, cap=args.cap)


def _cmd_plan(args) -> int:
    sched = _build_schedule(args, args.rule)
    print(_json_12sig(sched.to_json()))
    return 0


def _cmd_run(args) -> int:
    sched = _build_schedule(args, args.rule)
    rule_for(sched)  # a plan the rule cannot take is a usage error
    try:
        decision = run_to_stop(_observations(args.input), sched)
    except OSError as exc:
        print(f"error: cannot read stream: {exc}", file=sys.stderr)
        return DATA_ERROR
    except ValueError as exc:
        print(f"error: bad observation: {exc}", file=sys.stderr)
        return DATA_ERROR
    print(_json_12sig(decision.to_json()))
    return DATA_ERROR if decision.status == "stream-exhausted" else 0


# the flags that give each --dist its parameters
_DIST_FLAGS = {"bernoulli": ("p",), "scaled-beta": ("alpha", "beta"),
               "discrete": ("support", "probs"), "geometric": ("theta",),
               "poisson": ("lam",)}


def _build_spec(args) -> sim.DistributionSpec:
    params = {flag: getattr(args, flag) for flag in _DIST_FLAGS[args.dist]}
    if args.dist == "discrete":
        params = {k: [float(v) for v in text.split(",")]
                  for k, text in params.items()}
    return sim.DistributionSpec(kind=args.dist, params=params, seed=args.seed)


def _cmd_simulate(args) -> int:
    spec = _build_spec(args)
    if args.reps < 0:
        print("error: --reps must be nonnegative", file=sys.stderr)
        return USAGE_ERROR
    if args.procedure == "ci":
        if args.fixed_n is None or args.fixed_n < 1:
            print("error: procedure ci needs a positive --fixed-n",
                  file=sys.stderr)
            return USAGE_ERROR
        # the interval reads delta alone, so --epsilon goes unchecked: the
        # goal names the [0, 1] family, and 1/4 is a valid epsilon there
        goal = EstimationGoal("bounded", "abs", 0.25, args.delta)
        sched = None
    else:
        goal, sched = None, _build_schedule(args, args.procedure)
    report = sim.coverage_experiment(args.procedure, spec, goal, sched,
                                     args.reps, args.fixed_n, args.workers)
    print(_json_12sig(report.to_json()))
    return 0


def _summary(path: str) -> Optional[SampleSummary]:
    """The summary of the [0, 1] data at path, or None after saying why not."""
    state = RunningSample()
    try:
        source(_observations(path))(state, sys.maxsize, "bounded")
        if state.n == 0:
            raise ValueError("empty stream")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    return state.summary()


def _cmd_ci(args) -> int:
    summary = _summary(args.input)
    if summary is None:
        return DATA_ERROR
    interval = ci_mean(summary, args.delta)
    print(_json_12sig(interval.to_json()))
    return 0


def _cmd_region(args) -> int:
    summary = _summary(args.input)
    if summary is None:
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
                   choices=list(RULES) + ["ci"],
                   help="a RULES key (A-F or mv) or ci")
    p.add_argument("--dist", default="bernoulli",
                   choices=list(_DIST_FLAGS))
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
    try:
        args = parser.parse_args(argv)
        if args.config:
            # config values become the command's defaults, so explicit
            # flags still win; each passes its flag's type and choices
            # checks, given as its JSON text
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
            if not isinstance(config, dict):
                raise ValueError("not a JSON object")
            sp = parser._subparsers._group_actions[0].choices[args.command]
            for action in sp._actions:
                if action.dest in config:
                    value = config[action.dest]
                    text = value if isinstance(value, str) else \
                        json.dumps(value)
                    sp.set_defaults(
                        **{action.dest: sp._get_values(action, [text])})
            args = parser.parse_args(argv)
    except (OSError, ValueError, argparse.ArgumentError) as exc:
        print(f"error: bad config file: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
