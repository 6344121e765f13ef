"""Span tracing for the traced benchmark run.

The tracer wraps seqstop's public functions from outside, at run time,
wherever a seqstop module binds them (``seq_mv.ci_mean``, ``sim.ci_mean``,
``fixed_ci.varphi``, ``StageSchedule.in_check_set``, the iterator that
``sim.generate`` returns, ...).  Each call records a span under its
parent span; spans are aggregated in memory by (parent, name) as call
count, total time and self time, where self time is the duration minus
the time covered by child spans.  Private helpers are not wrapped, so
their time is part of their caller's self time.  ``remove`` restores
every binding.
"""

import collections
import os
from time import perf_counter_ns
from typing import Dict, List, Optional, Tuple

# (module, function, result hook) for every span-wrapped function.
_SPANS = (
    ("sim", "coverage_chunk", None),
    ("rules", "run_to_stop", None),
    ("rules", "feed", None),
    ("rules", "stop_stage", "stop_stage"),
    ("kernels", "mb", None),
    ("kernels", "mg", None),
    ("kernels", "mp", None),
    ("kernels", "phi", None),
    ("kernels", "varphi", None),
    ("kernels", "psi", None),
    ("fixed_ci", "ci_mean", None),
    ("fixed_ci", "region_boundary", "region_boundary"),
    ("seq_mv", "run_mv", "run_mv"),
    ("cli", "main", "cli_main"),
)
# Scan predicates are counted, not timed: their time stays in ci_mean's
# self time.
_COUNTED = (("fixed_ci", "state_b_holds"), ("fixed_ci", "state_bu_holds"))

_TAG = "__perfbench_wrapper__"

# Per-layer metrics: (name, unit, better, moves, on).  "moves" and "on"
# are the predictions: the end-to-end metric a change to this layer
# should move and the workload where it should show.
PER_LAYER = (
    ("schedules.in_check_set.calls", "count", "lower", "obs_per_s ops_per_s",
     "long_stream (no change on short_stream)"),
    ("schedules.in_check_set.self_s", "s", "lower", "obs_per_s ops_per_s",
     "long_stream (no change on short_stream)"),
    ("schedules.in_check_set.hit_ratio", "ratio", "higher",
     "obs_per_s ops_per_s", "long_stream (no change on short_stream)"),
    ("sim.draws", "count", "lower", "obs_per_s",
     "long_stream short_stream; small on multistage"),
    ("sim.draw_s", "s", "lower", "obs_per_s",
     "long_stream short_stream; small on multistage"),
    ("sim.ns_per_draw", "ns", "lower", "obs_per_s",
     "long_stream short_stream; small on multistage"),
    ("sim.coverage_chunk.calls", "count", "lower", "obs_per_s",
     "long_stream short_stream; small on multistage"),
    ("sim.coverage_chunk.self_s", "s", "lower", "obs_per_s",
     "long_stream short_stream; small on multistage"),
    ("rules.feed.calls", "count", "lower", "obs_per_s",
     "long_stream short_stream"),
    ("rules.feed.self_s", "s", "lower", "obs_per_s",
     "long_stream short_stream"),
    ("rules.run_to_stop.calls", "count", "lower", "obs_per_s",
     "long_stream short_stream"),
    ("rules.run_to_stop.self_s", "s", "lower", "obs_per_s",
     "long_stream short_stream"),
    ("rules.stop_stage.calls", "count", "lower", "ops_per_s", "short_stream"),
    ("rules.stop_stage.self_s", "s", "lower", "ops_per_s", "short_stream"),
    ("rules.stop_stage.hit_ratio", "ratio", "higher", "ops_per_s",
     "short_stream"),
    ("kernels.mb.calls", "count", "lower", "ops_per_s", "short_stream"),
    ("kernels.mb.self_s", "s", "lower", "ops_per_s", "short_stream"),
    ("kernels.mg.calls", "count", "lower", "ops_per_s", "short_stream"),
    ("kernels.mg.self_s", "s", "lower", "ops_per_s", "short_stream"),
    ("kernels.mp.calls", "count", "lower", "ops_per_s", "short_stream"),
    ("kernels.mp.self_s", "s", "lower", "ops_per_s", "short_stream"),
    ("fixed_ci.ci_mean.calls", "count", "lower", "ops_per_s op_p50_ms",
     "multistage; small on interval_requests"),
    ("fixed_ci.ci_mean.self_s", "s", "lower", "ops_per_s op_p50_ms",
     "multistage; small on interval_requests"),
    ("fixed_ci.scan_predicates_per_ci", "count", "lower",
     "ops_per_s op_p50_ms", "multistage; small on interval_requests"),
    ("fixed_ci.scan_accept_ratio", "ratio", "higher", "ops_per_s op_p50_ms",
     "multistage; small on interval_requests"),
    ("kernels.phi.calls", "count", "lower", "ops_per_s op_p50_ms",
     "multistage; small on interval_requests"),
    ("kernels.phi.self_s", "s", "lower", "ops_per_s op_p50_ms",
     "multistage; small on interval_requests"),
    ("kernels.varphi.calls", "count", "lower", "ops_per_s op_p50_ms",
     "multistage; small on interval_requests"),
    ("kernels.varphi.self_s", "s", "lower", "ops_per_s op_p50_ms",
     "multistage; small on interval_requests"),
    ("kernels.psi.calls", "count", "lower", "ops_per_s op_p50_ms",
     "multistage; small on interval_requests"),
    ("kernels.psi.self_s", "s", "lower", "ops_per_s op_p50_ms",
     "multistage; small on interval_requests"),
    ("seq_mv.run_mv.calls", "count", "lower",
     "mean_n uncertified_rate ops_per_s", "multistage"),
    ("seq_mv.run_mv.self_s", "s", "lower",
     "mean_n uncertified_rate ops_per_s", "multistage"),
    ("seq_mv.checks_per_run", "count", "lower",
     "mean_n uncertified_rate ops_per_s", "multistage"),
    ("seq_mv.early_stop_ratio", "ratio", "higher",
     "mean_n uncertified_rate ops_per_s", "multistage"),
    ("fixed_ci.region_boundary.calls", "count", "lower",
     "op_tail_ms op_p50_ms", "interval_requests"),
    ("fixed_ci.region_boundary.self_s", "s", "lower",
     "op_tail_ms op_p50_ms", "interval_requests"),
    ("fixed_ci.region_points", "count", "higher", "op_tail_ms op_p50_ms",
     "interval_requests"),
    ("cli.main.calls", "count", "lower", "op_tail_ms obs_per_s",
     "interval_requests"),
    ("cli.self_s", "s", "lower", "op_tail_ms obs_per_s",
     "interval_requests"),
    ("cli.input_bytes", "bytes", "lower", "op_tail_ms obs_per_s",
     "interval_requests"),
    ("cli.nonzero_exits", "count", "lower", "error_rate",
     "interval_requests"),
    ("trace.ops_per_s_off", "1/s", "higher", "ops_per_s", "every workload"),
    ("trace.ops_per_s_on", "1/s", "higher", "ops_per_s", "every workload"),
)


class _Frame:
    __slots__ = ("name", "child_ns")

    def __init__(self, name: str) -> None:
        self.name = name
        self.child_ns = 0


class Tracer:
    """Records aggregated spans; install() patches, remove() restores."""

    def __init__(self) -> None:
        # (parent name or None, name) -> [calls, total_ns, self_ns]
        self.spans: Dict[Tuple[Optional[str], str], List[int]] = {}
        self.counts: collections.Counter = collections.Counter()
        self._stack: List[_Frame] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- span recording ------------------------------------------------------

    def _close(self, frame: _Frame, dt: int) -> None:
        stack = self._stack
        stack.pop()
        parent = None
        if stack:
            stack[-1].child_ns += dt
            parent = stack[-1].name
        rec = self.spans.get((parent, frame.name))
        if rec is None:
            rec = self.spans[(parent, frame.name)] = [0, 0, 0]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - frame.child_ns

    def _span(self, name: str, fn, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = _Frame(name)
            tracer._stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, perf_counter_ns() - t0)
            if hook is not None:
                hook(tracer.counts, result, args)
            return result

        setattr(wrapper, _TAG, True)
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += 1
            counts[name + ".true"] += bool(result)
            return result

        setattr(wrapper, _TAG, True)
        return wrapper

    def _stream(self, fn):
        tracer = self

        class TracedStream:
            def __init__(self, it) -> None:
                self._it = it

            def __iter__(self):
                return self

            def __next__(self):
                frame = _Frame("sim.draw")
                tracer._stack.append(frame)
                t0 = perf_counter_ns()
                try:
                    x = next(self._it)
                except BaseException:
                    # an exhausted stream is no draw; its time stays
                    # with the caller
                    tracer._stack.pop()
                    raise
                tracer._close(frame, perf_counter_ns() - t0)
                return x

        def wrapper(*args, **kwargs):
            return TracedStream(fn(*args, **kwargs))

        setattr(wrapper, _TAG, True)
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self, program) -> None:
        modules = _modules(program)

        def everywhere(original, wrapper) -> None:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

        for mod_name, fn_name, hook in _SPANS:
            original = getattr(getattr(program, mod_name), fn_name)
            everywhere(original, self._span(f"{mod_name}.{fn_name}",
                                            original, _HOOKS.get(hook)))
        for mod_name, fn_name in _COUNTED:
            original = getattr(getattr(program, mod_name), fn_name)
            everywhere(original, self._counted("fixed_ci.scan_predicates",
                                               original))
        everywhere(program.sim.generate, self._stream(program.sim.generate))
        cls = program.schedules.StageSchedule
        original = vars(cls)["in_check_set"]
        self._patches.append((cls, "in_check_set", original))
        cls.in_check_set = self._span("schedules.in_check_set", original,
                                      _HOOKS["in_check_set"])

    def remove(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- derived metrics -----------------------------------------------------

    def calls(self, name: str, parent: Optional[str] = "*") -> int:
        return sum(rec[0] for (p, n), rec in self.spans.items()
                   if n == name and (parent == "*" or p == parent))

    def self_s(self, name: str) -> float:
        return sum(rec[2] for (_, n), rec in self.spans.items()
                   if n == name) / 1e9

    def per_layer(self, ops_off: float, ops_on: float) -> Dict[str, float]:
        c = self.counts
        out: Dict[str, float] = {}
        for name in ("schedules.in_check_set", "sim.coverage_chunk",
                     "rules.feed", "rules.run_to_stop", "rules.stop_stage",
                     "kernels.mb", "kernels.mg", "kernels.mp", "kernels.phi",
                     "kernels.varphi", "kernels.psi", "fixed_ci.ci_mean",
                     "seq_mv.run_mv", "fixed_ci.region_boundary",
                     "cli.main"):
            out[name + ".calls"] = self.calls(name)
            out[name + ".self_s"] = self.self_s(name)
        out["schedules.in_check_set.hit_ratio"] = _ratio(
            c["in_check_set.hits"], out["schedules.in_check_set.calls"])
        out["rules.stop_stage.hit_ratio"] = _ratio(
            c["stop_stage.hits"], out["rules.stop_stage.calls"])
        out["sim.draws"] = self.calls("sim.draw")
        out["sim.draw_s"] = self.self_s("sim.draw")
        out["sim.ns_per_draw"] = _ratio(out["sim.draw_s"] * 1e9,
                                        out["sim.draws"])
        out["fixed_ci.scan_predicates_per_ci"] = _ratio(
            c["fixed_ci.scan_predicates"], out["fixed_ci.ci_mean.calls"])
        out["fixed_ci.scan_accept_ratio"] = _ratio(
            c["fixed_ci.scan_predicates.true"], c["fixed_ci.scan_predicates"])
        out["seq_mv.checks_per_run"] = _ratio(
            self.calls("fixed_ci.ci_mean", parent="seq_mv.run_mv"),
            out["seq_mv.run_mv.calls"])
        out["seq_mv.early_stop_ratio"] = _ratio(
            c["run_mv.early_stops"], out["seq_mv.run_mv.calls"])
        out["fixed_ci.region_points"] = _ratio(
            c["region_boundary.points"], c["region_boundary.returns"])
        out["cli.self_s"] = out.pop("cli.main.self_s")
        out["cli.input_bytes"] = c["cli.input_bytes"]
        out["cli.nonzero_exits"] = c["cli.nonzero_exits"]
        out["trace.ops_per_s_off"] = ops_off
        out["trace.ops_per_s_on"] = ops_on
        return {name: out[name] for name, *_ in PER_LAYER}

    def span_lines(self) -> List[str]:
        rows = sorted(self.spans.items(), key=lambda kv: -kv[1][2])
        return [f"span {p or '-'} > {n}: calls={rec[0]} "
                f"total_s={rec[1] / 1e9:.6f} self_s={rec[2] / 1e9:.6f}"
                for (p, n), rec in rows]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _modules(program) -> list:
    return [program.package, program.cli, program.fixed_ci, program.kernels,
            program.rules, program.schedules, program.seq_mv, program.sim]


def leftover_wrappers(program) -> List[str]:
    """Names still bound to a tracer wrapper; empty after remove()."""
    found = [f"{mod.__name__}.{attr}" for mod in _modules(program)
             for attr, value in vars(mod).items() if hasattr(value, _TAG)]
    cls = program.schedules.StageSchedule
    found += [f"StageSchedule.{attr}" for attr, value in vars(cls).items()
              if hasattr(value, _TAG)]
    return found


def _hook_in_check_set(counts, result, args) -> None:
    counts["in_check_set.hits"] += bool(result)


def _hook_stop_stage(counts, result, args) -> None:
    counts["stop_stage.hits"] += result is not None


def _hook_run_mv(counts, result, args) -> None:
    plan = args[1]
    counts["run_mv.early_stops"] += (result.status == "stopped"
                                     and result.n < plan.sizes[-1])


def _hook_region(counts, result, args) -> None:
    counts["region_boundary.returns"] += 1
    counts["region_boundary.points"] += len(result.points)


def _hook_cli_main(counts, result, args) -> None:
    counts["cli.nonzero_exits"] += result != 0
    argv = args[0]
    if "--input" in argv:
        path = argv[argv.index("--input") + 1]
        if path != "-":
            counts["cli.input_bytes"] += os.path.getsize(path)


_HOOKS = {
    "in_check_set": _hook_in_check_set,
    "stop_stage": _hook_stop_stage,
    "run_mv": _hook_run_mv,
    "region_boundary": _hook_region,
    "cli_main": _hook_cli_main,
}
