"""Workload definitions for the seqstop benchmark.

A workload is a list of configurations visited round robin.  One
operation is one replication (``sim.coverage_chunk`` with ``reps=1``) in
the simulation workloads and one ``cli.main`` request in
``interval_requests``.  Every input is derived from the run's seed; the
program only sees the generated specs, plans and data files.

Nothing here imports seqstop at module level, so that the set-up probe
can time the import itself.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import types
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

SIM_WORKLOADS = ("long_stream", "short_stream", "multistage")
NAMES = SIM_WORKLOADS + ("interval_requests",)

# Tail percentile reported as op_tail_ms, fixed per workload so that two
# commits compare the same percentile.  Each leaves far more than ten
# samples beyond it in a 20 s run on 2 shared cores.  The highest such
# percentile was not usable: over two sets of 10 seeds, p99 and p99.9 of
# short_stream and p95 and p99 of multistage spread by 20-40 %
# (IQR/median) in one set, because there they track hiccups of the shared
# machine rather than the program.  These spread by at most 7 % in both.
TAIL_PERCENTILE = {
    "long_stream": 75.0,
    "short_stream": 95.0,
    "multistage": 90.0,
    "interval_requests": 95.0,
}

INTERVAL_SIZES = (100, 1_000, 10_000, 100_000)
INTERVAL_FAMILIES = ("beta", "bernoulli")
INTERVAL_VARIANTS = 16

# Rounds of the fixed check slice (for interval_requests: every data file
# once per command).  The slice
# gives the decision digest, the quality metrics (mean_n, coverage,
# uncertified_rate), the 2-process comparison and, in a traced run, the
# per-layer counts; it does not depend on how fast the program is.
SLICE_ROUNDS = {
    "long_stream": 2,
    "short_stream": 100,
    "multistage": 60,
    "interval_requests": INTERVAL_VARIANTS,
}

UNCERTIFIED = ("cap-reached", "no-inclusion", "stream-exhausted")

REGION_CURVES = {"C1", "C2", "C3", "D1", "D2", "D3"}

# Outcomes of one operation.  KNOWN_DEFECT is the reproducible exit 2 of
# `seqstop ci` and `seqstop region` on valid data when brentq or the scan
# probes nu within rounding of the mean; it is reported on its own (with
# the input's n, mean and var) rather than as a failed operation, so that
# the result's `failed` counts only unexpected failures.
OK, KNOWN_DEFECT, FAILED = "ok", "known-defect", "failed"
KNOWN_DEFECT_STDERR = re.compile(r"error: z must lie in \[0, nu\), got \S+")


def import_program() -> types.SimpleNamespace:
    """Import the seqstop modules the benchmark drives."""
    import seqstop
    from seqstop import cli, fixed_ci, kernels, rules, schedules, seq_mv, sim
    return types.SimpleNamespace(package=seqstop, cli=cli, fixed_ci=fixed_ci,
                                 kernels=kernels, rules=rules,
                                 schedules=schedules, seq_mv=seq_mv, sim=sim)


def derive_seed(*parts) -> int:
    text = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "little") >> 1


class CheckFailed(Exception):
    """An operation's output violated its check."""


@dataclass
class SimConfig:
    label: str
    procedure: str
    spec: object
    kwargs: Dict[str, object]


@dataclass
class IntervalFile:
    family: str
    n: int
    variant: int
    params: Dict[str, float]
    path: str

    @property
    def true_mean(self) -> float:
        if self.family == "beta":
            return self.params["a"] / (self.params["a"] + self.params["b"])
        return self.params["p"]


@dataclass
class IntervalKind:
    label: str
    command: str
    files: List[IntervalFile]


@dataclass
class Workload:
    name: str
    seed: int
    program: types.SimpleNamespace
    configs: list
    slice_rounds: int
    tail_percentile: float
    failures: List[str] = field(default_factory=list)  # nonzero exits
    defects: List[str] = field(default_factory=list)  # KNOWN_DEFECT exits

    @property
    def is_sim(self) -> bool:
        return self.name in SIM_WORKLOADS

    def op(self, index: int, rep: int) -> Tuple[tuple, int, str]:
        """Run one operation; returns (record, observations, outcome).

        outcome is KNOWN_DEFECT for the known exit 2 on valid input and
        FAILED for any other nonzero exit; a violated output check raises
        CheckFailed.
        """
        if self.is_sim:
            cfg = self.configs[index]
            chunk = self.program.sim.coverage_chunk(
                cfg.procedure, cfg.spec, reps=1, rep_offset=rep, **cfg.kwargs)
            return (chunk[0], chunk[1], chunk[2], tuple(chunk[3])), \
                chunk[3][0], OK
        return self._request(self.configs[index], rep)

    # -- interval requests ------------------------------------------------

    def _request(self, kind: IntervalKind,
                 rep: int) -> Tuple[tuple, int, str]:
        f = kind.files[rep % len(kind.files)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.program.cli.main([kind.command, "--input", f.path])
        text = out.getvalue()
        if code != 0:
            mean, var = _file_summary(f.path)
            message = err.getvalue().strip()
            outcome = KNOWN_DEFECT if code == 2 and \
                KNOWN_DEFECT_STDERR.fullmatch(message) else FAILED
            log = self.defects if outcome == KNOWN_DEFECT else self.failures
            log.append(f"{kind.command} exit {code} on valid input "
                       f"{f.family} n={f.n} mean={mean!r} var={var!r}: "
                       f"{message}")
            return (kind.label, f.variant, code), f.n, outcome
        if kind.command == "ci":
            problem, record = _check_ci(text, f)
        else:
            problem, record = _check_region(text)
        if problem:
            raise CheckFailed(f"{kind.command} output on {f.family} "
                              f"n={f.n}: {problem}")
        return (kind.label, f.variant, code) + record, f.n, OK


def _check_ci(text: str, f: IntervalFile) -> Tuple[Optional[str], tuple]:
    try:
        doc = json.loads(text)
        lo, mean, hi, n = doc["L"], doc["mean"], doc["U"], doc["n"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparseable ci output: {exc}", ()
    if n != f.n:
        return f"n={n}, file has {f.n}", ()
    if not 0.0 <= lo <= mean <= hi <= 1.0:
        return f"violates 0 <= L <= mean <= U <= 1: {doc}", ()
    return None, (n, lo, hi, lo <= f.true_mean <= hi)


def _check_region(text: str) -> Tuple[Optional[str], tuple]:
    lines = text.splitlines()
    if not lines or lines[0] != "curve,nu,vartheta":
        return "missing region CSV header", ()
    for line in lines[1:]:
        parts = line.split(",")
        try:
            nu, th = float(parts[1]), float(parts[2])
        except (IndexError, ValueError):
            return f"unparseable region row {line!r}", ()
        if len(parts) != 3 or parts[0] not in REGION_CURVES or \
                not 0.0 < nu < 1.0 or not 0.0 < th <= 0.25 + 1e-12:
            return f"invalid region row {line!r}", ()
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    return None, (len(lines) - 1, digest)


def _file_summary(path: str) -> Tuple[float, float]:
    with open(path, "r", encoding="utf-8") as fh:
        values = [float(v) for v in fh.read().split()]
    mean = math.fsum(values) / len(values)
    return mean, math.fsum((v - mean) ** 2 for v in values) / len(values)


# -- workload construction ---------------------------------------------------

def _bernoulli(program, p: float, seed: int):
    return program.sim.DistributionSpec("bernoulli", {"p": p}, seed=seed)


def _long_stream(program, seed: int) -> List[SimConfig]:
    # p = 0.04, 0.1, 0.2 stop at the single checkpoints 409600, 102400 and
    # 51200; at p = 0.05 the stop straddles 204800 and 409600 about 50/50,
    # which would make per-run throughput depend on the seed.
    sch, rules = program.schedules, program.rules
    goal = rules.EstimationGoal("bounded", "rel", 0.05, 0.05)
    schedule = sch.plan_unbounded(0.05, 50, epsilon=0.05, rule="C",
                                  cap=10 ** 6)
    return [SimConfig(f"C p={p}", "C",
                      _bernoulli(program, p, derive_seed("long", seed, i)),
                      {"goal": goal, "schedule": schedule})
            for i, p in enumerate((0.04, 0.1, 0.2))]


def _short_stream(program, seed: int) -> List[SimConfig]:
    sch, rules, sim = program.schedules, program.rules, program.sim
    goal_ab = rules.EstimationGoal("bounded", "abs", 0.1, 0.05)
    configs = []
    for rule in "AB":
        schedule = sch.plan_bounded_abs(0.1, 0.05, 5, rule)
        for p in (0.1, 0.3, 0.5):
            s = derive_seed("short", seed, len(configs))
            configs.append(SimConfig(f"{rule} p={p}", rule,
                                     _bernoulli(program, p, s),
                                     {"goal": goal_ab, "schedule": schedule}))
    rest = [
        ("D", "geometric", {"theta": 5.0},
         rules.EstimationGoal("geometric", "rel", 0.2, 0.05),
         sch.plan_geometric_mean(0.2, 0.05, 5)),
        ("E", "poisson", {"lam": 4.0},
         rules.EstimationGoal("poisson", "abs", 0.5, 0.05),
         sch.plan_unbounded(0.05, 50, rule="E", epsilon=0.5, cap=10 ** 6)),
        ("F", "poisson", {"lam": 4.0},
         rules.EstimationGoal("poisson", "rel", 0.2, 0.05),
         sch.plan_unbounded(0.05, 50, rule="F", epsilon=0.2, cap=10 ** 6)),
    ]
    for rule, kind, params, goal, schedule in rest:
        spec = sim.DistributionSpec(kind, params, seed=derive_seed(
            "short", seed, len(configs)))
        configs.append(SimConfig(f"{rule} {kind}", rule, spec,
                                 {"goal": goal, "schedule": schedule}))
    return configs


def _multistage(program, seed: int) -> List[SimConfig]:
    sim = program.sim
    plan = program.seq_mv.plan_mv(0.1, 0.05, 5)
    configs = [SimConfig(f"mv p={p}", "mv",
                         _bernoulli(program, p, derive_seed("mv", seed, i)),
                         {"plan": plan})
               for i, p in enumerate((0.05, 0.2, 0.5))]
    spec = sim.DistributionSpec("scaled-beta", {"alpha": 2, "beta": 5},
                                seed=derive_seed("mv", seed, 3))
    goal = program.rules.EstimationGoal("bounded", "abs", 0.1, 0.05)
    configs.append(SimConfig("ci scaled-beta(2,5)", "ci", spec,
                             {"goal": goal, "fixed_n": 100}))
    return configs


def interval_files(seed: int, workdir: str) -> List[IntervalFile]:
    """Data files of interval_requests, with parameters drawn from the seed.

    The draws are stratified (one per stratum, Latin-hypercube style for
    the two Beta shapes), so that per-request cost, which depends on the
    data's mean and variance, averages out alike under every seed.
    """
    rnd = random.Random(derive_seed("interval", seed))

    def strata(lo: float, hi: float) -> List[float]:
        width = (hi - lo) / INTERVAL_VARIANTS
        values = [round(lo + (v + rnd.random()) * width, 6)
                  for v in range(INTERVAL_VARIANTS)]
        rnd.shuffle(values)
        return values

    files = []
    for family in INTERVAL_FAMILIES:
        for n in INTERVAL_SIZES:
            if family == "beta":
                draws = [{"a": a, "b": b} for a, b in
                         zip(strata(0.5, 5.0), strata(0.5, 5.0))]
            else:
                draws = [{"p": p} for p in strata(0.05, 0.95)]
            for v, params in enumerate(draws):
                path = os.path.join(workdir, f"{family}_{n}_{v}.txt")
                files.append(IntervalFile(family, n, v, params, path))
    return files


def write_interval_data(seed: int, workdir: str) -> int:
    """Write every interval_requests data file; returns bytes written."""
    import numpy as np
    total = 0
    for f in interval_files(seed, workdir):
        rng = np.random.default_rng(derive_seed("data", seed, f.family, f.n,
                                                f.variant))
        with open(f.path, "w", encoding="utf-8") as fh:
            for start in range(0, f.n, 10_000):
                size = min(10_000, f.n - start)
                if f.family == "beta":
                    block = rng.beta(f.params["a"], f.params["b"], size)
                    text = "\n".join(map(repr, block.tolist()))
                else:
                    block = rng.random(size) < f.params["p"]
                    text = "\n".join("1" if x else "0" for x in block.tolist())
                fh.write(text + "\n")
        total += os.path.getsize(f.path)
    return total


def _interval_requests(seed: int, workdir: str) -> List[IntervalKind]:
    files = interval_files(seed, workdir)
    kinds = []
    for n in INTERVAL_SIZES:
        for family in INTERVAL_FAMILIES:
            group = [f for f in files if f.family == family and f.n == n]
            for command in ("ci", "region"):
                kinds.append(IntervalKind(f"{command} {family} n={n}",
                                          command, group))
    return kinds


def build(name: str, seed: int, program, workdir: str) -> Workload:
    """Build the workload's plans, schedules and specs, or its requests."""
    if name == "long_stream":
        configs = _long_stream(program, seed)
    elif name == "short_stream":
        configs = _short_stream(program, seed)
    elif name == "multistage":
        configs = _multistage(program, seed)
    elif name == "interval_requests":
        configs = _interval_requests(seed, workdir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, seed, program, configs, SLICE_ROUNDS[name],
                    TAIL_PERCENTILE[name])


# -- decision capture for the digest ----------------------------------------

@contextlib.contextmanager
def capture_decisions(program):
    """Record each replication's decision tuple while coverage_chunk runs.

    Wraps the names ``sim`` binds for the engines; the tuple is
    (status, n, stage, estimate, L, U), with status "interval" for the
    fixed-sample procedure.
    """
    sim = program.sim
    decisions: List[tuple] = []
    saved = {name: getattr(sim, name)
             for name in ("run_to_stop", "run_mv", "ci_mean")}

    def engine(fn):
        def wrapper(*args, **kwargs):
            d = fn(*args, **kwargs)
            decisions.append((d.status, d.n, d.stage, d.estimate, d.lower,
                              d.upper))
            return d
        return wrapper

    def interval(*args, **kwargs):
        ci = saved["ci_mean"](*args, **kwargs)
        decisions.append(("interval", ci.n, None, ci.mean, ci.lower,
                          ci.upper))
        return ci

    sim.run_to_stop = engine(saved["run_to_stop"])
    sim.run_mv = engine(saved["run_mv"])
    sim.ci_mean = interval
    try:
        yield decisions
    finally:
        for name, fn in saved.items():
            setattr(sim, name, fn)


def decision_problem(cfg: SimConfig, d: tuple) -> Optional[str]:
    """Output check on one replication's decision tuple."""
    status, n, stage, est, lo, hi = d
    allowed = {"mv": ("stopped", "no-inclusion"), "ci": ("interval",)}
    if status not in allowed.get(cfg.procedure, ("stopped",) + UNCERTIFIED):
        return f"unexpected status {status}"
    if n < 1 or est is None or not math.isfinite(est):
        return f"bad n or estimate: {d}"
    if status == "stopped" and stage is None:
        return f"stopped without a stage: {d}"
    if lo is not None and not lo <= est <= hi:
        return f"estimate outside [L, U]: {d}"
    return None


def digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(_canonical(rec).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _canonical(rec) -> str:
    if isinstance(rec, float):
        return rec.hex()
    if isinstance(rec, (tuple, list)):
        return "(" + ",".join(_canonical(x) for x in rec) + ")"
    return repr(rec)
