"""Seeded stream generators and Monte Carlo coverage experiments.

The random generator is splitmix64: state advances by the 64-bit
constant 0x9E3779B97F4A7C15 and each output is the mix
``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
z *= 0x94D049BB133111EB; z ^= z >> 31`` of the new state.  Replication
r of an experiment with seed S uses stream seed S xor mix(r), so any
implementation of the same recipe reproduces the streams bit for bit.
"""

import json
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from .fixed_ci import ci_mean
from .rules import RULES, EstimationGoal, RunningSample, feed, run_to_stop
from .schedules import StageSchedule
from .seq_mv import MvPlan, run_mv

__all__ = [
    "Rng",
    "DistributionSpec",
    "generate",
    "CoverageReport",
    "coverage_chunk",
    "report_from_chunks",
    "coverage_experiment",
]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(x: int) -> int:
    z = x & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class Rng:
    """splitmix64 stream; see the module docstring for the exact recipe."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix(self._state)

    def uniform(self) -> float:
        """Uniform on [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)


_KINDS = ("bernoulli", "scaled-beta", "discrete", "geometric", "poisson")


@dataclass(frozen=True)
class DistributionSpec:
    kind: str
    params: Dict[str, object] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        p = self.params
        if not all(math.isfinite(v) for x in p.values()
                   for v in (x if isinstance(x, (list, tuple)) else [x])):
            raise ValueError("distribution parameters must be finite")
        if self.kind == "bernoulli":
            if not 0.0 <= p["p"] <= 1.0:
                raise ValueError("p must lie in [0, 1]")
        elif self.kind == "scaled-beta":
            if p["alpha"] <= 0.0 or p["beta"] <= 0.0:
                raise ValueError("shape parameters must be positive")
        elif self.kind == "discrete":
            support, probs = p["support"], p["probs"]
            if len(support) != len(probs):
                raise ValueError("support and probs must have equal length")
            if any(not 0.0 <= x <= 1.0 for x in support):
                raise ValueError("support must lie in [0, 1]")
            if abs(sum(probs) - 1.0) > 1e-12:
                raise ValueError("probs must sum to 1")
        elif self.kind == "geometric":
            if p["theta"] <= 1.0:
                raise ValueError("mean theta must exceed 1")
        else:
            if p["lam"] <= 0.0:
                raise ValueError("lam must be positive")

    def true_value(self) -> float:
        """The parameter the estimation procedures target."""
        p = self.params
        if self.kind == "bernoulli":
            return float(p["p"])
        if self.kind == "scaled-beta":
            return p["alpha"] / (p["alpha"] + p["beta"])
        if self.kind == "discrete":
            return float(sum(x * q for x, q in zip(p["support"], p["probs"])))
        if self.kind == "geometric":
            return float(p["theta"])
        return float(p["lam"])


def _draw(rng: Rng, spec: DistributionSpec) -> float:
    p = spec.params
    if spec.kind == "bernoulli":
        return 1.0 if rng.uniform() < p["p"] else 0.0
    if spec.kind == "scaled-beta":
        a, b = p["alpha"], p["beta"]
        if a == int(a) and b == int(b) and a + b <= 64:
            # k-th order statistic of a+b-1 uniforms is Beta(k, a+b-k)
            k, total = int(a), int(a) + int(b) - 1
            us = sorted(rng.uniform() for _ in range(total))
            return us[k - 1]
        # Johnk's rejection method for non-integer shapes
        while True:
            x = rng.uniform() ** (1.0 / a)
            y = rng.uniform() ** (1.0 / b)
            if 0.0 < x + y <= 1.0:
                return x / (x + y)
    if spec.kind == "discrete":
        u = rng.uniform()
        acc = 0.0
        for x, q in zip(p["support"], p["probs"]):
            acc += q
            if u < acc:
                return float(x)
        return float(p["support"][-1])
    if spec.kind == "geometric":
        succ = 1.0 / p["theta"]
        u = 1.0 - rng.uniform()  # in (0, 1]
        return 1.0 + math.floor(math.log(u) / math.log1p(-succ))
    # poisson, product method
    lam = p["lam"]
    limit = math.exp(-lam)
    k, prod = 0, 1.0
    while True:
        prod *= rng.uniform()
        if prod <= limit:
            return float(k)
        k += 1


def generate(spec: DistributionSpec, count: int,
             replication: int = 0) -> Iterator[float]:
    """Lazy stream of count draws for the given replication index."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    rng = Rng(spec.seed ^ _mix(replication))
    for _ in range(count):
        yield _draw(rng, spec)


@dataclass(frozen=True)
class CoverageReport:
    procedure: str
    replications: int
    coverage: float
    mean_n: float
    n_quantiles: Dict[str, int]
    cap_hits: int
    no_inclusion: int
    seed: int
    spec_kind: str
    spec_params: Dict[str, object]

    def to_json(self) -> str:
        return json.dumps({
            "procedure": self.procedure,
            "replications": self.replications,
            "coverage": self.coverage,
            "mean_n": self.mean_n,
            "n_quantiles": self.n_quantiles,
            "cap_hits": self.cap_hits,
            "no_inclusion": self.no_inclusion,
            "seed": self.seed,
            "spec": {"kind": self.spec_kind, "params": self.spec_params},
        })


def _quantile(sorted_ns: List[int], q: float) -> int:
    idx = min(len(sorted_ns) - 1, max(0, math.ceil(q * len(sorted_ns)) - 1))
    return sorted_ns[idx]


def coverage_chunk(procedure: str, spec: DistributionSpec,
                   goal: Optional[EstimationGoal] = None,
                   schedule: Optional[StageSchedule] = None,
                   reps: int = 1000,
                   rep_offset: int = 0,
                   fixed_n: Optional[int] = None,
                   plan: Optional[MvPlan] = None
                   ) -> Tuple[int, int, int, List[int]]:
    """Raw tallies (covered, cap_hits, no_inclusion, stop sizes) over
    replications rep_offset .. rep_offset + reps - 1.  Replication
    indices fix the stream seeds, so splitting the range over workers
    changes nothing in the merged result."""
    truth = spec.true_value()
    covered = 0
    cap_hits = 0
    no_inclusion = 0
    ns: List[int] = []
    for r in range(rep_offset, rep_offset + reps):
        if procedure == "ci":
            state = RunningSample()
            for x in generate(spec, fixed_n, replication=r):
                feed(state, x, goal)
            interval = ci_mean(state.summary(), goal.delta)
            ns.append(fixed_n)
            if interval.lower <= truth <= interval.upper:
                covered += 1
            continue
        if procedure == "mv":
            decision = run_mv(generate(spec, plan.sizes[-1], replication=r),
                              plan)
            ns.append(decision.n)
            if decision.status == "no-inclusion":
                no_inclusion += 1
            if abs(decision.estimate - truth) < plan.epsilon:
                covered += 1
            continue
        count = schedule.cap if schedule.unbounded else schedule.stages[-1]
        decision = run_to_stop(generate(spec, count, replication=r),
                               procedure, schedule, goal)
        ns.append(decision.n)
        if decision.status == "cap-reached":
            cap_hits += 1
        elif decision.status == "stopped" and RULES[procedure].claim(
                decision.estimate, truth, goal.epsilon):
            covered += 1
    return covered, cap_hits, no_inclusion, ns


def report_from_chunks(procedure: str, spec: DistributionSpec, reps: int,
                       chunks: List[Tuple[int, int, int, List[int]]]
                       ) -> CoverageReport:
    covered = sum(c[0] for c in chunks)
    cap_hits = sum(c[1] for c in chunks)
    no_inclusion = sum(c[2] for c in chunks)
    ns: List[int] = []
    for c in chunks:
        ns.extend(c[3])
    ns.sort()
    return CoverageReport(
        procedure=procedure,
        replications=reps,
        coverage=covered / reps if reps else 0.0,
        mean_n=sum(ns) / len(ns) if ns else 0.0,
        n_quantiles={} if not ns else {
            "p50": _quantile(ns, 0.50),
            "p90": _quantile(ns, 0.90),
            "p99": _quantile(ns, 0.99),
        },
        cap_hits=cap_hits,
        no_inclusion=no_inclusion,
        seed=spec.seed,
        spec_kind=spec.kind,
        spec_params=dict(spec.params),
    )


def coverage_experiment(procedure: str, spec: DistributionSpec,
                        goal: Optional[EstimationGoal] = None,
                        schedule: Optional[StageSchedule] = None,
                        reps: int = 1000,
                        fixed_n: Optional[int] = None,
                        plan: Optional[MvPlan] = None) -> CoverageReport:
    """Monte Carlo estimate of the terminal-claim coverage.

    procedure is a rule letter A..F (needs goal + schedule), "mv"
    (needs plan), or "ci" (needs goal + fixed_n).  Cap hits and
    no-inclusion outcomes count as coverage failures.
    """
    chunk = coverage_chunk(procedure, spec, goal=goal, schedule=schedule,
                           reps=reps, fixed_n=fixed_n, plan=plan)
    return report_from_chunks(procedure, spec, reps, [chunk])
