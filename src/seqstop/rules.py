"""Streaming stopping-rule engines (rules A through F).

Each rule compares a divergence kernel of the running sample mean against
a per-stage threshold ln(b_l / 2) / m_l and stops at the first stage
where the inequality holds.  ``RULES`` maps each rule letter to its
target family, error kind, per-stage test and terminal claim.
"""

import json
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional

from . import kernels
from .fixed_ci import SampleSummary
from .schedules import STAGE_SCAN_FACTOR, StageSchedule

__all__ = [
    "EstimationGoal",
    "RunningSample",
    "StopDecision",
    "RuleSpec",
    "RULES",
    "feed",
    "stop_stage",
    "run_to_stop",
    "STAGE_SCAN_FACTOR",
]


@dataclass(frozen=True)
class EstimationGoal:
    """Target parameter, error kind and precision/confidence levels."""

    parameter: str  # "bounded" | "geometric" | "poisson"
    error: str      # "abs" | "rel"
    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        if self.parameter not in ("bounded", "geometric", "poisson"):
            raise ValueError(f"unknown parameter kind {self.parameter!r}")
        if self.error not in ("abs", "rel"):
            raise ValueError(f"unknown error kind {self.error!r}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if self.parameter == "bounded" and self.error == "abs" and self.epsilon >= 0.5:
            raise ValueError("absolute bounded-mean estimation needs epsilon < 1/2")
        if self.error == "rel" and self.epsilon >= 1.0:
            raise ValueError("relative error needs epsilon < 1")
        if self.parameter == "geometric" and self.epsilon >= 1.0:
            raise ValueError("geometric-mean estimation needs epsilon < 1")

    def validate_observation(self, x: float) -> None:
        if self.parameter == "bounded":
            if not 0.0 <= x <= 1.0:
                raise ValueError(f"observation {x!r} outside [0, 1]")
        elif self.parameter == "geometric":
            if not 1.0 <= x < math.inf or x != int(x):
                raise ValueError(f"observation {x!r} not a positive integer")
        else:
            if not 0.0 <= x < math.inf or x != int(x):
                raise ValueError(f"observation {x!r} not a nonnegative integer")


@dataclass
class RunningSample:
    """Streaming sufficient statistics: count, sum, sum of squares."""

    n: int = 0
    total: float = 0.0
    total_sq: float = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.n

    @property
    def var(self) -> float:
        """Population-style variance, clamped at 0 against rounding."""
        m = self.mean
        return max(0.0, self.total_sq / self.n - m * m)

    def summary(self) -> SampleSummary:
        """(n, mean, var) with var clamped at 1/4, the bound for [0, 1] data."""
        return SampleSummary(n=self.n, mean=self.mean,
                             var=min(self.var, 0.25))


def feed(state: RunningSample, x: float, goal: EstimationGoal) -> RunningSample:
    """Validate x against the goal's support and fold it into state."""
    goal.validate_observation(x)
    state.n += 1
    state.total += x
    state.total_sq += x * x
    return state


@dataclass(frozen=True)
class StopDecision:
    status: str  # stopped | continue | cap-reached | stream-exhausted | no-inclusion
    n: int
    stage: Optional[int]
    estimate: Optional[float]
    rule: str
    epsilon: float
    delta: float
    lower: Optional[float] = None
    upper: Optional[float] = None
    truncated: bool = field(default=False)

    def to_dict(self) -> dict:
        doc = {
            "status": self.status,
            "n": self.n,
            "stage": self.stage,
            "estimate": self.estimate,
            "rule": self.rule,
            "epsilon": self.epsilon,
            "delta": self.delta,
        }
        if self.lower is not None:
            doc["L"] = self.lower
        if self.upper is not None:
            doc["U"] = self.upper
        if self.truncated:
            doc["truncated"] = True
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


# -- per-stage conditions --------------------------------------------------

def _threshold(m: int, budget: float) -> float:
    return math.log(budget / 2.0) / m


def _cond_a(xbar: float, n: int, m: int, eps: float, thr: float) -> bool:
    base = 0.5 - abs(0.5 - xbar) + eps
    # n * eps / n may round above eps, which would put z below 0
    z = base - (eps if n >= m else n * eps / m)
    return kernels.mb(z, base) <= thr


def _cond_b(xbar: float, n: int, m: int, eps: float, delta: float, s: int) -> bool:
    nv = max(n, m)
    lhs = (abs(xbar - 0.5) - eps + n * eps / (3.0 * nv)) ** 2
    rhs = 0.25 - (n / nv) ** 2 * m * eps * eps / (2.0 * math.log(2.0 * s / delta))
    return lhs >= rhs


def _cond_c(xbar: float, n: int, m: int, eps: float, thr: float) -> bool:
    if xbar <= 0.0:
        return False
    theta = xbar / (1.0 + eps)
    z = theta * (1.0 + n * eps / max(n, m))
    return kernels.mb(z, theta) <= thr


def _cond_d(xbar: float, n: int, m: int, eps: float, thr: float) -> bool:
    # 1 + eps - eps may round below 1, which would put z below 1
    z = xbar if n >= m else (1.0 + eps - n * eps / m) * xbar
    return kernels.mg(z, (1.0 + eps) * xbar) <= thr


def _cond_e(xbar: float, n: int, m: int, eps: float, thr: float) -> bool:
    z = xbar + eps - n * eps / max(n, m)
    return kernels.mp(z, xbar + eps) <= thr


def _cond_f(xbar: float, n: int, m: int, eps: float, thr: float) -> bool:
    if xbar <= 0.0:
        return False
    theta = xbar / (1.0 + eps)
    z = theta * (1.0 + n * eps / max(n, m))
    return kernels.mp(z, theta) <= thr


def _abs_claim(estimate: float, truth: float, eps: float) -> bool:
    return abs(estimate - truth) < eps


def _rel_claim(estimate: float, truth: float, eps: float) -> bool:
    return abs(estimate - truth) < eps * truth


def _ratio_claim(estimate: float, truth: float, eps: float) -> bool:
    return (1.0 - eps) * estimate < truth < (1.0 + eps) * estimate


def _kernel_test(cond):
    """Per-stage test comparing a kernel against ln(b_l / 2) / m_l."""
    def test(xbar, n, m, budget, goal, schedule):
        return cond(xbar, n, m, goal.epsilon, _threshold(m, budget))
    return test


def _test_b(xbar, n, m, budget, goal, schedule):
    """Rule B's quadratic surrogate uses ln(2s/delta), not the threshold."""
    return _cond_b(xbar, n, m, goal.epsilon, goal.delta, schedule.s)


@dataclass(frozen=True)
class RuleSpec:
    """What a rule letter means: ``test(xbar, n, m_l, b_l, goal, schedule)``
    is its stage-l inequality and ``claim(estimate, truth, epsilon)`` the
    error claim a stopped run makes."""

    parameter: str
    error: str
    test: Callable[..., bool]
    claim: Callable[[float, float, float], bool]

    def goal(self, epsilon: float, delta: float) -> EstimationGoal:
        return EstimationGoal(self.parameter, self.error, epsilon, delta)


RULES: Mapping[str, RuleSpec] = MappingProxyType({
    "A": RuleSpec("bounded", "abs", _kernel_test(_cond_a), _abs_claim),
    "B": RuleSpec("bounded", "abs", _test_b, _abs_claim),
    "C": RuleSpec("bounded", "rel", _kernel_test(_cond_c), _rel_claim),
    "D": RuleSpec("geometric", "rel", _kernel_test(_cond_d), _ratio_claim),
    "E": RuleSpec("poisson", "abs", _kernel_test(_cond_e), _abs_claim),
    "F": RuleSpec("poisson", "rel", _kernel_test(_cond_f), _rel_claim),
})


def _rule_spec(rule: str, goal: EstimationGoal) -> RuleSpec:
    """The rule's spec, after checking that the goal is of its family."""
    spec = RULES.get(rule)
    if spec is None or (spec.parameter, spec.error) != (goal.parameter,
                                                         goal.error):
        raise ValueError(f"rule {rule!r} does not estimate a "
                         f"{goal.parameter} mean with {goal.error} error")
    return spec


def stop_stage(rule: str, state: RunningSample, schedule: StageSchedule,
               goal: EstimationGoal) -> Optional[int]:
    """Smallest stage index at which the rule's inequality holds, else None.

    Finite rules scan all s stages; unbounded rules scan until
    m_l >= n * STAGE_SCAN_FACTOR.
    """
    test = _rule_spec(rule, goal).test
    if state.n == 0:
        return None
    xbar = state.mean
    n = state.n
    for ell, (m, budget) in enumerate(schedule.table, 1):
        if schedule.unbounded and m >= n * STAGE_SCAN_FACTOR and ell > 1:
            return None
        if test(xbar, n, m, budget, goal, schedule):
            return ell
    return None


def run_to_stop(stream: Iterable[float], rule: str, schedule: StageSchedule,
                goal: EstimationGoal) -> StopDecision:
    """Consume observations until the rule fires, the cap is hit, or the
    stream runs out."""
    _rule_spec(rule, goal)
    state = RunningSample()
    for x in stream:
        feed(state, x, goal)
        if schedule.in_check_set(state.n):
            ell = stop_stage(rule, state, schedule, goal)
            if ell is not None:
                return StopDecision(status="stopped", n=state.n, stage=ell,
                                    estimate=state.mean, rule=rule,
                                    epsilon=goal.epsilon, delta=goal.delta)
        if schedule.unbounded and state.n >= schedule.cap:
            return StopDecision(status="cap-reached", n=state.n, stage=None,
                                estimate=state.mean, rule=rule,
                                epsilon=goal.epsilon, delta=goal.delta,
                                truncated=True)
    est = state.mean if state.n else None
    return StopDecision(status="stream-exhausted", n=state.n, stage=None,
                        estimate=est, rule=rule,
                        epsilon=goal.epsilon, delta=goal.delta)
