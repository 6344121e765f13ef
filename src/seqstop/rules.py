"""The stopping engine (``run_to_stop``) and its rules A-F and ``mv``.

Rules A-F compare a divergence kernel of the running sample mean against
a per-stage threshold ln(b_l / 2) / m_l and stop at the first stage
where the inequality holds; ``mv`` tests an interval.  ``RULES`` maps
each rule key to its target family, error kind, per-stage test and
terminal claim.  A rule looks at the data only at the stage sizes m_l,
and there only through the running sums (n, sum x, sum x^2), so the
engine reads its stream through a ``source`` that folds it into those
sums up to the next m_l.
"""

import json
import math
import sys
from dataclasses import dataclass, field
from itertools import islice
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional

from . import kernels
from .fixed_ci import SampleSummary, lower_limit, upper_limit
from .schedules import STAGE_SCAN_FACTOR, StageSchedule

__all__ = [
    "EstimationGoal",
    "RunningSample",
    "StopDecision",
    "RuleSpec",
    "RULES",
    "feed",
    "source",
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
    # no rule reports an interval; perfbench reads both from every decision
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
        if self.truncated:
            doc["truncated"] = True
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def source(stream: Iterable[float]) -> Callable[
        [RunningSample, int, EstimationGoal], None]:
    """How the engine reads stream: ``fold(state, n, goal)`` folds the
    next observations into state until state.n == n, or fewer if the
    stream ends, checking each against the goal's support as ``feed``
    does.

    A stream with a ``fold_to`` method (the block draws of
    ``sim.generate``) folds itself.  Any other iterable is read one
    observation at a time, and no further than n, so a reader behind it
    stops at the engine's decision.
    """
    fold = getattr(stream, "fold_to", None)
    if fold is not None:
        return fold
    it = iter(stream)

    def fold(state: RunningSample, n: int, goal: EstimationGoal) -> None:
        # the support test inline: a value it passes lies in the goal's
        # support, and validate_observation has the last word on the rest
        bounded = goal.parameter == "bounded"
        lo = 1.0 if goal.parameter == "geometric" else 0.0
        hi = 1.0 if bounded else sys.float_info.max
        count, total, total_sq = state.n, state.total, state.total_sq
        for x in islice(it, n - count):
            if not lo <= x <= hi or (not bounded and x != int(x)):
                goal.validate_observation(x)
            count += 1
            total += x
            total_sq += x * x
        state.n, state.total, state.total_sq = count, total, total_sq

    return fold


# -- per-stage conditions --------------------------------------------------

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
    # runs for every stage scanned: the mean is taken inline
    def test(state, m, budget, threshold, goal, schedule):
        n = state.n
        return cond(state.total / n, n, m, goal.epsilon, threshold)
    return test


def _test_b(state, m, budget, threshold, goal, schedule):
    """Rule B's quadratic surrogate uses ln(2s/delta), not the threshold."""
    n = state.n
    return _cond_b(state.total / n, n, m, goal.epsilon, goal.delta,
                   schedule.s)


def _test_mv(state, m, budget, threshold, goal, schedule):
    """The multistage estimator's test at n = m_l only, as ``stop_stage``
    scans every stage.

    Before the last stage: the interval ``ci_mean`` at level 1 - b_l lies
    within eps of the mean x.  At the last stage: Hoeffding's bound
    P(|x - mu| >= eps) <= 2 exp(-2 m_s eps^2) is at most b_s (Hoeffding
    1963), whatever the data.  A wrong claim at stage l thus needs an
    event of probability at most b_l, and by the union bound the b_l,
    which ``StageSchedule`` keeps within delta, bound its chance.

    Each limit is swept only when the decision needs it: the lower limit
    is never below 0 and the upper never above 1, so the lower side holds
    unswept when x - eps <= 0 and the upper when x + eps >= 1, and once
    the lower side fails the upper is not swept.
    """
    if m != state.n:
        return False
    eps = goal.epsilon
    if m == schedule.table[-1][0]:
        return -2.0 * eps * eps <= threshold
    summary = state.summary()
    xbar = summary.mean
    return (xbar - eps <= 0.0 or
            xbar - eps <= lower_limit(summary, budget)) and \
        (xbar + eps >= 1.0 or upper_limit(summary, budget) <= xbar + eps)


@dataclass(frozen=True)
class RuleSpec:
    """What a rule key means: ``test(state, m_l, b_l, t_l, goal,
    schedule)`` is its stage-l inequality on the running sums, with
    t_l = ln(b_l / 2) / m_l from the schedule's table, and
    ``claim(estimate, truth, epsilon)`` the error claim a stopped run
    makes."""

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
    "mv": RuleSpec("bounded", "abs", _test_mv, _abs_claim),
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
    n = state.n
    for ell, (m, budget, threshold) in enumerate(schedule.table, 1):
        if schedule.unbounded and m >= n * STAGE_SCAN_FACTOR and ell > 1:
            return None
        if test(state, m, budget, threshold, goal, schedule):
            return ell
    return None


def run_to_stop(stream: Iterable[float], rule: str, schedule: StageSchedule,
                goal: EstimationGoal) -> StopDecision:
    """Consume observations until the rule fires, the cap is hit, the last
    stage of a finite schedule passes without firing (``no-inclusion``),
    or the stream runs out.

    The run walks the stage table: it folds the stream up to each m_l
    (or up to the cap, if that comes first) through ``source`` and
    decides there.  Rules decide only at stage sizes, so this is the
    decision a check after every observation would reach.
    """
    _rule_spec(rule, goal)
    state = RunningSample()
    fold = source(stream)
    cap = max(schedule.cap, 1) if schedule.unbounded else math.inf

    def decide(status: str, stage: Optional[int] = None) -> StopDecision:
        return StopDecision(status=status, n=state.n, stage=stage,
                            estimate=state.mean if state.n else None,
                            rule=rule, epsilon=goal.epsilon,
                            delta=goal.delta,
                            truncated=status == "cap-reached")

    for m, _, _ in schedule.table:
        fold(state, min(m, cap), goal)
        if state.n == m:
            ell = stop_stage(rule, state, schedule, goal)
            if ell is not None:
                return decide("stopped", ell)
        if state.n >= cap:
            return decide("cap-reached")
        if state.n < m:
            return decide("stream-exhausted")
    # an unbounded table reaches past its cap, so only a finite one ends
    return decide("no-inclusion", len(schedule.table))
