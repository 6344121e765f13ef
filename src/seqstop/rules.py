"""The stopping engine (``run_to_stop``) and its rules A-F and ``mv``.

Rules A-F compare a divergence kernel of the running sample mean against
a per-stage threshold ln(b_l / 2) / m_l and stop at the first stage
where the inequality holds; ``mv`` tests an interval.  ``RULES`` maps
each rule key to its family, error kind, test, claim and planner, and
``SUPPORT`` each family to its support.  The engine's one plan input is
a ``StageSchedule``, whose rule, epsilon, delta and budgets go together.
A rule reads the data only at the stage sizes m_l, through the running
sums (n, sum x, sum x^2), which the engine's ``source`` folds up to m_l.
"""

import json
import math
import sys
from dataclasses import dataclass, field
from itertools import islice
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional, Tuple

from . import kernels
from .fixed_ci import SampleSummary, lower_limit, upper_limit
from .schedules import (STAGE_SCAN_FACTOR, StageSchedule, plan_bounded_abs,
                        plan_geometric_mean, plan_mv, plan_unbounded)

__all__ = [
    "EstimationGoal",
    "RunningSample",
    "StopDecision",
    "RuleSpec",
    "RULES",
    "SUPPORT",
    "check_support",
    "feed",
    "source",
    "stop_stage",
    "run_to_stop",
    "STAGE_SCAN_FACTOR",
]


# each family's support: the x with lo <= x <= hi, whole numbers only if
# whole, and what an observation outside it is called
SUPPORT: Mapping[str, Tuple[float, float, bool, str]] = MappingProxyType({
    "bounded": (0.0, 1.0, False, "outside [0, 1]"),
    "geometric": (1.0, sys.float_info.max, True, "not a positive integer"),
    "poisson": (0.0, sys.float_info.max, True, "not a nonnegative integer"),
})


def check_support(x: float, parameter: str) -> None:
    """Raise ValueError unless x lies in the family's ``SUPPORT``."""
    lo, hi, whole, what = SUPPORT[parameter]
    if not lo <= x <= hi or whole and x != int(x):
        raise ValueError(f"observation {x!r} {what}")


@dataclass(frozen=True)
class EstimationGoal:
    """Target parameter, error kind and precision/confidence levels."""

    parameter: str  # "bounded" | "geometric" | "poisson"
    error: str      # "abs" | "rel"
    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        if self.parameter not in SUPPORT:
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
    check_support(x, goal.parameter)
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
        doc = {key: getattr(self, key) for key in (
            "status", "n", "stage", "estimate", "rule", "epsilon", "delta")}
        if self.truncated:
            doc["truncated"] = True
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def source(stream: Iterable[float]) -> Callable[
        [RunningSample, int, str], None]:
    """How the engine reads stream: ``fold(state, n, parameter)`` folds
    the next observations into state until state.n == n, or fewer if the
    stream ends, checking each against the family's ``SUPPORT``.

    A stream with a ``fold_to`` method (the block draws of
    ``sim.generate``) folds itself.  Any other iterable is read one
    observation at a time, and no further than n, so a reader behind it
    stops at the engine's decision.
    """
    fold = getattr(stream, "fold_to", None)
    if fold is not None:
        return fold
    it = iter(stream)

    def fold(state: RunningSample, n: int, parameter: str) -> None:
        # check_support's test, inline; check_support raises on what fails
        lo, hi, whole, _ = SUPPORT[parameter]
        count, total, total_sq = state.n, state.total, state.total_sq
        for x in islice(it, n - count):
            if not lo <= x <= hi or whole and x != int(x):
                check_support(x, parameter)
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


def _cond_rel(kernel: str):
    """Rules C (kernel "mb") and F ("mp"): relative error.  The kernel is
    looked up in ``kernels`` at each call, where a tracer may wrap it."""
    def cond(xbar: float, n: int, m: int, eps: float, thr: float) -> bool:
        if xbar <= 0.0:
            return False
        theta = xbar / (1.0 + eps)
        z = theta * (1.0 + n * eps / max(n, m))
        return getattr(kernels, kernel)(z, theta) <= thr
    return cond


def _cond_d(xbar: float, n: int, m: int, eps: float, thr: float) -> bool:
    # 1 + eps - eps may round below 1, which would put z below 1
    z = xbar if n >= m else (1.0 + eps - n * eps / m) * xbar
    return kernels.mg(z, (1.0 + eps) * xbar) <= thr


def _cond_e(xbar: float, n: int, m: int, eps: float, thr: float) -> bool:
    z = xbar + eps - n * eps / max(n, m)
    return kernels.mp(z, xbar + eps) <= thr


def _abs_claim(estimate: float, truth: float, eps: float) -> bool:
    return abs(estimate - truth) < eps


def _rel_claim(estimate: float, truth: float, eps: float) -> bool:
    return abs(estimate - truth) < eps * truth


def _ratio_claim(estimate: float, truth: float, eps: float) -> bool:
    return (1.0 - eps) * estimate < truth < (1.0 + eps) * estimate


def _kernel_test(cond):
    """Per-stage test comparing a kernel against ln(b_l / 2) / m_l."""
    # runs for every stage scanned: the mean is taken inline
    def test(state, m, budget, threshold, schedule):
        n = state.n
        return cond(state.total / n, n, m, schedule.epsilon, threshold)
    return test


def _test_b(state, m, budget, threshold, schedule):
    """Rule B's quadratic surrogate uses ln(2s/delta), not the threshold."""
    n = state.n
    return _cond_b(state.total / n, n, m, schedule.epsilon, schedule.delta,
                   schedule.s)


def _test_mv(state, m, budget, threshold, schedule):
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
    eps = schedule.epsilon
    if m == schedule.table[-1][0]:
        return -2.0 * eps * eps <= threshold
    summary = state.summary()
    xbar = summary.mean
    return (xbar - eps <= 0.0 or
            xbar - eps <= lower_limit(summary, budget)) and \
        (xbar + eps >= 1.0 or upper_limit(summary, budget) <= xbar + eps)


def _finite(planner, *rule):
    """A finite planner, which reads none of the unbounded flags."""
    return lambda epsilon, delta, stages, **_: planner(epsilon, delta,
                                                       stages, *rule)


def _unbounded(rule: str):
    """``plan_unbounded``, which reads every flag but stages."""
    return lambda stages, **flags: plan_unbounded(rule=rule, **flags)


@dataclass(frozen=True)
class RuleSpec:
    """What a rule key means: ``test(state, m_l, b_l, t_l, schedule)`` is
    its stage-l inequality on the running sums, with t_l = ln(b_l / 2) /
    m_l from the table of the schedule, which also gives epsilon,
    ``claim(estimate, truth, epsilon)`` the error claim a stopped run
    makes, and ``plan(epsilon=, delta=, stages=, m1=, ratio=, decay=,
    cap=)`` its default schedule."""

    parameter: str
    error: str
    test: Callable[..., bool]
    claim: Callable[[float, float, float], bool]
    plan: Callable[..., StageSchedule]


RULES: Mapping[str, RuleSpec] = MappingProxyType({
    "A": RuleSpec("bounded", "abs", _kernel_test(_cond_a), _abs_claim,
                  _finite(plan_bounded_abs, "A")),
    "B": RuleSpec("bounded", "abs", _test_b, _abs_claim,
                  _finite(plan_bounded_abs, "B")),
    "C": RuleSpec("bounded", "rel", _kernel_test(_cond_rel("mb")),
                  _rel_claim, _unbounded("C")),
    "D": RuleSpec("geometric", "rel", _kernel_test(_cond_d), _ratio_claim,
                  _finite(plan_geometric_mean)),
    "E": RuleSpec("poisson", "abs", _kernel_test(_cond_e), _abs_claim,
                  _unbounded("E")),
    "F": RuleSpec("poisson", "rel", _kernel_test(_cond_rel("mp")),
                  _rel_claim, _unbounded("F")),
    "mv": RuleSpec("bounded", "abs", _test_mv, _abs_claim,
                   _finite(plan_mv)),
})


def stop_stage(state: RunningSample, schedule: StageSchedule) -> Optional[int]:
    """Smallest stage index at which the schedule's rule holds, else None.

    Finite rules scan all s stages; unbounded rules scan until
    m_l >= n * STAGE_SCAN_FACTOR.
    """
    test = RULES[schedule.rule].test
    if state.n == 0:
        return None
    n = state.n
    for ell, (m, budget, threshold) in enumerate(schedule.table, 1):
        if schedule.unbounded and m >= n * STAGE_SCAN_FACTOR and ell > 1:
            return None
        if test(state, m, budget, threshold, schedule):
            return ell
    return None


def run_to_stop(stream: Iterable[float],
                schedule: StageSchedule) -> StopDecision:
    """Consume observations until the schedule's rule fires, the cap is
    hit, the last stage of a finite schedule passes without firing
    (``no-inclusion``), or the stream runs out.

    The schedule was checked when it was built, so the run folds the
    stream up to each stage size m_l (or the cap, if that comes first)
    through ``source`` and decides there.  Rules decide only at stage
    sizes, so a check after every observation would decide alike.
    """
    parameter = RULES[schedule.rule].parameter
    state = RunningSample()
    fold = source(stream)
    cap = schedule.cap if schedule.unbounded else math.inf

    def decide(status: str, stage: Optional[int] = None) -> StopDecision:
        return StopDecision(status=status, n=state.n, stage=stage,
                            estimate=state.mean if state.n else None,
                            rule=schedule.rule, epsilon=schedule.epsilon,
                            delta=schedule.delta,
                            truncated=status == "cap-reached")

    for m, _, _ in schedule.table:
        fold(state, min(m, cap), parameter)
        if state.n == m:
            ell = stop_stage(state, schedule)
            if ell is not None:
                return decide("stopped", ell)
        if state.n >= cap:
            return decide("cap-reached")
        if state.n < m:
            return decide("stream-exhausted")
    # an unbounded table reaches past its cap, so only a finite one ends
    return decide("no-inclusion", len(schedule.table))
