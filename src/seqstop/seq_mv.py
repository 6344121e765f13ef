"""Variance-aware multistage estimation of a bounded mean.

At each stage checkpoint a fixed-sample confidence interval for the
mean is built from the running mean and variance; sampling stops once
that interval falls inside the target precision band around the sample
mean.
"""

from dataclasses import dataclass
from typing import Iterable, Tuple

from .fixed_ci import ci_mean
from .rules import EstimationGoal, RunningSample, StopDecision, feed
from .schedules import plan_bounded_abs

__all__ = ["MvPlan", "plan_mv", "run_mv"]


@dataclass(frozen=True)
class MvPlan:
    """Stage sample sizes plus the precision/confidence targets."""

    epsilon: float
    delta: float
    s: int
    sizes: Tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValueError("stage sizes must be strictly ascending")

    @property
    def stage_budget(self) -> float:
        return self.delta / (2.0 * self.s)


def plan_mv(epsilon: float, delta: float, s: int) -> MvPlan:
    """Rule A's stage sizes: geometric from ceil(ln(2s/d) / ln(1/(1-e)))
    up to ceil(ln(2s/d) / (2 e^2))."""
    sizes = plan_bounded_abs(epsilon, delta, s, "A").stages
    return MvPlan(epsilon=epsilon, delta=delta, s=s, sizes=sizes)


def run_mv(stream: Iterable[float], plan: MvPlan) -> StopDecision:
    """Consume observations until a stage interval fits inside the band
    [mean - epsilon, mean + epsilon].

    A run that passes every stage without triggering ends with status
    "no-inclusion" and the final-stage mean; the coverage guarantee is
    not certified for such runs, so they are surfaced rather than folded
    into "stopped".
    """
    goal = EstimationGoal(parameter="bounded", error="abs",
                          epsilon=plan.epsilon, delta=plan.delta)
    state = RunningSample()
    checkpoints = set(plan.sizes)
    it = iter(stream)
    eps = plan.epsilon
    last_ci = None
    for x in it:
        feed(state, x, goal)
        if state.n in checkpoints:
            stage = plan.sizes.index(state.n) + 1
            interval = ci_mean(state.summary(), plan.stage_budget)
            last_ci = interval
            xbar = state.mean
            if xbar - eps <= interval.lower and interval.upper <= xbar + eps:
                return StopDecision(status="stopped", n=state.n, stage=stage,
                                    estimate=xbar, rule="MV",
                                    epsilon=eps, delta=plan.delta,
                                    lower=interval.lower,
                                    upper=interval.upper)
            if state.n == plan.sizes[-1]:
                return StopDecision(status="no-inclusion", n=state.n,
                                    stage=stage, estimate=xbar, rule="MV",
                                    epsilon=eps, delta=plan.delta,
                                    lower=interval.lower,
                                    upper=interval.upper)
    est = state.mean if state.n else None
    return StopDecision(status="stream-exhausted", n=state.n, stage=None,
                        estimate=est, rule="MV",
                        epsilon=eps, delta=plan.delta,
                        lower=None if last_ci is None else last_ci.lower,
                        upper=None if last_ci is None else last_ci.upper)
