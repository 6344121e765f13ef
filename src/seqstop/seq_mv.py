"""Variance-aware multistage estimation of a bounded mean: the schedule
of rule ``mv``, whose stage test is ``rules.RULES["mv"]``."""

from typing import Iterable

from .rules import RULES, StopDecision, run_to_stop
from .schedules import StageSchedule, plan_bounded_abs

__all__ = ["plan_mv", "run_mv"]


def plan_mv(epsilon: float, delta: float, s: int) -> StageSchedule:
    """Rule A's stage sizes, from ceil(ln(2s/d) / ln(1/(1-e))) geometric
    up to m_s = ceil(ln(2s/d) / (2 e^2)), with budgets d/(2s) before the
    last stage and d/s at it.

    Stages 1..s-1 test the variance-aware interval at level 1 - d/(2s);
    the last stage certifies with Hoeffding's bound, and m_s is the
    smallest size where 2 exp(-2 m_s e^2) <= d/s.  By the union bound over
    the stages (see ``rules._test_mv``) a stopped run's claim
    |x - mu| < e fails with probability at most
    (s - 1) d/(2s) + d/s = (s + 1) d/(2s) <= d.  Keeping the interval test
    at the last stage as well would spend d/2 + d/s, above d at s = 1.
    """
    stages = plan_bounded_abs(epsilon, delta, s, "A").stages
    budgets = (delta / (2.0 * s),) * (len(stages) - 1) + (delta / s,)
    return StageSchedule(epsilon=epsilon, delta=delta, s=s, rule="mv",
                         stages=stages, budgets=budgets)


def run_mv(stream: Iterable[float], schedule: StageSchedule) -> StopDecision:
    """``run_to_stop`` under rule ``mv``; kept as the name perfbench's
    tracer wraps."""
    return run_to_stop(stream, "mv", schedule,
                       RULES["mv"].goal(schedule.epsilon, schedule.delta))
