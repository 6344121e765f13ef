"""The names perfbench reads for rule ``mv``: ``plan_mv``, which
``schedules`` plans, and ``run_mv``.  Rule ``mv``'s stage test is
``rules.RULES["mv"]``."""

from typing import Iterable

from .rules import StopDecision, run_to_stop
from .schedules import StageSchedule, plan_mv

__all__ = ["plan_mv", "run_mv"]


def run_mv(stream: Iterable[float], schedule: StageSchedule) -> StopDecision:
    """``run_to_stop`` on a ``plan_mv`` schedule, whose rule is ``mv``;
    kept as the name perfbench's tracer wraps."""
    return run_to_stop(stream, schedule)
