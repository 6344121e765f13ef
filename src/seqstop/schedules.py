"""Stage schedules: checkpoint sample sizes and per-stage confidence budgets.

A schedule is either finite (s stages with a uniform budget split) or
unbounded (geometrically growing stage sizes with geometrically decaying
budgets and a hard safety cap on total samples).
"""

import json
import math
from dataclasses import dataclass, field
from typing import Tuple

__all__ = [
    "StageSchedule",
    "plan_bounded_abs",
    "plan_geometric_mean",
    "plan_mv",
    "plan_unbounded",
    "DEFAULT_CAP",
    "MAX_STAGES",
    "STAGE_SCAN_FACTOR",
]

DEFAULT_CAP = 10_000_000

# Unbounded rules scan stages up to the first m_l >= n * STAGE_SCAN_FACTOR;
# beyond that the threshold has shrunk toward 0- while the kernel argument
# gap closes, so skipping can only delay stopping, never break coverage.
STAGE_SCAN_FACTOR = 64

# Bounds the memory and time a schedule can take; far above the ~1.6e4
# stages an unbounded schedule with ratio 1.001 may need at the default cap.
MAX_STAGES = 100_000

# plan writes floats at 12 significant digits, each within 5e-12 of its
# value, so a written table may sum above its delta by about 1e-11 of it
_BUDGET_SLACK = 2e-11

# a schedule document lists these fields in this order; the optional ones
# may be left out and then take their defaults
_OPTIONAL_KEYS = ("unbounded", "ratio", "decay", "cap")
_JSON_KEYS = ("epsilon", "delta", "s", "rule", "stages", "budgets") + \
    _OPTIONAL_KEYS


def _threshold(m: int, budget: float, log_half: float) -> float:
    """ln(b / 2) / m, from log_half = ln(b / 2) taken in log space where
    b / 2 underflows to 0.0."""
    half = budget / 2.0
    return (math.log(half) if half > 0.0 else log_half) / m


@dataclass(frozen=True)
class StageSchedule:
    """Checkpoint plan: stage sizes and per-stage budgets.

    ``budgets`` holds the per-stage delta allocation b_l: positive, and
    summing over the table to at most delta (up to the rounding of a
    12-digit document), so a union bound over the stages holds.  Rule B's
    budgets must all be delta / s.
    Unbounded schedules continue the given stages with m_{l+1} =
    max(m_l + 1, ceil(m_l * ratio)) and b_l = delta (1-decay) decay^(l-1).
    ``table`` holds every (m_l, b_l, t_l), built at construction, where
    t_l = ln(b_l / 2) / m_l is the threshold the kernel rules compare
    against; once b_l underflows to 0.0, t_l is taken from ln b_l in log
    space, so it stays finite.  Unbounded tables end at the first
    m_l >= cap * STAGE_SCAN_FACTOR, the last stage a run of at most
    ``cap`` observations can scan.  Runs check at the m_l.  Every schedule
    is checked here, where it is built, so no runner checks it again.
    """

    epsilon: float
    delta: float
    s: int
    rule: str
    stages: Tuple[int, ...]
    budgets: Tuple[float, ...]
    unbounded: bool = False
    ratio: float = 2.0
    decay: float = 0.5
    cap: int = DEFAULT_CAP
    table: Tuple[Tuple[int, float, float], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # rules imports this module, so the import waits for a schedule
        from .rules import RULES, EstimationGoal

        spec = RULES.get(self.rule)
        if spec is None:
            raise ValueError(f"unknown rule {self.rule!r}")
        EstimationGoal(spec.parameter, spec.error, self.epsilon, self.delta)
        # type, not isinstance: JSON's 50.0 and true are no stage sizes
        if not all(type(x) is int for x in (self.s, self.cap, *self.stages)):
            raise ValueError("stage sizes, s and cap must be integers")
        if not isinstance(self.unbounded, bool):
            raise ValueError("unbounded must be true or false")
        if not self.stages or min(self.stages) <= 0:
            raise ValueError("a schedule needs one or more stage sizes, "
                             "all positive")
        if any(b <= a for a, b in zip(self.stages, self.stages[1:])):
            raise ValueError("stage sizes must be strictly ascending")
        if len(self.budgets) != len(self.stages):
            raise ValueError("one budget per stage required")
        if not all(b > 0.0 for b in self.budgets):
            raise ValueError("stage budgets must be positive")
        if self.rule == "B":
            # rule B's test takes ln(2s / delta) from s, which bounds the
            # error of each stage by delta / s only if that is its budget
            share = self.delta / self.s if self.s >= 1 else math.nan
            if not all(abs(b - share) <= share * _BUDGET_SLACK
                       for b in self.budgets):
                raise ValueError("rule B needs every stage budget equal to "
                                 f"delta / s with s >= 1, s = {self.s!r}")
        table = [(m, b, _threshold(m, b, math.log(b) - math.log(2.0)))
                 for m, b in zip(self.stages, self.budgets)]
        if self.unbounded:
            if self.cap < 1:
                raise ValueError(f"cap {self.cap!r} must be at least 1")
            if not 1.0 < self.ratio < math.inf:
                raise ValueError("unbounded schedules need a finite ratio > 1")
            if not 0.0 < self.decay < 1.0:
                raise ValueError("decay must lie in (0, 1)")
            # m_l grows at least by the factor ratio per stage, which bounds
            # the table length before anything is built
            m, target = self.stages[-1], self.cap * STAGE_SCAN_FACTOR
            if math.log(max(target, m)) - math.log(m) > \
                    MAX_STAGES * math.log(self.ratio):
                raise ValueError(f"ratio {self.ratio!r} may need more than "
                                 f"{MAX_STAGES} stages to reach {target}")
            log_half = math.log(self.delta * (1.0 - self.decay) / 2.0)
            try:
                while m < target:
                    m = max(m + 1, math.ceil(m * self.ratio))
                    ell = len(table)
                    b = self.delta * (1.0 - self.decay) * self.decay ** ell
                    table.append((m, b, _threshold(
                        m, b, log_half + ell * math.log(self.decay))))
            except OverflowError:
                raise ValueError("stage sizes overflow a float") from None
        spent = math.fsum(b for _, b, _ in table)
        if spent > self.delta * (1.0 + _BUDGET_SLACK):
            raise ValueError(f"stage budgets sum to {spent!r} > delta")
        object.__setattr__(self, "table", tuple(table))
        object.__setattr__(self, "_check_sizes",
                           frozenset(m for m, _, _ in table))

    def in_check_set(self, n: int) -> bool:
        return n in self._check_sizes

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({key: getattr(self, key) for key in _JSON_KEYS})

    @classmethod
    def from_json(cls, text: str) -> "StageSchedule":
        doc = json.loads(text)
        check = doc.get("check_set", "stage-only")
        if check != "stage-only":
            raise ValueError(f"check_set {check!r} is not supported: "
                             "schedules check at stage sizes only")
        optional = {key: doc[key] for key in _OPTIONAL_KEYS if key in doc}
        return cls(epsilon=doc["epsilon"], delta=doc["delta"], s=doc["s"],
                   rule=doc["rule"], stages=tuple(doc["stages"]),
                   budgets=tuple(doc["budgets"]), **optional)


def _ceil_quotient(num: float, den: float) -> int:
    """ceil(num / den) as a stage size, where den > 0 is a power of
    epsilon; ValueError where den rounds to 0 or the quotient to inf."""
    quotient = num / den if den > 0.0 else math.inf
    if quotient == math.inf:
        raise ValueError("a stage size overflows a float: epsilon or delta "
                         "is too small")
    return math.ceil(quotient)


def _finite_schedule(epsilon: float, delta: float, s: int, rule: str,
                     m1: int, ms: int) -> StageSchedule:
    """s stages geometric between m1 and ms (just ms if m1 >= ms), each
    with budget delta / s; rounding duplicates are shifted upward."""
    if s > MAX_STAGES:
        raise ValueError(f"a schedule has at most {MAX_STAGES} stages")
    if s == 1 or m1 >= ms:
        stages = [ms]
    else:
        raw = [m1 * (ms / m1) ** (k / (s - 1)) for k in range(s)]
        stages = []
        for r in raw:
            m = math.ceil(r - 1e-9)
            if stages and m <= stages[-1]:
                m = stages[-1] + 1
            stages.append(m)
        stages[-1] = max(stages[-1], ms)
    return StageSchedule(epsilon=epsilon, delta=delta, s=s, rule=rule,
                         stages=tuple(stages),
                         budgets=tuple([delta / s] * len(stages)))


def plan_bounded_abs(epsilon: float, delta: float, s: int, rule: str = "A") -> StageSchedule:
    """Finite schedule for absolute-error bounded-mean estimation (rules A/B).

    The last stage satisfies m_s >= ln(2s/delta) / (2 eps^2); the first
    stage follows the rule-specific suggestion, and intermediate stages
    interpolate geometrically.
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError("absolute error needs 0 < epsilon < 1/2")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if s < 1:
        raise ValueError("s must be a positive integer")
    if rule not in ("A", "B"):
        raise ValueError("rule must be 'A' or 'B'")
    log_term = math.log(2.0 * s / delta)
    ms = _ceil_quotient(log_term, 2.0 * epsilon * epsilon)
    if s == 1:
        m1 = ms
    elif rule == "A":
        m1 = _ceil_quotient(log_term, math.log(1.0 / (1.0 - epsilon)))
    else:
        m1 = math.ceil((24.0 * epsilon - 16.0 * epsilon * epsilon) / 9.0
                       * log_term / (2.0 * epsilon * epsilon))
    return _finite_schedule(epsilon, delta, s, rule, m1, ms)


def plan_mv(epsilon: float, delta: float, s: int) -> StageSchedule:
    """Rule mv: rule A's stage sizes, with budgets d/(2s) before the
    last stage and d/s at it.

    Stages 1..s-1 test the variance-aware interval at level 1 - d/(2s);
    the last stage certifies with Hoeffding's bound, as
    2 exp(-2 m_s e^2) <= d/s at m_s = ceil(ln(2s/d) / (2 e^2)).  By the
    union bound (see ``rules._test_mv``) a stopped run's claim fails with
    probability at most (s - 1) d/(2s) + d/s = (s + 1) d/(2s) <= d.
    Testing the interval at the last stage too would spend d/2 + d/s,
    above d at s = 1.
    """
    stages = plan_bounded_abs(epsilon, delta, s, "A").stages
    budgets = (delta / (2.0 * s),) * (len(stages) - 1) + (delta / s,)
    return StageSchedule(epsilon=epsilon, delta=delta, s=s, rule="mv",
                         stages=stages, budgets=budgets)


def plan_geometric_mean(epsilon: float, delta: float, s: int) -> StageSchedule:
    """Finite schedule for relative-error geometric-mean estimation (rule D)."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if s < 1:
        raise ValueError("s must be a positive integer")
    log_term = math.log(2.0 * s / delta)
    denom = (1.0 + epsilon) * math.log1p(epsilon) - epsilon
    ms = _ceil_quotient((1.0 + epsilon) * log_term, denom)
    m1 = ms if s == 1 else _ceil_quotient(log_term, math.log1p(epsilon))
    return _finite_schedule(epsilon, delta, s, "D", m1, ms)


def plan_unbounded(delta: float, m1: int, ratio: float = 2.0,
                   decay: float = 0.5, *, epsilon: float,
                   rule: str = "C", cap: int = DEFAULT_CAP) -> StageSchedule:
    """Unbounded schedule: m_l geometric, budgets b_l = delta (1-q) q^(l-1).

    The budget series sums to delta and ln(b_l)/m_l -> 0 because ln b_l is
    linear in l while m_l grows geometrically.  epsilon has no default,
    as no rule can take one.
    """
    budgets = (delta * (1.0 - decay),)
    return StageSchedule(epsilon=epsilon, delta=delta, s=1, rule=rule,
                         stages=(m1,), budgets=budgets, unbounded=True,
                         ratio=ratio, decay=decay, cap=cap)
