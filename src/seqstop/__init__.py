"""Sequential estimation via divergence-kernel stopping rules and
Hoeffding-style fixed-sample confidence sets."""

from .fixed_ci import (ConfidenceInterval, ConfidenceRegion, SampleSummary,
                       ci_mean, lower_limit, region_boundary,
                       region_contains, upper_limit)
from .kernels import mb, mb_massart, mg, mp, phi, psi, varphi
from .rules import (EstimationGoal, RunningSample, StopDecision, feed,
                    run_to_stop, stop_stage)
from .schedules import (StageSchedule, plan_bounded_abs, plan_geometric_mean,
                        plan_mv, plan_unbounded)
from .seq_mv import run_mv
from .sim import (CoverageReport, DistributionSpec, coverage_experiment,
                  generate)

__version__ = "0.1.0"
