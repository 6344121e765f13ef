import json
import math

import pytest

from seqstop.rules import EstimationGoal, RunningSample
from seqstop.schedules import plan_bounded_abs
from seqstop.sim import (CoverageReport, DistributionSpec, Rng,
                         coverage_chunk, coverage_experiment, generate,
                         report_from_chunks)
from seqstop.fixed_ci import SampleSummary, ci_mean

from oracles import oracle_ci_grid, oracle_sequence_limits


def test_rng_uniform_range_and_determinism():
    a = Rng(42)
    b = Rng(42)
    xs = [a.uniform() for _ in range(1000)]
    ys = [b.uniform() for _ in range(1000)]
    assert xs == ys
    assert all(0.0 <= x < 1.0 for x in xs)
    assert Rng(43).uniform() != xs[0]


def test_same_replication_same_stream():
    spec = DistributionSpec("scaled-beta", {"alpha": 2, "beta": 5}, seed=7)
    assert list(generate(spec, 50, 3)) == list(generate(spec, 50, 3))
    assert list(generate(spec, 50, 3)) != list(generate(spec, 50, 4))


def test_bernoulli_extremes():
    zero = DistributionSpec("bernoulli", {"p": 0.0}, seed=1)
    one = DistributionSpec("bernoulli", {"p": 1.0}, seed=1)
    assert all(x == 0.0 for x in generate(zero, 200))
    assert all(x == 1.0 for x in generate(one, 200))


def test_empirical_means_near_targets():
    cases = [
        (DistributionSpec("bernoulli", {"p": 0.3}, seed=100), 0.02),
        (DistributionSpec("scaled-beta", {"alpha": 2, "beta": 5},
                          seed=101), 0.02),
        (DistributionSpec("discrete",
                          {"support": [0.0, 0.5, 1.0],
                           "probs": [0.2, 0.5, 0.3]}, seed=102), 0.02),
        (DistributionSpec("geometric", {"theta": 5.0}, seed=103), 0.2),
        (DistributionSpec("poisson", {"lam": 4.0}, seed=104), 0.1),
    ]
    for spec, tol in cases:
        draws = list(generate(spec, 50_000))
        mean = sum(draws) / len(draws)
        assert abs(mean - spec.true_value()) < tol, spec.kind


def test_johnk_fallback_for_noninteger_shapes():
    spec = DistributionSpec("scaled-beta", {"alpha": 2.5, "beta": 3.5},
                            seed=19)
    draws = list(generate(spec, 20_000))
    assert all(0.0 <= x <= 1.0 for x in draws)
    assert abs(sum(draws) / len(draws) - spec.true_value()) < 0.02


def test_spec_validation():
    with pytest.raises(ValueError):
        DistributionSpec("cauchy", {})
    with pytest.raises(ValueError):
        DistributionSpec("bernoulli", {"p": 1.5})
    with pytest.raises(ValueError):
        DistributionSpec("geometric", {"theta": 0.9})
    with pytest.raises(ValueError):
        DistributionSpec("poisson", {"lam": -1.0})
    with pytest.raises(ValueError):
        DistributionSpec("discrete", {"support": [0.0, 0.5],
                                      "probs": [0.9, 0.2]})
    with pytest.raises(ValueError):
        DistributionSpec("geometric", {"theta": math.inf})
    with pytest.raises(ValueError):
        DistributionSpec("scaled-beta", {"alpha": math.inf, "beta": 2.0})


def test_geometric_support():
    spec = DistributionSpec("geometric", {"theta": 3.0}, seed=5)
    draws = list(generate(spec, 5000))
    assert all(x >= 1.0 and x == int(x) for x in draws)


def test_report_json_round_trip():
    spec = DistributionSpec("bernoulli", {"p": 0.5}, seed=8)
    sched = plan_bounded_abs(0.1, 0.05, 5, "A")
    goal = EstimationGoal("bounded", "abs", 0.1, 0.05)
    report = coverage_experiment("A", spec, goal=goal, schedule=sched,
                                 reps=20)
    doc = json.loads(report.to_json())
    assert doc["procedure"] == "A"
    assert doc["replications"] == 20
    assert 0.0 <= doc["coverage"] <= 1.0
    assert doc["n_quantiles"]["p50"] <= doc["n_quantiles"]["p99"] <= 265
    assert doc["spec"]["kind"] == "bernoulli"


def test_chunk_split_matches_unsplit():
    spec = DistributionSpec("bernoulli", {"p": 0.3}, seed=55)
    sched = plan_bounded_abs(0.1, 0.05, 5, "A")
    goal = EstimationGoal("bounded", "abs", 0.1, 0.05)
    whole = coverage_chunk("A", spec, goal=goal, schedule=sched, reps=40)
    parts = [coverage_chunk("A", spec, goal=goal, schedule=sched,
                            reps=10, rep_offset=off)
             for off in (0, 10, 20, 30)]
    merged = report_from_chunks("A", spec, 40, parts)
    single = report_from_chunks("A", spec, 40, [whole])
    assert merged == single


def test_ci_procedure_coverage():
    spec = DistributionSpec("bernoulli", {"p": 0.4}, seed=12)
    goal = EstimationGoal("bounded", "abs", 0.1, 0.05)
    report = coverage_experiment("ci", spec, goal=goal, reps=50, fixed_n=100)
    assert report.coverage >= 0.9
    assert report.n_quantiles == {"p50": 100, "p90": 100, "p99": 100}


def test_empty_report():
    spec = DistributionSpec("bernoulli", {"p": 0.4}, seed=12)
    report = report_from_chunks("ci", spec, 0, [])
    assert report.coverage == 0.0
    assert report.mean_n == 0.0
    assert report.n_quantiles == {}


def test_oracle_grid_agrees_with_scan():
    for n, mean, var in [(100, 0.3, 0.21), (60, 0.55, 0.2), (250, 0.1, 0.09)]:
        summary = SampleSummary(n=n, mean=mean, var=var)
        ci = ci_mean(summary, 0.05)
        lo, hi = oracle_ci_grid(summary, 0.05)
        assert abs(ci.lower - lo) < 1e-3
        assert abs(ci.upper - hi) < 1e-3


def test_oracle_sequence_limits_degenerate_mean():
    sched = plan_bounded_abs(0.1, 0.05, 5, "A")
    goal = EstimationGoal("bounded", "abs", 0.1, 0.05)
    st = RunningSample(n=51, total=0.0, total_sq=0.0)
    lo, hi = oracle_sequence_limits(st, sched, goal, 1)
    assert lo == 0.0
    assert 0.0 < hi < 0.2


def test_oracle_sequence_limits_bracket_mean():
    sched = plan_bounded_abs(0.1, 0.05, 5, "A")
    goal = EstimationGoal("bounded", "abs", 0.1, 0.05)
    st = RunningSample(n=100, total=40.0, total_sq=40.0)
    lo, hi = oracle_sequence_limits(st, sched, goal, 2)
    assert 0.0 < lo < 0.4 < hi < 1.0


def test_quantiles_monotone():
    spec = DistributionSpec("bernoulli", {"p": 0.3}, seed=91)
    sched = plan_bounded_abs(0.1, 0.05, 5, "A")
    goal = EstimationGoal("bounded", "abs", 0.1, 0.05)
    report = coverage_experiment("A", spec, goal=goal, schedule=sched,
                                 reps=50)
    q = report.n_quantiles
    assert q["p50"] <= q["p90"] <= q["p99"]
    assert report.mean_n <= 265
