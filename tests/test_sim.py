import json
import math

import pytest

from seqstop import sim
from seqstop.rules import RULES, EstimationGoal, RunningSample, feed, \
    run_to_stop
from seqstop.schedules import plan_bounded_abs, plan_geometric_mean, \
    plan_unbounded
from seqstop.seq_mv import plan_mv
from seqstop.sim import (CoverageReport, DistributionSpec, Rng,
                         coverage_chunk, coverage_experiment, generate,
                         report_from_chunks)
from seqstop.fixed_ci import SampleSummary, ci_mean

from oracles import (oracle_ci_grid, oracle_sequence_limits,
                     reference_run_to_stop)


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


GOAL_BOUNDED = EstimationGoal("bounded", "abs", 0.1, 0.05)


def _prefix_sums(values):
    """(n, sum, sum of squares) after each value, added one at a time."""
    state, sums = RunningSample(), []
    for x in values:
        feed(state, x, GOAL_BOUNDED)
        sums.append((state.n, state.total, state.total_sq))
    return sums


@pytest.mark.parametrize("kind, params, count", [
    ("bernoulli", {"p": 0.3}, (1 << 16) + 300),
    ("bernoulli", {"p": 0.0}, 300),
    ("bernoulli", {"p": 1.0}, 300),
    ("scaled-beta", {"alpha": 2, "beta": 5}, (1 << 16) // 6 + 300),
    ("scaled-beta", {"alpha": 3.0, "beta": 1.0}, (1 << 16) // 3 + 300),
])
def test_block_draws_match_scalar_draws(kind, params, count):
    # the block path folds the very sums a draw-by-draw fold builds, at
    # every n: one draw per call near the block edge, long jumps across
    # it, and from nonzero totals
    spec = DistributionSpec(kind, params, seed=61)
    sums = _prefix_sums(list(generate(spec, count, 4)))
    stream = generate(spec, count, 4)
    assert hasattr(stream, "fold_to")
    per_draw = 1 if kind == "bernoulli" else \
        int(params["alpha"] + params["beta"]) - 1
    edge = (1 << 16) // per_draw  # draws in the first block
    stops = sorted(n for n in {1, 2, 7, 50, edge - 2, edge - 1, edge,
                               edge + 1, edge + 250, count, count + 5}
                   if n <= count + 5)
    state = RunningSample()
    for n in stops:
        stream.fold_to(state, n, GOAL_BOUNDED)
        assert (state.n, state.total, state.total_sq) == \
            sums[min(n, count) - 1], n
    jump = generate(spec, count, 4)
    state = RunningSample()
    jump.fold_to(state, count, GOAL_BOUNDED)
    assert (state.n, state.total, state.total_sq) == sums[-1]


def test_block_draws_are_checked_against_the_goal():
    # a Bernoulli 0.0 lies outside a geometric mean's support, and the
    # block fold raises at it as feed does, but only once it is folded
    spec = DistributionSpec("bernoulli", {"p": 0.9}, seed=62)
    goal = EstimationGoal("geometric", "rel", 0.2, 0.05)
    draws = list(generate(spec, 500))
    first_zero = draws.index(0.0)
    stream, state = generate(spec, 500), RunningSample()
    stream.fold_to(state, first_zero, goal)
    assert state.n == first_zero
    with pytest.raises(ValueError, match="positive integer"):
        stream.fold_to(state, first_zero + 1, goal)


def _engine_cases():
    bern = {"kind": "bernoulli", "params": {"p": 0.3}}
    ab = plan_bounded_abs(0.1, 0.05, 5, "A")
    return [
        ("A", bern, ab),
        ("B", bern, plan_bounded_abs(0.1, 0.05, 5, "B")),
        ("C", {"kind": "bernoulli", "params": {"p": 0.5}},
         plan_unbounded(0.05, 50, epsilon=0.25, rule="C", cap=1500)),
        ("C", {"kind": "scaled-beta", "params": {"alpha": 2, "beta": 5}},
         plan_unbounded(0.05, 50, epsilon=0.5, rule="C", cap=600)),
        ("D", {"kind": "geometric", "params": {"theta": 5.0}},
         plan_geometric_mean(0.2, 0.05, 5)),
        ("E", {"kind": "poisson", "params": {"lam": 4.0}},
         plan_unbounded(0.05, 50, epsilon=0.5, rule="E", cap=600)),
        ("F", {"kind": "poisson", "params": {"lam": 4.0}},
         plan_unbounded(0.05, 50, epsilon=0.3, rule="F", cap=600)),
        ("mv", {"kind": "bernoulli", "params": {"p": 0.2}},
         plan_mv(0.1, 0.05, 5)),
    ]


@pytest.mark.parametrize("rule, dist, schedule", _engine_cases(),
                         ids=[f"{rule}-{dist['kind']}" for rule, dist, _
                              in _engine_cases()])
def test_coverage_chunk_decides_as_the_scalar_engine(monkeypatch, rule,
                                                     dist, schedule):
    spec = DistributionSpec(dist["kind"], dist["params"], seed=71)
    goal = RULES[rule].goal(schedule.epsilon, schedule.delta)
    decisions = []

    def recording(*args):
        decisions.append(run_to_stop(*args))
        return decisions[-1]

    monkeypatch.setattr(sim, "run_to_stop", recording)
    reps = 200
    whole = coverage_chunk(rule, spec, goal, schedule, reps)
    split = [coverage_chunk(rule, spec, goal, schedule, size, off)
             for size, off in ((83, 0), (reps - 83, 83))]
    assert report_from_chunks(rule, spec, reps, [whole]) == \
        report_from_chunks(rule, spec, reps, split)
    assert decisions[:reps] == decisions[reps:]
    count = schedule.cap if schedule.unbounded else schedule.stages[-1]
    statuses = set()
    for r, decision in enumerate(decisions[:reps]):
        draws = list(generate(spec, count, replication=r))
        assert decision == run_to_stop(iter(draws), rule, schedule, goal)
        assert decision == reference_run_to_stop(iter(draws), rule,
                                                 schedule, goal)
        statuses.add(decision.status)
    assert "stopped" in statuses


@pytest.mark.parametrize("kind, params", [
    ("scaled-beta", {"alpha": 2, "beta": 5}),  # block draws
    ("scaled-beta", {"alpha": 2.5, "beta": 3.5}),  # Johnk, scalar draws
])
def test_coverage_chunk_ci_sums_as_feed_does(monkeypatch, kind, params):
    spec = DistributionSpec(kind, params, seed=72)
    summaries = []

    def recording(summary, delta):
        summaries.append(summary)
        return ci_mean(summary, delta)

    monkeypatch.setattr(sim, "ci_mean", recording)
    reps = 200
    whole = coverage_chunk("ci", spec, GOAL_BOUNDED, reps=reps, fixed_n=60)
    split = [coverage_chunk("ci", spec, GOAL_BOUNDED, reps=size,
                            rep_offset=off, fixed_n=60)
             for size, off in ((120, 0), (reps - 120, 120))]
    assert report_from_chunks("ci", spec, reps, [whole]) == \
        report_from_chunks("ci", spec, reps, split)
    assert summaries[:reps] == summaries[reps:]
    for r, summary in enumerate(summaries[:reps]):
        state = RunningSample()
        for x in list(generate(spec, 60, replication=r)):
            feed(state, x, GOAL_BOUNDED)
        assert summary == state.summary()
