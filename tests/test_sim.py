import dataclasses
import json
import math

import pytest

from seqstop import rules, sim
from seqstop.rules import RULES, EstimationGoal, RunningSample, feed, \
    run_to_stop
from seqstop.schedules import StageSchedule, plan_bounded_abs, \
    plan_geometric_mean, plan_mv, plan_unbounded
from seqstop.sim import (CoverageReport, DistributionSpec, coverage_chunk,
                         coverage_experiment, generate, report_from_chunks)
from seqstop.fixed_ci import SampleSummary, ci_mean

from oracles import (Rng, oracle_ci_grid, oracle_sequence_limits,
                     reference_generate, reference_run_to_stop)


def test_rng_uniform_range_and_determinism():
    # the one-at-a-time reference the seeded streams are checked against
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
    # they sum to 1, but the mean would read -0.5 and every draw 0.0
    with pytest.raises(ValueError, match="nonnegative"):
        DistributionSpec("discrete", {"support": [0.0, 1.0],
                                      "probs": [1.5, -0.5]})
    DistributionSpec("discrete", {"support": [0.0, 1.0], "probs": [1.0, 0.0]})
    with pytest.raises(ValueError):
        DistributionSpec("geometric", {"theta": math.inf})
    with pytest.raises(ValueError):
        DistributionSpec("scaled-beta", {"alpha": math.inf, "beta": 2.0})
    with pytest.raises(ValueError, match="shape"):
        DistributionSpec("scaled-beta", {"alpha": 0.0, "beta": 2.0})
    with pytest.raises(ValueError, match="equal length"):
        DistributionSpec("discrete", {"support": [0.0], "probs": [0.5, 0.5]})
    with pytest.raises(ValueError, match="support must lie"):
        DistributionSpec("discrete", {"support": [0.0, 2.0],
                                      "probs": [0.5, 0.5]})
    # a larger mean could overflow a draw or the running sums
    for theta in (1e301, 1e306, 1e308):
        with pytest.raises(ValueError, match="theta"):
            DistributionSpec("geometric", {"theta": theta})
    DistributionSpec("geometric", {"theta": 1e300})
    # e^-lam would underflow, and the product method would draw about 745
    for lam in (745.0, 800.0, 2000.0):
        with pytest.raises(ValueError, match="lam"):
            DistributionSpec("poisson", {"lam": lam})
    DistributionSpec("poisson", {"lam": sim._MAX_LAM})
    with pytest.raises(ValueError, match="count"):
        generate(DistributionSpec("bernoulli", {"p": 0.5}), -1)


@pytest.mark.parametrize("theta", [1e12, 1e15, 1e20])
def test_rule_d_covers_at_large_geometric_means(theta):
    # mg lost its digits to cancellation here: coverage read 0.625 at
    # 1e12, 0.8 at 1e15 with early false claims, and 0 at 1e20
    spec = DistributionSpec("geometric", {"theta": theta}, seed=0)
    report = coverage_experiment("D", spec,
                                 schedule=plan_geometric_mean(0.2, 0.05, 5),
                                 reps=200)
    assert report.coverage >= 0.95 and report.no_inclusion == 0


def test_coverage_counts_cap_hits_and_no_inclusion():
    # rule E at epsilon 0.01 cannot stop within 60 draws, so every run
    # reaches its cap
    spec = DistributionSpec("poisson", {"lam": 4.0}, seed=3)
    report = coverage_experiment(
        "E", spec, schedule=plan_unbounded(0.05, 50, epsilon=0.01, rule="E",
                                           cap=60), reps=5)
    assert (report.coverage, report.cap_hits, report.no_inclusion) == \
        (0.0, 5, 0)
    assert report.n_quantiles == {"p50": 60, "p90": 60, "p99": 60}
    # rule A's test cannot hold at 10 draws with epsilon 0.1, so the
    # last stage passes without firing
    tiny = StageSchedule(epsilon=0.1, delta=0.05, s=2, rule="A",
                         stages=(5, 10), budgets=(0.025, 0.025))
    spec = DistributionSpec("bernoulli", {"p": 0.5}, seed=3)
    report = coverage_experiment("A", spec, schedule=tiny, reps=5)
    assert (report.coverage, report.cap_hits, report.no_inclusion) == \
        (0.0, 0, 5)


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
    sums = _prefix_sums(reference_generate(spec, count, 4))
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
        stream.fold_to(state, n, GOAL_BOUNDED.parameter)
        assert (state.n, state.total, state.total_sq) == \
            sums[min(n, count) - 1], n
    jump = generate(spec, count, 4)
    state = RunningSample()
    jump.fold_to(state, count, GOAL_BOUNDED.parameter)
    assert (state.n, state.total, state.total_sq) == sums[-1]


@pytest.mark.parametrize("kind, params, long", [
    ("bernoulli", {"p": 0.3}, 70_000),
    ("scaled-beta", {"alpha": 2, "beta": 5}, 12_000),
    ("scaled-beta", {"alpha": 2.5, "beta": 1.5}, 7_000),  # Johnk
    ("discrete", {"support": [0.0, 0.5, 1.0], "probs": [0.2, 0.5, 0.3]},
     70_000),
    ("geometric", {"theta": 5.0}, 70_000),
    ("geometric", {"theta": 1e12}, 70_000),
    ("geometric", {"theta": 1e20}, 70_000),
    ("poisson", {"lam": 0.5}, 50_000),
    ("poisson", {"lam": 4.0}, 15_000),
    ("poisson", {"lam": 30.0}, 2_500),
    ("poisson", {"lam": 700.0}, 100),
])
def test_generate_matches_the_scalar_reference(kind, params, long):
    # a stream's first block holds the uniforms of 256 draws that take
    # one each (or t, for the t-uniform order statistic), the next twice
    # as many; the long count reads past the first 2^16 uniforms
    spec = DistributionSpec(kind, params, seed=63)
    expected = reference_generate(spec, long, 5)
    for count in [c for c in (0, 1, 255, 256, 257, 768, 769) if c < long] \
            + [long]:
        assert list(generate(spec, count, 5)) == expected[:count], count


@pytest.mark.parametrize("seed", [99, (1 << 64) - 5])
def test_uniform_blocks_double_up_to_the_largest(monkeypatch, seed):
    # blocks of 3, 6, 8, 8, ... uniforms; the second seed wraps the state
    monkeypatch.setattr(sim, "_BLOCK_UNIFORMS", 8)
    monkeypatch.setattr(sim, "_FIRST_DRAWS", 1)
    rng, uniform = Rng(seed), sim._uniforms(seed, 3)
    assert [uniform() for _ in range(60)] == \
        [rng.uniform() for _ in range(60)]


def test_block_draws_are_checked_against_the_goal():
    # a Bernoulli 0.0 lies outside a geometric mean's support, and the
    # block fold raises at it as feed does, but only once it is folded
    spec = DistributionSpec("bernoulli", {"p": 0.9}, seed=62)
    goal = EstimationGoal("geometric", "rel", 0.2, 0.05)
    draws = reference_generate(spec, 500)
    first_zero = draws.index(0.0)
    stream, state = generate(spec, 500), RunningSample()
    stream.fold_to(state, first_zero, goal.parameter)
    assert state.n == first_zero
    with pytest.raises(ValueError, match="positive integer"):
        stream.fold_to(state, first_zero + 1, goal.parameter)


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
    goal = EstimationGoal(RULES[rule].parameter, RULES[rule].error,
                          schedule.epsilon, schedule.delta)
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
        draws = reference_generate(spec, count, replication=r)
        assert decision == run_to_stop(iter(draws), schedule)
        assert decision == reference_run_to_stop(iter(draws), schedule)
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
        for x in reference_generate(spec, 60, replication=r):
            feed(state, x, GOAL_BOUNDED)
        assert summary == state.summary()


# rule A's five stages with budgets delta / 5 under s = 1: rule B's test
# would take ln(2 s / delta) = ln(2 / delta) at each stage, so a union
# bound over the five would need 5 delta
_A_FIVE_STAGES_S1 = dataclasses.replace(plan_bounded_abs(0.1, 0.05, 5, "A"),
                                        s=1)


@pytest.mark.parametrize("procedure, goal, schedule", [
    ("B", None, _A_FIVE_STAGES_S1),
    ("B", GOAL_BOUNDED, _A_FIVE_STAGES_S1),
    ("A", None, plan_bounded_abs(0.1, 0.05, 5, "B")),
    ("mv", None, plan_bounded_abs(0.1, 0.05, 5, "A")),
    # goals other than the rule's family at the schedule's eps and delta
    ("A", EstimationGoal("bounded", "abs", 0.2, 0.05),
     plan_bounded_abs(0.1, 0.05, 5, "A")),
    ("A", EstimationGoal("bounded", "abs", 0.1, 0.01),
     plan_bounded_abs(0.1, 0.05, 5, "A")),
    ("A", EstimationGoal("bounded", "rel", 0.1, 0.05),
     plan_bounded_abs(0.1, 0.05, 5, "A")),
], ids=["B-on-A-s1", "B-on-A-s1-goal", "A-on-B", "mv-on-A", "goal-eps",
        "goal-delta", "goal-error"])
def test_coverage_refuses_a_plan_for_another_rule_or_goal(procedure, goal,
                                                           schedule):
    spec = DistributionSpec("bernoulli", {"p": 0.3}, seed=81)
    with pytest.raises(ValueError):
        coverage_chunk(procedure, spec, goal, schedule, reps=0)
    with pytest.raises(ValueError):
        coverage_experiment(procedure, spec, goal, schedule, reps=10)


def test_rule_b_refuses_the_a_labelled_s1_table():
    with pytest.raises(ValueError, match="delta / s"):
        dataclasses.replace(_A_FIVE_STAGES_S1, rule="B")
    assert dataclasses.replace(_A_FIVE_STAGES_S1, s=5, rule="B").s == 5


def test_coverage_claims_at_the_schedule_epsilon(monkeypatch):
    # a goal equal to the schedule's runs as no goal does
    spec = DistributionSpec("bernoulli", {"p": 0.3}, seed=82)
    sched = plan_bounded_abs(0.1, 0.05, 5, "A")
    claims = []

    def claim(estimate, truth, eps):
        claims.append(eps)
        return abs(estimate - truth) < eps

    patched = {**RULES, "A": dataclasses.replace(RULES["A"], claim=claim)}
    monkeypatch.setattr(sim, "RULES", patched)
    monkeypatch.setattr(rules, "RULES", patched)
    with_goal = coverage_chunk("A", spec, GOAL_BOUNDED, sched, reps=30)
    assert coverage_chunk("A", spec, None, sched, reps=30) == with_goal
    assert len(claims) == 60  # rule A stops every run, twice over
    assert set(claims) == {sched.epsilon}
