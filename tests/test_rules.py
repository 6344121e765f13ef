import dataclasses
import itertools
import math
from functools import partial

import numpy as np
import pytest

from seqstop import sim
from seqstop.rules import (EstimationGoal, RunningSample, StopDecision,
                           check_support, feed, run_to_stop, source,
                           stop_stage)
from seqstop.schedules import plan_bounded_abs, plan_geometric_mean, \
    plan_unbounded
from seqstop.sim import DistributionSpec, generate

from oracles import reference_run_to_stop

GOAL_ABS = EstimationGoal("bounded", "abs", 0.1, 0.05)


def test_feed_accumulates():
    st = RunningSample()
    feed(st, 0.5, GOAL_ABS)
    assert st.n == 1 and st.mean == 0.5


def test_feed_mean_and_variance():
    st = RunningSample()
    for x in (0.0, 1.0, 1.0):
        feed(st, x, GOAL_ABS)
    assert st.mean == pytest.approx(2 / 3)
    assert st.var == pytest.approx(2 / 9)


def test_feed_rejects_out_of_support():
    with pytest.raises(ValueError):
        feed(RunningSample(), 2.0, GOAL_ABS)
    geo = EstimationGoal("geometric", "rel", 0.2, 0.05)
    with pytest.raises(ValueError):
        feed(RunningSample(), 0.5, geo)
    poi = EstimationGoal("poisson", "abs", 0.5, 0.05)
    with pytest.raises(ValueError):
        feed(RunningSample(), -1.0, poi)
    for goal in (geo, poi):
        for x in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError):
                feed(RunningSample(), x, goal)


def test_goal_validation():
    with pytest.raises(ValueError):
        EstimationGoal("bounded", "abs", 0.6, 0.05)
    with pytest.raises(ValueError):
        EstimationGoal("bounded", "rel", 1.2, 0.05)
    with pytest.raises(ValueError):
        EstimationGoal("bounded", "abs", 0.1, 1.5)
    with pytest.raises(ValueError):
        EstimationGoal("other", "abs", 0.1, 0.05)


def test_constant_ones_stream_stops_at_first_stage():
    sched = plan_bounded_abs(0.1, 0.05, 5, "A")
    decision = run_to_stop(itertools.repeat(1.0, 300), sched)
    assert decision.status == "stopped"
    assert decision.n == 51
    assert decision.stage == 1
    assert decision.estimate == 1.0


def test_finite_rules_stop_by_last_stage():
    sched = plan_bounded_abs(0.1, 0.05, 5, "A")
    spec = DistributionSpec("bernoulli", {"p": 0.5}, seed=21)
    for rep in range(20):
        decision = run_to_stop(generate(spec, 265, rep), sched)
        assert decision.status == "stopped"
        assert decision.n <= 265


def test_rule_b_stops_by_last_stage():
    sched = plan_bounded_abs(0.1, 0.05, 5, "B")
    spec = DistributionSpec("bernoulli", {"p": 0.5}, seed=22)
    for rep in range(10):
        decision = run_to_stop(generate(spec, 265, rep), sched)
        assert decision.status == "stopped"


def test_rule_d_stops_by_last_stage():
    sched = plan_geometric_mean(0.2, 0.05, 5)
    spec = DistributionSpec("geometric", {"theta": 5.0}, seed=23)
    for rep in range(10):
        decision = run_to_stop(generate(spec, sched.stages[-1], rep), sched)
        assert decision.status == "stopped"


def test_rule_c_needs_positive_mean():
    sched = plan_unbounded(0.05, 50, rule="C", epsilon=0.2)
    st = RunningSample(n=200, total=0.0, total_sq=0.0)
    assert stop_stage(st, sched) is None


def test_rule_f_needs_positive_mean():
    sched = plan_unbounded(0.05, 50, rule="F", epsilon=0.2)
    st = RunningSample(n=500, total=0.0, total_sq=0.0)
    assert stop_stage(st, sched) is None


def test_determinism():
    sched = plan_bounded_abs(0.1, 0.05, 5, "A")
    spec = DistributionSpec("bernoulli", {"p": 0.3}, seed=4)
    first = run_to_stop(generate(spec, 265, 0), sched)
    second = run_to_stop(generate(spec, 265, 0), sched)
    assert first == second


def test_rule_b_never_stops_earlier_than_rule_a():
    # both rules on rule A's stages, whose budgets delta / s rule B takes
    sched = plan_bounded_abs(0.1, 0.05, 5, "A")
    sched_b = dataclasses.replace(sched, rule="B")
    spec = DistributionSpec("bernoulli", {"p": 0.3}, seed=31)
    for rep in range(50):
        draws = list(generate(spec, 265, rep))
        da = run_to_stop(iter(draws), sched)
        db = run_to_stop(iter(draws), sched_b)
        assert da.status == "stopped"
        assert db.status != "stopped" or da.n <= db.n


def test_empty_stream_exhausts():
    sched = plan_bounded_abs(0.1, 0.05, 5, "A")
    decision = run_to_stop(iter([]), sched)
    assert decision.status == "stream-exhausted"
    assert decision.n == 0
    assert decision.estimate is None


def test_cap_reached_flagged():
    sched = plan_unbounded(0.05, 1000, rule="E", epsilon=0.5, cap=30)
    decision = run_to_stop(itertools.repeat(4.0, 100), sched)
    assert decision.status == "cap-reached"
    assert decision.n == 30
    assert decision.truncated


def test_unbounded_rule_eventually_stops():
    sched = plan_unbounded(0.05, 50, rule="E", epsilon=0.5, cap=10 ** 6)
    spec = DistributionSpec("poisson", {"lam": 4.0}, seed=77)
    decision = run_to_stop(generate(spec, 10 ** 6, 0), sched)
    assert decision.status == "stopped"


def test_decision_json_round_trips():
    import json
    d = StopDecision(status="stopped", n=51, stage=1, estimate=1.0,
                     rule="A", epsilon=0.1, delta=0.05)
    doc = json.loads(d.to_json())
    assert doc["status"] == "stopped"
    assert doc["n"] == 51
    assert doc["rule"] == "A"


def test_stopped_condition_reevaluates_true():
    sched = plan_bounded_abs(0.1, 0.05, 5, "A")
    spec = DistributionSpec("bernoulli", {"p": 0.5}, seed=9)
    decision = run_to_stop(generate(spec, 265, 0), sched)
    st = RunningSample(n=decision.n, total=decision.estimate * decision.n,
                       total_sq=decision.estimate * decision.n)
    assert stop_stage(st, sched) == decision.stage


@pytest.mark.parametrize("schedule, message", [
    (partial(dataclasses.replace, plan_bounded_abs(0.1, 0.05, 5, "A"),
             rule="Q"), "unknown rule"),
    (partial(plan_unbounded, 0.05, 50, epsilon=0.0), "epsilon"),
    (partial(plan_unbounded, 0.05, 50, epsilon=1.5, rule="F"),
     "epsilon < 1"),
    (partial(dataclasses.replace, plan_bounded_abs(0.1, 0.05, 5, "A"),
             epsilon=0.6), "epsilon < 1/2"),
])
def test_run_to_stop_refuses_a_plan_before_reading(schedule, message):
    # a plan its rule cannot take is refused where it is built, so no
    # run, and no read, can start on it
    with pytest.raises(ValueError, match=message):
        schedule()


@pytest.mark.parametrize("rule, goal, schedule, stream", [
    # the cap on the stage size where the rule fires, on another stage
    # size, between two, below the first, at 1
    ("E", EstimationGoal("poisson", "abs", 0.5, 0.05),
     plan_unbounded(0.05, 10, rule="E", epsilon=0.5, cap=320), [4.0] * 999),
    ("E", EstimationGoal("poisson", "abs", 0.01, 0.05),
     plan_unbounded(0.05, 10, rule="E", epsilon=0.01, cap=40), [4.0] * 99),
    ("E", EstimationGoal("poisson", "abs", 0.01, 0.05),
     plan_unbounded(0.05, 10, rule="E", epsilon=0.01, cap=33), [4.0] * 99),
    ("E", EstimationGoal("poisson", "abs", 0.01, 0.05),
     plan_unbounded(0.05, 10, rule="E", epsilon=0.01, cap=3), [4.0] * 99),
    ("E", EstimationGoal("poisson", "abs", 0.01, 0.05),
     plan_unbounded(0.05, 10, rule="E", epsilon=0.01, cap=1), [4.0] * 99),
    ("E", EstimationGoal("poisson", "abs", 0.01, 0.05),
     plan_unbounded(0.05, 10, rule="E", epsilon=0.01, cap=1), []),
    # a stream that ends at, just before and past a stage size
    ("A", GOAL_ABS, plan_bounded_abs(0.1, 0.05, 5, "A"), [0.5] * 117),
    ("A", GOAL_ABS, plan_bounded_abs(0.1, 0.05, 5, "A"), [0.5] * 116),
    ("A", GOAL_ABS, plan_bounded_abs(0.1, 0.05, 5, "A"), [0.5] * 300),
    ("A", GOAL_ABS, plan_bounded_abs(0.1, 0.05, 5, "A"), [1] * 60),
    ("D", EstimationGoal("geometric", "rel", 0.2, 0.05),
     plan_geometric_mean(0.2, 0.05, 5), [3.0, 7.0] * 400),
])
def test_engine_edges_match_per_observation_loop(rule, goal, schedule,
                                                 stream):
    decision = run_to_stop(iter(stream), schedule)
    assert decision == reference_run_to_stop(iter(stream), schedule)
    # the decision names the plan it ran: the schedule's rule and goal
    assert (decision.rule, decision.epsilon, decision.delta) == \
        (rule, goal.epsilon, goal.delta)


def _support_verdict(check, x):
    """None if check accepts x, else the message it raises."""
    try:
        check(x)
    except ValueError as exc:
        return str(exc)
    return None


def _block_fold(x, parameter):
    """``_BlockStream.fold_to`` over a block that holds x alone."""
    stream = sim._BlockStream(DistributionSpec("bernoulli", {"p": 0.5}), 1,
                              0, None)

    def next_block(n):
        stream._values, stream._left, stream._end = np.array([x]), 0, 1
        return True
    stream._next_block = next_block
    stream.fold_to(RunningSample(), 1, parameter)


@pytest.mark.parametrize("parameter, error, accepted", [
    ("bounded", "abs", {0.0, 0.5, 1.0}),
    ("geometric", "rel", {1.0, 2.0, 1e308}),
    ("poisson", "abs", {0.0, 1.0, 2.0, 1e308}),
])
def test_support_checks_give_one_answer(parameter, error, accepted):
    # check_support, feed, the plain fold of source and the block fold
    # accept the same values and reject the rest with the same message
    goal = EstimationGoal(parameter, error, 0.2, 0.05)
    for x in (0.0, -0.0, 0.5, 1.0, 2.0, 2.5, 1e308, math.inf, -math.inf,
              math.nan):
        verdicts = {_support_verdict(check, x) for check in (
            lambda x: check_support(x, parameter),
            lambda x: feed(RunningSample(), x, goal),
            lambda x: source(iter([x]))(RunningSample(), 1, parameter),
            lambda x: _block_fold(x, parameter))}
        assert len(verdicts) == 1, (x, verdicts)
        assert (verdicts == {None}) == (x in accepted), x


@pytest.mark.parametrize("bad", [2.0, -1e-300, math.nan, math.inf])
def test_engine_checks_support_up_to_its_decision(bad):
    sched = plan_bounded_abs(0.1, 0.05, 5, "A")
    with pytest.raises(ValueError):
        run_to_stop(iter([1.0] * 20 + [bad] + [1.0] * 40), sched)
    decision = run_to_stop(iter([1.0] * 51 + [bad]), sched)
    assert (decision.status, decision.n) == ("stopped", 51)
    with pytest.raises(ValueError):
        run_to_stop(iter([1.5]), plan_unbounded(0.05, 50, rule="E",
                                                epsilon=0.5))
