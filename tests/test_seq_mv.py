import collections
import dataclasses
import itertools
import json

import numpy as np
import pytest

from seqstop import rules, sim
from seqstop.cli import main
from seqstop.fixed_ci import SampleSummary, ci_mean
from seqstop.rules import RULES, RunningSample, run_to_stop
from seqstop.schedules import StageSchedule
from seqstop.seq_mv import plan_mv, run_mv
from seqstop.sim import (DistributionSpec, coverage_chunk, generate,
                         report_from_chunks)

from oracles import (exact_bernoulli_outcomes, reference_mv_test,
                     reference_run_to_stop)


def test_plan_example():
    plan = plan_mv(0.1, 0.05, 5)
    assert plan.rule == "mv"
    assert plan.stages[0] == 51
    assert plan.stages[-1] == 265


def test_plan_single_stage():
    plan = plan_mv(0.1, 0.05, 1)
    assert plan.stages == (185,)
    assert plan.budgets == (0.05,)


def test_plan_rejects_large_epsilon():
    with pytest.raises(ValueError):
        plan_mv(0.6, 0.05, 5)


def test_stage_budget_split():
    # d/(2s) before the last stage and d/s at it: (s + 1) d/(2s) <= d
    plan = plan_mv(0.1, 0.05, 5)
    assert plan.budgets == (0.005,) * 4 + (0.01,)
    assert sum(plan.budgets) <= plan.delta


def test_low_variance_stream_stops_early():
    plan = plan_mv(0.1, 0.05, 5)
    decision = run_mv(itertools.repeat(0.5, 300), plan)
    assert decision.status == "stopped"
    assert decision.rule == "mv"
    assert decision.n in plan.stages
    assert decision.n < plan.stages[-1]
    assert decision.estimate == 0.5


def test_all_zeros_stream():
    plan = plan_mv(0.1, 0.05, 5)
    decision = run_mv(itertools.repeat(0.0, 300), plan)
    assert (decision.status, decision.n, decision.stage) == \
        ("stopped", 77, 2)
    assert decision.estimate == 0.0
    assert decision.lower is None and decision.upper is None


def test_never_reads_past_last_stage():
    # the last stage certifies with Hoeffding's bound whatever the data
    plan = plan_mv(0.1, 0.05, 5)
    for p in (0.2, 0.5):
        spec = DistributionSpec("bernoulli", {"p": p}, seed=15)
        for rep in range(5):
            decision = run_mv(generate(spec, plan.stages[-1], rep), plan)
            assert decision.n <= plan.stages[-1]
            assert decision.status == "stopped"


def test_exact_bernoulli_coverage():
    # every run is certified: coverage counts stopped runs only, and no
    # mass is left at the last stage
    ps = np.arange(1, 1000) / 1000
    covered, no_inclusion = exact_bernoulli_outcomes(
        "mv", plan_mv(0.1, 0.05, 5), ps)
    assert covered.min() >= 1.0 - 0.05
    assert not no_inclusion.any()


def test_last_budget_too_small_for_hoeffding_ends_no_inclusion():
    # 2 exp(-2 * 265 * 0.01) = 0.00998 is above the last budget 0.009
    plan = StageSchedule(epsilon=0.1, delta=0.05, s=5, rule="mv",
                         stages=(51, 77, 117, 176, 265),
                         budgets=(0.005,) * 4 + (0.009,))
    decision = run_mv(iter([0.0, 1.0] * 500), plan)
    assert (decision.status, decision.n, decision.stage) == \
        ("no-inclusion", 265, 5)
    assert decision.estimate == 132 / 265


def test_stream_exhaustion():
    plan = plan_mv(0.1, 0.05, 5)
    decision = run_mv(iter([0.5] * 10), plan)
    assert decision.status == "stream-exhausted"
    assert decision.n == 10


def test_run_mv_is_run_to_stop():
    plan = plan_mv(0.1, 0.05, 5)
    spec = DistributionSpec("bernoulli", {"p": 0.1}, seed=3)
    goal = RULES["mv"].goal(0.1, 0.05)
    for rep in range(5):
        assert run_mv(generate(spec, 265, rep), plan) == \
            run_to_stop(generate(spec, 265, rep), "mv", plan, goal)


def test_inclusion_reevaluates_at_stop():
    plan = plan_mv(0.1, 0.05, 5)
    spec = DistributionSpec("bernoulli", {"p": 0.1}, seed=29)
    early = 0
    for rep in range(10):
        draws = list(generate(spec, plan.stages[-1], rep))
        decision = run_mv(iter(draws), plan)
        if decision.status != "stopped" or decision.n == plan.stages[-1]:
            continue
        early += 1
        xs = draws[:decision.n]
        mean = sum(xs) / len(xs)
        var = sum((x - mean) ** 2 for x in xs) / len(xs)
        interval = ci_mean(SampleSummary(n=len(xs), mean=mean,
                                         var=min(var, 0.25)),
                           plan.stage(decision.stage)[1])
        assert mean - plan.epsilon <= interval.lower
        assert interval.upper <= mean + plan.epsilon
    assert early > 0


def test_cli_run_rule_mv(capsys, tmp_path):
    code = main(["plan", "--rule", "mv"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert StageSchedule.from_json(out) == plan_mv(0.1, 0.05, 5)
    stream = tmp_path / "halves.txt"
    stream.write_text("0.5\n" * 300)
    code = main(["run", "--rule", "mv", "--input", str(stream)])
    out, _ = capsys.readouterr()
    doc = json.loads(out)
    assert code == 0
    assert (doc["status"], doc["rule"], doc["n"]) == ("stopped", "mv", 176)
    assert "L" not in doc and "U" not in doc


def _mv_states():
    """(schedule, stage row, state) at every stage size before the last:
    every count of ones of Bernoulli data, and random [0, 1] sums."""
    rng = np.random.default_rng(41)
    for plan in (plan_mv(0.1, 0.05, 5), plan_mv(0.2, 0.1, 3)):
        for row in plan.table[:-1]:
            m = row[0]
            for k in range(m + 1):
                yield plan, row, RunningSample(m, float(k), float(k))
            for _ in range(4 * m):
                xs = rng.beta(*rng.uniform(0.2, 5.0, size=2), size=m)
                yield plan, row, RunningSample(m, float(np.add.reduce(xs)),
                                               float(np.add.reduce(xs * xs)))


def test_mv_test_decides_as_the_whole_interval():
    kinds = collections.Counter()
    for plan, row, state in _mv_states():
        goal = RULES["mv"].goal(plan.epsilon, plan.delta)
        decided = RULES["mv"].test(state, *row, goal, plan)
        xbar, eps = state.mean, plan.epsilon
        ci = ci_mean(state.summary(), row[1])
        assert decided == (xbar - eps <= ci.lower and ci.upper <= xbar + eps)
        kinds["low edge"] += xbar - eps <= 0.0
        kinds["high edge"] += xbar + eps >= 1.0
        kinds["both fail"] += xbar - eps > ci.lower and ci.upper > xbar + eps
        kinds["holds"] += decided
        kinds["states"] += 1
    assert kinds["states"] >= 2000
    assert min(kinds.values()) > 0, kinds


@pytest.mark.parametrize("budget", [0.0, 1.5])
def test_mv_test_refuses_a_budget_outside_the_unit_interval(budget):
    plan = plan_mv(0.1, 0.05, 5)
    m = plan.table[0][0]
    goal = RULES["mv"].goal(plan.epsilon, plan.delta)
    # mean 0 sweeps only the upper limit, mean 1 only the lower
    for k in (0, m // 2, m):
        with pytest.raises(ValueError, match="delta"):
            RULES["mv"].test(RunningSample(m, float(k), float(k)), m, budget,
                             0.0, goal, plan)


@pytest.mark.parametrize("kind, params", [
    ("bernoulli", {"p": 0.05}), ("bernoulli", {"p": 0.5}),
    ("scaled-beta", {"alpha": 2, "beta": 5})])
def test_coverage_chunk_mv_decides_as_the_whole_interval(monkeypatch, kind,
                                                         params):
    plan = plan_mv(0.1, 0.05, 5)
    spec = DistributionSpec(kind, params, seed=73)
    decisions = []

    def recording(*args):
        decisions.append(run_to_stop(*args))
        return decisions[-1]

    monkeypatch.setattr(sim, "run_to_stop", recording)
    reps = 200
    whole = coverage_chunk("mv", spec, schedule=plan, reps=reps)
    split = [coverage_chunk("mv", spec, schedule=plan, reps=size,
                            rep_offset=off)
             for size, off in ((91, 0), (reps - 91, 91))]
    assert report_from_chunks("mv", spec, reps, [whole]) == \
        report_from_chunks("mv", spec, reps, split)
    assert decisions[:reps] == decisions[reps:]
    # the reference engine, deciding each stage on the whole interval
    monkeypatch.setattr(rules, "RULES", {
        **RULES, "mv": dataclasses.replace(RULES["mv"],
                                           test=reference_mv_test)})
    goal = RULES["mv"].goal(plan.epsilon, plan.delta)
    for r, decision in enumerate(decisions[:reps]):
        draws = list(generate(spec, plan.stages[-1], replication=r))
        assert decision == reference_run_to_stop(iter(draws), "mv", plan,
                                                 goal)
