import json
import math

import pytest

from seqstop.cli import main
from seqstop.rules import RULES
from seqstop.schedules import (DEFAULT_CAP, MAX_STAGES, STAGE_SCAN_FACTOR,
                               StageSchedule, plan_bounded_abs,
                               plan_geometric_mean, plan_mv, plan_unbounded)


def test_bounded_abs_rule_a_example():
    sched = plan_bounded_abs(0.1, 0.05, 5, "A")
    assert sched.stages[0] == 51
    assert sched.stages[-1] == 265
    assert len(sched.stages) == 5


def test_bounded_abs_rule_b_first_stage():
    sched = plan_bounded_abs(0.1, 0.05, 5, "B")
    assert sched.stages[0] == 66
    assert sched.stages[-1] == 265


def test_bounded_abs_single_stage():
    sched = plan_bounded_abs(0.1, 0.05, 1, "A")
    assert sched.stages == (185,)


def test_geometric_mean_example():
    sched = plan_geometric_mean(0.1, 0.05, 5)
    assert sched.stages[0] == 56
    assert sched.stages[-1] == 1204


def test_geometric_mean_rejects_epsilon_one():
    with pytest.raises(ValueError):
        plan_geometric_mean(1.0, 0.05, 5)


def test_geometric_mean_single_stage():
    sched = plan_geometric_mean(0.1, 0.05, 1)
    assert len(sched.stages) == 1


def test_stages_strictly_ascending_and_budgets_uniform():
    sched = plan_bounded_abs(0.05, 0.01, 8, "A")
    assert all(b > a for a, b in zip(sched.stages, sched.stages[1:]))
    assert all(b == sched.delta / sched.s for b in sched.budgets)
    assert sum(sched.budgets) <= sched.delta + 1e-12


@pytest.mark.parametrize("budgets, unbounded", [
    ((0.01, 0.01, 0.01, 0.01, 0.0), False),
    ((0.01, 0.01, 0.01, 0.01, -0.01), False),
    ((0.01, 0.01, 0.01, 0.01, math.nan), False),
    ((0.049,) * 5, False),
    ((0.0100001,) * 5, False),
    # the continued stages spend 0.0125 more than the given ones
    ((0.01,) * 5, True),
])
def test_budgets_positive_and_within_delta(budgets, unbounded):
    with pytest.raises(ValueError, match="budgets"):
        StageSchedule(epsilon=0.1, delta=0.05, s=5, rule="A",
                      stages=(10, 11, 12, 13, 14), budgets=budgets,
                      unbounded=unbounded)


def test_budgets_may_carry_twelve_digit_rounding():
    # plan writes 12 significant digits: 3 * 0.0166666666667 is
    # 0.0500000000001
    StageSchedule(epsilon=0.1, delta=0.05, s=3, rule="A", stages=(1, 2, 3),
                  budgets=(0.0166666666667,) * 3)


@pytest.mark.parametrize("rule", list(RULES))
def test_every_planned_document_loads(capsys, rule):
    for stages in (1, 3, 7, 40):
        for delta in (0.01, 0.05, 0.3, 0.123456789):
            assert main(["plan", "--rule", rule, "--stages", str(stages),
                         "--delta", repr(delta)]) == 0
            StageSchedule.from_json(capsys.readouterr().out)


@pytest.mark.parametrize("rule, expected", [
    ("A", plan_bounded_abs(0.2, 0.1, 3, "A")),
    ("B", plan_bounded_abs(0.2, 0.1, 3, "B")),
    ("C", plan_unbounded(0.1, 40, 1.5, 0.25, 0.2, "C", 10 ** 5)),
    ("D", plan_geometric_mean(0.2, 0.1, 3)),
    ("E", plan_unbounded(0.1, 40, 1.5, 0.25, 0.2, "E", 10 ** 5)),
    ("F", plan_unbounded(0.1, 40, 1.5, 0.25, 0.2, "F", 10 ** 5)),
    ("mv", plan_mv(0.2, 0.1, 3)),
])
def test_rule_letter_picks_its_planner(rule, expected):
    planned = RULES[rule].plan(epsilon=0.2, delta=0.1, stages=3, m1=40,
                               ratio=1.5, decay=0.25, cap=10 ** 5)
    assert planned == expected and planned.rule == rule


def test_final_stage_meets_lower_bound():
    for eps, delta, s in [(0.1, 0.05, 5), (0.05, 0.1, 3), (0.2, 0.01, 7)]:
        sched = plan_bounded_abs(eps, delta, s, "A")
        assert sched.stages[-1] >= math.log(2 * s / delta) / (2 * eps * eps)


def test_geometric_interpolation_ratios_are_even():
    sched = plan_bounded_abs(0.1, 0.05, 5, "A")
    ratios = [b / a for a, b in zip(sched.stages, sched.stages[1:])]
    assert max(ratios) - min(ratios) < 0.1


def test_unbounded_generator_example():
    sched = plan_unbounded(0.05, 50, ratio=2.0, decay=0.5)
    ms = [m for m, _, _ in sched.table[:3]]
    bs = [b for _, b, _ in sched.table[:3]]
    assert ms == [50, 100, 200]
    assert bs[0] == pytest.approx(0.025)
    assert bs[1] == pytest.approx(0.0125)


def test_unbounded_budgets_sum_below_delta():
    sched = plan_unbounded(0.05, 50)
    total = sum(b for _, b, _ in sched.table[:20])
    assert total <= 0.05 + 1e-15


def test_unbounded_threshold_ratio_shrinks():
    sched = plan_unbounded(0.05, 50)
    def ratio(ell):
        m, b, _ = sched.table[ell - 1]
        return abs(math.log(b) / m)
    assert ratio(10) < ratio(1)


def test_unbounded_rejects_bad_ratio():
    with pytest.raises(ValueError):
        plan_unbounded(0.05, 50, ratio=1.0)
    with pytest.raises(ValueError):
        plan_unbounded(0.05, 50, decay=1.5)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        plan_bounded_abs(0.6, 0.05, 5, "A")
    with pytest.raises(ValueError):
        plan_bounded_abs(0.1, 1.5, 5, "A")
    with pytest.raises(ValueError):
        plan_bounded_abs(0.1, 0.05, 0, "A")
    with pytest.raises(ValueError):
        plan_bounded_abs(0.1, 0.05, 5, "Z")


def test_json_round_trip():
    for sched in (plan_bounded_abs(0.1, 0.05, 5, "A"),
                  plan_geometric_mean(0.2, 0.05, 4),
                  plan_unbounded(0.05, 50, cap=10 ** 6)):
        again = StageSchedule.from_json(sched.to_json())
        assert again == sched


def test_documents_written_before_the_stage_table_still_load():
    docs = {
        "A": '{"epsilon": 0.2, "delta": 0.05, "s": 5, "rule": "A", '
             '"stages": [24, 32, 41, 52, 67], "budgets": [0.01, 0.01, 0.01, '
             '0.01, 0.01], "unbounded": false, "ratio": 2.0, "decay": 0.5, '
             '"cap": 10000000, "check_set": "stage-only"}',
        "C": '{"epsilon": 0.2, "delta": 0.05, "s": 1, "rule": "C", '
             '"stages": [50], "budgets": [0.025], "unbounded": true, '
             '"ratio": 2.0, "decay": 0.5, "cap": 10000000, '
             '"check_set": "stage-only"}',
    }
    assert StageSchedule.from_json(docs["A"]) == \
        plan_bounded_abs(0.2, 0.05, 5, "A")
    again = StageSchedule.from_json(docs["C"])
    assert again == plan_unbounded(0.05, 50, epsilon=0.2, rule="C")
    assert again.table == plan_unbounded(0.05, 50).table


def test_check_set_policies(tmp_path, capsys):
    # runs check at the stage sizes only; a document asking for any
    # other check set is refused, and run --schedule exits 2 on it
    sched = plan_bounded_abs(0.1, 0.05, 5, "A")
    assert sched.in_check_set(51)
    assert sched.in_check_set(265)
    assert not sched.in_check_set(99)
    doc = json.loads(sched.to_json())
    assert "check_set" not in doc
    assert StageSchedule.from_json(
        json.dumps({**doc, "check_set": "stage-only"})) == sched
    stream = tmp_path / "ones.txt"
    stream.write_text("1\n" * 60)
    for policy in ("all-n", "every-3"):
        with pytest.raises(ValueError, match="stage sizes only"):
            StageSchedule.from_json(json.dumps({**doc, "check_set": policy}))
        path = tmp_path / f"{policy}.json"
        path.write_text(json.dumps({**doc, "check_set": policy}))
        code = main(["run", "--schedule", str(path), "--input", str(stream)])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and policy in err


def test_unbounded_check_set_hits_stage_sizes():
    sched = plan_unbounded(0.05, 50)
    for n in (50, 100, 200, 400):
        assert sched.in_check_set(n)
    assert not sched.in_check_set(75)


def test_default_cap():
    assert plan_unbounded(0.05, 50).cap == DEFAULT_CAP


def test_unbounded_check_set_agrees_with_stage_table():
    sched = StageSchedule(epsilon=0.1, delta=0.05, s=2, rule="C",
                          stages=(50, 120), budgets=(0.02, 0.01),
                          unbounded=True, cap=10 ** 4)
    sizes = {m for m, _, _ in sched.table[:11]}
    assert sched.table[1][:2] == (120, 0.01)
    for n in range(1, 5000):
        assert sched.in_check_set(n) == (n in sizes), n


@pytest.mark.parametrize("kwargs", [
    {},
    {"ratio": 1.5, "decay": 0.3, "cap": 10 ** 6},
])
def test_unbounded_table_matches_lazy_recurrence(kwargs):
    sched = plan_unbounded(0.05, 50, **kwargs)
    limit = sched.cap * STAGE_SCAN_FACTOR
    m, ell = 50, 1
    while True:
        b = sched.delta * (1.0 - sched.decay) * sched.decay ** (ell - 1)
        assert sched.table[ell - 1][:2] == (m, b)
        if m >= limit:
            break
        m = max(m + 1, math.ceil(m * sched.ratio))
        ell += 1
    assert len(sched.table) == ell


def test_ratio_close_to_one_within_stage_limit():
    sched = plan_unbounded(0.05, 50, ratio=1.001)
    assert 10 ** 4 < len(sched.table) < MAX_STAGES // 4


def test_unbounded_rejects_non_finite_and_slow_ratios():
    for ratio in (math.inf, math.nan, 1.000000001):
        with pytest.raises(ValueError):
            plan_unbounded(0.05, 50, ratio=ratio)
    with pytest.raises(ValueError):
        plan_bounded_abs(0.1, 0.05, MAX_STAGES + 1, "A")


@pytest.mark.parametrize("kwargs", [{}, {"ratio": 1.001}])
def test_table_thresholds(kwargs):
    # today's ln(b / 2) / m wherever b / 2 is positive; in log space, and
    # still falling with the budgets, once it underflows
    sched = plan_unbounded(0.05, 50, **kwargs)
    for m, b, threshold in sched.table:
        if b / 2.0 > 0.0:
            assert threshold == math.log(b / 2.0) / m
        else:
            assert math.isfinite(threshold) and threshold < 0.0
    under = [ell for ell, (_, b, _) in enumerate(sched.table) if b == 0.0]
    assert bool(under) == ("ratio" in kwargs)
    if under:
        ell = under[0]
        m, _, threshold = sched.table[ell]
        assert threshold * m == pytest.approx(
            math.log(0.05 * 0.5 / 2.0) + ell * math.log(0.5), rel=1e-12)


def test_rule_b_budgets_are_delta_over_s():
    plan_bounded_abs(0.1, 0.05, 5, "B")
    with pytest.raises(ValueError, match="delta / s"):
        StageSchedule(epsilon=0.1, delta=0.05, s=1, rule="B",
                      stages=(60, 90, 130, 190, 265), budgets=(0.01,) * 5)
    with pytest.raises(ValueError, match="delta / s"):
        StageSchedule(epsilon=0.1, delta=0.05, s=0, rule="B",
                      stages=(265,), budgets=(0.05,))
    # a 12-digit document of a planned table still loads
    StageSchedule(epsilon=0.1, delta=0.05, s=3, rule="B",
                  stages=(100, 200, 265), budgets=(0.0166666666667,) * 3)
