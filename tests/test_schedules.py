import math

import pytest

from seqstop.schedules import (DEFAULT_CAP, MAX_STAGES, STAGE_SCAN_FACTOR,
                               StageSchedule, plan_bounded_abs,
                               plan_geometric_mean, plan_unbounded)


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
    ms = [sched.stage(ell)[0] for ell in (1, 2, 3)]
    bs = [sched.stage(ell)[1] for ell in (1, 2, 3)]
    assert ms == [50, 100, 200]
    assert bs[0] == pytest.approx(0.025)
    assert bs[1] == pytest.approx(0.0125)


def test_unbounded_budgets_sum_below_delta():
    sched = plan_unbounded(0.05, 50)
    total = sum(sched.stage(ell)[1] for ell in range(1, 21))
    assert total <= 0.05 + 1e-15


def test_unbounded_threshold_ratio_shrinks():
    sched = plan_unbounded(0.05, 50)
    def ratio(ell):
        m, b = sched.stage(ell)
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


def test_check_set_policies():
    sched = plan_bounded_abs(0.1, 0.05, 5, "A")
    assert sched.in_check_set(51)
    assert sched.in_check_set(265)
    assert not sched.in_check_set(100)
    every3 = StageSchedule(epsilon=0.1, delta=0.05, s=5, rule="A",
                           stages=sched.stages, budgets=sched.budgets,
                           check_every=3)
    assert every3.in_check_set(99)
    assert every3.in_check_set(51)  # stage boundaries always included


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
    sizes = {sched.stage(ell)[0] for ell in range(1, 12)}
    assert sched.stage(2) == (120, 0.01)
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
        assert sched.stage(ell) == (m, b)
        if m >= limit:
            break
        m = max(m + 1, math.ceil(m * sched.ratio))
        ell += 1
    with pytest.raises(IndexError):
        sched.stage(ell + 1)
    assert list(sched.iter_stages()) == [
        (k, *sched.stage(k)) for k in range(1, ell + 1)]


def test_ratio_close_to_one_within_stage_limit():
    sched = plan_unbounded(0.05, 50, ratio=1.001)
    assert 10 ** 4 < len(sched.table) < MAX_STAGES // 4


def test_unbounded_rejects_non_finite_and_slow_ratios():
    for ratio in (math.inf, math.nan, 1.000000001):
        with pytest.raises(ValueError):
            plan_unbounded(0.05, 50, ratio=ratio)
    with pytest.raises(ValueError):
        plan_bounded_abs(0.1, 0.05, MAX_STAGES + 1, "A")
