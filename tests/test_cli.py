import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqstop.cli import _json_12sig, _summary, main
from seqstop.fixed_ci import SampleSummary, _div, _phi_ext
from seqstop.rules import RULES, EstimationGoal, RunningSample, feed
from seqstop.schedules import StageSchedule, plan_unbounded
from seqstop.sim import DistributionSpec, coverage_experiment, generate


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_stream(tmp_path, values, name="stream.txt"):
    path = tmp_path / name
    path.write_text("\n".join(str(v) for v in values) + "\n")
    return str(path)


def test_plan_round_trips(capsys):
    code, out, _ = run_cli(capsys, "plan", "--rule", "A",
                           "--epsilon", "0.1", "--delta", "0.05",
                           "--stages", "5")
    assert code == 0
    sched = StageSchedule.from_json(out)
    assert sched.stages == (51, 77, 117, 176, 265)


def test_plan_unbounded_json(capsys):
    code, out, _ = run_cli(capsys, "plan", "--rule", "C", "--m1", "50")
    assert code == 0
    doc = json.loads(out)
    assert doc["unbounded"] is True


def test_run_constant_stream(capsys, tmp_path):
    path = write_stream(tmp_path, [1.0] * 60)
    code, out, _ = run_cli(capsys, "run", "--rule", "A", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "stopped"
    assert doc["n"] == 51


def test_run_empty_stream_is_data_error(capsys, tmp_path):
    path = write_stream(tmp_path, [])
    code, out, err = run_cli(capsys, "run", "--rule", "A", "--input", path)
    assert code == 3


def test_run_bad_observation_is_data_error(capsys, tmp_path):
    path = write_stream(tmp_path, [0.5, 2.5])
    code, _, err = run_cli(capsys, "run", "--rule", "A", "--input", path)
    assert code == 3
    assert "error" in err


def test_usage_error_exit_code(capsys):
    code, _, _ = run_cli(capsys, "plan", "--rule", "Q")
    assert code == 2
    code, _, _ = run_cli(capsys, "run", "--epsilon", "0.9")
    assert code == 2


def test_ci_on_zero_stream(capsys, tmp_path):
    path = write_stream(tmp_path, [0.0] * 100)
    code, out, _ = run_cli(capsys, "ci", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["L"] == 0.0
    assert 0.0 < doc["U"] < 0.1


def test_ci_delta_widens(capsys, tmp_path):
    path = write_stream(tmp_path, [0.0, 1.0] * 50)
    _, out_tight, _ = run_cli(capsys, "ci", "--input", path,
                              "--delta", "0.2")
    _, out_wide, _ = run_cli(capsys, "ci", "--input", path,
                             "--delta", "0.01")
    tight = json.loads(out_tight)
    wide = json.loads(out_wide)
    assert wide["L"] <= tight["L"]
    assert wide["U"] >= tight["U"]


def test_simulate_fixed_seed_reproducible(capsys):
    argv = ("simulate", "--procedure", "A", "--dist", "bernoulli",
            "--p", "0.3", "--seed", "5", "--reps", "25")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
    doc = json.loads(first)
    assert doc["replications"] == 25


def test_simulate_workers_do_not_change_result(capsys):
    base = ("simulate", "--procedure", "A", "--dist", "bernoulli",
            "--p", "0.3", "--seed", "5", "--reps", "24")
    _, serial, _ = run_cli(capsys, *base, "--workers", "1")
    _, parallel, _ = run_cli(capsys, *base, "--workers", "3")
    assert serial == parallel


def test_simulate_ci_does_not_check_the_epsilon_it_ignores(capsys):
    base = ("simulate", "--procedure", "ci", "--fixed-n", "10", "--reps", "5")
    code, wide, err = run_cli(capsys, *base, "--epsilon", "0.6")
    assert (code, err) == (0, "")
    assert wide == run_cli(capsys, *base, "--epsilon", "0.1")[1]


@pytest.mark.parametrize("procedure", ["A", "B", "mv"])
def test_simulate_bounded_abs_rules_reject_epsilon_half(capsys, procedure):
    code, out, err = run_cli(capsys, "simulate", "--procedure", procedure,
                             "--epsilon", "0.6", "--reps", "5")
    assert (code, out) == (2, "")
    assert "epsilon < 1/2" in err


def test_simulate_zero_reps(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--reps", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["replications"] == 0
    assert doc["coverage"] == 0.0


def test_simulate_ci_requires_fixed_n(capsys):
    code, _, err = run_cli(capsys, "simulate", "--procedure", "ci",
                           "--reps", "5")
    assert code == 2
    assert "fixed-n" in err


def test_simulate_ci_rejects_zero_fixed_n(capsys):
    code, _, err = run_cli(capsys, "simulate", "--procedure", "ci",
                           "--reps", "5", "--fixed-n", "0")
    assert code == 2
    assert "fixed-n" in err


def test_simulate_rejects_negative_reps(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--reps", "-5")
    assert code == 2
    assert out == ""


def test_simulate_rejects_non_finite_distribution(capsys):
    code, _, _ = run_cli(capsys, "simulate", "--procedure", "D",
                         "--dist", "geometric", "--theta", "inf",
                         "--reps", "3")
    assert code == 2


def test_simulate_procedure_picks_rule_schedule(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--procedure", "C",
                           "--epsilon", "0.2", "--p", "0.5", "--reps", "20",
                           "--seed", "3")
    assert code == 0
    spec = DistributionSpec("bernoulli", {"p": 0.5}, seed=3)
    report = coverage_experiment(
        "C", spec, goal=EstimationGoal("bounded", "rel", 0.2, 0.05),
        schedule=plan_unbounded(0.05, 50, rule="C", epsilon=0.2), reps=20)
    assert json.loads(out) == json.loads(_json_12sig(report.to_json()))


def test_simulate_procedure_picks_rule_family(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--procedure", "E",
                           "--dist", "poisson", "--lam", "4",
                           "--epsilon", "0.5", "--reps", "5")
    assert code == 0
    assert json.loads(out)["replications"] == 5


def test_run_rule_picks_family(capsys, tmp_path):
    spec = DistributionSpec("geometric", {"theta": 4.0}, seed=2)
    path = write_stream(tmp_path, list(generate(spec, 400)))
    code, out, _ = run_cli(capsys, "run", "--rule", "D", "--epsilon", "0.2",
                           "--input", path)
    assert code == 0
    assert json.loads(out)["status"] == "stopped"


@pytest.mark.parametrize("rule", "DEF")
def test_run_infinite_observation_is_data_error(capsys, tmp_path, rule):
    path = write_stream(tmp_path, [2.0, "inf"])
    code, _, err = run_cli(capsys, "run", "--rule", rule, "--input", path)
    assert code == 3
    assert "inf" in err


@pytest.mark.parametrize("command", ["plan", "run"])
@pytest.mark.parametrize("ratio", ["inf", "1.000000001"])
def test_bad_ratio_is_usage_error(capsys, tmp_path, command, ratio):
    path = write_stream(tmp_path, [0.5] * 10)
    argv = [command, "--rule", "C", "--ratio", ratio]
    if command == "run":
        argv += ["--input", path]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""


def test_region_csv_rows_satisfy_equations(capsys, tmp_path):
    values = [0.0] * 60 + [1.0] * 40
    path = write_stream(tmp_path, values)
    code, out, _ = run_cli(capsys, "region", "--input", path,
                           "--resolution", "20")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "curve,nu,vartheta"
    summary = SampleSummary(n=100, mean=0.4, var=0.24)
    thr = math.log(4.0 / 0.05) / 100
    for line in lines[1:]:
        curve, nu_s, th_s = line.split(",")
        nu, th = float(nu_s), float(th_s)
        if curve in ("C1", "D1"):
            assert abs(th - nu * (1 - nu)) < 1e-6
        elif curve in ("C2", "D2"):
            assert abs(_div(summary.mean, nu, th) - thr) < 1e-6
        else:
            assert abs(_phi_ext(summary.w(nu), th) - thr) < 1e-6


def test_region_json_format(capsys, tmp_path):
    path = write_stream(tmp_path, [0.0, 1.0] * 40)
    code, out, _ = run_cli(capsys, "region", "--input", path,
                           "--resolution", "10", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 80
    assert doc["points"]


def test_config_defaults_apply(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epsilon": 0.2, "stages": 3}))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "plan",
                           "--rule", "A")
    assert code == 0
    doc = json.loads(out)
    assert doc["epsilon"] == 0.2
    assert len(doc["stages"]) == 3


@pytest.mark.parametrize("config, argv", [
    ({"rule": "Z"}, ["run"]),
    ({"procedure": "Z"}, ["simulate", "--reps", "1"]),
    ({"stages": 2.5}, ["plan"]),
    ([1, 2], ["plan"]),
])
def test_config_values_checked_like_flags(capsys, tmp_path, config, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "--config", str(cfg), *argv)
    assert code == 2
    assert out == "" and err.startswith("error: bad config file")


def test_config_missing_file(capsys):
    code, _, err = run_cli(capsys, "--config", "/nonexistent.json", "plan")
    assert code == 2


def _quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-5, 30).map(str),
    st.sampled_from(["inf", "-inf", "nan", "-1", "0.5", "2.5", "1e400",
                     "abc", "1,2", "--"]),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(rule=st.sampled_from(list(RULES)),
       tokens=st.lists(_TOKENS, max_size=60))
def test_run_exit_codes_on_any_stream(rule, tokens):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "stream.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(tokens))
        code = _quiet_main(["run", "--rule", rule, "--input", path])
    assert code in (0, 2, 3)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(procedure=st.sampled_from(["A", "B", "C", "D", "E", "F", "mv", "ci"]),
       reps=st.integers(-3, 3), fixed_n=st.integers(-2, 40))
def test_simulate_exit_codes_on_small_counts(procedure, reps, fixed_n):
    family = {"D": ["--dist", "geometric"], "E": ["--dist", "poisson"],
              "F": ["--dist", "poisson"]}.get(procedure, [])
    code = _quiet_main(["simulate", "--procedure", procedure, *family,
                        "--epsilon", "0.3", "--reps", str(reps),
                        "--fixed-n", str(fixed_n)])
    assert code in (0, 2, 3)


def test_run_schedule_file_missing(capsys, tmp_path):
    path = str(tmp_path / "missing.json")
    code, _, err = run_cli(capsys, "run", "--schedule", path,
                           "--input", write_stream(tmp_path, [1.0] * 60))
    assert code == 2 and path in err


def test_run_schedule_file_without_key(capsys, tmp_path):
    path = tmp_path / "sched.json"
    path.write_text(json.dumps({"epsilon": 0.1}))
    code, _, err = run_cli(capsys, "run", "--schedule", str(path),
                           "--input", write_stream(tmp_path, [1.0] * 60))
    assert code == 2 and "lacks key" in err


@pytest.mark.parametrize("command, flags, planned, given", [
    ("run", ["--rule", "A", "--delta", "0.01"], "0.5", "0.01"),
    ("run", ["--rule", "C", "--delta", "0.5"], "'A'", "'C'"),
    ("run", ["--rule", "A", "--delta", "0.5", "--epsilon", "0.2"],
     "0.1", "0.2"),
    ("simulate", ["--procedure", "A", "--delta", "0.01"], "0.5", "0.01"),
    ("simulate", ["--procedure", "C", "--delta", "0.5"], "'A'", "'C'"),
])
def test_schedule_file_must_match_flags(capsys, tmp_path, command, flags,
                                        planned, given):
    _, out, _ = run_cli(capsys, "plan", "--rule", "A", "--epsilon", "0.1",
                        "--delta", "0.5")
    sched = tmp_path / "sched.json"
    sched.write_text(out)
    argv = [command, *flags, "--schedule", str(sched)]
    if command == "run":
        argv += ["--input", write_stream(tmp_path, [1.0] * 60)]
    else:
        argv += ["--reps", "2"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"{planned} but the flags give {given}" in err


def test_schedule_file_matching_flags_runs(capsys, tmp_path):
    _, out, _ = run_cli(capsys, "plan", "--rule", "A", "--epsilon", "0.1",
                        "--delta", "0.5")
    sched = tmp_path / "sched.json"
    sched.write_text(out)
    code, out, _ = run_cli(capsys, "run", "--rule", "A", "--delta", "0.5",
                           "--schedule", str(sched),
                           "--input", write_stream(tmp_path, [1.0] * 60))
    assert code == 0
    assert json.loads(out)["n"] == 29


@pytest.mark.parametrize("flags", [
    ["--rule", "C", "--epsilon", "0"],
    ["--rule", "F", "--epsilon", "1.5"],
    ["--rule", "E", "--epsilon", "inf"],
])
def test_run_refuses_a_plan_the_rule_cannot_take(capsys, tmp_path, flags):
    # plan_unbounded takes any epsilon; the run refuses it before reading,
    # so a missing input is not reached and the exit is a usage error
    missing = str(tmp_path / "missing.txt")
    code, out, err = run_cli(capsys, "run", *flags, "--input", missing)
    assert (code, out) == (2, "") and "epsilon" in err
    assert "cannot read stream" not in err


def test_run_uses_the_epsilon_of_its_schedule_file(capsys, tmp_path):
    # a hand-written rule-A file at epsilon 0.7: its table is valid, but
    # rule A cannot take its epsilon, and the run says so before reading
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"epsilon": 0.7, "delta": 0.05, "s": 1,
                                "rule": "A", "stages": [60],
                                "budgets": [0.05]}))
    code, out, err = run_cli(capsys, "run", "--rule", "A", "--epsilon",
                             "0.7", "--schedule", str(path), "--input",
                             str(tmp_path / "missing.txt"))
    assert (code, out) == (2, "") and "epsilon < 1/2" in err


def test_ci_where_the_scan_probes_within_rounding_of_the_mean(capsys,
                                                             tmp_path):
    # 1646 ones in 7143: the lower scan meets nu whose 1 - nu rounds
    # onto 1 - mean
    path = write_stream(tmp_path, [1.0] * 1646 + [0.0] * 5497)
    code, out, _ = run_cli(capsys, "ci", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["L"] <= doc["mean"] <= doc["U"]


@pytest.mark.parametrize("rule, epsilon, delta, stages, value", [
    ("A", "0.02", "0.1", "3", 0.0),
    ("D", "0.13", "0.01", "2", 1.0),
])
def test_run_where_the_last_checked_stage_rounds(capsys, tmp_path, rule,
                                                 epsilon, delta, stages,
                                                 value):
    # n * eps / n rounding above eps used to push z out of the kernel's
    # domain at stages with n >= m_l
    path = write_stream(tmp_path, [value] * 2000)
    code, out, err = run_cli(capsys, "run", "--rule", rule, "--epsilon",
                             epsilon, "--delta", delta, "--stages", stages,
                             "--input", path)
    assert code == 0 and err == ""
    assert json.loads(out)["status"] == "stopped"


def test_simulate_where_the_last_checked_stage_rounds(capsys):
    code, out, err = run_cli(capsys, "simulate", "--procedure", "D",
                             "--dist", "geometric", "--theta", "1.0000001",
                             "--epsilon", "0.13", "--delta", "0.01",
                             "--stages", "2", "--reps", "5")
    assert code == 0 and err == ""
    assert json.loads(out)["coverage"] == 1.0


def test_run_stops_reading_at_its_decision(capsys, monkeypatch):
    stdin = io.StringIO("1\n" * 10 ** 6)
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, _ = run_cli(capsys, "run", "--rule", "A")
    assert code == 0
    assert json.loads(out)["n"] == 51
    assert stdin.tell() < len(stdin.getvalue()) // 10


def _finite_schedule_file(tmp_path, budget):
    path = tmp_path / "sched.json"
    path.write_text(json.dumps({"epsilon": 0.1, "delta": 0.05, "s": 5,
                                "rule": "A", "stages": [10, 11, 12, 13, 14],
                                "budgets": [budget] * 5}))
    return str(path)


def test_run_ends_at_the_last_stage_of_a_finite_schedule(tmp_path):
    # rule A cannot fire by n = 14; the run ends there, not at the end of
    # an endless stream
    path = _finite_schedule_file(tmp_path, 0.01)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    ones = subprocess.Popen(["yes", "1"], stdout=subprocess.PIPE)
    run = subprocess.Popen(
        [sys.executable, "-m", "seqstop.cli", "run", "--rule", "A",
         "--schedule", path], stdin=ones.stdout, stdout=subprocess.PIPE,
        env=env, text=True)
    ones.stdout.close()
    try:
        out, _ = run.communicate(timeout=30)
    finally:
        for proc in (run, ones):
            proc.kill()
            proc.wait()
    assert run.returncode == 0
    doc = json.loads(out)
    assert (doc["status"], doc["n"], doc["stage"]) == ("no-inclusion", 14, 5)


def test_run_refuses_budgets_above_delta(capsys, tmp_path):
    code, out, err = run_cli(capsys, "run", "--rule", "A", "--schedule",
                             _finite_schedule_file(tmp_path, 0.049),
                             "--input", write_stream(tmp_path, [1.0] * 60))
    assert code == 2 and out == "" and "budgets" in err


@pytest.mark.parametrize("bad_line, expected", [(60, 0), (10, 3)])
def test_run_checks_tokens_only_up_to_its_decision(capsys, tmp_path,
                                                    bad_line, expected):
    values = [1.0] * 100
    values[bad_line - 1] = "abc"
    path = write_stream(tmp_path, values)
    code, _, err = run_cli(capsys, "run", "--rule", "A", "--input", path)
    assert code == expected
    assert ("abc" in err) == (expected == 3)


def test_ci_and_region_summarise_as_feed_does(tmp_path):
    spec = DistributionSpec("scaled-beta", {"alpha": 2, "beta": 5}, seed=4)
    values = list(generate(spec, 3000))
    state = RunningSample()
    goal = EstimationGoal("bounded", "abs", 0.1, 0.05)
    for x in values:
        feed(state, x, goal)
    assert _summary(write_stream(tmp_path, values)) == state.summary()


def test_run_missing_input_is_data_error(capsys, tmp_path):
    path = str(tmp_path / "missing.txt")
    code, out, err = run_cli(capsys, "run", "--input", path)
    assert code == 3 and out == "" and "cannot read stream" in err


_UNIT_TOKENS = st.one_of(st.floats(0.0, 1.0).map(repr),
                         st.sampled_from(["0", "1", "0.5"]))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(command=st.sampled_from(["ci", "region"]),
       tokens=st.lists(st.one_of(_UNIT_TOKENS, _TOKENS), max_size=40))
def test_ci_and_region_exit_codes_on_any_stream(command, tokens):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "stream.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(tokens))
        argv = [command, "--input", path]
        if command == "region":
            argv += ["--resolution", "20"]
        code = _quiet_main(argv)
    assert code in (0, 3)


# each family's support, with its edges drawn often: constant streams at
# an edge are where rounding once pushed a kernel argument out of range
_IN_SUPPORT = {
    "bounded": st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    "geometric": st.one_of(st.just(1.0), st.integers(1, 50).map(float)),
    "poisson": st.one_of(st.just(0.0), st.integers(0, 50).map(float)),
}


@pytest.mark.parametrize("rule", list(RULES))
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(data=st.data(), stages=st.integers(1, 5),
       delta=st.sampled_from([0.01, 0.05, 0.1, 0.2]))
def test_run_is_silent_on_in_support_streams(rule, data, stages, delta):
    parameter, error = RULES[rule].parameter, RULES[rule].error
    top = 49 if (parameter, error) == ("bounded", "abs") else 99
    epsilon = data.draw(st.integers(1, top)) / 100
    if data.draw(st.booleans()):
        values = [data.draw(_IN_SUPPORT[parameter])] * \
            data.draw(st.integers(0, 400))
    else:
        values = data.draw(st.lists(_IN_SUPPORT[parameter], max_size=400))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "stream.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(map(repr, values)))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["run", "--rule", rule, "--epsilon", repr(epsilon),
                         "--delta", repr(delta), "--stages", str(stages),
                         "--cap", "400", "--input", path])
    assert err.getvalue() == "", (code, err.getvalue())
    assert code in (0, 3)


def test_cli_import_loads_neither_scipy_nor_numpy():
    # scipy is imported by region_boundary and numpy by the block draws,
    # each when first used
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    check = ("import sys, seqstop.cli; "
             "assert 'scipy' not in sys.modules, 'scipy'; "
             "assert 'numpy' not in sys.modules, 'numpy'")
    subprocess.run([sys.executable, "-c", check], env=env, check=True)


def test_run_decides_where_budgets_underflow(capsys, tmp_path):
    # at ratio 1.001 the budgets of the decay-0.5 continuation underflow
    # to 0.0 from stage 1071 (m = 1239), which the first checkpoint's scan
    # reaches; the thresholds are then taken in log space and stay finite
    flips = [1] * 30 + [0] * 20 + [1] * 2950
    path = write_stream(tmp_path, flips)
    code, out, err = run_cli(capsys, "run", "--rule", "C", "--ratio",
                             "1.001", "--epsilon", "0.5", "--input", path)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["status"], doc["n"], doc["stage"]) == ("stopped", 54, 1)


def test_rule_b_schedule_must_split_delta_over_s(capsys, tmp_path):
    # rule B's test spends delta / s per stage; five stages of delta / 5
    # under s = 1 would spend 5 delta
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"epsilon": 0.1, "delta": 0.05, "s": 1,
                                "rule": "B",
                                "stages": [60, 90, 130, 190, 265],
                                "budgets": [0.01] * 5}))
    code, out, err = run_cli(capsys, "run", "--rule", "B", "--schedule",
                             str(path), "--input",
                             write_stream(tmp_path, [1.0] * 300))
    assert code == 2 and out == "" and "delta / s" in err


def test_run_writes_a_cap_reached_decision_as_truncated(capsys, tmp_path):
    path = write_stream(tmp_path, [4.0] * 99)
    code, out, _ = run_cli(capsys, "run", "--rule", "E", "--epsilon", "0.01",
                           "--cap", "5", "--input", path)
    assert code == 0
    assert json.loads(out) == {
        "status": "cap-reached", "n": 5, "stage": None, "estimate": 4.0,
        "rule": "E", "epsilon": 0.01, "delta": 0.05, "truncated": True}


def test_simulate_parses_the_discrete_flags(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--dist", "discrete",
                           "--support", "0,0.5,1", "--probs",
                           "0.25,0.5,0.25", "--reps", "20")
    assert code == 0
    assert json.loads(out)["spec"] == {
        "kind": "discrete",
        "params": {"support": [0.0, 0.5, 1.0], "probs": [0.25, 0.5, 0.25]}}


_SCHEDULE_DOCS = {
    "C": {"epsilon": 0.2, "delta": 0.05, "s": 1, "rule": "C",
          "stages": [50], "budgets": [0.025], "unbounded": True},
    "A": {"epsilon": 0.1, "delta": 0.05, "s": 1, "rule": "A",
          "stages": [185], "budgets": [0.05]},
}


@pytest.mark.parametrize("argv, expected", [
    # planners whose stage sizes would overflow a float
    *[([command, flag, rule, "--epsilon", eps], 2)
      for command, flag in (("plan", "--rule"), ("run", "--rule"),
                            ("simulate", "--procedure"))
      for rule in ("A", "B", "D", "mv") for eps in ("1e-160", "1e-300")],
    # plans no rule can run
    (["plan", "--rule", "C", "--epsilon", "0"], 2),
    (["plan", "--rule", "F", "--epsilon", "1.5"], 2),
    (["plan", "--rule", "E", "--epsilon", "0.5", "--cap", "-3"], 2),
    (["run", "--rule", "E", "--epsilon", "0.5", "--cap", "0"], 2),
    (["simulate", "--procedure", "E", "--dist", "poisson", "--epsilon",
      "0.5", "--cap", "0"], 2),
    # geometric means whose draws or sums would overflow
    *[(["simulate", "--procedure", "D", "--dist", "geometric", "--epsilon",
        "0.2", "--theta", theta], 2) for theta in ("1e306", "1e307", "1e308")],
    (["simulate", "--procedure", "D", "--dist", "geometric", "--epsilon",
      "0.2", "--theta", "1e300"], 0),
])
def test_cli_inputs_end_in_an_exit_code(capsys, tmp_path, argv, expected):
    if argv[0] == "run":
        argv = argv + ["--input", write_stream(tmp_path, [1.0] * 400)]
    elif argv[0] == "simulate":
        argv = argv + ["--reps", "3"]
    code, out, err = run_cli(capsys, *argv)
    assert code == expected and code in (0, 2, 3), err
    assert (out == "") == (code == 2)


@pytest.mark.parametrize("rule, changes", [
    (rule, changes) for rule in ("C", "A") for changes in (
        {"cap": 1e3}, {"stages": [50.0]}, {"s": 1.5}, {"s": True},
        {"unbounded": "yes"}, {"stages": [True]},
        {"stages": [], "budgets": []})])
@pytest.mark.parametrize("command", ["run", "simulate"])
def test_schedule_files_with_wrong_types_exit_2(capsys, tmp_path, rule,
                                                changes, command):
    doc = {**_SCHEDULE_DOCS[rule], **changes}
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(doc))
    flag = "--rule" if command == "run" else "--procedure"
    argv = [command, flag, rule, "--epsilon", str(doc["epsilon"]),
            "--schedule", str(path)]
    argv += (["--input", write_stream(tmp_path, [1.0] * 400)]
             if command == "run" else ["--reps", "3"])
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and "bad observation" not in err
