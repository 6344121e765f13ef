import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqstop.cli import _json_12sig, main
from seqstop.fixed_ci import SampleSummary, _div_above, _div_below, _phi_ext
from seqstop.rules import EstimationGoal
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
        elif curve == "C2":
            assert abs(_div_above(summary.mean, nu, th) - thr) < 1e-6
        elif curve == "D2":
            assert abs(_div_below(summary.mean, nu, th) - thr) < 1e-6
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
@given(rule=st.sampled_from("ABCDEF"),
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
