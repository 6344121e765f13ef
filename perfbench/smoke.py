"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

It is not named test_*.py, so the repository's own test run does not
collect it.  Each workload runs once untraced and once traced with a
two-round check slice and a near-zero timed window.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def bench(name: str, trace: int):
    """Run one workload in this process; returns (exit code, stdout lines)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", str(SEED),
                         "--seconds", "0.01", "--trace", str(trace)])
    return code, out.getvalue().splitlines()


class SmokeTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.saved = dict(workloads.SLICE_ROUNDS), run.SETUP_PROBES
        workloads.SLICE_ROUNDS.update({name: 2 for name in workloads.NAMES})
        run.SETUP_PROBES = 1
        with open(os.path.join(ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as fh:
            cls.spec = json.load(fh)
        cls.results = {(name, t): bench(name, t)
                       for name in workloads.NAMES for t in (0, 1)}

    @classmethod
    def tearDownClass(cls):
        workloads.SLICE_ROUNDS.update(cls.saved[0])
        run.SETUP_PROBES = cls.saved[1]

    def test_declared_metrics_match_the_benchmark(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(workloads.NAMES))
        self.assertEqual({m["name"]: m["unit"]
                          for m in self.spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in self.spec["per_layer"]],
                         [row[:3] for row in tracer.PER_LAYER])

    def test_every_metric_printed_with_its_unit(self):
        for (name, trace), (code, lines) in self.results.items():
            with self.subTest(workload=name, trace=trace):
                self.assertEqual(code, 0, "\n".join(lines))
                result = json.loads(lines[-1])
                self.assertEqual(set(result), {"correct", "attempted",
                                               "failed", "metrics"})
                self.assertTrue(result["correct"])
                declared = self.spec["per_layer" if trace else "end_to_end"]
                self.assertEqual(
                    {k: v["unit"] for k, v in result["metrics"].items()},
                    {m["name"]: m["unit"] for m in declared})
                prefix = "layer" if trace else "metric"
                for m in declared:
                    self.assertTrue(any(
                        line.startswith(f"{prefix} {m['name']} = ") and
                        f" {m['unit']}" in line for line in lines), m)
                self.assertTrue(any(line.startswith("digest ")
                                    for line in lines))

    def test_wrappers_removed(self):
        program = workloads.import_program()
        self.assertEqual(tracer.leftover_wrappers(program), [])
        self.assertIs(program.sim.ci_mean, program.fixed_ci.ci_mean)
        self.assertIs(program.fixed_ci.varphi, program.kernels.varphi)
        for (name, trace), (_, lines) in self.results.items():
            if trace:
                self.assertIn("wrappers left: 0", "\n".join(lines))

    def test_one_and_two_process_digests_match(self):
        for name in workloads.SIM_WORKLOADS:
            digests = {line.split()[1] for t in (0, 1)
                       for line in self.results[(name, t)][1]
                       if line.startswith("digest ")}
            self.assertEqual(len(digests), 1, name)

    def test_two_process_check_catches_a_changed_decision(self):
        program = workloads.import_program()
        wl = workloads.build("short_stream", SEED, program, "")
        state = run.Run(wl)
        records, decisions, _ = run.run_slice(state, None)
        self.assertEqual(state.problems, [])
        status, n, *rest = decisions[0][1]
        decisions[0][1] = (status, n + 1, *rest)
        run.two_process_check(state, records, decisions)
        self.assertEqual(state.problems,
                         [f"{wl.configs[0].label}: 2-process decisions "
                          f"differ"])

    def test_only_the_known_defect_is_not_a_failure(self):
        program = workloads.import_program()
        workdir = os.path.join(ROOT, ".bench_work", "smoke-defect")
        os.makedirs(workdir, exist_ok=True)
        wl = workloads.build("interval_requests", SEED, program, workdir)
        with open(wl.configs[0].files[0].path, "w", encoding="utf-8") as fh:
            fh.write("0.25\n0.75\n")
        saved = program.cli.main

        def exits_2(message):
            def main(argv):
                print(message, file=sys.stderr)
                return 2
            return main
        try:
            program.cli.main = exits_2("error: z must lie in [0, nu), got "
                                       "0.75")
            self.assertEqual(wl.op(0, 0)[2], workloads.KNOWN_DEFECT)
            program.cli.main = exits_2("error: z must lie in [0, 1], got 2")
            self.assertEqual(wl.op(0, 0)[2], workloads.FAILED)
        finally:
            program.cli.main = saved
            shutil.rmtree(workdir, ignore_errors=True)
            with contextlib.suppress(OSError):
                os.rmdir(os.path.dirname(workdir))
        self.assertEqual((len(wl.defects), len(wl.failures)), (1, 1))

    def test_traced_counts_repeat(self):
        _, again = bench("multistage", 1)

        def counts(lines):
            metrics = json.loads(lines[-1])["metrics"]
            return {k: v["value"] for k, v in metrics.items()
                    if v["unit"] in ("count", "ratio", "bytes")}
        self.assertEqual(counts(self.results[("multistage", 1)][1]),
                         counts(again))

    def test_fails_without_the_program(self):
        bare = os.path.join(ROOT, ".bench_work", "smoke-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "short_stream", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=bare, capture_output=True, text=True,
                timeout=120)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
            with contextlib.suppress(OSError):
                os.rmdir(os.path.dirname(bare))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
