"""End-to-end acceptance suite.

Each test prints a single "criterion N: PASS/FAIL" verdict line (echoed
in the terminal summary) and then asserts the criterion.  Statistical
criteria use fixed seeds, so reruns are byte-for-byte reproducible.
"""

import math
import random

from conftest import record_verdict

from seqstop import kernels
from seqstop.fixed_ci import (SampleSummary, _div, _phi_ext, ci_mean,
                              region_boundary, region_contains)
from seqstop.kernels import mb, mb_massart, mg, mp, phi, psi, varphi
from seqstop.rules import (EstimationGoal, RunningSample, _cond_a, _cond_d,
                           _cond_e, run_to_stop)
from seqstop.schedules import (plan_bounded_abs, plan_geometric_mean,
                               plan_unbounded)
from seqstop.seq_mv import plan_mv
from seqstop.sim import (DistributionSpec, coverage_chunk,
                         coverage_experiment, generate)

from oracles import oracle_ci_grid, oracle_sequence_limits

FD_STEP = 1e-6
FD_DEAD_ZONE = 1e-9


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    record_verdict(line)
    assert ok, line


def test_criterion_1_kernel_identities():
    worst = 0.0
    npts = 10_000
    for i in range(npts):
        z = (i + 0.5) / npts
        worst = max(worst, abs(mb(z, z)))
    for i in range(npts):
        th = (i + 0.5) / npts
        worst = max(worst, abs(mb(0.0, th) - math.log(1.0 - th)))
        worst = max(worst, abs(mp(0.0, 50.0 * th) + 50.0 * th))
        worst = max(worst, abs(mg(1.0, 1.0 + 49.0 * th) +
                               math.log(1.0 + 49.0 * th)))
    for i in range(100):
        for j in range(100):
            z = i / 99.0
            th = (j + 0.5) / 100.0
            worst = max(worst, abs(mb(z, th) - mb(1.0 - z, 1.0 - th)))
            if 0.0 < z < 1.0:
                worst = max(worst, abs(phi(z, th) + mb(z, th)))
    _verdict(1, worst <= 1e-12, f"max identity residual {worst:.3e}")


def _fd(func, x):
    return func(x + FD_STEP) - func(x - FD_STEP)


def test_criterion_2_monotonicity_signs():
    rng = random.Random(202)
    npts = 10_000
    violations = {}

    def suite(name, sampler, sign):
        bad = 0
        for _ in range(npts):
            func, x = sampler()
            d = _fd(func, x)
            if sign > 0 and d < -FD_DEAD_ZONE:
                bad += 1
            elif sign < 0 and d > FD_DEAD_ZONE:
                bad += 1
        violations[name] = bad

    def bounded_lower():
        y = rng.uniform(0.05, 0.99)
        r = rng.uniform(1e-3, 1.0)
        mu = rng.uniform(2 * FD_STEP + 1e-4, y - 2 * FD_STEP - 1e-4)
        return (lambda m: mb(m + r * (y - m), m)), mu

    def bounded_upper():
        y = rng.uniform(0.01, 0.95)
        r = rng.uniform(1e-3, 1.0)
        mu = rng.uniform(y + 2 * FD_STEP + 1e-4, 1.0 - 2 * FD_STEP - 1e-4)
        return (lambda m: mb(m - r * (m - y), m)), mu

    def geo_lower():
        y = rng.uniform(1.1, 10.0)
        r = rng.uniform(1e-3, 1.0)
        mu = rng.uniform(1.0 + 2 * FD_STEP + 1e-4, y - 2 * FD_STEP - 1e-4)
        return (lambda m: mg(m + r * (y - m), m)), mu

    def geo_upper():
        y = rng.uniform(1.1, 10.0)
        r = rng.uniform(1e-3, 1.0)
        mu = rng.uniform(y + 2 * FD_STEP + 1e-4, y + 10.0)
        return (lambda m: mg(m - r * (m - y), m)), mu

    def pos_lower():
        y = rng.uniform(0.1, 10.0)
        r = rng.uniform(1e-3, 1.0)
        mu = rng.uniform(2 * FD_STEP + 1e-4, y - 2 * FD_STEP - 1e-4)
        return (lambda m: mp(m + r * (y - m), m)), mu

    def pos_upper():
        y = rng.uniform(0.1, 10.0)
        r = rng.uniform(1e-3, 1.0)
        mu = rng.uniform(y + 2 * FD_STEP + 1e-4, y + 10.0)
        return (lambda m: mp(m - r * (m - y), m)), mu

    def psi_state():
        z = rng.uniform(0.1, 0.99)
        mu = rng.uniform(0.01 + 2 * FD_STEP, z - 0.005)
        tmax = mu * (1.0 - mu)
        th = rng.uniform(1e-4, tmax - 1e-4)
        return z, mu, th

    def psi_in_mean():
        z, mu, th = psi_state()
        return (lambda m: psi(z, m, th)), mu

    def psi_in_var():
        z, mu, th = psi_state()
        return (lambda t: psi(z, mu, t)), th

    def varphi_state():
        nu = rng.uniform(0.1, 0.95)
        z = rng.uniform(0.005, nu - 0.005)
        th = rng.uniform(1e-4, nu * (1.0 - nu) - 1e-4)
        return z, nu, th

    def varphi_in_mean():
        z, nu, th = varphi_state()
        return (lambda m: varphi(z, m, th)), nu

    def varphi_in_var():
        z, nu, th = varphi_state()
        return (lambda t: varphi(z, nu, t)), th

    suite("bounded-lower", bounded_lower, +1)
    suite("bounded-upper", bounded_upper, -1)
    suite("geo-lower", geo_lower, +1)
    suite("geo-upper", geo_upper, -1)
    suite("pois-lower", pos_lower, +1)
    suite("pois-upper", pos_upper, -1)
    suite("band-kernel-in-mean", psi_in_mean, -1)
    suite("band-kernel-in-var", psi_in_var, -1)
    suite("band-kernel-mirror-in-mean", varphi_in_mean, +1)
    suite("band-kernel-mirror-in-var", varphi_in_var, -1)
    total = sum(violations.values())
    _verdict(2, total == 0, f"sign violations {violations}")


def test_criterion_3_massart_dominance_and_ordering():
    worst = float("-inf")
    for i in range(200):
        for j in range(200):
            z = i / 199.0
            th = (j + 0.5) / 200.0
            worst = max(worst, mb(z, th) - mb_massart(z, th))
    dominated = worst <= 1e-12

    sched = plan_bounded_abs(0.1, 0.05, 5, "A")
    goal = EstimationGoal("bounded", "abs", 0.1, 0.05)
    spec = DistributionSpec("bernoulli", {"p": 0.3}, seed=303)
    ordered = True
    for rep in range(500):
        draws = list(generate(spec, 265, rep))
        da = run_to_stop(iter(draws), "A", sched, goal)
        db = run_to_stop(iter(draws), "B", sched, goal)
        na = da.n if da.status == "stopped" else float("inf")
        nb = db.n if db.status == "stopped" else float("inf")
        if na > nb:
            ordered = False
            break
    _verdict(3, dominated and ordered,
             f"max mb-massart gap {worst:.3e}, ordering holds: {ordered}")


def test_criterion_4_event_equivalence_oracles():
    rng = random.Random(404)
    mismatches = {"A": 0, "D": 0, "E": 0}

    sched_a = plan_bounded_abs(0.1, 0.05, 5, "A")
    goal_a = EstimationGoal("bounded", "abs", 0.1, 0.05)
    for _ in range(1000):
        n = rng.randint(1, 1000)
        xbar = rng.random()
        ell = rng.randint(1, 5)
        m, _, threshold = sched_a.table[ell - 1]
        cond = _cond_a(xbar, n, m, 0.1, threshold)
        st = RunningSample(n=n, total=xbar * n, total_sq=xbar * n)
        lo, hi = oracle_sequence_limits(st, sched_a, goal_a, ell)
        incl = (xbar - 0.1 <= lo) and (hi <= xbar + 0.1)
        if cond != incl:
            mismatches["A"] += 1

    sched_d = plan_geometric_mean(0.2, 0.05, 5)
    goal_d = EstimationGoal("geometric", "rel", 0.2, 0.05)
    for _ in range(1000):
        n = rng.randint(1, 2000)
        xbar = rng.uniform(1.0, 20.0)
        ell = rng.randint(1, 5)
        m, _, threshold = sched_d.table[ell - 1]
        cond = _cond_d(xbar, n, m, 0.2, threshold)
        st = RunningSample(n=n, total=xbar * n, total_sq=xbar * xbar * n)
        lo, hi = oracle_sequence_limits(st, sched_d, goal_d, ell)
        incl = (0.8 * xbar <= lo) and (hi <= 1.2 * xbar)
        if cond != incl:
            mismatches["D"] += 1

    sched_e = plan_unbounded(0.05, 50, rule="E", epsilon=0.5)
    goal_e = EstimationGoal("poisson", "abs", 0.5, 0.05)
    for _ in range(1000):
        n = rng.randint(1, 2000)
        xbar = rng.uniform(0.0, 10.0)
        ell = rng.randint(1, 10)
        m, _, threshold = sched_e.table[ell - 1]
        cond = _cond_e(xbar, n, m, 0.5, threshold)
        st = RunningSample(n=n, total=xbar * n, total_sq=xbar * xbar * n)
        lo, hi = oracle_sequence_limits(st, sched_e, goal_e, ell)
        incl = (xbar - 0.5 <= lo) and (hi <= xbar + 0.5)
        if cond != incl:
            mismatches["E"] += 1

    total = sum(mismatches.values())
    _verdict(4, total == 0, f"boolean mismatches {mismatches}")


def test_criterion_5_adaptive_scan_vs_grid_oracle():
    rng = random.Random(505)
    worst = 0.0
    for _ in range(50):
        n = rng.randint(20, 500)
        xbar = rng.uniform(0.02, 0.98)
        vmax = min(0.25, xbar * (1.0 - xbar))
        var = rng.uniform(1e-4, vmax - 1e-6)
        summary = SampleSummary(n=n, mean=xbar, var=var)
        ci = ci_mean(summary, 0.05)
        lo, hi = oracle_ci_grid(summary, 0.05, grid_step=1e-5)
        worst = max(worst, abs(ci.lower - lo), abs(ci.upper - hi))
    _verdict(5, worst <= 1e-3, f"max scan-vs-oracle gap {worst:.3e}")


def test_criterion_6_coverage_rule_a():
    sched = plan_bounded_abs(0.1, 0.05, 5, "A")
    goal = EstimationGoal("bounded", "abs", 0.1, 0.05)
    details = []
    ok = True
    for p, seed in [(0.1, 601), (0.3, 603), (0.5, 605)]:
        spec = DistributionSpec("bernoulli", {"p": p}, seed=seed)
        covered, _, _, ns = coverage_chunk("A", spec, goal=goal,
                                           schedule=sched, reps=2000)
        cov = covered / 2000.0
        ok = ok and cov >= 0.95 and max(ns) <= 265
        details.append(f"p={p}: cov={cov:.4f} max_n={max(ns)}")
    _verdict(6, ok, "; ".join(details))


def test_criterion_7_coverage_unbounded_rules():
    cases = [
        ("C", DistributionSpec("bernoulli", {"p": 0.5}, seed=701),
         EstimationGoal("bounded", "rel", 0.2, 0.05),
         plan_unbounded(0.05, 50, rule="C", epsilon=0.2, cap=10 ** 6)),
        ("D", DistributionSpec("geometric", {"theta": 5.0}, seed=702),
         EstimationGoal("geometric", "rel", 0.2, 0.05),
         plan_geometric_mean(0.2, 0.05, 5)),
        ("E", DistributionSpec("poisson", {"lam": 4.0}, seed=703),
         EstimationGoal("poisson", "abs", 0.5, 0.05),
         plan_unbounded(0.05, 50, rule="E", epsilon=0.5, cap=10 ** 6)),
        ("F", DistributionSpec("poisson", {"lam": 4.0}, seed=704),
         EstimationGoal("poisson", "rel", 0.2, 0.05),
         plan_unbounded(0.05, 50, rule="F", epsilon=0.2, cap=10 ** 6)),
    ]
    details = []
    ok = True
    for rule, spec, goal, sched in cases:
        report = coverage_experiment(rule, spec, goal=goal, schedule=sched,
                                     reps=1000)
        ok = ok and report.coverage >= 0.95 and report.cap_hits == 0
        details.append(f"{rule}: cov={report.coverage:.4f} "
                       f"caps={report.cap_hits}")
    _verdict(7, ok, "; ".join(details))


def test_criterion_8_fixed_ci_and_multistage_coverage():
    spec_ci = DistributionSpec("scaled-beta", {"alpha": 2, "beta": 5},
                               seed=801)
    goal = EstimationGoal("bounded", "abs", 0.1, 0.05)
    ci_report = coverage_experiment("ci", spec_ci, goal=goal, reps=2000,
                                    fixed_n=100)

    plan = plan_mv(0.1, 0.05, 5)
    spec_mv = DistributionSpec("bernoulli", {"p": 0.2}, seed=802)
    mv_report = coverage_experiment("mv", spec_mv, schedule=plan, reps=2000)
    no_incl_rate = mv_report.no_inclusion / 2000.0

    ok = (ci_report.coverage >= 0.95 and mv_report.coverage >= 0.95
          and no_incl_rate < 0.05)
    _verdict(8, ok,
             f"ci cov={ci_report.coverage:.4f}; "
             f"mv cov={mv_report.coverage:.4f} "
             f"no-inclusion={no_incl_rate:.4f} (required < 0.05)")


def test_criterion_9_region_boundary_sanity():
    rng = random.Random(909)
    step = 1e-4
    worst_residual = 0.0
    outward_failures = 0
    flips = 0
    inward_candidates = 0
    for _ in range(20):
        n = rng.randint(30, 400)
        xbar = rng.uniform(0.1, 0.9)
        var = rng.uniform(0.01, xbar * (1.0 - xbar) - 1e-3)
        summary = SampleSummary(n=n, mean=xbar, var=var)
        region = region_boundary(summary, 0.05, resolution=25)
        thr = region.threshold
        for curve, nu, th in region.points:
            if curve in ("C1", "D1"):
                res = abs(th - nu * (1.0 - nu))
            elif curve in ("C2", "D2"):
                res = abs(_div(xbar, nu, th) - thr)
            else:
                res = abs(_phi_ext(summary.w(nu), th) - thr)
            worst_residual = max(worst_residual, res)

            if curve in ("C1", "D1"):
                out_pt, in_pt = (nu, th + step), (nu, th - step)
            elif curve == "C2":
                out_pt, in_pt = (nu + step, th), (nu - step, th)
            elif curve == "D2":
                out_pt, in_pt = (nu - step, th), (nu + step, th)
            elif th < summary.w(nu):
                out_pt, in_pt = (nu, th - step), (nu, th + step)
            else:
                out_pt, in_pt = (nu, th + step), (nu, th - step)

            if 0.0 < out_pt[0] < 1.0 and out_pt[1] > 0.0:
                if region_contains(summary, 0.05, *out_pt):
                    outward_failures += 1
            if 0.0 < in_pt[0] < 1.0 and in_pt[1] > 0.0:
                inward_candidates += 1
                if region_contains(summary, 0.05, *in_pt):
                    flips += 1
    ok = (worst_residual <= 1e-9 and outward_failures == 0
          and flips >= inward_candidates // 2)
    _verdict(9, ok,
             f"max residual {worst_residual:.3e}, outward leaks "
             f"{outward_failures}, flips {flips}/{inward_candidates}")
