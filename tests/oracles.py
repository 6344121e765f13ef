"""Brute-force references the tests compare the library with, derived
independently of the adaptive scan and the stopping-rule engine."""

import math
from typing import List, Sequence, Tuple

import numpy as np
from scipy.stats import binom

from seqstop import kernels
from seqstop.fixed_ci import BISECT_TOL, SampleSummary, _phi_ext, ci_mean
from seqstop.rules import (RULES, EstimationGoal, RunningSample,
                           StopDecision, check_support, stop_stage)
from seqstop.schedules import StageSchedule


# -- grid reference for the fixed-sample interval --------------------------
# Independent vectorized re-derivations of the divergence formulas; kept
# separate from the kernels module on purpose.

def _varphi_vec(z: float, nu: float, ths: np.ndarray) -> np.ndarray:
    t = z * nu / (nu * nu + ths)
    out = (1.0 - t) * np.log1p(nu * (nu - z) / ths)
    if z > 0.0:
        out = out + t * math.log(z / nu)
    return out


def _phi_vec(w: float, ths: np.ndarray) -> np.ndarray:
    return w * np.log(w / ths) + (1.0 - w) * np.log((1.0 - w) / (1.0 - ths))


def _grid_predicate(nu: float, summary: SampleSummary, threshold: float,
                    tstep: float) -> bool:
    """Literal check over the variance grid: the divergence max exceeds
    the threshold at every vartheta in (0, nu(1-nu)]."""
    tmax = nu * (1.0 - nu)
    if tmax <= 0.0:
        return False
    ths = np.arange(tstep, tmax, tstep)
    ths = np.append(ths, tmax)
    xbar = summary.mean
    if nu > xbar:
        div = _varphi_vec(xbar, nu, ths)
    elif nu < xbar:
        div = _varphi_vec(1.0 - xbar, 1.0 - nu, ths)
    else:
        div = np.zeros_like(ths)
    ok = div > threshold
    w = summary.w(nu)
    if w < 1.0:
        mask = ths > w
        if mask.any():
            if w > 0.0:
                ok[mask] |= _phi_vec(w, ths[mask]) > threshold
            else:
                ok[mask] |= -np.log1p(-ths[mask]) > threshold
    return bool(ok.all())


def oracle_ci_grid(summary: SampleSummary, delta: float,
                   grid_step: float = 1e-5,
                   coarse_step: float = 1e-3) -> Tuple[float, float]:
    """Confidence limits from exhaustive grid evaluation of the defining
    sup/inf predicates; a coarse pass locates the transition and a fine
    pass at grid_step resolution pins it down."""
    threshold = math.log(3.0 / delta) / summary.n
    xbar = summary.mean

    def pred(nu: float) -> bool:
        return _grid_predicate(nu, summary, threshold, grid_step)

    if xbar <= 0.0:
        lower = 0.0
    else:
        nu_c = None
        nu = xbar - coarse_step
        while nu > 0.0:
            if pred(nu):
                nu_c = nu
                break
            nu -= coarse_step
        start = min((nu_c + coarse_step) if nu_c is not None else coarse_step,
                    xbar)
        lower = 0.0
        nu = start - grid_step
        while nu > 0.0:
            if pred(nu):
                lower = nu
                break
            nu -= grid_step
    if xbar >= 1.0:
        upper = 1.0
    else:
        nu_c = None
        nu = xbar + coarse_step
        while nu < 1.0:
            if pred(nu):
                nu_c = nu
                break
            nu += coarse_step
        start = max((nu_c - coarse_step) if nu_c is not None else
                    1.0 - coarse_step, xbar)
        upper = 1.0
        nu = start + grid_step
        while nu < 1.0:
            if pred(nu):
                upper = nu
                break
            nu += grid_step
    return lower, upper


# -- plain forms of the interval layer's shortcuts ------------------------

def reference_phi_crossing(w: float, c: float, threshold: float) -> float:
    """Lower bracket end of phi(w, t) = threshold on (w, c) by plain
    bisection to BISECT_TOL, evaluating phi at every midpoint.
    ``fixed_ci._phi_crossing_lower_bound`` skips the evaluations whose
    outcome it has certified and must return this same float."""
    lo, hi = w, c
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if _phi_ext(w, mid) > threshold:
            hi = mid
        else:
            lo = mid
    return lo


def reference_mv_test(state: RunningSample, m: int, budget: float,
                      threshold: float, schedule: StageSchedule) -> bool:
    """Rule mv's stage test on the whole interval: ``ci_mean`` at level
    1 - b_l within eps of the mean before the last stage, Hoeffding's
    bound at it.  ``RULES["mv"].test`` sweeps only the limits its
    decision needs and must decide alike."""
    if m != state.n:
        return False
    eps = schedule.epsilon
    if m == schedule.table[-1][0]:
        return -2.0 * eps * eps <= threshold
    interval = ci_mean(state.summary(), budget)
    xbar = state.mean
    return xbar - eps <= interval.lower and interval.upper <= xbar + eps


# -- bisected per-stage confidence-sequence limits -------------------------

def _bisect_crossing(func, lo: float, hi: float, threshold: float,
                     above_at_hi: bool, iters: int = 100) -> float:
    """Crossing point of a monotone func against threshold.

    above_at_hi says on which end func exceeds the threshold; the
    bracket invariant is maintained accordingly.
    """
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (func(mid) > threshold) == above_at_hi:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def oracle_sequence_limits(state: RunningSample, schedule: StageSchedule,
                           goal: EstimationGoal,
                           ell: int) -> Tuple[float, float]:
    """Stage-ell confidence-sequence limits around the running mean.

    The lower limit is the infimum of candidate parameter values whose
    shrunk-towards-the-mean divergence exceeds the stage threshold; the
    upper limit is the matching supremum.  Both are found by bisection,
    the divergence being monotone in the candidate value.
    """
    m, budget, _ = schedule.table[ell - 1]
    threshold = math.log(budget / 2.0) / m
    n = state.n
    xbar = state.mean
    r = n / max(n, m)

    if goal.parameter == "bounded":
        kernel, dom_lo = kernels.mb, 0.0
    elif goal.parameter == "geometric":
        kernel, dom_lo = kernels.mg, 1.0
    else:
        kernel, dom_lo = kernels.mp, 0.0

    def toward_mean_from_below(nu: float) -> float:
        return kernel(nu + r * (xbar - nu), nu)

    def toward_mean_from_above(nu: float) -> float:
        return kernel(nu - r * (nu - xbar), nu)

    if xbar <= dom_lo:
        lower = dom_lo
    else:
        lo = dom_lo + 1e-15 * max(1.0, xbar)
        hi = xbar - 1e-15 * max(1.0, xbar)
        if hi <= lo:
            lower = xbar
        elif toward_mean_from_below(lo) > threshold:
            lower = lo
        else:
            lower = _bisect_crossing(toward_mean_from_below, lo, hi,
                                     threshold, above_at_hi=True)

    if goal.parameter == "bounded" and xbar >= 1.0:
        upper = 1.0
    else:
        lo = xbar + 1e-15 * max(1.0, xbar)
        if goal.parameter == "bounded":
            hi = 1.0 - 1e-15
        else:
            hi = max(2.0 * xbar, dom_lo + 1.0)
            while toward_mean_from_above(hi) > threshold:
                hi *= 2.0
                if hi == math.inf:
                    # above the threshold up to the end of the float
                    # range: no finite upper limit
                    return lower, hi
        if hi <= lo:
            upper = xbar
        elif toward_mean_from_above(hi) > threshold:
            upper = hi
        else:
            upper = _bisect_crossing(toward_mean_from_above, lo, hi,
                                     threshold, above_at_hi=False)
    return lower, upper


# -- exact outcome probabilities for Bernoulli streams ---------------------

def exact_bernoulli_outcomes(schedule: StageSchedule, ps: Sequence[float]
                             ) -> Tuple[np.ndarray, np.ndarray]:
    """Exact certified coverage and no-inclusion probability of a finite
    schedule under its rule, for Bernoulli(p) streams at each p in ps.

    After n Bernoulli draws the running sums are (n, k, k) exactly, k the
    number of ones, so the decision at stage size m_l is a table over k,
    built from the rule's stage tests alone.  The law of k over the runs
    still going is carried from stage to stage by Binomial(m_{l+1} - m_l,
    p) increments.  A run stopped with its claim true counts as covered;
    mass left after the last stage ends ``no-inclusion``.  The rule's
    claim must take numpy arrays, as the absolute and relative ones do.
    """
    spec = RULES[schedule.rule]
    ps = np.asarray(ps, dtype=float)
    covered = np.zeros(len(ps))
    going = np.ones((len(ps), 1))  # P(k ones, not stopped) at n = 0
    n = 0
    for m, _, _ in schedule.table:
        step = binom.pmf(np.arange(m - n + 1), m - n, ps[:, None])
        grown = np.zeros((len(ps), m + 1))
        for j in range(m - n + 1):
            grown[:, j:j + n + 1] += going * step[:, j:j + 1]
        stops = np.array([
            any(spec.test(RunningSample(m, float(k), float(k)), *row,
                          schedule) for row in schedule.table)
            for k in range(m + 1)])
        claims = spec.claim(np.arange(m + 1) / m, ps[:, None],
                            schedule.epsilon)
        covered += (grown * (stops & claims)).sum(axis=1)
        going, n = np.where(stops, 0.0, grown), m
    return covered, going.sum(axis=1)


# -- per-observation reference for the stopping engine ---------------------

def reference_run_to_stop(stream, schedule: StageSchedule) -> StopDecision:
    """The engine as one loop over the observations: check and add each
    one, decide wherever n is a stage size, stop at the cap.
    ``run_to_stop`` folds the stream up to each stage size instead and
    must decide alike."""
    parameter = RULES[schedule.rule].parameter
    state = RunningSample()

    def decide(status, stage=None):
        return StopDecision(status=status, n=state.n, stage=stage,
                            estimate=state.mean if state.n else None,
                            rule=schedule.rule, epsilon=schedule.epsilon,
                            delta=schedule.delta,
                            truncated=status == "cap-reached")

    for x in stream:
        check_support(x, parameter)
        state.n += 1
        state.total += x
        state.total_sq += x * x
        if schedule.in_check_set(state.n):
            ell = stop_stage(state, schedule)
            if ell is not None:
                return decide("stopped", ell)
            if not schedule.unbounded and state.n == schedule.table[-1][0]:
                return decide("no-inclusion", len(schedule.table))
        if schedule.unbounded and state.n >= schedule.cap:
            return decide("cap-reached")
    return decide("stream-exhausted")


# -- one-at-a-time reference for the seeded streams -------------------------

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class Rng:
    """splitmix64 one output at a time, as ``seqstop.sim``'s module
    docstring states the recipe."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform on [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)


def _reference_draw(rng: Rng, spec) -> float:
    p = spec.params
    if spec.kind == "bernoulli":
        return 1.0 if rng.uniform() < p["p"] else 0.0
    if spec.kind == "scaled-beta":
        a, b = p["alpha"], p["beta"]
        if a == int(a) and b == int(b) and a + b <= 64:
            # the a-th smallest of a + b - 1 uniforms is Beta(a, b)
            us = sorted(rng.uniform() for _ in range(int(a + b) - 1))
            return us[int(a) - 1]
        while True:  # Johnk's rejection method
            x = rng.uniform() ** (1.0 / a)
            y = rng.uniform() ** (1.0 / b)
            if 0.0 < x + y <= 1.0:
                return x / (x + y)
    if spec.kind == "discrete":
        u = rng.uniform()
        acc = 0.0
        for x, q in zip(p["support"], p["probs"]):
            acc += q
            if u < acc:
                return float(x)
        return float(p["support"][-1])
    if spec.kind == "geometric":
        u = 1.0 - rng.uniform()  # in (0, 1]
        return 1.0 + math.floor(math.log(u) / math.log1p(-1.0 / p["theta"]))
    limit = math.exp(-p["lam"])  # poisson, product method
    k, prod = 0, 1.0
    while True:
        prod *= rng.uniform()
        if prod <= limit:
            return float(k)
        k += 1


def reference_generate(spec, count: int, replication: int = 0) -> List[float]:
    """The count draws of ``sim.generate(spec, count, replication)``, one
    splitmix64 output and one draw at a time."""
    # the stream seed is seed xor mix(r), and mix(r) is the first output
    # after the state r - golden
    rng = Rng(spec.seed ^ Rng(replication - _GOLDEN).next_u64())
    return [_reference_draw(rng, spec) for _ in range(count)]
