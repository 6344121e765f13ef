"""Seeded stream generators and Monte Carlo coverage experiments.

The random generator is splitmix64: state advances by the 64-bit
constant 0x9E3779B97F4A7C15 and each output is the mix
``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
z *= 0x94D049BB133111EB; z ^= z >> 31`` of the new state, and the
uniform is its top 53 bits times 2^-53.  Replication r of an experiment
with seed S uses stream seed S xor mix(r), so any implementation of the
same recipe reproduces the streams bit for bit.

The generator is counter-based: uniform j of a stream is
mix(seed + j * 0x9E3779B97F4A7C15), with no dependence on earlier
outputs (Steele, Lea & Flood, OOPSLA 2014; Salmon et al., SC 2011).  So
every stream of ``generate`` draws its uniforms in blocks, bit for bit,
with numpy's wrapping uint64 arithmetic (``_mix_block``).  Bernoulli and
integer-shape scaled-beta streams turn whole blocks into draws and, summed
in order, into the same running sums.  The other kinds feed the uniforms,
as exact floats, one by one to ``_draw``'s scalar ``math`` arithmetic.
"""

import json
import math
import os
from dataclasses import asdict, dataclass, field
from itertools import chain
from typing import Callable, Dict, Iterator, List, Optional, Tuple

# perfbench wraps run_to_stop, run_mv and ci_mean where this module binds
# them, so all three stay bound; mv runs go through run_to_stop
from .fixed_ci import ci_mean
from .rules import (RULES, SUPPORT, EstimationGoal, RunningSample,
                    check_support, run_to_stop, source)
from .schedules import StageSchedule
from .seq_mv import run_mv  # noqa: F401

__all__ = [
    "DistributionSpec",
    "generate",
    "CoverageReport",
    "coverage_chunk",
    "report_from_chunks",
    "coverage_experiment",
]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# uniforms per block of a block-drawn stream, which bounds its memory
_BLOCK_UNIFORMS = 1 << 16
# draws a stream's first block of uniforms is sized for
_FIRST_DRAWS = 256

# a geometric draw is at most about 37 theta (53 bits of uniform), and
# DEFAULT_CAP = 1e7 draws of mean theta sum to about 1e7 theta, so the
# running sums stay finite below this mean
_MAX_THETA = 1e300

# the Poisson product method's limit e^-lam stays a normal float (> e^-708)
_MAX_LAM = 700.0


def _mix(x: int) -> int:
    z = x & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _mix_block(state: int, count: int):
    """Uniforms 1..count after state as 53-bit integers z (u = z * 2^-53)."""
    import numpy as np

    # in place: two more array copies per block cost long_stream about 10 %
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(state)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(factor)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    return z


def _uniforms(state: int, per_draw: int) -> Callable[[], float]:
    """Zero-argument source of the uniforms after state, in blocks sized
    for _FIRST_DRAWS draws of per_draw uniforms, then doubling up to
    ``_BLOCK_UNIFORMS``; z * 2^-53 is exact, so each is the recipe's float."""
    def blocks() -> Iterator[List[float]]:
        s, size = state, min(_FIRST_DRAWS * per_draw, _BLOCK_UNIFORMS)
        while True:
            yield (_mix_block(s, size).astype(float) * 2.0 ** -53).tolist()
            s = (s + size * _GOLDEN) & _MASK
            size = min(2 * size, _BLOCK_UNIFORMS)

    return chain.from_iterable(blocks()).__next__


_KINDS = ("bernoulli", "scaled-beta", "discrete", "geometric", "poisson")


@dataclass(frozen=True)
class DistributionSpec:
    kind: str
    params: Dict[str, object] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        p = self.params
        if not all(math.isfinite(v) for x in p.values()
                   for v in (x if isinstance(x, (list, tuple)) else [x])):
            raise ValueError("distribution parameters must be finite")
        if self.kind == "bernoulli":
            if not 0.0 <= p["p"] <= 1.0:
                raise ValueError("p must lie in [0, 1]")
        elif self.kind == "scaled-beta":
            if p["alpha"] <= 0.0 or p["beta"] <= 0.0:
                raise ValueError("shape parameters must be positive")
        elif self.kind == "discrete":
            support, probs = p["support"], p["probs"]
            if len(support) != len(probs):
                raise ValueError("support and probs must have equal length")
            if any(not 0.0 <= x <= 1.0 for x in support):
                raise ValueError("support must lie in [0, 1]")
            if any(q < 0.0 for q in probs) or abs(sum(probs) - 1.0) > 1e-12:
                raise ValueError("probs must be nonnegative and sum to 1")
        elif self.kind == "geometric":
            if not 1.0 < p["theta"] <= _MAX_THETA:
                raise ValueError(f"mean theta must lie in (1, {_MAX_THETA:g}]"
                                 f", got {p['theta']!r}")
        else:
            if not 0.0 < p["lam"] <= _MAX_LAM:
                raise ValueError(f"mean lam must lie in (0, {_MAX_LAM:g}], "
                                 f"got {p['lam']!r}")

    def true_value(self) -> float:
        """The parameter the estimation procedures target."""
        p = self.params
        if self.kind == "bernoulli":
            return float(p["p"])
        if self.kind == "scaled-beta":
            return p["alpha"] / (p["alpha"] + p["beta"])
        if self.kind == "discrete":
            return float(sum(x * q for x, q in zip(p["support"], p["probs"])))
        if self.kind == "geometric":
            return float(p["theta"])
        return float(p["lam"])


def _order_statistic(spec: DistributionSpec) -> Optional[Tuple[int, int]]:
    """(k, t) when a scaled-beta draw is the k-th smallest of t uniforms:
    for integer shapes a, b with a + b <= 64, Beta(k, t + 1 - k) with
    k = a and t = a + b - 1."""
    a, b = spec.params["alpha"], spec.params["beta"]
    if a == int(a) and b == int(b) and a + b <= 64:
        return int(a), int(a) + int(b) - 1
    return None


def _draw(uniform: Callable[[], float], spec: DistributionSpec) -> float:
    p = spec.params
    if spec.kind == "bernoulli":
        return 1.0 if uniform() < p["p"] else 0.0
    if spec.kind == "scaled-beta":
        order = _order_statistic(spec)
        if order is not None:
            k, total = order
            us = sorted(uniform() for _ in range(total))
            return us[k - 1]
        # Johnk's rejection method for non-integer shapes
        a, b = p["alpha"], p["beta"]
        while True:
            x = uniform() ** (1.0 / a)
            y = uniform() ** (1.0 / b)
            if 0.0 < x + y <= 1.0:
                return x / (x + y)
    if spec.kind == "discrete":
        u = uniform()
        acc = 0.0
        for x, q in zip(p["support"], p["probs"]):
            acc += q
            if u < acc:
                return float(x)
        return float(p["support"][-1])
    if spec.kind == "geometric":
        succ = 1.0 / p["theta"]
        u = 1.0 - uniform()  # in (0, 1]
        return 1.0 + math.floor(math.log(u) / math.log1p(-succ))
    # poisson, product method
    lam = p["lam"]
    limit = math.exp(-lam)
    k, prod = 0, 1.0
    while True:
        prod *= uniform()
        if prod <= limit:
            return float(k)
        k += 1


class _BlockStream:
    """Draws of a Bernoulli or integer-shape scaled-beta stream.

    Iterating yields one draw at a time from ``_draw``.  ``fold_to``, which
    the engine uses instead (see ``rules.source``), turns blocks of at most
    ``_BLOCK_UNIFORMS`` uniforms into draws and folds them into the running
    sums.  A stream is read one way or the other, not both.
    """

    def __init__(self, spec: DistributionSpec, count: int, state: int,
                 order: Optional[Tuple[int, int]]) -> None:
        self._spec, self._state, self._order = spec, state, order
        self._per_draw = 1 if order is None else order[1]
        self._left = count  # draws not yet taken
        self._start = self._end = 0  # the block holds draws start..end-1
        self._values = self._uniform = None  # made when first read

    def __iter__(self) -> "_BlockStream":
        return self

    def __next__(self) -> float:
        if self._left == 0:
            raise StopIteration
        if self._uniform is None:
            self._uniform = _uniforms(self._state, self._per_draw)
        self._left -= 1
        return _draw(self._uniform, self._spec)

    def fold_to(self, state: RunningSample, n: int, parameter: str) -> None:
        """``rules.source``'s fold: state, which holds this stream's first
        state.n draws, is moved on to its first n (fewer at its end).

        Bernoulli draws are 0.0 or 1.0, so their sums are whole numbers,
        which float adds keep exactly: adding the count of ones is the
        per-draw fold.  Other draws are summed with ``np.add.accumulate``
        from state's sums, which adds in order as the per-draw fold does;
        ``np.sum`` would add pairwise and round differently.
        """
        import numpy as np

        lo, hi, whole, _ = SUPPORT[parameter]
        while state.n < n and (state.n < self._end or self._next_block(n)):
            i, j = state.n - self._start, min(n, self._end) - self._start
            values = self._values[i:j]
            # a NaN fails both comparisons, as min and max propagate it
            if whole or not (lo <= values.min() and values.max() <= hi):
                for x in values.tolist():
                    check_support(float(x), parameter)
            state.n = self._start + j
            if self._order is None:
                ones = int(np.count_nonzero(values))
                state.total += ones
                state.total_sq += ones
            else:
                state.total = float(np.add.accumulate(
                    np.concatenate(([state.total], values)))[-1])
                state.total_sq = float(np.add.accumulate(
                    np.concatenate(([state.total_sq], values * values)))[-1])

    def _next_block(self, n: int) -> bool:
        """Draw the next block: up to draw n, but at least 1/16 of the
        largest block, so that a run of small folds draws few blocks, and
        at most the largest block or what is left of the stream."""
        import numpy as np

        largest = max(1, _BLOCK_UNIFORMS // self._per_draw)
        size = min(self._left, largest, max(n - self._end, largest // 16))
        if size == 0:
            return False
        count = size * self._per_draw
        z = _mix_block(self._state, count)  # the uniforms are z * 2^-53
        if self._order is None:
            # z * 2^-53 < p exactly when the integer z < ceil(p * 2^53)
            limit = math.ceil(self._spec.params["p"] * 2.0 ** 53)
            self._values = z < np.uint64(limit)
        else:
            k, total = self._order
            u = z.astype(np.float64) * 2.0 ** -53
            self._values = np.sort(u.reshape(size, total), axis=1)[:, k - 1]
        self._state = (self._state + count * _GOLDEN) & _MASK
        self._left -= size
        self._start, self._end = self._end, self._end + size
        return True


def generate(spec: DistributionSpec, count: int,
             replication: int = 0) -> Iterator[float]:
    """Lazy stream of count draws for the given replication index."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    state = (spec.seed ^ _mix(replication)) & _MASK
    order = _order_statistic(spec) if spec.kind == "scaled-beta" else None
    if spec.kind == "bernoulli" or order is not None:
        return _BlockStream(spec, count, state, order)
    # a Poisson draw takes lam + 1 uniforms on average, the others about 1
    uniform = _uniforms(state, math.ceil(spec.params.get("lam", 0)) + 1)
    return (_draw(uniform, spec) for _ in range(count))


@dataclass(frozen=True)
class CoverageReport:
    procedure: str
    replications: int
    coverage: float
    mean_n: float
    n_quantiles: Dict[str, int]
    cap_hits: int
    no_inclusion: int
    seed: int
    spec_kind: str
    spec_params: Dict[str, object]

    def to_json(self) -> str:
        doc = asdict(self)
        doc["spec"] = {"kind": doc.pop("spec_kind"),
                       "params": doc.pop("spec_params")}
        return json.dumps(doc)


def _quantile(sorted_ns: List[int], q: float) -> int:
    idx = min(len(sorted_ns) - 1, max(0, math.ceil(q * len(sorted_ns)) - 1))
    return sorted_ns[idx]


def coverage_chunk(procedure: str, spec: DistributionSpec,
                   goal: Optional[EstimationGoal] = None,
                   schedule: Optional[StageSchedule] = None,
                   reps: int = 1000,
                   rep_offset: int = 0,
                   fixed_n: Optional[int] = None,
                   plan: Optional[StageSchedule] = None
                   ) -> Tuple[int, int, int, List[int]]:
    """Raw tallies (covered, cap_hits, no_inclusion, stop sizes) over
    replications rep_offset .. rep_offset + reps - 1.  Replication
    indices fix the stream seeds, so splitting the range over workers
    changes nothing in the merged result.  ``plan``, which perfbench
    passes for ``mv``, is another name for ``schedule``.  A rule runs
    only the schedule planned for it: ValueError if procedure or goal
    (compared field by field, not built again) disagrees with it."""
    schedule = schedule or plan
    if procedure != "ci":
        rule = RULES[schedule.rule]
        planned = (rule.parameter, rule.error, schedule.epsilon,
                   schedule.delta)
        if procedure != schedule.rule or goal and planned != (
                goal.parameter, goal.error, goal.epsilon, goal.delta):
            raise ValueError(f"procedure {procedure!r}, goal {goal}: the "
                             f"schedule plans {schedule.rule!r} {planned}")
    truth = spec.true_value()
    covered = cap_hits = no_inclusion = 0
    ns: List[int] = []
    for r in range(rep_offset, rep_offset + reps):
        if procedure == "ci":
            state = RunningSample()
            source(generate(spec, fixed_n, replication=r))(state, fixed_n,
                                                           goal.parameter)
            interval = ci_mean(state.summary(), goal.delta)
            ns.append(fixed_n)
            covered += interval.lower <= truth <= interval.upper
            continue
        count = schedule.cap if schedule.unbounded else schedule.stages[-1]
        decision = run_to_stop(generate(spec, count, replication=r),
                               schedule)
        ns.append(decision.n)
        if decision.status == "cap-reached":
            cap_hits += 1
        elif decision.status == "no-inclusion":
            no_inclusion += 1
        elif decision.status == "stopped" and rule.claim(
                decision.estimate, truth, schedule.epsilon):
            covered += 1
    return covered, cap_hits, no_inclusion, ns


def report_from_chunks(procedure: str, spec: DistributionSpec, reps: int,
                       chunks: List[Tuple[int, int, int, List[int]]]
                       ) -> CoverageReport:
    covered = sum(c[0] for c in chunks)
    cap_hits = sum(c[1] for c in chunks)
    no_inclusion = sum(c[2] for c in chunks)
    ns: List[int] = []
    for c in chunks:
        ns.extend(c[3])
    ns.sort()
    return CoverageReport(
        procedure=procedure,
        replications=reps,
        coverage=covered / reps if reps else 0.0,
        mean_n=sum(ns) / len(ns) if ns else 0.0,
        n_quantiles={} if not ns else {
            "p50": _quantile(ns, 0.50),
            "p90": _quantile(ns, 0.90),
            "p99": _quantile(ns, 0.99),
        },
        cap_hits=cap_hits,
        no_inclusion=no_inclusion,
        seed=spec.seed,
        spec_kind=spec.kind,
        spec_params=dict(spec.params),
    )


def coverage_experiment(procedure: str, spec: DistributionSpec,
                        goal: Optional[EstimationGoal] = None,
                        schedule: Optional[StageSchedule] = None,
                        reps: int = 1000,
                        fixed_n: Optional[int] = None,
                        workers: int = 1) -> CoverageReport:
    """Monte Carlo estimate of the terminal-claim coverage.

    procedure is a ``RULES`` key A..F or "mv", run on the schedule planned
    for it with its epsilon and delta (see ``coverage_chunk``), or "ci"
    (needs goal + fixed_n).  Only ``stopped`` runs whose claim holds
    count as covered: cap hits, no-inclusion and exhausted runs count as
    coverage failures.

    workers > 1 splits the replications into that many contiguous ranges,
    each a ``coverage_chunk`` in its own process, when there are at least
    two per worker; 0 means one worker per CPU.  The report is the same
    for every split.
    """
    workers = workers or os.cpu_count() or 1
    if workers <= 1 or reps < 2 * workers:
        chunks = [coverage_chunk(procedure, spec, goal, schedule, reps, 0,
                                 fixed_n)]
    else:
        # imported only here: it loads multiprocessing, which one process
        # does not need
        from concurrent.futures import ProcessPoolExecutor

        cuts = [reps * i // workers for i in range(workers + 1)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(coverage_chunk, procedure, spec, goal,
                                   schedule, end - start, start, fixed_n)
                       for start, end in zip(cuts, cuts[1:])]
            chunks = [f.result() for f in futures]
    return report_from_chunks(procedure, spec, reps, chunks)
