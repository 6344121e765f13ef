"""Seeded stream generators and Monte Carlo coverage experiments.

The random generator is splitmix64: state advances by the 64-bit
constant 0x9E3779B97F4A7C15 and each output is the mix
``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
z *= 0x94D049BB133111EB; z ^= z >> 31`` of the new state.  Replication
r of an experiment with seed S uses stream seed S xor mix(r), so any
implementation of the same recipe reproduces the streams bit for bit.

The generator is counter-based: uniform j of a stream is
mix(seed + j * 0x9E3779B97F4A7C15), with no dependence on earlier
outputs (Steele, Lea & Flood, OOPSLA 2014; Salmon et al., SC 2011).  So
the Bernoulli and integer-shape scaled-beta streams of ``generate`` also
draw whole blocks with numpy's wrapping uint64 arithmetic, which gives
the same uniforms, the same draws and, summed in order, the same running
sums as one draw at a time.  The other kinds use ``math`` functions whose
numpy counterparts may differ in the last bit, and stay scalar.
"""

import json
import math
import os
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

# perfbench wraps run_to_stop, run_mv and ci_mean where this module binds
# them, so all three stay bound; mv runs go through run_to_stop
from .fixed_ci import ci_mean
from .rules import (RULES, SUPPORT, EstimationGoal, RunningSample,
                    check_support, run_to_stop, source)
from .schedules import StageSchedule
from .seq_mv import run_mv  # noqa: F401

__all__ = [
    "Rng",
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

# a geometric draw is at most about 37 theta (53 bits of uniform), and
# DEFAULT_CAP = 1e7 draws of mean theta sum to about 1e7 theta, so the
# running sums stay finite below this mean
_MAX_THETA = 1e300


def _mix(x: int) -> int:
    z = x & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class Rng:
    """splitmix64 stream; see the module docstring for the exact recipe."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix(self._state)

    def uniform(self) -> float:
        """Uniform on [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)


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
            if abs(sum(probs) - 1.0) > 1e-12:
                raise ValueError("probs must sum to 1")
        elif self.kind == "geometric":
            if not 1.0 < p["theta"] <= _MAX_THETA:
                raise ValueError(f"mean theta must lie in (1, {_MAX_THETA:g}]"
                                 f", got {p['theta']!r}")
        else:
            if p["lam"] <= 0.0:
                raise ValueError("lam must be positive")

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


def _draw(rng: Rng, spec: DistributionSpec) -> float:
    p = spec.params
    if spec.kind == "bernoulli":
        return 1.0 if rng.uniform() < p["p"] else 0.0
    if spec.kind == "scaled-beta":
        order = _order_statistic(spec)
        if order is not None:
            k, total = order
            us = sorted(rng.uniform() for _ in range(total))
            return us[k - 1]
        # Johnk's rejection method for non-integer shapes
        a, b = p["alpha"], p["beta"]
        while True:
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
        succ = 1.0 / p["theta"]
        u = 1.0 - rng.uniform()  # in (0, 1]
        return 1.0 + math.floor(math.log(u) / math.log1p(-succ))
    # poisson, product method
    lam = p["lam"]
    limit = math.exp(-lam)
    k, prod = 0, 1.0
    while True:
        prod *= rng.uniform()
        if prod <= limit:
            return float(k)
        k += 1


class _BlockStream:
    """Draws of a Bernoulli or integer-shape scaled-beta stream.

    Iterating yields one draw at a time.  ``fold_to``, which the engine
    uses instead (see ``rules.source``), draws blocks of at most
    ``_BLOCK_UNIFORMS`` uniforms and folds them into the running sums.
    A stream is read one way or the other, not both.
    """

    def __init__(self, spec: DistributionSpec, count: int, rng: Rng,
                 order: Optional[Tuple[int, int]]) -> None:
        self._spec, self._rng, self._order = spec, rng, order
        self._per_draw = 1 if order is None else order[1]
        self._left = count  # draws not yet taken from rng
        self._start = self._end = 0  # the block holds draws start..end-1
        self._values = None

    def __iter__(self) -> "_BlockStream":
        return self

    def __next__(self) -> float:
        if self._left == 0:
            raise StopIteration
        self._left -= 1
        return _draw(self._rng, self._spec)

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
        # uniform j after the state s is mix(s + j * golden), j = 1, 2, ...
        state, count = self._rng._state, size * self._per_draw
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(_GOLDEN)
        z += np.uint64(state)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        z >>= np.uint64(11)  # the uniform is z * 2^-53, exactly
        if self._order is None:
            # z * 2^-53 < p exactly when the integer z < ceil(p * 2^53)
            limit = math.ceil(self._spec.params["p"] * 2.0 ** 53)
            self._values = z < np.uint64(limit)
        else:
            k, total = self._order
            u = z.astype(np.float64) * 2.0 ** -53
            self._values = np.sort(u.reshape(size, total), axis=1)[:, k - 1]
        self._rng._state = (state + count * _GOLDEN) & _MASK
        self._left -= size
        self._start, self._end = self._end, self._end + size
        return True


def generate(spec: DistributionSpec, count: int,
             replication: int = 0) -> Iterator[float]:
    """Lazy stream of count draws for the given replication index."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    rng = Rng(spec.seed ^ _mix(replication))
    order = _order_statistic(spec) if spec.kind == "scaled-beta" else None
    if spec.kind == "bernoulli" or order is not None:
        return _BlockStream(spec, count, rng, order)
    return (_draw(rng, spec) for _ in range(count))


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
