"""Fixed-sample confidence interval for a bounded mean and a joint
confidence region for (mean, variance).

The interval limits are defined as the sup/inf of a scan predicate over
candidate means; an adaptive step-doubling/halving sweep evaluates the
predicate on whole subintervals at once, using an interval-wise
sufficient condition that sharpens as the subinterval shrinks.

Inside that condition the crossing of phi(w, t) = threshold is bracketed
by bisection to BISECT_TOL.  Newton's method first finds the crossing,
and two evaluations certify a narrow band around it outside which the
sign of every float comparison the bisection makes is known; the
bisection is then replayed with its own float arithmetic and calls phi
only for midpoints inside the band, so its result is the plain
bisection's, bit for bit, at a fraction of the calls.
"""

import json
import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

from .kernels import phi, psi, varphi

__all__ = [
    "SampleSummary",
    "ConfidenceInterval",
    "ConfidenceRegion",
    "state_b_holds",
    "state_bu_holds",
    "lower_limit",
    "upper_limit",
    "ci_mean",
    "region_contains",
    "region_boundary",
]

ETA = 1e-12          # scan stops when the step drops below this
BISECT_TOL = 1e-10   # width of the final bracket around the phi crossing


@dataclass(frozen=True)
class SampleSummary:
    """Count, sample mean and (population-style) sample variance.

    A var within the rounding tolerance below 0 is stored as 0.
    """

    n: int
    mean: float
    var: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if not 0.0 <= self.mean <= 1.0:
            raise ValueError("mean must lie in [0, 1]")
        if not -1e-12 <= self.var <= 0.25 + 1e-12:
            raise ValueError("var must lie in [0, 1/4]")
        if self.var < 0.0:
            object.__setattr__(self, "var", 0.0)

    def w(self, nu: float) -> float:
        """Second moment about a hypothesized mean nu."""
        return self.var + (self.mean - nu) ** 2


@dataclass(frozen=True)
class ConfidenceInterval:
    n: int
    mean: float
    var: float
    delta: float
    lower: float
    upper: float

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "mean": self.mean, "var": self.var,
                           "delta": self.delta, "L": self.lower, "U": self.upper})


@dataclass(frozen=True)
class ConfidenceRegion:
    """Sampled boundary of the joint (mean, variance) confidence set.

    Each point is (curve, nu, vartheta).  Curves C1/C2/C3 bound the part
    with nu >= mean, D1/D2/D3 the part with nu < mean.  C1/D1 lie on the
    variance envelope vartheta = nu (1 - nu); C2/D2 solve the tail
    divergence equation; C3/D3 solve the phi equation in vartheta.
    """

    n: int
    mean: float
    var: float
    delta: float
    threshold: float
    points: Tuple[Tuple[str, float, float], ...]

    def to_csv(self) -> str:
        lines = ["curve,nu,vartheta"]
        for curve, nu, th in self.points:
            lines.append(f"{curve},{nu:.12g},{th:.12g}")
        return "\n".join(lines) + "\n"


# -- divergence helpers with closed-form edge handling ---------------------

def _phi_ext(w: float, theta: float) -> float:
    """phi(w, theta) extended: continuous limit at w = 0, +inf for w >= 1."""
    if w <= 0.0:
        return -math.log1p(-theta)
    if w >= 1.0:
        return math.inf
    return phi(w, theta)


def _div(xbar: float, nu: float, theta: float) -> float:
    """Tail divergence of a candidate mean nu from xbar: the lower tail
    (varphi) above the mean, the upper tail (psi) below it, 0 at it."""
    if nu > xbar:
        return varphi(xbar, nu, theta)
    if nu < xbar:
        return psi(xbar, nu, theta)
    return 0.0


def _phi_band(w: float, c: float, threshold: float) -> Tuple[float, float]:
    """Band [a, b] within [w, c] outside which the float comparison
    _phi_ext(w, t) > threshold is known without evaluating it: false for
    w <= t < a, true for b < t <= c.  (w, c) when no band is certified.

    Newton's method on f(t) = phi(w, t) - threshold, with
    f'(t) = (t - w) / (t (1 - t)), starts from the quadratic
    approximation's root w + sqrt(2 w (1 - w) threshold) (or from c).  f
    is convex and increasing on (w, 1), so from the first iterate on the
    right of the crossing it descends to it; this is how KL-UCB computes
    its index (Garivier & Cappe, COLT 2011).  Around the result t* the
    band [t* - g, t* + g] is certified by two evaluations,
    phi(t* - g) <= threshold - margin and phi(t* + g) > threshold + margin
    with margin = 1e-13 (1 + threshold); g starts at 4 margin / f'(t*)
    and grows 16-fold on a failed check, up to 1e-6.

    Why the band is sound.  On t <= c <= 1/4 each term of phi and each
    logarithm in it is below 0.3 in magnitude (or is a log multiplied by
    a smaller w, as in w log(w / t) <= t / e), so the computed value
    lies within a few units of 2^-53 of the true phi, which is
    increasing on [w, 1): an error E of at most about 1e-15.  For
    w <= t < a: float phi(t) <= phi(t) + E <= phi(a) + E
    <= float phi(a) + 2E <= threshold - margin + 2E <= threshold, so the
    comparison is false; the same argument from b shows it true above b.
    The margin covers 2E fifty times over.  The checks alone make the
    argument, so a poor Newton result only costs a wider band, or none.
    """
    t = w + math.sqrt(2.0 * w * (1.0 - w) * threshold)
    if not w < t < c:
        t = c
    for _ in range(40):
        step = (_phi_ext(w, t) - threshold) * t * (1.0 - t) / (t - w)
        t = min(t - step, c)
        if not t > w:
            return w, c
        if abs(step) <= 1e-6 * t:
            break
    else:
        return w, c
    margin = 1e-13 * (1.0 + threshold)
    g = 4.0 * margin * t * (1.0 - t) / (t - w)
    while g <= 1e-6:
        a, b = t - g, t + g
        if (a <= w or _phi_ext(w, a) <= threshold - margin) and \
                (b >= c or _phi_ext(w, b) > threshold + margin):
            return max(a, w), min(b, c)
        g *= 16.0
    return w, c


def _phi_crossing_lower_bound(w: float, c: float, threshold: float) -> float:
    """Lower bracket end of the crossing phi(w, t) = threshold on (w, c).

    phi(w, .) is increasing there with phi(w, w) = 0; the caller has
    checked phi(w, c) > threshold, so the crossing exists.  The bracket is
    narrowed to BISECT_TOL and the lower end returned, so the result
    never overshoots the true crossing.  Midpoints outside
    :func:`_phi_band` take the side the comparison is known to give;
    with no band every midpoint evaluates phi.
    """
    a, b = _phi_band(w, c, threshold)
    lo, hi = w, c
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if mid > b or (mid >= a and _phi_ext(w, mid) > threshold):
            hi = mid
        else:
            lo = mid
    return lo


# -- interval-wise scan predicates -----------------------------------------

def _subinterval_holds(kernel: Callable[..., float], near: float,
                       far: float, summary: SampleSummary,
                       threshold: float) -> bool:
    """Sufficient condition for the scan predicate on the subinterval
    between far (the end away from the mean) and near.

    kernel(mean, near, t) is that side's tail divergence, decreasing in
    the variance bound t.  The admissible t run up to c, the largest
    nu (1 - nu) on the subinterval, but not past the crossing of
    phi(w(far), t) = threshold above w(far); the kernel must exceed the
    threshold at the largest admissible t.
    """
    xbar = summary.mean
    c = max(far * (1.0 - far), near * (1.0 - near))
    w = summary.w(far)
    if w >= c:
        return kernel(xbar, near, c) > threshold
    if kernel(xbar, near, w) <= threshold:
        return False
    if _phi_ext(w, c) <= threshold:
        return kernel(xbar, near, c) > threshold
    t_low = _phi_crossing_lower_bound(w, c, threshold)
    return kernel(xbar, near, t_low) > threshold


def state_b_holds(a: float, b: float, summary: SampleSummary,
                  threshold: float) -> bool:
    """Sufficient condition for the lower-limit predicate on all of [a, b].

    Requires 0 <= a <= b < mean with b > 0.  True means every nu in
    [a, b] satisfies the defining scan predicate.
    """
    if not 0.0 <= a <= b < summary.mean or b <= 0.0:
        raise ValueError("need 0 <= a <= b < mean with b > 0")
    return _subinterval_holds(psi, b, a, summary, threshold)


def state_bu_holds(a: float, b: float, summary: SampleSummary,
                   threshold: float) -> bool:
    """Mirror of :func:`state_b_holds` for [a, b] above the mean."""
    if not summary.mean < a <= b <= 1.0:
        raise ValueError("need mean < a <= b <= 1")
    return _subinterval_holds(varphi, a, b, summary, threshold)


# -- adaptive scan ---------------------------------------------------------

def _sweep(summary: SampleSummary, delta: float, edge: float,
           holds: Callable[..., bool]) -> float:
    """Confidence limit swept from edge (0 or 1) toward the mean.

    Each step tries the subinterval of width d next to the accepted part;
    an accepted step moves the limit there and doubles d, a rejected one
    shrinks d by ever larger powers of two.  The sweep ends once d < ETA.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    xbar = summary.mean
    if xbar == edge:
        return edge
    threshold = math.log(3.0 / delta) / summary.n
    up = xbar > edge
    sign = 1.0 if up else -1.0
    bound = sign * xbar
    d = max(abs(xbar - edge) / 8.0, 1e-3)
    x, ell = edge, 1
    while True:
        d *= 2.0 ** ell
        y = x + sign * d
        ell -= 1
        # holds takes the subinterval's ends in increasing order
        if sign * y < bound and (holds(x, y, summary, threshold) if up
                                 else holds(y, x, summary, threshold)):
            x, ell = y, 1
        if d < ETA:
            return x


def lower_limit(summary: SampleSummary, delta: float) -> float:
    """Lower confidence limit at level 1 - delta; 0 when the mean is 0."""
    return _sweep(summary, delta, 0.0, state_b_holds)


def upper_limit(summary: SampleSummary, delta: float) -> float:
    """Upper confidence limit at level 1 - delta; 1 when the mean is 1."""
    return _sweep(summary, delta, 1.0, state_bu_holds)


def ci_mean(summary: SampleSummary, delta: float) -> ConfidenceInterval:
    """Two-sided confidence interval for the mean at level 1 - delta."""
    return ConfidenceInterval(n=summary.n, mean=summary.mean, var=summary.var,
                              delta=delta,
                              lower=lower_limit(summary, delta),
                              upper=upper_limit(summary, delta))


# -- joint (mean, variance) region -----------------------------------------

def region_contains(summary: SampleSummary, delta: float,
                    nu: float, vartheta: float) -> bool:
    """Membership of (nu, vartheta) in the joint confidence set."""
    if not 0.0 < nu < 1.0:
        return False
    if not 0.0 < vartheta <= nu * (1.0 - nu):
        return False
    threshold = math.log(4.0 / delta) / summary.n
    return _div(summary.mean, nu, vartheta) < threshold and \
        _phi_ext(summary.w(nu), vartheta) < threshold


def _phi_roots(w: float, threshold: float, brentq: Callable[..., float],
               cap: float = 0.25) -> List[float]:
    """Solutions of phi(w, t) = threshold, at most one on each side of w.

    phi(w, .) decreases on (0, w) from +inf to 0 and increases on
    (w, cap]; each branch is bracketed and solved to near machine
    precision.
    """
    if w <= 0.0 or w >= 1.0:
        return []
    roots: List[float] = []
    # branch below w: walk the lower end down until the value exceeds
    # the threshold, then solve; there is no root once the end reaches 0
    lo = w / 2.0
    for _ in range(200):
        if lo == 0.0:
            break
        if _phi_ext(w, lo) > threshold:
            r = brentq(lambda t: _phi_ext(w, t) - threshold, lo, w,
                       xtol=1e-15, rtol=8.9e-16)
            roots.append(float(r))
            break
        lo /= 2.0
    # branch above w
    if w < cap and _phi_ext(w, cap) > threshold:
        r = brentq(lambda t: _phi_ext(w, t) - threshold, w, cap,
                   xtol=1e-15, rtol=8.9e-16)
        roots.append(float(r))
    return roots


def region_boundary(summary: SampleSummary, delta: float,
                    resolution: int = 200) -> ConfidenceRegion:
    """Sampled boundary points of the joint confidence set.

    Emits only points that lie on the actual region boundary: each point
    satisfies its curve's defining equation and the remaining membership
    constraints.
    """
    # scipy is loaded only here, so that the other commands never pay
    # for its import
    from scipy.optimize import brentq

    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    xbar = summary.mean
    threshold = math.log(4.0 / delta) / summary.n
    points: List[Tuple[str, float, float]] = []

    def emit_side(curves: Tuple[str, str, str], lo_nu: float, hi_nu: float,
                  shift: float, bracket: Tuple[float, float],
                  far: float) -> None:
        """Points of one side: curves at nu = lo_nu + (k + shift) step
        below hi_nu, and the tail curve solved on bracket, whose end
        away from the mean is far."""
        env, tailcurve, phicurve = curves
        step = (hi_nu - lo_nu) / resolution
        for k in range(resolution):
            nu = lo_nu + k * step + shift * step
            if not 0.0 < nu < hi_nu:
                continue
            tmax = nu * (1.0 - nu)
            # envelope point, kept when the inequality constraints allow it
            if _div(xbar, nu, tmax) < threshold and \
                    _phi_ext(summary.w(nu), tmax) < threshold:
                points.append((env, nu, tmax))
            for root in _phi_roots(summary.w(nu), threshold, brentq):
                if root <= tmax and _div(xbar, nu, root) < threshold:
                    points.append((phicurve, nu, root))
        # tail-divergence curve: solve for nu at fixed vartheta, using
        # monotonicity of the divergence in nu away from the mean; there
        # is none when the mean lies within 1e-9 of this side's edge
        if bracket[0] >= bracket[1]:
            return
        for k in range(1, resolution + 1):
            th = 0.25 * k / resolution
            f = lambda nu: _div(xbar, nu, th) - threshold
            if f(far) <= 0.0:
                continue  # divergence never reaches the threshold
            nu_root = float(brentq(f, bracket[0], bracket[1],
                                   xtol=1e-15, rtol=8.9e-16))
            if th <= nu_root * (1.0 - nu_root) and \
                    _phi_ext(summary.w(nu_root), th) < threshold:
                points.append((tailcurve, nu_root, th))

    # above the mean nu starts at the mean; below it nu starts one step
    # above 0 and stays under the mean
    if xbar < 1.0:
        emit_side(("C1", "C2", "C3"), xbar, 1.0, 0.0,
                  (xbar, 1.0 - 1e-9), 1.0 - 1e-9)
    if xbar > 0.0:
        emit_side(("D1", "D2", "D3"), 0.0, xbar, 1.0, (1e-9, xbar), 1e-9)
    return ConfidenceRegion(n=summary.n, mean=xbar, var=summary.var,
                            delta=delta, threshold=threshold,
                            points=tuple(points))
