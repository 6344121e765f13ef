"""Large-deviation divergence kernels.

All kernels are pure scalar functions evaluated on an extended-real
codomain: out-of-domain reference arguments (NaN and infinities
included) map to ``-inf`` (a value, not an error), while an out-of-range
or non-finite first argument is a caller bug and raises.  No kernel ever
returns NaN.
"""

import math

NEG_INF = float("-inf")

__all__ = [
    "NEG_INF",
    "mb",
    "mb_massart",
    "mg",
    "mp",
    "phi",
    "varphi",
    "psi",
]


def mb(z: float, theta: float) -> float:
    """Bernoulli divergence exponent; z is the empirical mean in [0, 1].

    Returns -inf whenever theta is outside (0, 1).  The finite value is
    always <= 0 and vanishes only at z == theta.
    """
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"z must lie in [0, 1], got {z!r}")
    if not 0.0 < theta < 1.0:
        return NEG_INF
    if z == 0.0:
        return math.log1p(-theta)
    if z == 1.0:
        return math.log(theta)
    value = z * math.log(theta / z) + \
        (1.0 - z) * math.log((1.0 - theta) / (1.0 - z))
    if value <= 0.0:
        return value
    # rounding put it above 0: theta / z overflowed (subnormal z), or 1 - z
    # and 1 - theta rounded to 1; take the logarithms apart, as mp does
    value = z * (math.log(theta) - math.log(z)) + \
        (1.0 - z) * math.log((1.0 - theta) / (1.0 - z))
    return min(value, 0.0)


def mb_massart(z: float, theta: float) -> float:
    """Quadratic surrogate dominating :func:`mb` (mb <= mb_massart)."""
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"z must lie in [0, 1], got {z!r}")
    if not 0.0 < theta < 1.0:
        return NEG_INF
    u = z + 2.0 * theta
    # u in (0, 3), so the denominator is strictly negative.
    return 9.0 * (z - theta) ** 2 / (2.0 * u * (u - 3.0))


def mg(z: float, theta: float) -> float:
    """Geometric-mean divergence exponent; z is an empirical mean >= 1.

    The exponent z ln(z/theta) + (1-z) ln((z-1)/(theta-1)) is of order
    (theta-z)^2 / z, while its two terms grow like z: at z = 1e14 they
    cancel to a result with 25 % error, and from z = 1e16 to 0.  So it is
    taken as ln(z/theta) + (z-1) ln w, the same exponent, with
    w = z (theta-1) / (theta (z-1)) = 1 + u and u = (theta-z) / theta /
    (z-1), where nothing large cancels.
    """
    if not 1.0 <= z < math.inf:
        raise ValueError(f"z must be finite and >= 1, got {z!r}")
    if not 1.0 < theta < math.inf:
        return NEG_INF
    if z == 1.0:
        return -math.log(theta)
    u = (theta - z) / theta / (z - 1.0)
    # below -1/2, u has lost the leading digits of 1 + u, so w is taken
    # from its factors, each within a few ulps
    log_w = math.log1p(u) if u > -0.5 else \
        math.log((theta - 1.0) / theta * (z / (z - 1.0)))
    return math.log(z / theta) + (z - 1.0) * log_w


def mp(z: float, theta: float) -> float:
    """Poisson divergence exponent; z is an empirical mean >= 0."""
    if not 0.0 <= z < math.inf:
        raise ValueError(f"z must be finite and >= 0, got {z!r}")
    if not 0.0 < theta < math.inf:
        return NEG_INF
    if z == 0.0:
        return -theta
    r = theta / z
    # where theta / z leaves the float range, take the logarithms apart
    log_r = math.log(r) if 0.0 < r < math.inf else math.log(theta) - math.log(z)
    return z - theta + z * log_r


def phi(z: float, theta: float) -> float:
    """Bernoulli KL divergence on the open unit square; equals -mb(z, theta).

    Nonnegative; zero iff z == theta.
    """
    if not 0.0 < z < 1.0:
        raise ValueError(f"z must lie in (0, 1), got {z!r}")
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta!r}")
    return (1.0 - z) * math.log((1.0 - z) / (1.0 - theta)) + z * math.log(z / theta)


def varphi(z: float, nu: float, theta: float) -> float:
    """Lower-tail Hoeffding exponent for a mean nu and variance bound theta.

    Domain: 0 <= z < nu <= 1 and theta > 0.  z == 0 is the continuous
    extension (the weight of the z-dependent log term vanishes there), and
    so is nu == 1, which :func:`psi` needs when 1 - nu rounds to 1;
    z == nu is rejected, callers use one-sided offsets.
    """
    if not 0.0 < nu <= 1.0:
        raise ValueError(f"nu must lie in (0, 1], got {nu!r}")
    if not 0.0 <= z < nu:
        raise ValueError(f"z must lie in [0, nu), got {z!r}")
    if not theta > 0.0:
        raise ValueError(f"theta must be positive, got {theta!r}")
    t = z * nu / (nu * nu + theta)
    # log1p keeps precision when z is close to nu and the ratio is tiny.
    first = (1.0 - t) * math.log1p(nu * (nu - z) / theta)
    if z == 0.0:
        return first
    return first + t * math.log(z / nu)


def psi(z: float, nu: float, theta: float) -> float:
    """Upper-tail mirror of :func:`varphi`: psi(z, nu, t) = varphi(1-z, 1-nu, t).

    Domain: 0 < nu < z <= 1 and theta > 0.  When 1 - z rounds onto
    1 - nu the mirror cannot be taken, and the value is varphi's
    continuous limit 0 at z = nu.
    """
    if not 0.0 < nu < 1.0:
        raise ValueError(f"nu must lie in (0, 1), got {nu!r}")
    if not nu < z <= 1.0:
        raise ValueError(f"z must lie in (nu, 1], got {z!r}")
    if not theta > 0.0:
        raise ValueError(f"theta must be positive, got {theta!r}")
    if 1.0 - z >= 1.0 - nu:
        return 0.0
    return varphi(1.0 - z, 1.0 - nu, theta)
