import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqstop.fixed_ci import (SampleSummary, ci_mean, lower_limit,
                              region_boundary, region_contains,
                              state_b_holds, state_bu_holds, upper_limit,
                              _div, _phi_band, _phi_crossing_lower_bound,
                              _phi_ext)

from oracles import reference_phi_crossing


def make_summary(n, mean, var):
    return SampleSummary(n=n, mean=mean, var=var)


def test_summary_validation():
    with pytest.raises(ValueError):
        make_summary(0, 0.5, 0.1)
    with pytest.raises(ValueError):
        make_summary(10, 1.5, 0.1)
    with pytest.raises(ValueError):
        make_summary(10, 0.5, 0.3)


def test_var_within_rounding_below_zero_is_stored_as_zero():
    assert make_summary(10, 0.5, -1e-13).var == 0.0


def test_shifted_second_moment():
    s = make_summary(50, 0.4, 0.1)
    assert s.w(0.4) == pytest.approx(0.1)
    assert s.w(0.0) == pytest.approx(0.1 + 0.16)


def test_degenerate_mean_zero():
    s = make_summary(100, 0.0, 0.0)
    assert lower_limit(s, 0.05) == 0.0
    assert upper_limit(s, 0.05) > 0.0


def test_degenerate_mean_one():
    s = make_summary(100, 1.0, 0.0)
    assert upper_limit(s, 0.05) == 1.0
    assert lower_limit(s, 0.05) < 1.0


def test_interval_brackets_the_mean():
    rng = random.Random(2)
    for _ in range(10):
        xbar = rng.uniform(0.05, 0.95)
        s = make_summary(rng.randint(30, 300), xbar,
                         rng.uniform(0.01, xbar * (1 - xbar)))
        ci = ci_mean(s, 0.05)
        assert 0.0 <= ci.lower <= s.mean <= ci.upper <= 1.0


def test_nesting_in_delta():
    s = make_summary(120, 0.35, 0.12)
    wide = ci_mean(s, 0.01)
    narrow = ci_mean(s, 0.2)
    assert wide.lower <= narrow.lower
    assert wide.upper >= narrow.upper


def test_limits_tighten_with_n():
    for n_small, n_big in [(100, 400), (50, 500)]:
        a = make_summary(n_small, 0.3, 0.21)
        b = make_summary(n_big, 0.3, 0.21)
        assert lower_limit(b, 0.05) >= lower_limit(a, 0.05)
        assert upper_limit(b, 0.05) <= upper_limit(a, 0.05)


def test_state_b_degenerate_interval_is_pointwise():
    s = make_summary(200, 0.6, 0.1)
    thr = math.log(3 / 0.05) / s.n
    # a width-zero interval and a hair-width one agree
    assert state_b_holds(0.2, 0.2, s, thr) == \
        state_b_holds(0.2 - 1e-12, 0.2, s, thr)


def test_state_b_rejects_bad_interval():
    s = make_summary(100, 0.5, 0.1)
    with pytest.raises(ValueError):
        state_b_holds(0.4, 0.2, s, 0.03)
    with pytest.raises(ValueError):
        state_b_holds(0.2, 0.6, s, 0.03)
    with pytest.raises(ValueError):
        state_bu_holds(0.3, 0.4, s, 0.03)


def test_state_b_true_near_zero_for_large_n():
    s = make_summary(5000, 0.5, 0.2)
    thr = math.log(3 / 0.05) / s.n
    assert state_b_holds(0.0, 0.01, s, thr)
    assert state_bu_holds(0.99, 1.0, s, thr)


def test_interval_json():
    import json
    s = make_summary(100, 0.5, 0.2)
    doc = json.loads(ci_mean(s, 0.05).to_json())
    assert set(doc) == {"n", "mean", "var", "delta", "L", "U"}


def test_region_contains_empirical_point():
    s = make_summary(100, 0.3, 0.15)
    assert region_contains(s, 0.05, 0.3, 0.15)


def test_region_rejects_points_beyond_variance_envelope():
    s = make_summary(100, 0.3, 0.15)
    assert not region_contains(s, 0.05, 0.3, 0.3 * 0.7 + 1e-6)
    assert not region_contains(s, 0.05, 1.2, 0.1)
    assert not region_contains(s, 0.05, 0.3, 0.0)


def test_region_rejects_distant_mean():
    s = make_summary(400, 0.3, 0.15)
    assert not region_contains(s, 0.05, 0.95, 0.04)
    assert not region_contains(s, 0.05, 0.02, 0.015)


def test_region_boundary_residuals():
    s = make_summary(150, 0.4, 0.2)
    region = region_boundary(s, 0.05, resolution=40)
    assert region.points
    thr = region.threshold
    for curve, nu, th in region.points:
        if curve in ("C1", "D1"):
            assert abs(th - nu * (1 - nu)) < 1e-9
        elif curve in ("C2", "D2"):
            assert abs(_div(s.mean, nu, th) - thr) < 1e-9
        else:
            assert abs(_phi_ext(s.w(nu), th) - thr) < 1e-9
        assert 0.0 < th <= nu * (1 - nu) + 1e-15


def test_region_boundary_csv():
    s = make_summary(80, 0.5, 0.2)
    text = region_boundary(s, 0.05, resolution=10).to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "curve,nu,vartheta"
    assert len(lines) > 1


def test_region_resolution_validation():
    s = make_summary(80, 0.5, 0.2)
    with pytest.raises(ValueError):
        region_boundary(s, 0.05, resolution=1)


@pytest.mark.parametrize("delta", [0.0, 1.0, math.nan])
def test_region_refuses_delta_outside_the_unit_interval(delta):
    with pytest.raises(ValueError, match="delta"):
        region_boundary(make_summary(80, 0.5, 0.2), delta)


def test_scan_terminates_on_extreme_summaries():
    for mean, var in [(0.001, 0.0005), (0.999, 0.0005), (0.5, 0.25)]:
        s = make_summary(25, mean, var)
        ci = ci_mean(s, 0.05)
        assert 0.0 <= ci.lower <= ci.upper <= 1.0


def test_ci_where_the_mirror_rounds():
    # the lower scan probes nu with 1 - nu rounding onto 1 - mean
    s = make_summary(10000, 0.18501001464252484, 0.11360119557887273)
    ci = ci_mean(s, 0.05)
    assert ci.lower <= s.mean <= ci.upper


@pytest.mark.parametrize("n, mean, var", [
    (1000, 0.10198239503875019, 0.0025961182019681676),
    (100000, 0.4728003387045943, 0.09462295829867623),
])
def test_region_where_the_mirror_rounds(n, mean, var):
    assert region_boundary(make_summary(n, mean, var), 0.05).points


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(n=st.integers(1, 10 ** 7), mean=st.floats(0.0, 1.0),
       var=st.floats(-1e-12, 0.25 + 1e-12), delta=st.floats(1e-9, 0.5))
def test_interval_and_region_never_raise(n, mean, var, delta):
    s = make_summary(n, mean, var)
    ci = ci_mean(s, delta)
    assert 0.0 <= ci.lower <= s.mean <= ci.upper <= 1.0
    region_boundary(s, delta, resolution=20)


@pytest.mark.parametrize("limit", [lower_limit, upper_limit, ci_mean])
@pytest.mark.parametrize("mean", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("delta", [0.0, -0.1, 1.0, 1.5, 5.0, math.nan])
def test_limits_refuse_delta_outside_unit_interval(limit, mean, delta):
    # also where the mean sits on the limit's own edge and no sweep runs
    with pytest.raises(ValueError, match="delta"):
        limit(make_summary(50, mean, 0.0), delta)


@st.composite
def _crossings(draw):
    """(w, c, thresholds) with 0 < w < c <= 1/4: w anywhere below c,
    subnormal-small, or within a few ulps of c.  The thresholds are
    ln(3 / delta) / n, from n = 10^5 down to n = 1, and a share of
    phi(w, c), so that the crossing lies inside (w, c)."""
    c = draw(st.one_of(st.floats(1e-6, 0.25), st.floats(1e-300, 0.25)))
    w = draw(st.one_of(
        st.floats(0.0, c, exclude_min=True, exclude_max=True),
        st.floats(5e-324, 1e-300),
        st.integers(1, 8).map(
            lambda k: c - k * math.ulp(c))).filter(lambda v: 0.0 < v < c))
    n = draw(st.integers(1, 10 ** 5))
    delta = draw(st.floats(1e-9, 0.99))
    share = draw(st.floats(0.0, 1.0, exclude_max=True))
    # thresholds are positive, as every caller's ln(3 / delta) / n is;
    # a float phi(w, c) may round to 0 or below when c is tiny
    inside = share * _phi_ext(w, c)
    return w, c, [math.log(3.0 / delta) / n] + ([inside] if inside > 0.0
                                                 else [])


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(case=_crossings())
def test_phi_crossing_replays_the_plain_bisection(case):
    w, c, thresholds = case
    for threshold in thresholds:
        assert _phi_crossing_lower_bound(w, c, threshold).hex() == \
            reference_phi_crossing(w, c, threshold).hex()


@pytest.mark.parametrize("w, c, threshold", [
    # thresholds far below phi's rounding error: no band is certified
    (0.2, 0.25, 1e-30), (0.1, 0.25, 1e-20), (0.2, 0.25, 1e-14),
    # threshold above phi(w, c): no crossing in (w, c), Newton never settles
    (0.01, 0.25, 1.0),
])
def test_phi_crossing_without_a_band_is_the_plain_bisection(w, c, threshold):
    assert _phi_band(w, c, threshold) == (w, c)
    assert _phi_crossing_lower_bound(w, c, threshold) == \
        reference_phi_crossing(w, c, threshold)
