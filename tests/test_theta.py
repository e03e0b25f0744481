"""Certified evaluation of the one-variable theta series."""

import cmath
import math
import random

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nctorus.errors import InvalidS
from nctorus.theta import log_tail, theta, theta_truncated, truncation_radius


def _brute(s, t, radius=80):
    # straight double loop, no pairing tricks: an independent reference
    total = 0j
    for u in range(-radius, radius + 1):
        total += cmath.exp(1j * math.pi * s * u * u + 2j * math.pi * t * u)
    return total


def test_pinned_value_at_lattice_point():
    value = theta(1j, 0.0)
    assert abs(value - 1.0864348112133082) < 1e-13
    assert abs(value - _brute(1j, 0.0)) < 1e-14


def test_against_brute_force_samples():
    rng = random.Random(101)
    for _ in range(25):
        s = complex(rng.uniform(-1, 1), rng.uniform(0.3, 2.0))
        t = complex(rng.uniform(-1, 1), rng.uniform(-0.6, 0.6))
        got = theta(s, t, eps=1e-13)
        want = _brute(s, t)
        assert abs(got - want) <= 1e-12 * (1 + abs(want))


@settings(max_examples=40)
@given(st.floats(-1, 1), st.floats(0.25, 2.0), st.floats(-1, 1), st.floats(-0.5, 0.5))
def test_quasi_periodicity(sre, sim, tre, tim):
    # Theta(s, t + s) = exp(-pi i s - 2 pi i t) Theta(s, t)
    s = complex(sre, sim)
    t = complex(tre, tim)
    eps = 1e-13
    lhs = theta(s, t + s, eps)
    rhs = cmath.exp(-1j * math.pi * s - 2j * math.pi * t) * theta(s, t, eps)
    assert abs(lhs - rhs) <= 20 * eps * (1 + abs(rhs))


def test_offset_enters_every_term():
    # theta(s, t, eps, k) = exp(k)*Theta(s, t), with the truncation bound scaled by |exp(k)|
    rng = random.Random(103)
    for _ in range(25):
        s = complex(rng.uniform(-1, 1), rng.uniform(0.3, 2.0))
        t = complex(rng.uniform(-1, 1), rng.uniform(-0.6, 0.6))
        k = complex(rng.uniform(-700, 700), rng.uniform(-50, 50))
        series = _brute(s, t)
        got = theta(s, t, 1e-13, k)
        assert abs(got - cmath.exp(k) * series) <= 1e-12 * abs(cmath.exp(k)) * (1 + abs(series))
    assert theta_truncated(2j, 0.1, 3, 0j) == theta_truncated(2j, 0.1, 3)


def test_integer_periodicity_in_t():
    s = 0.3 + 0.8j
    t = 0.17 - 0.05j
    assert abs(theta(s, t + 1) - theta(s, t)) < 1e-12


def test_even_in_t():
    # the symmetric accumulation makes this exact, not just close
    s = -0.4 + 1.1j
    t = 0.23 + 0.31j
    assert theta(s, t) == theta(s, -t)


def test_validation():
    with pytest.raises(InvalidS):
        theta(1.0 + 0j, 0.0)
    with pytest.raises(InvalidS):
        theta(0.5 - 0.1j, 0.0)
    with pytest.raises(InvalidS):
        truncation_radius(1.0 + 0j, 0.0)
    with pytest.raises(ValueError, match="radius must be >= 0, got -1"):
        theta_truncated(1j, 0, -1)
    for eps in (0.0, -1e-13):
        with pytest.raises(ValueError, match=f"^eps must be positive, got {eps}$"):
            truncation_radius(1j, 0j, eps)


def _log_bound(s, t, radius):
    # log of the bound on |sum over |u| > radius|: both sides, so c0 = log 2
    return log_tail(math.log(2), 2 * math.pi * abs(t.imag), math.pi * s.imag, 0.0, radius + 1)


def test_log_tail_certifies_radius():
    s = 0.2 + 0.6j
    t = 0.4 + 0.9j
    for eps in (1e-6, 1e-10, 1e-13):
        radius = truncation_radius(s, t, eps)
        assert _log_bound(s, t, radius) < math.log(eps)
        # truncating further out never moves the value by more than eps
        drift = abs(theta_truncated(s, t, radius + 40) - theta_truncated(s, t, radius))
        assert drift <= eps


def test_log_tail_infinite_before_peak():
    # with large Im t the summand still grows at small |u|
    assert _log_bound(1j, 3j, 1) == math.inf


def _linear_bound(s, t, radius):
    # the linear-space bound truncation_radius once used, kept as a reference
    a = math.pi * s.imag
    b = 2 * math.pi * abs(t.imag)
    u = radius + 1
    if 2 * a * u <= b:
        return math.inf
    rho = math.exp(-a * (2 * u + 1) + b)
    if rho >= 1:
        return math.inf
    first = 2 * math.exp(-a * u * u + b * u)
    return first / (1 - rho)


def _linear_radius(s, t, eps):
    a = math.pi * s.imag
    b = 2 * math.pi * abs(t.imag)
    radius = max(1, math.ceil(b / (2 * a)))
    while _linear_bound(s, t, radius) > eps:
        radius += max(1, radius // 2)
    return radius


@settings(max_examples=300)
@given(st.floats(-3, 3), st.floats(-3, 4), st.booleans(), st.floats(-15, -3))
def test_radius_matches_linear_bound(log_s, log_t, negative, log_eps):
    # the log-space bound picks the same radius wherever the linear one
    # returns; where the linear one overflows, it still certifies a radius
    s = complex(0.3, 10**log_s)
    t = complex(0.1, -(10**log_t) if negative else 10**log_t)
    eps = 10**log_eps
    radius = truncation_radius(s, t, eps)
    try:
        want = _linear_radius(s, t, eps)
    except OverflowError:
        assert _log_bound(s, t, radius) < math.log(eps)
    else:
        assert radius == want


def test_peak_beyond_double_range_gets_a_radius():
    # the peak term exp(pi*1557**2/620.6) ~ exp(12272) overflows a double
    s, t = 620.6j, 1557j
    with pytest.raises(OverflowError):
        _linear_radius(s, t, 1e-13)
    assert truncation_radius(s, t) == 6
    # exp(k) brings the value back into range: about 5.68e-205
    k = -math.pi * 1557**2 / 620.6
    with mpmath.workdps(40):
        ms, mt = mpmath.mpc(s), mpmath.mpc(t)
        want = mpmath.fsum(
            mpmath.exp(1j * mpmath.pi * ms * u * u + 2j * mpmath.pi * mt * u + k)
            for u in range(-40, 41)
        )
        got = theta(s, t, k=k)
        assert abs(want - 5.68296058389e-205) < 1e-11 * 5.68296058389e-205
        assert float(abs(mpmath.mpc(got) - want) / abs(want)) < 1e-11


def test_radius_shrinks_with_looser_eps():
    s = 0.1 + 0.5j
    t = 0.2
    assert truncation_radius(s, t, 1e-4) <= truncation_radius(s, t, 1e-12)


def test_wide_imaginary_offset():
    # large |Im t| pushes the peak away from u = 0; the bound must follow it
    s = 1.5j
    t = 0.3 + 2.0j
    got = theta(s, t, eps=1e-12)
    want = _brute(s, t, radius=60)
    assert abs(got - want) <= 1e-11 * (1 + abs(want))


@settings(max_examples=200)
@given(st.floats(-3, 3), st.floats(0, 1), st.floats(0, 1), st.floats(-1, 1), st.floats(-1, 1))
@example(math.log10(0.5), 0.0, 1.0, 0.0, 0.0)
def test_radius_is_nondecreasing_up_to_im_s(log_s, x, y, re_s, re_t):
    # on 0 <= |Im t| <= Im s the radius of the largest |Im t| is at least
    # every smaller one's own, so one radius may serve a row of peaks
    s = complex(re_s, 10**log_s)
    lo, hi = sorted((x * s.imag, y * s.imag))
    assert truncation_radius(s, complex(re_t, lo)) <= truncation_radius(s, complex(re_t, -hi))


def test_radius_is_not_monotone_above_im_s():
    # past Im s the search starts at ceil(|Im t|/Im s) and steps by half of
    # itself, so a larger |Im t| can stop at a smaller radius
    assert truncation_radius(0.5j, 2.5j) == 15
    assert truncation_radius(0.5j, 2.501j) == 13
