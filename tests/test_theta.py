"""Certified evaluation of the one-variable theta series."""

import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctorus.errors import InvalidS
from nctorus.theta import tail_bound, theta, theta_truncated, truncation_radius


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


@settings(max_examples=40, deadline=None)
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


def test_tail_bound_certifies_radius():
    s = 0.2 + 0.6j
    t = 0.4 + 0.9j
    for eps in (1e-6, 1e-10, 1e-13):
        radius = truncation_radius(s, t, eps)
        assert tail_bound(s, t, radius) < eps
        # truncating further out never moves the value by more than eps
        drift = abs(theta_truncated(s, t, radius + 40) - theta_truncated(s, t, radius))
        assert drift <= eps


def test_tail_bound_infinite_before_peak():
    # with large Im t the summand still grows at small |u|
    assert tail_bound(1j, 3j, 1) == math.inf


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
