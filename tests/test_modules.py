"""Module actions and endomorphism generators."""

import cmath
import math
import random

import pytest

from nctorus.algebra import TWO_PI_I, monomial, mul
from nctorus.errors import DegenerateDenominator, DimensionMismatch, NotCoprime
from nctorus.gaussians import evaluate, grid_abs_max, scale, sub
from nctorus.modules import (
    act_U1,
    act_U2,
    act_Z1,
    act_Z2,
    act_element,
    module_tag,
)

from conftest import coprime_pair, random_element, random_gaussian, random_theta, random_vector


def _rel(v, w):
    d = sub(v, w)
    return grid_abs_max(d) / (1 + max(grid_abs_max(v), grid_abs_max(w)))


# ------------------------------------------------------------ construction

def test_module_tag_validation():
    with pytest.raises(NotCoprime):
        module_tag(2, 4, 0.3)
    with pytest.raises(ValueError):
        module_tag(1, 0, 0.3)
    with pytest.raises(DegenerateDenominator):
        module_tag(-1, 2, 0.5)
    with pytest.raises(DegenerateDenominator):
        module_tag(1, 2, -0.5)  # the left label (1, 2) at theta = 0.5


def test_denominator_by_side():
    # a left label (k, l) at theta is the module at -theta: D = k - l*theta
    assert module_tag(1, 2, 0.3).denominator == 1 + 2 * 0.3
    assert module_tag(1, 2, -0.3).denominator == 1 - 2 * 0.3


# -------------------------------------------------------- pointwise action

def test_act_u1_translates_and_rotates():
    theta = 0.3
    tag = module_tag(1, 2, theta)
    rng = random.Random(1)
    v = random_vector(rng, 2)
    w = act_U1(v, tag)
    step = (1 + 2 * theta) / 2
    for x in (-0.9, 0.0, 0.7):
        for mu in range(2):
            want = evaluate(v, x - step, (mu - 1) % 2)
            assert abs(evaluate(w, x, mu) - want) < 1e-12


def test_act_u2_is_component_phase():
    theta = 0.3
    tag = module_tag(1, 2, theta)
    rng = random.Random(2)
    v = random_vector(rng, 2)
    w = act_U2(v, tag)
    for x in (-0.9, 0.0, 0.7):
        for mu in range(2):
            want = cmath.exp(TWO_PI_I * (x - mu / 2)) * evaluate(v, x, mu)
            assert abs(evaluate(w, x, mu) - want) < 1e-12


def test_act_z_pointwise():
    theta = 0.3
    tag = module_tag(1, 2, theta)
    a = tag.a
    rng = random.Random(3)
    v = random_vector(rng, 2)
    w1 = act_Z1(v, tag)
    w2 = act_Z2(v, tag)
    D = tag.denominator
    for x in (-0.9, 0.0, 0.7):
        for mu in range(2):
            assert abs(evaluate(w1, x, mu) - evaluate(v, x - 0.5, (mu - a) % 2)) < 1e-12
            want = cmath.exp(TWO_PI_I * (x / D - mu / 2)) * evaluate(v, x, mu)
            assert abs(evaluate(w2, x, mu) - want) < 1e-12


def test_negative_power_inverts():
    tag = module_tag(2, 3, 0.41)
    rng = random.Random(4)
    v = random_vector(rng, 3)
    assert _rel(act_U1(act_U1(v, tag), tag, power=-1), v) < 1e-13
    assert _rel(act_U2(act_U2(v, tag, power=2), tag, power=-2), v) < 1e-13
    assert _rel(act_Z1(act_Z1(v, tag), tag, power=-1), v) < 1e-13


# ------------------------------------------------------- commutation phases

def test_generator_phase_random_labels():
    rng = random.Random(5)
    for _ in range(20):
        theta = random_theta(rng)
        n, m = coprime_pair(rng)
        if abs(n + m * theta) < 0.05:
            continue
        tag = module_tag(n, m, theta)
        v = random_gaussian(rng, m, with_poly=True)
        lhs = act_U2(act_U1(v, tag), tag)
        rhs = scale(cmath.exp(TWO_PI_I * theta), act_U1(act_U2(v, tag), tag))
        assert _rel(lhs, rhs) < 1e-12


def test_endomorphism_phase_random_labels():
    rng = random.Random(6)
    for _ in range(20):
        theta = random_theta(rng)
        n, m = coprime_pair(rng)
        if abs(n + m * theta) < 0.05:
            continue
        tag = module_tag(n, m, theta)
        tp = tag.theta_prime
        assert tp == (tag.b + tag.a * theta) / tag.denominator
        v = random_gaussian(rng, m, with_poly=True)
        lhs = act_Z2(act_Z1(v, tag), tag)
        rhs = scale(cmath.exp(-TWO_PI_I * tp), act_Z1(act_Z2(v, tag), tag))
        assert _rel(lhs, rhs) < 1e-12


def test_endomorphisms_commute_with_action():
    rng = random.Random(7)
    tag = module_tag(1, 2, 0.37)
    v = random_vector(rng, 2)
    for ez in (act_Z1, act_Z2):
        for eu in (act_U1, act_U2):
            assert _rel(ez(eu(v, tag), tag), eu(ez(v, tag), tag)) < 1e-12


def test_endomorphisms_commute_with_left_action():
    # the endomorphisms of a left module, its tag at -theta, commute with U1, U2
    rng = random.Random(8)
    for k, l in ((1, 3), (2, 5), (-1, 2), (4, 1)):
        tag = module_tag(k, l, -0.37)
        v = random_vector(rng, l)
        for ez in (act_Z1, act_Z2):
            for eu in (act_U1, act_U2):
                assert _rel(ez(eu(v, tag), tag), eu(ez(v, tag), tag)) < 1e-12


def test_dimension_checked():
    tag = module_tag(1, 2, 0.3)
    v = random_gaussian(random.Random(9), 3)
    with pytest.raises(DimensionMismatch):
        act_U1(v, tag)


# ------------------------------------------------------------ module axiom

def test_right_module_axiom():
    theta = 0.31
    tag = module_tag(1, 2, theta)
    rng = random.Random(10)
    v = random_vector(rng, 2)
    f = monomial(1, 1, 0.8 - 0.3j)
    g = monomial(-1, 2, 0.5 + 0.1j)
    lhs = act_element(g, act_element(f, v, tag), tag)
    rhs = act_element(mul(f, g, theta), v, tag)
    assert _rel(lhs, rhs) < 1e-12


def test_left_module_axiom():
    # the left module (k, l) at theta is its tag at -theta, where acting by g
    # and then by f realizes mul(f, g, theta), since that is mul(g, f, -theta)
    theta = 0.31
    tag = module_tag(1, 3, -theta)
    rng = random.Random(11)
    v = random_vector(rng, 3)
    f = monomial(1, -1, 0.6 + 0.2j)
    g = monomial(2, 1, -0.4 + 0.9j)
    lhs = act_element(f, act_element(g, v, tag), tag)
    rhs = act_element(mul(f, g, theta), v, tag)
    assert _rel(lhs, rhs) < 1e-12
    # random elements on labels with |k|, l <= 9, whose U1 powers shift
    # Gaussians far from their centres
    for _ in range(20):
        theta = random_theta(rng)
        k, l = coprime_pair(rng, bound=9)
        if abs(k - l * theta) < 0.05:
            continue
        tag = module_tag(k, l, -theta)
        v = random_vector(rng, l)
        f, g = random_element(rng), random_element(rng)
        lhs = act_element(f, act_element(g, v, tag), tag)
        rhs = act_element(mul(f, g, theta), v, tag)
        assert _rel(lhs, rhs) < 1e-12


def test_act_element_weyl_phase():
    # a Weyl monomial with both exponents picks up the symmetrizing phase
    theta = 0.4
    tag = module_tag(1, 2, theta)
    rng = random.Random(13)
    v = random_vector(rng, 2)
    got = act_element(monomial(1, 1), v, tag)
    want = scale(cmath.exp(-1j * math.pi * theta),
                 act_U2(act_U1(v, tag), tag))
    assert _rel(got, want) < 1e-13

