"""Presentation of the deformed torus algebra and its arithmetic."""

import cmath
import math
import random
import types
import typing

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nctorus.algebra import (
    TWO_PI_I,
    TorusElement,
    add,
    bezout,
    coeff,
    derivation,
    element,
    involution,
    monomial,
    mul,
    norm_max,
    scale,
    sub,
    trace,
    unit,
)
from nctorus.errors import DegenerateDenominator, NotCoprime
from nctorus.modules import ModuleTag, module_tag
from nctorus.tensor import product_params

from conftest import COEFFS, random_element


def _close(a, b, tol=1e-12):
    return abs(a - b) <= tol * (1 + max(abs(a), abs(b)))


def _elem_close(f, g, tol=1e-12):
    d = sub(f, g)
    return norm_max(d) <= tol * (1 + max(norm_max(f), norm_max(g)))


# ---------------------------------------------------------------- generators

def test_generator_product_phase():
    theta = 0.3
    u1 = monomial(1, 0)
    u2 = monomial(0, 1)
    p = mul(u1, u2, theta)
    assert set(p.coeffs) == {(1, 1)}
    assert _close(coeff(p, 1, 1), cmath.exp(1j * math.pi * theta))


def test_weyl_commutation():
    # U1 U2 = exp(2 pi i theta) U2 U1
    for theta in (0.2, math.sqrt(2) - 1, 0.5):
        u1 = monomial(1, 0)
        u2 = monomial(0, 1)
        lhs = mul(u1, u2, theta)
        rhs = scale(cmath.exp(2j * math.pi * theta), mul(u2, u1, theta))
        assert _elem_close(lhs, rhs)


def test_unit_is_neutral():
    rng = random.Random(7)
    f = random_element(rng)
    assert _elem_close(mul(unit(), f, 0.37), f)
    assert _elem_close(mul(f, unit(), 0.37), f)


def test_monomial_inverse():
    theta = 0.61
    v = (2, -3)
    p = mul(monomial(*v), monomial(-v[0], -v[1]), theta)
    assert _elem_close(p, unit())


# ---------------------------------------------------------------- ring laws

@settings(max_examples=60)
@given(st.integers(0, 10**9), st.floats(0.01, 0.99))
def test_associativity(seed, theta):
    rng = random.Random(seed)
    f, g, h = (random_element(rng) for _ in range(3))
    assert _elem_close(mul(mul(f, g, theta), h, theta),
                       mul(f, mul(g, h, theta), theta))


@settings(max_examples=60)
@given(st.integers(0, 10**9), st.floats(0.01, 0.99))
def test_involution_antihomomorphism(seed, theta):
    rng = random.Random(seed)
    f, g = random_element(rng), random_element(rng)
    assert _elem_close(involution(mul(f, g, theta)),
                       mul(involution(g), involution(f), theta))


def test_involution_involutive():
    rng = random.Random(11)
    f = random_element(rng)
    assert _elem_close(involution(involution(f)), f)


def test_distributivity():
    rng = random.Random(13)
    f, g, h = (random_element(rng) for _ in range(3))
    theta = 0.29
    assert _elem_close(mul(add(f, g), h, theta),
                       add(mul(f, h, theta), mul(g, h, theta)))


# ------------------------------------------------------------------- trace

@settings(max_examples=60)
@given(st.integers(0, 10**9), st.floats(0.01, 0.99))
def test_trace_cyclic(seed, theta):
    rng = random.Random(seed)
    f, g = random_element(rng), random_element(rng)
    assert _close(trace(mul(f, g, theta)), trace(mul(g, f, theta)))


def test_trace_positive_matches_coefficient_sum():
    rng = random.Random(17)
    for _ in range(25):
        theta = rng.uniform(0.05, 0.95)
        f = random_element(rng)
        t = trace(mul(f, involution(f), theta))
        expected = sum(abs(c) ** 2 for c in f.coeffs.values())
        assert t.real >= 0
        assert abs(t.imag) <= 1e-12 * (1 + t.real)
        assert _close(t, expected)


def test_trace_of_nonconstant_monomial_vanishes():
    assert trace(monomial(2, -1)) == 0
    assert trace(monomial(0, 0, 3.5)) == 3.5


# -------------------------------------------------------------- derivations

def test_derivation_on_monomial():
    f = monomial(2, -3)
    d1 = derivation(f, 1)
    d2 = derivation(f, 2)
    assert _close(coeff(d1, 2, -3), 2j * math.pi * 2)
    assert _close(coeff(d2, 2, -3), 2j * math.pi * (-3))


@settings(max_examples=40)
@given(st.integers(0, 10**9), st.floats(0.01, 0.99), st.sampled_from([1, 2]))
def test_derivation_leibniz(seed, theta, axis):
    rng = random.Random(seed)
    f, g = random_element(rng), random_element(rng)
    lhs = derivation(mul(f, g, theta), axis)
    rhs = add(mul(derivation(f, axis), g, theta),
              mul(f, derivation(g, axis), theta))
    assert _elem_close(lhs, rhs)


def test_derivations_commute():
    rng = random.Random(19)
    f = random_element(rng)
    assert _elem_close(derivation(derivation(f, 1), 2),
                       derivation(derivation(f, 2), 1))


def test_derivation_respects_star():
    # delta(f*) = (delta f)*
    rng = random.Random(23)
    f = random_element(rng)
    for axis in (1, 2):
        assert _elem_close(derivation(involution(f), axis),
                           involution(derivation(f, axis)))


def test_trace_kills_derivations():
    rng = random.Random(29)
    f = random_element(rng)
    assert abs(trace(derivation(f, 1))) == 0
    assert abs(trace(derivation(f, 2))) == 0


def test_derivation_bad_axis():
    with pytest.raises(ValueError):
        derivation(unit(), 3)


# ------------------------------------------------------------------ Bezout

def test_bezout_canonical_values():
    cases = {
        (1, 2): (1, 0),
        (1, 3): (1, 0),
        (2, 3): (2, 1),
        (3, 2): (1, 1),
        (1, 1): (0, -1),
        (2, 1): (0, -1),
        (0, 1): (0, -1),
        (1, 0): (1, 0),
        (-1, 0): (-1, 0),
        (-1, 2): (1, -1),
    }
    for (n, m), pair in cases.items():
        assert bezout(n, m) == pair
        a, b = pair
        assert a * n - b * m == 1


def test_bezout_normalization_range():
    rng = random.Random(31)
    for _ in range(50):
        m = rng.randint(1, 40)
        n = rng.randint(-40, 40)
        if math.gcd(n, m) != 1:
            continue
        a, b = bezout(n, m)
        assert 0 <= a < m
        assert a * n - b * m == 1


def test_bezout_rejects_common_factor():
    with pytest.raises(NotCoprime):
        bezout(2, 4)
    with pytest.raises(NotCoprime):
        bezout(0, 0)


# --------------------------------------------------- induced angle formulas

def test_theta_prime_oracle():
    # (n, m) = (1, 2) at theta = sqrt(2) - 1 gives theta/(1 + 2 theta)
    theta = math.sqrt(2) - 1
    value = module_tag(1, 2, theta).theta_prime
    assert abs(value - 0.22654091966098644) < 1e-15


def test_theta_prime_sl2_shift():
    # Replacing (a, b) by (a + m, b + n) shifts the angle by exactly 1.
    theta = 0.37
    a, b = bezout(2, 3)
    shifted = ModuleTag(2, 3, theta, a + 3, b + 2)
    assert abs(shifted.theta_prime - module_tag(2, 3, theta).theta_prime - 1) < 1e-14


def test_theta_double_prime_oracle():
    # theta'' of the left label (1, 3) is -theta' of that label at -theta
    value = -module_tag(1, 3, -0.2).theta_prime
    assert abs(value - 0.5) < 1e-15


def test_degenerate_denominator():
    with pytest.raises(DegenerateDenominator):
        ModuleTag(1, 2, -0.5, *bezout(1, 2)).theta_prime
    # the left label (1, 3) at theta = 1/3
    with pytest.raises(DegenerateDenominator):
        ModuleTag(1, 3, -1 / 3, *bezout(1, 3)).theta_prime
    # a product admits B = 0, and only theta'' then fails
    p = product_params(1, 2, 1, 2, 0.5)
    with pytest.raises(DegenerateDenominator):
        p.theta_double_prime


# ------------------------------------------------------ bit-exact fast paths

def _element_ref(coeffs):
    # element as it was before add, scale, mul, involution and derivation
    # canonicalised their own dicts
    items = coeffs.items() if isinstance(coeffs, typing.Mapping) else coeffs
    clean = {}
    for idx, val in items:
        v = complex(val)
        if v != 0:
            key = (int(idx[0]), int(idx[1]))
            clean[key] = clean.get(key, 0j) + v
    return TorusElement({k: v for k, v in clean.items() if v != 0})


def _mul_ref(f, g, theta):
    acc = {}
    for (v1, v2), cv in f.coeffs.items():
        for (w1, w2), cw in g.coeffs.items():
            phase = cmath.exp(1j * math.pi * theta * (v1 * w2 - v2 * w1))
            idx = (v1 + w1, v2 + w2)
            acc[idx] = acc.get(idx, 0j) + cv * cw * phase
    return _element_ref(acc)


def _bits(f):
    """Keys in order and each coefficient's parts by repr, so -0.0 != 0.0."""
    return [(k, repr(v.real), repr(v.imag)) for k, v in f.coeffs.items()]


# raw maps, not through element: a coefficient may hold -0.0 parts or be 0
_RAW = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)), COEFFS, max_size=5
).map(TorusElement)
# (-1, 1) and (1, 2) have v1*w2 - v2*w1 = -3, where theta*(-3) first would round
# differently at theta = 0.2
_SIGNED = TorusElement({(1, 0): complex(-0.0, 1e-14), (0, 1): complex(5e-15, -0.0),
                        (0, 0): complex(-0.0, -0.0), (-1, 1): complex(1.0, -0.0),
                        (1, 2): complex(0.3, -0.7)})


@settings(max_examples=75)
@given(_RAW, _RAW, st.sampled_from((0.2, math.sqrt(2) - 1, 0.5)), COEFFS)
@example(_SIGNED, _SIGNED, 0.2, complex(-1.0, -0.0))
@example(_SIGNED, _SIGNED, 0.5, complex(-0.0, 1.0))
def test_fast_paths_are_bit_exact(f, g, theta, alpha):
    # the operations canonicalise their own dicts and mul hoists its phase
    # prefix; every coefficient keeps its bits, the sign of zero included
    pairs = list(f.coeffs.items()) + list(g.coeffs.items())
    acc = dict(f.coeffs)
    for idx, val in g.coeffs.items():
        acc[idx] = acc.get(idx, 0j) + val
    cases = {
        "element(pairs)": (element(pairs), _element_ref(pairs)),
        "element(mapping)": (element(types.MappingProxyType(f.coeffs)), _element_ref(f.coeffs)),
        "add": (add(f, g), _element_ref(acc)),
        "scale": (scale(alpha, f), _element_ref({i: alpha * v for i, v in f.coeffs.items()})),
        "mul": (mul(f, g, theta), _mul_ref(f, g, theta)),
        "involution": (involution(f), _element_ref(
            {(-v1, -v2): v.conjugate() for (v1, v2), v in f.coeffs.items()})),
    }
    for axis in (1, 2):
        cases[f"derivation{axis}"] = (derivation(f, axis), _element_ref(
            {i: TWO_PI_I * i[axis - 1] * v for i, v in f.coeffs.items()}))
    for name, (got, want) in cases.items():
        assert _bits(got) == _bits(want), name


def _sub_ref(f, g):
    # the former algebra.sub
    return add(f, scale(-1.0, g))


# parts a few ulps either side of 1e-14 (gaussians.PRUNE_TOL), with -0.0 parts
_NEAR_TOL = TorusElement({(0, 0): complex(math.nextafter(1e-14, 1), -0.0),
                          (1, 0): complex(-0.0, math.nextafter(1e-14, 0)),
                          (1, 2): complex(-0.3, 0.7 + 2 * math.ulp(0.7))})


@settings(max_examples=75)
@given(_RAW, _RAW)
@example(_SIGNED, _SIGNED)
@example(_SIGNED, _NEAR_TOL)
@example(_NEAR_TOL, _SIGNED)
def test_sub_is_bit_exact(f, g):
    # acc[idx] - val in one pass is add(f, scale(-1.0, g)) bit for bit, on
    # raw maps with 0 coefficients and -0.0 parts too, and sub(f, f) is empty
    for a, b in ((f, g), (g, f), (f, f)):
        got, want = sub(a, b), _sub_ref(a, b)
        assert got == want
        assert _bits(got) == _bits(want)
    assert not sub(f, f).coeffs


def test_sub_of_random_elements_is_bit_exact():
    rng = random.Random(25)
    for _ in range(100):
        f, g = random_element(rng), random_element(rng)
        # a copy of f a few ulps off leaves differences near the rounding floor
        near = element({k: v * (1 + rng.randint(-3, 3) * 2**-52) for k, v in f.coeffs.items()})
        for a, b in ((f, g), (g, f), (f, f), (f, near), (mul(f, g, 0.2), mul(g, f, -0.2))):
            got, want = sub(a, b), _sub_ref(a, b)
            assert got == want
            assert _bits(got) == _bits(want)
