"""Module actions and endomorphism generators."""

import cmath
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nctorus.gaussians as gs
from nctorus.algebra import TWO_PI_I, TorusElement, monomial, mul
from nctorus.errors import DegenerateDenominator, DimensionMismatch, NotCoprime
from nctorus.gaussians import PolyGaussTerm, evaluate, grid_abs_max, scale, sub
from nctorus.modules import (
    act_U1,
    act_U2,
    act_Z1,
    act_Z2,
    act_element,
    module_tag,
)

from conftest import (COEFFS, coprime_pair, random_element, random_gaussian, random_theta,
                      random_vector)


def _rel(v, w):
    d = sub(v, w)
    return grid_abs_max(d) / (1 + max(grid_abs_max(v), grid_abs_max(w)))


# ------------------------------------------------------------ construction

def test_module_tag_validation():
    with pytest.raises(NotCoprime):
        module_tag(2, 4, 0.3)
    with pytest.raises(ValueError):
        module_tag(1, 0, 0.3)
    # a vanishing denominator is a valid tag; its division raises
    for n, theta in ((-1, 0.5), (1, -0.5)):  # (1, 2) at -0.5: the left label at 0.5
        tag = module_tag(n, 2, theta)
        assert tag.denominator == 0
        with pytest.raises(DegenerateDenominator) as info:
            tag.theta_prime
        assert str(info.value) == f"denominator vanishes for ({n}, 2) at theta = {theta}"


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



# ------------------------------------------------- one accumulator, bit-exact

def _act_element_ref(f, v, tag):
    # the former act_element: U1 then U2 per word, one canonical axpy per word
    acc = gs.zero(tag.m)
    for (n1, n2), coef in f.coeffs.items():
        w = act_U2(act_U1(v, tag, n1), tag, n2)
        acc = gs.axpy(coef * cmath.exp(-1j * math.pi * tag.theta * n1 * n2), w, acc)
    return acc


# D = n + m*theta of each sign, a left tag (at -theta) and m = 1
_TAGS = (module_tag(1, 2, 0.3), module_tag(-1, 2, 0.3), module_tag(1, 3, -0.31),
         module_tag(2, 1, 0.2))
# raw maps, not through element: a coefficient may hold -0.0 parts or be 0
_ELEMENTS = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)), COEFFS, max_size=5
).map(TorusElement)
# c.imag on multiples of 2*pi, so U2 powers map one term's c onto another's
_CS = st.builds(complex, st.sampled_from((0.0, -0.0, 0.25)),
                st.sampled_from((0.0, -0.0, TWO_PI_I.imag, -TWO_PI_I.imag, 2 * TWO_PI_I.imag)))


@st.composite
def _tagged_vectors(draw):
    # centres on multiples of the U1 step D/m, so U1 powers map centres onto centres
    tag = draw(st.sampled_from(_TAGS))
    x0s = st.integers(-2, 2).map(lambda j: j * tag.denominator / tag.m)
    terms = draw(st.lists(st.builds(
        PolyGaussTerm,
        poly=st.lists(COEFFS, min_size=1, max_size=2).map(tuple),
        sigma=st.sampled_from((1 + 0j, complex(0.8, -0.0), complex(0.8, 0.3))),
        c=_CS, mu=st.integers(0, tag.m - 1), x0=x0s | st.sampled_from((0.0, -0.0)),
    ), max_size=4))
    return tag, gs.vector(tag.m, terms)


def _term(poly, c=0j, mu=0, x0=0.0):
    return PolyGaussTerm(tuple(map(complex, poly)), 1 + 0j, c, mu, x0)


_D1 = _TAGS[3].denominator  # m = 1: U1 moves every centre by D
# Word (1, 0) puts (1, 0.5) on x0 = D and (1, 0.7) on 2D; word (0, 0) leaves the
# first coefficient on D and both on 2D below PRUNE_TOL, so D enters word (-1, 0)
# as (0j, -0.2) and 2D is dropped.
_CANCEL = ((_TAGS[3], gs.vector(1, [_term((1, 0.5)), _term((1, 0.7), x0=_D1),
                                    _term((1, 0.7), x0=2 * _D1)])),
           TorusElement({(1, 0): 1 + 0j, (0, 0): complex(-1 - 2**-50, -0.0),
                         (-1, 0): 0.3 + 0j}))
# Power-0 words on a centre x0 = -0.0, at D > 0 (U1**0 would make it +0.0) and D < 0.
_NEG_CENTRE = gs.vector(2, [_term((1, complex(-0.0, 0.5)), x0=-0.0)])
_POWER0 = TorusElement({(0, 0): complex(-0.0, 1.0), (0, 1): complex(0.5, -0.0),
                        (1, 0): 1 + 0j})
# Keys that differ only in a zero's sign: U2**-1 maps c = -0+0j onto +0+2*pi*j,
# which meets c = -0+2*pi*j at power 0; at D < 0, U1**-1 maps x0 = D/2 on mu = 1
# onto x0 = +0.0 on mu = 0, which meets x0 = -0.0 at power 0.
_SIGNED_KEYS = gs.vector(2, [_term((1,), c=complex(-0.0, 0.0), mu=1),
                             _term((0.5, 1), c=complex(-0.0, TWO_PI_I.imag), mu=1),
                             _term((0.25,), x0=-0.0),
                             _term((2,), mu=1, x0=_TAGS[1].denominator / 2)])


@settings(max_examples=100)
@given(_tagged_vectors(), _ELEMENTS)
@example(*_CANCEL)
@example((_TAGS[0], _NEG_CENTRE), _POWER0)
@example((_TAGS[1], _NEG_CENTRE), _POWER0)
@example((_TAGS[1], _SIGNED_KEYS), TorusElement({(0, 0): 1 + 0j, (0, -1): -0.5 + 0j,
                                                 (-1, 0): 1j}))
@example((_TAGS[1], _SIGNED_KEYS), TorusElement({(-1, 0): 1j, (0, -1): -0.5 + 0j,
                                                 (0, 0): 1 + 0j}))
def test_act_element_is_bit_exact(tagged, f):
    # one accumulator gives the former word-by-word axpy bit for bit: each
    # term's coefficients, key and the sign of every zero in it
    tag, v = tagged
    got, want = act_element(f, v, tag), _act_element_ref(f, v, tag)
    assert got == want
    assert [repr(t) for t in got.terms] == [repr(t) for t in want.terms]
