"""Closure operations on polynomial Gaussian sections of R x Z_m."""

import cmath
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctorus.errors import DimensionMismatch, IndexOutOfRange, InvalidSigma
from nctorus.gaussians import (
    PolyGaussTerm,
    add,
    axpy,
    component_scale,
    differentiate,
    evaluate,
    gaussian,
    grid_abs_max,
    mul_exp,
    mul_x,
    roll,
    scale,
    shift,
    sub,
    to_json,
    vector,
    zero,
)

from conftest import random_vector


# ------------------------------------------------------------- evaluation

def test_evaluate_standard_gaussian():
    g = gaussian(2, 1.0)
    assert evaluate(g, 0.0, 0) == 1.0
    assert abs(evaluate(g, 1.0, 0) - 0.6065306597126334) < 1e-16
    assert evaluate(g, 1.0, 1) == 0


def test_evaluate_rejects_bad_component():
    g = gaussian(2, 1.0)
    with pytest.raises(IndexOutOfRange):
        evaluate(g, 0.0, 2)
    with pytest.raises(IndexOutOfRange):
        evaluate(g, 0.0, -1)


def test_sigma_must_decay():
    with pytest.raises(InvalidSigma):
        gaussian(1, -0.5)
    with pytest.raises(InvalidSigma):
        gaussian(1, 2j)


# ---------------------------------------------------------- pointwise laws

def _two_centres(rng, m):
    """Random terms centred at 0 plus random terms centred at some s != 0."""
    return add(random_vector(rng, m), shift(random_vector(rng, m), rng.uniform(-1.5, 1.5)))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_shift_pointwise(seed):
    rng = random.Random(seed)
    v = _two_centres(rng, 2)
    s = rng.uniform(-1.5, 1.5)
    x = rng.uniform(-2, 2)
    w = shift(v, s)
    for mu in range(2):
        want = evaluate(v, x - s, mu)
        got = evaluate(w, x, mu)
        assert abs(got - want) <= 1e-12 * (1 + abs(want))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_mul_exp_pointwise(seed):
    rng = random.Random(seed)
    v = _two_centres(rng, 2)
    beta = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    x = rng.uniform(-2, 2)
    w = mul_exp(v, beta)
    for mu in range(2):
        want = cmath.exp(beta * x) * evaluate(v, x, mu)
        got = evaluate(w, x, mu)
        assert abs(got - want) <= 1e-12 * (1 + abs(want))


def test_mul_x_pointwise():
    rng = random.Random(3)
    v = _two_centres(rng, 3)
    w = mul_x(v)
    for x in (-1.3, 0.0, 0.8):
        for mu in range(3):
            assert abs(evaluate(w, x, mu) - x * evaluate(v, x, mu)) < 1e-13


def test_differentiate_pointwise_finite_difference():
    rng = random.Random(5)
    v = _two_centres(rng, 2)
    w = differentiate(v)
    h = 1e-5
    for x in (-0.7, 0.2, 1.1):
        for mu in range(2):
            fd = (evaluate(v, x + h, mu) - evaluate(v, x - h, mu)) / (2 * h)
            assert abs(evaluate(w, x, mu) - fd) < 1e-7


def test_differentiate_structural_example():
    # d/dx exp(-x^2/2) = -x exp(-x^2/2)
    g = gaussian(1, 1.0)
    d = differentiate(g)
    assert len(d.terms) == 1
    assert d.terms[0].poly == (0j, (-1 + 0j))


def test_shift_by_zero_is_identity():
    rng = random.Random(9)
    v = random_vector(rng, 2)
    assert shift(v, 0.0) == v


def test_roll_cycles_components():
    g = gaussian(3, 1.0, mu=0)
    assert roll(g, 1).terms[0].mu == 1
    assert roll(g, 5).terms[0].mu == 2
    assert roll(roll(g, 2), 1) == g


def test_component_scale():
    v = add(gaussian(2, 1.0, mu=0), gaussian(2, 2.0, mu=1))
    w = component_scale(v, [2.0, 3.0])
    assert evaluate(w, 0.0, 0) == 2.0
    assert evaluate(w, 0.0, 1) == 3.0
    with pytest.raises(DimensionMismatch):
        component_scale(v, [1.0])


# ------------------------------------------------------- exact cancellation

def test_derivative_commutator_is_identity():
    # [d/dx, x] v = v collapses to the empty vector after subtraction.
    rng = random.Random(21)
    for _ in range(20):
        v = random_vector(rng, 2, nterms=2, max_deg=3)
        defect = sub(sub(differentiate(mul_x(v)), mul_x(differentiate(v))), v)
        assert defect.is_zero()


def test_self_subtraction_cancels():
    rng = random.Random(25)
    v = random_vector(rng, 3)
    assert sub(v, v).is_zero()


def test_axpy_merges_matching_terms():
    g = gaussian(2, 1.0 + 0.2j, c=0.3)
    doubled = axpy(1.0, g, g)
    assert doubled == scale(2.0, g)
    assert len(doubled.terms) == 1


def test_prune_drops_noise_terms():
    g = gaussian(1, 1.0, poly=(1e-15 + 0j,))
    assert g.is_zero()


def test_canonical_order_is_deterministic():
    t1 = PolyGaussTerm(poly=(1 + 0j,), sigma=1.0 + 0j, c=0j, mu=1)
    t2 = PolyGaussTerm(poly=(1 + 0j,), sigma=2.0 + 0j, c=0j, mu=0)
    t3 = PolyGaussTerm(poly=(1 + 0j,), sigma=1.0 + 0j, c=0j, mu=0)
    assert vector(2, [t1, t2, t3]) == vector(2, [t3, t1, t2])
    assert vector(2, [t1, t2, t3]).terms[0].mu == 0


def test_vector_rejects_bad_component_index():
    t = PolyGaussTerm(poly=(1 + 0j,), sigma=1.0 + 0j, c=0j, mu=2)
    with pytest.raises(IndexOutOfRange):
        vector(2, [t])


# ---------------------------------------------------------- serialization

def test_json_layout():
    doc = to_json(gaussian(2, 1.0 + 0.5j, c=0.25, mu=1))
    assert doc["m"] == 2
    term = doc["terms"][0]
    assert term["sigma"] == [1.0, 0.5]
    assert term["c"] == [0.25, 0.0]
    assert term["mu"] == 1
    assert term["poly"] == [[1.0, 0.0]]


def test_grid_abs_max_and_approx_eq():
    g = gaussian(1, 1.0)
    assert grid_abs_max(g) == 1.0
    assert grid_abs_max(zero(2)) == 0.0
