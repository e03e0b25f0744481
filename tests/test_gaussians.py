"""Closure operations on polynomial Gaussian sections of R x Z_m."""

import cmath
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nctorus.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidSigma,
    NonFiniteParameter,
    SeriesOverflow,
)
from nctorus.gaussians import (
    PRUNE_TOL,
    PolyGaussTerm,
    PolyGaussVector,
    _poly_add,
    _poly_scale,
    _poly_trim,
    add,
    axpy,
    differentiate,
    evaluate,
    gaussian,
    grid_abs_max,
    modulate,
    mul_x,
    scale,
    sub,
    translate,
    vector,
    zero,
)

from conftest import COEFFS, PARTS, random_vector


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
    # a nan or infinite width evaluates to nan, which grid_abs_max skips, so
    # a difference with such a vector would read as 0.0
    for sigma in (float("nan"), complex(float("nan"), 1.0), complex(1, math.inf), math.inf):
        with pytest.raises(InvalidSigma):
            gaussian(1, sigma)


def test_offset_and_centre_must_be_finite():
    # gaussian(1, 1.0, c=complex(0, inf)) read 0.0 in grid_abs_max the same way
    for c in (complex(0, math.inf), complex(math.nan, 0)):
        with pytest.raises(NonFiniteParameter):
            gaussian(1, 1.0, c)
    for x0 in (math.inf, -math.inf, math.nan):
        with pytest.raises(NonFiniteParameter):
            PolyGaussTerm((1 + 0j,), 1.0, 0j, 0, x0)
        with pytest.raises(NonFiniteParameter):
            translate(gaussian(1, 1.0), x0, 0)


def test_polynomial_coefficients_must_be_finite():
    # both vectors were nan at every probe point, and
    # grid_abs_max(sub(v, gaussian(1, 1.0))) read 0.0
    for poly in ((math.nan,), (1.0, math.inf)):
        with pytest.raises(NonFiniteParameter, match=r"^Gaussian polynomial coefficients "
                                                     r"\(.*\) must be finite$"):
            gaussian(1, 1.0, poly=poly)
    with pytest.raises(NonFiniteParameter):
        vector(1, [PolyGaussTerm((1 + 0j, complex(0, -math.inf)), 1.0, 0j, 0)])


def test_overflowing_coefficient_modulus_is_typed():
    # finite parts whose modulus exceeds double range: abs() raises OverflowError
    with pytest.raises(SeriesOverflow, match="coefficient modulus exceeds double range"):
        gaussian(1, 1.0, poly=(1.5e308 + 1.5e308j,))


# ---------------------------------------------------------- pointwise laws

def _two_centres(rng, m):
    """Random terms centred at 0 plus random terms centred at some s != 0."""
    return add(random_vector(rng, m), translate(random_vector(rng, m), rng.uniform(-1.5, 1.5), 0))


@settings(max_examples=50)
@given(st.integers(0, 10**9))
def test_shift_pointwise(seed):
    rng = random.Random(seed)
    v = _two_centres(rng, 2)
    s = rng.uniform(-1.5, 1.5)
    dmu = rng.randint(-3, 3)
    x = rng.uniform(-2, 2)
    w = translate(v, s, dmu)
    for mu in range(2):
        want = evaluate(v, x - s, (mu - dmu) % 2)
        got = evaluate(w, x, mu)
        assert abs(got - want) <= 1e-12 * (1 + abs(want))


@settings(max_examples=50)
@given(st.integers(0, 10**9))
def test_modulate_pointwise(seed):
    rng = random.Random(seed)
    v = _two_centres(rng, 2)
    beta = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    factors = [cmath.exp(complex(rng.uniform(-0.5, 0.5), rng.uniform(-3, 3))) for _ in range(2)]
    x = rng.uniform(-2, 2)
    w = modulate(v, beta, factors)
    for mu in range(2):
        want = cmath.exp(beta * x) * factors[mu] * evaluate(v, x, mu)
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
    assert translate(v, 0.0, 0) == v
    assert translate(v, 0.0, 2) == v


def test_roll_cycles_components():
    g = gaussian(3, 1.0, mu=0)
    assert translate(g, 0.0, 1).terms[0].mu == 1
    assert translate(g, 0.0, 5).terms[0].mu == 2
    assert translate(translate(g, 0.0, 2), 0.0, 1) == g


def test_modulate_component_factors():
    v = add(gaussian(2, 1.0, mu=0), gaussian(2, 2.0, mu=1))
    w = modulate(v, 0j, [2.0, 3.0])
    assert evaluate(w, 0.0, 0) == 2.0
    assert evaluate(w, 0.0, 1) == 3.0
    with pytest.raises(DimensionMismatch):
        modulate(v, 0j, [1.0])


# The former two-step forms of translate and modulate, kept as references.
def _shift_ref(v, s):
    return vector(v.m, (PolyGaussTerm(t.poly, t.sigma, t.c, t.mu, t.x0 + s) for t in v.terms))


def _roll_ref(v, dmu):
    return vector(
        v.m, (PolyGaussTerm(t.poly, t.sigma, t.c, (t.mu + dmu) % v.m, t.x0) for t in v.terms)
    )


def _mul_exp_ref(v, beta):
    return vector(v.m, (
        PolyGaussTerm(_poly_scale(cmath.exp(beta * t.x0), t.poly), t.sigma, t.c - beta, t.mu, t.x0)
        for t in v.terms
    ))


def _component_scale_ref(v, factors):
    return vector(v.m, (
        PolyGaussTerm(_poly_scale(factors[t.mu], t.poly), t.sigma, t.c, t.mu, t.x0)
        for t in v.terms
    ))


def _assert_same_bits(got, want):
    assert got == want
    assert repr(got.terms) == repr(want.terms)


_ULP = math.ulp(PRUNE_TOL)
_EDGE_VECTORS = [
    # centres 0.0 and 1e-17 meet at 1.0 after a translation by 1.0, and
    # their linear coefficients cancel
    vector(2, [PolyGaussTerm((1 + 2j, 0.5), 1.0, 0.2j, 0, 0.0),
               PolyGaussTerm((-1 + 0.5j, -0.5), 1.0, 0.2j, 0, 1e-17)]),
    # c = 1e-17 and c = 0 meet at c - beta = -1 for beta = 1, leaving 1.5e-14
    vector(2, [PolyGaussTerm((1 + 0j,), 1.0, 1e-17, 1, 0.5),
               PolyGaussTerm((complex(-1.0, 1.5e-14),), 1.0, 0j, 1, 0.5)]),
    # coefficients within a few ulps of PRUNE_TOL, off centre so a phase turns them
    vector(2, [PolyGaussTerm((PRUNE_TOL + 2 * _ULP, complex(0.0, PRUNE_TOL + _ULP), 1.0),
                             1.0 + 0.1j, 0.3, 0, 0.37),
               PolyGaussTerm((complex(PRUNE_TOL + 3 * _ULP, -0.0),), 0.8, 0j, 1, -1.25)]),
    # -0.0 parts in sigma, c and x0 (the coefficients' own are canonicalised away)
    vector(2, [PolyGaussTerm((complex(-0.0, 1.0), complex(0.5, -0.0)), complex(1.0, -0.0),
                             complex(-0.0, 0.3), 1, -0.0),
               PolyGaussTerm((complex(-0.0, -2.0),), 1.0, complex(0.1, -0.0), 0, 0.0)]),
]
_EDGE_ACTIONS = [
    (1.0, 1, 1.0, [1.0, 1.0]),
    (-0.0, 3, 1 + 0j, [complex(-0.0, 1.0), cmath.exp(0.1j)]),
    (0.0, -1, complex(-0.0, 2 * math.pi), [cmath.exp(0.1j), cmath.exp(-2.3j)]),
    (1e6, 2, 2j * math.pi / 0.7, [complex(1.0, -0.0), 0.5]),
]


@pytest.mark.parametrize("s, dmu, beta, factors", _EDGE_ACTIONS)
@pytest.mark.parametrize("v", _EDGE_VECTORS)
def test_fused_actions_are_bit_exact_at_edges(v, s, dmu, beta, factors):
    _assert_same_bits(translate(v, s, dmu), _roll_ref(_shift_ref(v, s), dmu))
    _assert_same_bits(modulate(v, beta, factors),
                      _component_scale_ref(_mul_exp_ref(v, beta), factors))


def test_edge_vectors_meet_where_intended():
    collide, meet_c = _EDGE_VECTORS[:2]
    assert len(translate(collide, 1.0, 1).terms) == 1
    assert len(modulate(meet_c, 1.0, [1.0, 1.0]).terms) == 1


@settings(max_examples=75)
@given(st.integers(0, 10**9), st.integers(1, 4))
def test_fused_actions_are_bit_exact(seed, m):
    # translate is one canonical pass for a shift and a roll, modulate one
    # for mul_exp and component_scale; every part keeps its bits
    rng = random.Random(seed)
    v = add(random_vector(rng, m, nterms=rng.randint(1, 4)),
            _shift_ref(random_vector(rng, m), rng.choice((1e-17, rng.uniform(-3, 3)))))
    s = rng.choice((rng.uniform(-3, 3), float(rng.randint(-3, 3)), rng.uniform(-1e6, 1e6)))
    dmu = rng.randint(-2 * m, 2 * m)
    beta = rng.choice((complex(0.0, rng.uniform(-7, 7)),
                       complex(rng.uniform(-2, 2), rng.uniform(-2, 2))))
    factors = [cmath.exp(complex(0.0, rng.uniform(-4, 4))) for _ in range(m)]
    _assert_same_bits(translate(v, s, dmu), _roll_ref(_shift_ref(v, s), dmu))
    _assert_same_bits(modulate(v, beta, factors),
                      _component_scale_ref(_mul_exp_ref(v, beta), factors))


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


def _vector_ref(m, terms):
    # vector as it was before its single-term path: every key starts from
    # _poly_add((), p) and the terms are always sorted
    merged = {}
    for t in terms:
        if not 0 <= t.mu < m:
            raise IndexOutOfRange(f"component {t.mu} outside range(0, {m})")
        key = (complex(t.sigma), complex(t.c), t.mu, float(t.x0))
        merged[key] = _poly_add(merged.get(key, ()), tuple(map(complex, t.poly)))
    out = []
    for (sigma, c, mu, x0), poly in merged.items():
        poly = _poly_trim(poly)
        if poly:
            out.append(PolyGaussTerm(poly, sigma, c, mu, x0))
    out.sort(
        key=lambda t: (t.mu, t.sigma.real, t.sigma.imag, t.c.real, t.c.imag, t.x0, len(t.poly))
    )
    return PolyGaussVector(m, tuple(out))


def _bits(v):
    """Every part of every term by repr, in term order, so -0.0 != 0.0."""
    def parts(z):
        return repr(z.real), repr(z.imag)
    return [(tuple(map(parts, t.poly)), parts(t.sigma), parts(t.c), t.mu, repr(t.x0))
            for t in v.terms]


# few keys, given as floats, signed zeros and an int x0, so terms repeat a
# (sigma, c, mu, x0) key with polynomials of different lengths
_TERMS = st.builds(
    PolyGaussTerm,
    poly=st.lists(COEFFS | PARTS, max_size=3).map(tuple),
    sigma=st.sampled_from((1.0, complex(1.0, -0.0), 1 + 0.5j)),
    c=st.sampled_from((0j, -0.0, complex(-0.0, 0.3))),
    mu=st.integers(0, 1),
    x0=st.sampled_from((0.0, -0.0, 1.5, 2)),
)
_SIGNED = [
    PolyGaussTerm((complex(-0.0, 1.0),), complex(1.0, -0.0), -0.0, 1, -0.0),
    PolyGaussTerm((1e-14, complex(-0.0, -0.0), 5e-15), 1.0, 0j, 1, 0.0),
    PolyGaussTerm((complex(2.0, -0.0),), 1 + 0.5j, complex(-0.0, 0.3), 0, 2),
]


@settings(max_examples=75)
@given(st.lists(_TERMS, max_size=4))
@example(_SIGNED)
@example(_SIGNED[:1])
def test_vector_is_bit_exact(terms):
    # a new key starts from 0j + complex(v) and one term skips the sort;
    # every part keeps its bits, the sign of zero included
    assert _bits(vector(2, terms)) == _bits(_vector_ref(2, terms))


def test_vector_rejects_bad_component_index():
    t = PolyGaussTerm(poly=(1 + 0j,), sigma=1.0 + 0j, c=0j, mu=2)
    with pytest.raises(IndexOutOfRange):
        vector(2, [t])


def test_vector_needs_a_component():
    for m in (0, -1):
        with pytest.raises(ValueError, match=f"^component count must be >= 1, got {m}$"):
            vector(m, [])


def test_axpy_rejects_different_component_counts():
    with pytest.raises(DimensionMismatch, match="^component counts differ: 2 vs 3$"):
        axpy(1.0, gaussian(2, 1.0), gaussian(3, 1.0))


def test_grid_abs_max_and_approx_eq():
    g = gaussian(1, 1.0)
    assert grid_abs_max(g) == 1.0
    assert grid_abs_max(zero(2)) == 0.0
