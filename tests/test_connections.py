"""Constant-curvature connections and their holomorphic vectors."""

import math
import random

import pytest

from nctorus.algebra import monomial
from nctorus.connections import (
    ComplexStructure,
    curvature_constant,
    curvature_defect,
    dbar_residual,
    holomorphic_basis,
    holomorphic_sigma,
    leibniz_defect,
    nabla1,
    nabla2,
)
from nctorus.errors import DegenerateDenominator, NoHolomorphicVectors
from nctorus.gaussians import (
    axpy,
    evaluate,
    gaussian,
    grid_abs_max,
    scale,
    sub,
)
from nctorus.modules import act_Z2, act_element, module_tag
from nctorus.tensor import product_params

from conftest import coprime_pair, random_element, random_gaussian, random_theta, random_vector


# --------------------------------------------------------------- operators

def test_nabla2_structural_example():
    # on exp(-sigma x^2/2 - c x): 2 pi (-c - sigma x) times the Gaussian
    v = gaussian(1, 1.2, c=0.3)
    w = nabla2(v, module_tag(1, 1, 0.4))
    assert len(w.terms) == 1
    p = w.terms[0].poly
    two_pi = 2 * math.pi
    assert abs(p[0] - (-0.3 * two_pi)) < 1e-15
    assert abs(p[1] - (-1.2 * two_pi)) < 1e-15


def test_nabla1_is_scaled_position():
    tag = module_tag(1, 2, 0.3)
    v = gaussian(2, 1.0)
    w = nabla1(v, tag)
    coef = 2j * math.pi * 2 / (1 + 2 * 0.3)
    assert len(w.terms) == 1
    assert w.terms[0].poly == (0j, coef)


def test_offsets_are_affine():
    tag = module_tag(1, 2, 0.3)
    rng = random.Random(1)
    v = random_vector(rng, 2)
    base = nabla1(v, tag)
    offset = nabla1(v, tag, c1=0.5j)
    assert grid_abs_max(sub(sub(offset, base), scale(0.5j, v))) < 1e-13


# --------------------------------------------------------------- curvature

def test_curvature_constant_oracle():
    # (n, m) = (1, 2) at theta = 1/2 has D = 2, so kappa = -4 pi^2 i
    kappa = curvature_constant(module_tag(1, 2, 0.5))
    assert abs(kappa - (-4j * math.pi**2)) < 1e-12


def test_curvature_sign_flips_with_denominator():
    # replacing D by -D flips kappa: compare (n, m, theta) to (-n, m, -theta)
    k1 = curvature_constant(module_tag(1, 2, 0.3))
    k2 = curvature_constant(module_tag(-1, 2, -0.3))
    assert abs(k1 + k2) < 1e-12


def test_commutator_collapses_to_constant():
    # ([nabla_1, nabla_2] - kappa) v cancels to rounding noise on the grid
    # and introduces no terms outside the span of v itself.
    rng = random.Random(2)
    for _ in range(20):
        theta = random_theta(rng)
        n, m = coprime_pair(rng)
        if abs(n + m * theta) < 0.1:
            continue
        tag = module_tag(n, m, theta)
        v = random_vector(rng, m, nterms=2, max_deg=2)
        lhs = sub(nabla1(nabla2(v, tag), tag), nabla2(nabla1(v, tag), tag))
        defect = sub(lhs, scale(curvature_constant(tag), v))
        keys = {(t.sigma, t.c, t.mu) for t in v.terms}
        assert {(t.sigma, t.c, t.mu) for t in defect.terms} <= keys
        scale_bound = (1 + abs(curvature_constant(tag))) * (1 + grid_abs_max(v))
        assert grid_abs_max(defect) <= 1e-12 * scale_bound
        assert curvature_defect(v, tag) <= 1e-12 * scale_bound


def test_curvature_defect_detects_wrong_constant():
    # the competing normalization 2 pi i m/D misses by orders of magnitude
    tag = module_tag(1, 2, 0.3)
    v = gaussian(2, 1.0)
    lhs = sub(nabla1(nabla2(v, tag), tag), nabla2(nabla1(v, tag), tag))
    wrong = 2j * math.pi * 2 / tag.denominator
    assert grid_abs_max(sub(lhs, scale(wrong, v))) > 1.0


def test_curvature_ignores_offsets():
    # constant offsets commute away: the defect of the offset connection
    # against the same kappa stays at rounding level
    tag = module_tag(2, 3, 0.21)
    rng = random.Random(3)
    v = random_vector(rng, 3)
    c1, c2 = 0.4 - 0.2j, -0.1 + 0.7j
    lhs = sub(
        nabla1(nabla2(v, tag, c2), tag, c1),
        nabla2(nabla1(v, tag, c1), tag, c2),
    )
    defect = sub(lhs, scale(curvature_constant(tag), v))
    assert grid_abs_max(defect) < 1e-11


# ----------------------------------------------------------------- Leibniz

def test_leibniz_rule_both_axes():
    tag = module_tag(1, 2, 0.37)
    rng = random.Random(4)
    for f in (monomial(1, 0), monomial(0, 1), random_element(rng),
              random_element(rng)):
        v = random_vector(rng, 2)
        assert leibniz_defect(v, f, tag, 1) < 1e-10
        assert leibniz_defect(v, f, tag, 2) < 1e-10


def test_leibniz_needs_rescaled_derivation():
    # dropping the 2 pi weight on the second derivation breaks the rule;
    # this pins down why the rescaling exists
    tag = module_tag(1, 2, 0.37)
    rng = random.Random(5)
    v = random_gaussian(rng, 2)
    f = monomial(0, 1)
    from nctorus.algebra import derivation
    lhs = nabla2(act_element(f, v, tag), tag)
    rhs = axpy(1.0, act_element(f, nabla2(v, tag), tag),
               act_element(derivation(f, 2), v, tag))
    assert grid_abs_max(sub(lhs, rhs)) > 1.0


def test_leibniz_bad_axis():
    tag = module_tag(1, 2, 0.3)
    v = gaussian(2, 1.0)
    with pytest.raises(ValueError):
        leibniz_defect(v, monomial(1, 0), tag, 3)


# ---------------------------------------------------------- holomorphicity

def test_holomorphic_sigma_oracle():
    # (n, m) = (1, 2), theta = 0.3, tau = -i: sigma = 2/1.6 = 1.25
    tag = module_tag(1, 2, 0.3)
    cs = ComplexStructure(tau=-1j)
    assert abs(holomorphic_sigma(tag, cs) - 1.25) < 1e-15


def test_basis_size_and_residuals():
    rng = random.Random(6)
    count = 0
    while count < 10:
        theta = random_theta(rng)
        n, m = coprime_pair(rng)
        if n + m * theta < 0.15:
            continue
        tag = module_tag(n, m, theta)
        cs = ComplexStructure(tau=complex(rng.uniform(-0.5, 0.5),
                                          -rng.uniform(0.5, 1.5)),
                              c1=complex(0, rng.uniform(-0.5, 0.5)),
                              c2=complex(0, rng.uniform(-0.5, 0.5)))
        basis = holomorphic_basis(tag, cs)
        assert len(basis) == m
        assert sorted(v.terms[0].mu for v in basis) == list(range(m))
        for v in basis:
            assert dbar_residual(v, tag, cs) < 1e-12
        count += 1


def test_no_holomorphic_vectors_both_sign_regimes():
    cs_up = ComplexStructure(tau=1j)
    cs_down = ComplexStructure(tau=-1j)
    pos = module_tag(1, 2, 0.3)       # D > 0: needs Im tau < 0
    neg = module_tag(-1, 1, 0.3)      # D < 0: needs Im tau > 0
    assert len(holomorphic_basis(pos, cs_down)) == 2
    assert len(holomorphic_basis(neg, cs_up)) == 1
    with pytest.raises(NoHolomorphicVectors):
        holomorphic_basis(pos, cs_up)
    with pytest.raises(NoHolomorphicVectors):
        holomorphic_basis(neg, cs_down)


def test_no_holomorphic_vectors_when_width_overflows():
    tag = module_tag(1, 2, 0.2)
    for cs in (ComplexStructure(tau=-1e308 - 1j), ComplexStructure(2 - 1j, c1=1e308 + 1e308j)):
        with pytest.raises(NoHolomorphicVectors, match="not finite for tau"):
            holomorphic_basis(tag, cs)


@pytest.mark.parametrize("call", [
    lambda v, tag, cs: holomorphic_basis(tag, cs),
    lambda v, tag, cs: curvature_constant(tag),
    lambda v, tag, cs: nabla1(v, tag),
    lambda v, tag, cs: dbar_residual(v, tag, cs),
    lambda v, tag, cs: act_Z2(v, tag),
], ids=["holomorphic_basis", "curvature_constant", "nabla1", "dbar_residual", "act_Z2"])
def test_vanishing_denominator_is_typed(call):
    # the left tag of (1, 2) x (1, 2) at theta = 0.5 has k - l*theta = 0, which
    # product_params admits; every division by it is a DegenerateDenominator
    # naming the tag's own label and angle, (1, 2) at -theta
    tag = product_params(1, 2, 1, 2, 0.5).left
    with pytest.raises(DegenerateDenominator) as info:
        call(gaussian(2, 1.0, mu=1), tag, ComplexStructure(tau=-1j))
    assert str(info.value) == "denominator vanishes for (1, 2) at theta = -0.5"


def test_dbar_detects_perturbation():
    tag = module_tag(1, 2, 0.3)
    cs = ComplexStructure(tau=-1j)
    v = holomorphic_basis(tag, cs)[0]
    off = gaussian(2, v.terms[0].sigma + 0.3, mu=0)
    assert dbar_residual(axpy(0.01, off, v), tag, cs) > 1e-4


def test_offset_with_nonzero_connection_offsets():
    # Re(tau) != 0 and complex c1, c2: c = (tau*c1 + c2)/(2*pi) is the one
    # linear coefficient killed by tau*nabla_1 + nabla_2
    tau, c1, c2 = 0.3 - 1.2j, 0.1 + 0.2j, -0.3 + 0.1j
    cs = ComplexStructure(tau, c1, c2)
    assert cs.offset == (tau * c1 + c2) / (2 * math.pi)
    for tag in (module_tag(1, 2, 0.2), module_tag(2, 3, -0.2), module_tag(1, 4, 0.41)):
        basis = holomorphic_basis(tag, cs)
        assert len(basis) == tag.m
        for v in basis:
            assert dbar_residual(v, tag, cs) <= 1e-12 * grid_abs_max(v)
        sigma = holomorphic_sigma(tag, cs)
        for eps in (1e-4, 1e-4j):
            for mu in range(tag.m):
                wrong = gaussian(tag.m, sigma, cs.offset + eps, mu)
                # the defect is exactly 2*pi*|eps| relative
                assert dbar_residual(wrong, tag, cs) > 1e-4 * grid_abs_max(wrong)


def test_complex_structure_validation():
    with pytest.raises(ValueError):
        ComplexStructure(tau=0.5)


# ---------------------------------------------------------- anti-Hermitian

def _pairing(u, v):
    """sum_mu int conj(u) v dx by the trapezoid rule on [-9, 9].

    For these Gaussians the rule converges exponentially in 1/h, and the
    integrand is far below rounding at the ends of the interval.
    """
    n = 360
    h = 18.0 / n
    total = 0j
    for mu in range(u.m):
        for i in range(n + 1):
            x = -9.0 + i * h
            weight = 0.5 if i in (0, n) else 1.0
            total += weight * evaluate(u, x, mu).conjugate() * evaluate(v, x, mu)
    return total * h


def test_connection_is_anti_hermitian():
    # purely imaginary offsets keep <nabla u, v> + <u, nabla v> = 0
    tag = module_tag(1, 2, 0.41)
    rng = random.Random(8)
    c1, c2 = 0.3j, -0.6j
    for _ in range(5):
        u = random_gaussian(rng, 2)
        v = random_gaussian(rng, 2)
        s1 = _pairing(nabla1(u, tag, c1), v) + _pairing(u, nabla1(v, tag, c1))
        s2 = _pairing(nabla2(u, tag, c2), v) + _pairing(u, nabla2(v, tag, c2))
        norm = 1 + abs(_pairing(u, u)) + abs(_pairing(v, v))
        assert abs(s1) < 1e-10 * norm
        assert abs(s2) < 1e-10 * norm


def test_holomorphic_vectors_left_side():
    # the left label (1, 3) at theta = -0.2 is the module (1, 3) at 0.2
    tag = module_tag(1, 3, 0.2)   # D = 1 + 0.6 = 1.6
    cs = ComplexStructure(tau=-1j)
    basis = holomorphic_basis(tag, cs)
    assert len(basis) == 3
    for v in basis:
        assert dbar_residual(v, tag, cs) < 1e-12
