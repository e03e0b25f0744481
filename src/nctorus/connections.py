"""Constant-curvature connections and their holomorphic Gaussian vectors.

On a basic right module with label (n, m) and denominator D = n + m*theta
the standard connection is

    (nabla_1 f)(x, mu) = 2*pi*i*(m/D)*x*f(x, mu) + c1*f(x, mu),
    (nabla_2 f)(x, mu) = 2*pi*f'(x, mu)        + c2*f(x, mu),

with scalar offsets c1, c2.  It satisfies the Leibniz rule against the
rescaled derivations delta'_1 = delta_1, delta'_2 = 2*pi*delta_2 of the
base torus, and its curvature is the constant

    [nabla_1, nabla_2] = -4*pi**2*i*m/D.

A complex structure is a choice tau with Im(tau) != 0, fixing the
antiholomorphic operator nabla-bar = tau*nabla_1 + nabla_2.  Solving
nabla-bar f = 0 on Gaussians gives sigma = i*tau*m/D and
c = (tau*c1 + c2)/(2*pi); one Gaussian per component, m in total, exists
precisely when Re(sigma) > 0.
"""

from __future__ import annotations

import cmath
import math

from . import gaussians as g
from ._record import Record
from .algebra import TorusElement, derivation, scale as a_scale
from .errors import NoHolomorphicVectors
from .modules import ModuleTag, act_element

TWO_PI = 2 * math.pi


class ComplexStructure(Record):
    """tau with Im(tau) != 0 and the connection offsets c1, c2."""

    __slots__ = ("tau", "c1", "c2")

    def __init__(self, tau: complex, c1: complex = 0j, c2: complex = 0j) -> None:
        if tau.imag == 0:
            raise ValueError(f"Im(tau) must be nonzero, got tau = {tau}")
        Record.__init__(self, tau, c1, c2)

    @property
    def offset(self) -> complex:
        """Linear coefficient c of the holomorphic Gaussians (module docstring)."""
        return (self.tau * self.c1 + self.c2) / TWO_PI


def nabla1(v: g.PolyGaussVector, tag: ModuleTag, c1: complex = 0j) -> g.PolyGaussVector:
    """2*pi*i*(m/D)*x*v + c1*v."""
    coef = tag.over_denominator(2j * math.pi * tag.m)
    return g.axpy(coef, g.mul_x(v), g.scale(c1, v))


def nabla2(v: g.PolyGaussVector, tag: ModuleTag, c2: complex = 0j) -> g.PolyGaussVector:
    """2*pi*dv/dx + c2*v."""
    return g.axpy(TWO_PI, g.differentiate(v), g.scale(c2, v))


def curvature_constant(tag: ModuleTag) -> complex:
    """The constant [nabla_1, nabla_2] = -4*pi**2*i*m/D."""
    return tag.over_denominator(-4j * math.pi**2 * tag.m)


def curvature_defect(v: g.PolyGaussVector, tag: ModuleTag) -> float:
    """Grid residual of ([nabla_1, nabla_2] - kappa) v; zero up to rounding."""
    lhs = g.sub(
        nabla1(nabla2(v, tag), tag),
        nabla2(nabla1(v, tag), tag),
    )
    return g.grid_abs_max(g.sub(lhs, g.scale(curvature_constant(tag), v)))


def leibniz_defect(
    v: g.PolyGaussVector, f: TorusElement, tag: ModuleTag, axis: int
) -> float:
    """Grid residual of nabla_a(v.f) - (nabla_a v).f - v.(delta'_a f).

    delta'_1 = delta_1 and delta'_2 = 2*pi*delta_2 is the derivation
    scaling under which the standard connection is a connection.
    """
    if axis not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {axis!r}")
    nab = nabla1 if axis == 1 else nabla2
    lhs = nab(act_element(f, v, tag), tag)
    term1 = act_element(f, nab(v, tag), tag)
    df = derivation(f, axis)
    if axis == 2:
        df = a_scale(TWO_PI, df)
    term2 = act_element(df, v, tag)
    return g.grid_abs_max(g.sub(lhs, g.add(term1, term2)))


def holomorphic_sigma(tag: ModuleTag, cs: ComplexStructure) -> complex:
    """Gaussian width i*tau*m/D annihilated by the antiholomorphic operator."""
    return tag.over_denominator(1j * cs.tau * tag.m)


def holomorphic_basis(tag: ModuleTag, cs: ComplexStructure) -> list[g.PolyGaussVector]:
    """The m Gaussian vectors killed by nabla-bar, one per component.

    Raises DegenerateDenominator when D = 0, NoHolomorphicVectors when
    Re(i*tau*m/D) <= 0, in which case no normalizable Gaussian solution
    exists, and when the width or the offset overflows the floating range.
    """
    sigma = holomorphic_sigma(tag, cs)
    if not (cmath.isfinite(sigma) and cmath.isfinite(cs.offset)):
        raise NoHolomorphicVectors(
            f"Gaussian width {sigma} or offset {cs.offset} is not finite for "
            f"tau = {cs.tau}, D = {tag.denominator:.6g}"
        )
    if sigma.real <= 0:
        raise NoHolomorphicVectors(
            f"Re(i*tau*m/D) = {sigma.real:.6g} <= 0 for tau = {cs.tau}, D = {tag.denominator:.6g}"
        )
    return [g.gaussian(tag.m, sigma, cs.offset, mu) for mu in range(tag.m)]


def dbar_residual(
    v: g.PolyGaussVector, tag: ModuleTag, cs: ComplexStructure
) -> float:
    """Grid sup of (tau*nabla_1 + nabla_2) v."""
    return g.grid_abs_max(g.axpy(cs.tau, nabla1(v, tag, cs.c1), nabla2(v, tag, cs.c2)))
