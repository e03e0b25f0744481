"""Basic projective modules over the two-dimensional noncommutative torus.

A module with coprime label (n, m), m >= 1, at angle theta acts on
sections of R x Z_m: the torus A_theta acts from the right through

    (f U1)(x, mu) = f(x - D/m, mu - 1),          D = n + m*theta,
    (f U2)(x, mu) = exp(2*pi*i*(x - mu*n/m)) f(x, mu),

and its endomorphism torus through the commuting generators

    (Z1 f)(x, mu) = f(x - 1/m, mu - a),
    (Z2 f)(x, mu) = exp(2*pi*i*(x/D - mu/m)) f(x, mu),

with (a, b) a Bezout pair for (n, m).  Operators compose in module order:
acting by f and then by g realizes the product f*g, hence U2 after U1
picks up exp(2*pi*i*theta) relative to U1 after U2.

A left A_theta-module with label (k, l) is the module with label (k, l)
at -theta, so D = k - l*theta: since mul(f, g, theta) = mul(g, f, -theta),
its right action at -theta is a left action at theta.

The endomorphism generators satisfy Z2 Z1 = exp(2*pi*i*theta') Z1 Z2 with
theta' = (b + a*theta)/(n + m*theta), and commute with both U actions, so
each basic module is a bimodule.  The pair (a, b) is the normal form of
``algebra.bezout``, and :class:`ModuleTag` carries it with theta'.  A left
label (k, l) with Bezout pair (c, d) is the label at -theta, and its
parameter theta'' = -(d - c*theta)/(k - l*theta) is -theta' there.
"""

from __future__ import annotations

import cmath
import math

from . import gaussians as g
from ._record import Record
from .algebra import TWO_PI_I, TorusElement, bezout
from .errors import DegenerateDenominator, DimensionMismatch


class ModuleTag(Record):
    """Label (n, m), angle theta and Bezout pair (a, b) of a basic module.

    a*n - b*m = 1 fixes the identification of End(E) with the torus at
    theta_prime.  A left module with label (k, l) at angle theta is the
    tag of (k, l) at -theta.  Build through :func:`module_tag`.  The
    denominator n + m*theta may vanish; every division by it,
    :meth:`over_denominator`, then raises DegenerateDenominator.
    """

    __slots__ = ("n", "m", "theta", "a", "b")

    @property
    def denominator(self) -> float:
        return self.n + self.m * self.theta

    def over_denominator(self, numerator: complex) -> complex:
        """numerator/(n + m*theta); DegenerateDenominator where that vanishes."""
        den = self.denominator
        if den == 0:
            raise DegenerateDenominator(f"denominator vanishes for ({self.n}, {self.m}) "
                                        f"at theta = {self.theta}")
        return numerator / den

    @property
    def theta_prime(self) -> float:
        """Rotation parameter (b + a*theta)/(n + m*theta) of the endomorphism torus."""
        return self.over_denominator(self.b + self.a * self.theta)


def module_tag(n: int, m: int, theta: float) -> ModuleTag:
    """Tag of the module (n, m) at theta, with its normal-form Bezout pair; D may be 0."""
    if m < 1:
        raise ValueError(f"module label ({n}, {m}) needs at least one component")
    return ModuleTag(n, m, theta, *bezout(n, m))


def _check_dim(v: g.PolyGaussVector, tag: ModuleTag) -> None:
    if v.m != tag.m:
        raise DimensionMismatch(f"vector on Z_{v.m}, module on Z_{tag.m}")


def act_U1(v: g.PolyGaussVector, tag: ModuleTag, power: int = 1) -> g.PolyGaussVector:
    """Action of U1**power: one translate by power*D/m with a roll by power."""
    _check_dim(v, tag)
    return g.translate(v, power * tag.denominator / tag.m, power)


def act_U2(v: g.PolyGaussVector, tag: ModuleTag, power: int = 1) -> g.PolyGaussVector:
    """Action of U2**power: one modulation by exp(2*pi*i*power*(x - mu*n/m))."""
    _check_dim(v, tag)
    factors = [
        cmath.exp(-TWO_PI_I * power * mu * tag.n / tag.m) for mu in range(tag.m)
    ]
    return g.modulate(v, TWO_PI_I * power, factors)


def act_Z1(v: g.PolyGaussVector, tag: ModuleTag, power: int = 1) -> g.PolyGaussVector:
    """Endomorphism Z1**power: one translate by power/m with a roll by power*a."""
    _check_dim(v, tag)
    return g.translate(v, power / tag.m, power * tag.a)


def act_Z2(v: g.PolyGaussVector, tag: ModuleTag, power: int = 1) -> g.PolyGaussVector:
    """Endomorphism Z2**power: one modulation by exp(2*pi*i*power*(x/D - mu/m))."""
    _check_dim(v, tag)
    factors = [cmath.exp(-TWO_PI_I * power * mu / tag.m) for mu in range(tag.m)]
    return g.modulate(v, tag.over_denominator(TWO_PI_I * power), factors)


def act_element(
    f: TorusElement, v: g.PolyGaussVector, tag: ModuleTag
) -> g.PolyGaussVector:
    """Action of a full algebra element, Weyl monomial by Weyl monomial.

    The Weyl word U_(n1,n2) = exp(-pi*i*n1*n2*theta) U1**n1 U2**n2 acts,
    in module order, as U1**n1 first, which makes
    act_element(g, act_element(f, v)) == act_element(f*g, v) at tag.theta;
    on a left module's tag, at -theta, that is the left law
    act_element(f, act_element(g, v)) == act_element(mul(f, g, theta), v).

    U1**n1 is built once per distinct n1 and U2**n2 only for n2 != 0, and
    the words are summed into one dict keyed by (sigma, c, mu, x0), with one
    :func:`gaussians.vector` at the end.  Each term enters as 0j + alpha*P
    ahead of the entry it meets, keyed by itself, and is trimmed at once:
    the float operations of one ``gaussians.axpy`` per word, so a
    coefficient that cancels below PRUNE_TOL partway is 0j for the next word.
    """
    _check_dim(v, tag)
    u1 = {n1: act_U1(v, tag, n1) if n1 else v for n1 in {n1 for n1, _ in f.coeffs}}
    acc: dict[tuple[complex, complex, int, float], g.Poly] = {}
    for (n1, n2), coef in f.coeffs.items():
        w = act_U2(u1[n1], tag, n2) if n2 else u1[n1]
        alpha = coef * cmath.exp(-1j * math.pi * tag.theta * n1 * n2)
        # U1**0 moves x0 by 0*D/m, +0.0 if D > 0; x + -0.0 is x for every x.
        dx = 0 * tag.denominator / tag.m if n1 == 0 else -0.0
        for t in w.terms:
            key = (t.sigma, t.c, t.mu, t.x0 + dx)
            prev = acc.pop(key, None)
            poly = tuple(0j + alpha * p for p in t.poly)
            poly = g._poly_trim(poly if prev is None else g._poly_add(poly, prev))
            if poly:
                acc[key] = poly
    return g.vector(tag.m, (g.PolyGaussTerm(poly, *key) for key, poly in acc.items()))

