"""Closed-form vectors: polynomial-times-Gaussian sections of R x Z_m.

A vector is a finite sum of terms

    P(u) * exp(-sigma*u**2/2 - c*u),   u = x - x0,   supported on component mu,

with P a complex polynomial, x0 a real centre and Re(sigma) > 0, so every
term is Schwartz.  This is the wave-packet parametrisation of Heller
(J. Chem. Phys. 62, 1544 (1975)).  The family is exactly closed under
translation with a roll (:func:`translate`: x0 and mu move, nothing else
changes), multiplication by exp(beta*x) times a per-component factor
(:func:`modulate`) and by x, differentiation, and linear combination.  All
module actions, connections, and tensor products in this library are
expressed through these operations, so no operation discretizes and floating
error enters only through complex arithmetic on the parameters; only the
residual norms sample, 41 points on [-5, 5] per component (PROBE_XS), blind
to a term centred outside.  :func:`term_value`, P(u) by Horner's rule times
one exp, is the one pointwise evaluation of a term; :func:`evaluate` sums it.

Because a translation never touches P, coefficients stay at the scale of
the term's own centre.  Canonicalization merges terms sharing
(sigma, c, mu, x0), drops polynomial coefficients of magnitude
<= PRUNE_TOL, and orders terms deterministically, so equal construction
paths yield structurally equal vectors.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable, Sequence

from ._record import Record
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidSigma,
    NonFiniteParameter,
    SeriesOverflow,
)

PRUNE_TOL = 1e-14

# Residual-norm probes: 41 points on [-5, 5] per component, blind to a term centred outside.
PROBE_XS: tuple[float, ...] = tuple(i * 0.25 for i in range(-20, 21))

Poly = tuple[complex, ...]


def _poly_trim(p: Sequence[complex]) -> Poly:
    try:
        out = [0j if abs(v) <= PRUNE_TOL else complex(v) for v in p]
    except OverflowError:
        raise SeriesOverflow(f"gaussians: coefficient modulus exceeds double range: {p}") from None
    # a finite sum spares the test of each coefficient
    if not cmath.isfinite(sum(out)) and not all(map(cmath.isfinite, out)):
        raise NonFiniteParameter(f"Gaussian polynomial coefficients {tuple(p)} must be finite")
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return tuple(
        (p[i] if i < len(p) else 0j) + (q[i] if i < len(q) else 0j) for i in range(n)
    )


def _poly_scale(alpha: complex, p: Poly) -> Poly:
    return tuple(alpha * v for v in p)


def _poly_deriv(p: Poly) -> Poly:
    return tuple(complex(k) * p[k] for k in range(1, len(p)))


class PolyGaussTerm(Record):
    """One term P(u) * exp(-sigma*u**2/2 - c*u), u = x - x0, on component mu.

    InvalidSigma unless sigma is finite with Re(sigma) > 0, and
    NonFiniteParameter unless c and x0 are finite: a term that is nan
    everywhere would read as zero in every residual norm.  The trim of
    :func:`vector` checks the coefficients of P, at 1.0% of ``actions``
    time against 1.7% for a check here.
    """

    __slots__ = ("poly", "sigma", "c", "mu", "x0")

    def __init__(self, poly: Poly, sigma: complex, c: complex, mu: int, x0: float = 0.0) -> None:
        if not sigma.real > 0:
            raise InvalidSigma(f"Re(sigma) must be positive, got sigma = {sigma}")
        if not cmath.isfinite(sigma):
            raise InvalidSigma(f"sigma must be finite, got sigma = {sigma}")
        if not (cmath.isfinite(c) and math.isfinite(x0)):
            raise NonFiniteParameter(f"Gaussian offset c = {c} and centre x0 = {x0} "
                                     "must be finite")
        set_field = object.__setattr__
        set_field(self, "poly", poly)
        set_field(self, "sigma", sigma)
        set_field(self, "c", c)
        set_field(self, "mu", mu)
        set_field(self, "x0", x0)


class PolyGaussVector(Record):
    """Canonical finite sum of PolyGaussTerms on R x Z_m."""

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms: tuple[PolyGaussTerm, ...]) -> None:
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "terms", terms)

    def is_zero(self) -> bool:
        return not self.terms


def vector(m: int, terms: Iterable[PolyGaussTerm]) -> PolyGaussVector:
    """Canonical constructor: merge, prune, order.  Validates component ranges."""
    if m < 1:
        raise ValueError(f"component count must be >= 1, got {m}")
    merged: dict[tuple[complex, complex, int, float], Poly] = {}
    for t in terms:
        if not 0 <= t.mu < m:
            raise IndexOutOfRange(f"component {t.mu} outside range(0, {m})")
        key = (complex(t.sigma), complex(t.c), t.mu, float(t.x0))
        poly = merged.get(key)
        if poly is None:
            # _poly_add((), p): 0j + v turns -0.0 parts into +0.0.
            merged[key] = tuple(0j + complex(v) for v in t.poly)
        else:
            merged[key] = _poly_add(poly, tuple(map(complex, t.poly)))
    out = []
    for (sigma, c, mu, x0), poly in merged.items():
        poly = _poly_trim(poly)
        if poly:
            out.append(PolyGaussTerm(poly, sigma, c, mu, x0))
    if len(out) > 1:
        out.sort(
            key=lambda t: (t.mu, t.sigma.real, t.sigma.imag, t.c.real, t.c.imag, t.x0, len(t.poly))
        )
    return PolyGaussVector(m, tuple(out))


def zero(m: int) -> PolyGaussVector:
    return vector(m, ())


def gaussian(
    m: int,
    sigma: complex,
    c: complex = 0j,
    mu: int = 0,
    poly: Sequence[complex] = (1.0 + 0j,),
) -> PolyGaussVector:
    """Single-term vector P(x) * exp(-sigma*x**2/2 - c*x) on component mu."""
    return vector(m, (PolyGaussTerm(tuple(map(complex, poly)), sigma, c, mu),))


def term_value(t: PolyGaussTerm, x: float) -> complex:
    """The term's value at x on its own component: P(u) by Horner's rule from 0j, one exp."""
    u = x - t.x0
    poly = 0j
    for coef in reversed(t.poly):
        poly = poly * u + coef
    return poly * cmath.exp(-0.5 * t.sigma * u * u - t.c * u)


def evaluate(v: PolyGaussVector, x: float, mu: int) -> complex:
    """Pointwise value v(x, mu): the :func:`term_value` of each term on mu, summed from 0j."""
    if not 0 <= mu < v.m:
        raise IndexOutOfRange(f"component {mu} outside range(0, {v.m})")
    acc = 0j
    for t in v.terms:
        if t.mu == mu:
            acc += term_value(t, x)
    return acc


def translate(v: PolyGaussVector, s: float, dmu: int) -> PolyGaussVector:
    """The translate x -> v(x - s, mu - dmu): centres move by s, components by dmu (mod m).

    x0 + s is monotone and mu + dmu a bijection, so terms merge as a shift
    followed by a separate roll would merge them, in the same order.
    """
    return vector(v.m, (
        PolyGaussTerm(t.poly, t.sigma, t.c, (t.mu + dmu) % v.m, t.x0 + s) for t in v.terms
    ))


def modulate(v: PolyGaussVector, beta: complex, factors: Sequence[complex]) -> PolyGaussVector:
    """Multiply by exp(beta*x) * factors[mu]: c -> c - beta, P -> factors[mu]*exp(beta*x0)*P.

    For the imaginary beta of the module actions exp(beta*x0) is a phase.
    Terms meeting on (sigma, c - beta, mu, x0) merge in term order and are
    trimmed before the factors apply, then :func:`vector` runs once: the
    float operations, in order, of the two products as canonical steps,
    less the first ``0j + v``.  The sign of a zero part moves no other bit,
    and :func:`vector` makes it +0.0.
    """
    if len(factors) != v.m:
        raise DimensionMismatch(f"need {v.m} factors, got {len(factors)}")
    merged: dict[tuple[complex, complex, int, float], Poly] = {}
    for t in v.terms:
        key = (t.sigma, t.c - beta, t.mu, t.x0)
        poly = _poly_scale(cmath.exp(beta * t.x0), t.poly)
        prev = merged.get(key)
        merged[key] = poly if prev is None else _poly_add(prev, poly)
    trimmed = ((key, _poly_trim(poly)) for key, poly in merged.items())
    return vector(v.m, (PolyGaussTerm(_poly_scale(factors[mu], poly), sigma, c, mu, x0)
                        for (sigma, c, mu, x0), poly in trimmed if poly))


def mul_x(v: PolyGaussVector) -> PolyGaussVector:
    """Multiply by x = u + x0."""
    return vector(v.m, (
        PolyGaussTerm(_poly_add((0j,) + t.poly, _poly_scale(t.x0, t.poly)), t.sigma, t.c, t.mu, t.x0)
        for t in v.terms
    ))


def differentiate(v: PolyGaussVector) -> PolyGaussVector:
    """d/dx = d/du applied termwise: P -> P' - c*P - sigma*u*P."""
    out = []
    for t in v.terms:
        poly = _poly_add(
            _poly_deriv(t.poly),
            _poly_add(_poly_scale(-t.c, t.poly), (0j,) + _poly_scale(-t.sigma, t.poly)),
        )
        out.append(PolyGaussTerm(poly, t.sigma, t.c, t.mu, t.x0))
    return vector(v.m, out)


def _scaled(alpha: complex, v: PolyGaussVector) -> tuple[PolyGaussTerm, ...]:
    return tuple(
        PolyGaussTerm(_poly_scale(alpha, t.poly), t.sigma, t.c, t.mu, t.x0)
        for t in v.terms
    )


def scale(alpha: complex, v: PolyGaussVector) -> PolyGaussVector:
    return vector(v.m, _scaled(alpha, v))


def axpy(alpha: complex, v: PolyGaussVector, w: PolyGaussVector) -> PolyGaussVector:
    """alpha*v + w."""
    if v.m != w.m:
        raise DimensionMismatch(f"component counts differ: {v.m} vs {w.m}")
    return vector(v.m, _scaled(alpha, v) + w.terms)


def add(v: PolyGaussVector, w: PolyGaussVector) -> PolyGaussVector:
    return axpy(1.0 + 0j, v, w)


def sub(v: PolyGaussVector, w: PolyGaussVector) -> PolyGaussVector:
    return axpy(-1.0 + 0j, w, v)


def grid_abs_max(v: PolyGaussVector) -> float:
    """Max |v| over the probe grid PROBE_XS x range(m).

    Raises SeriesOverflow, naming the probe point, when |v| there overflows
    or a term's exponent there is not finite (cmath.exp's ValueError).
    """
    best = 0.0
    try:
        for mu in sorted({t.mu for t in v.terms}):
            for x in PROBE_XS:
                val = abs(evaluate(v, x, mu))
                if val > best:
                    best = val
    except (OverflowError, ValueError) as exc:
        what = ("|v(x, mu)| exceeds double range" if isinstance(exc, OverflowError)
                else "an exponent of v(x, mu) is not finite")
        raise SeriesOverflow(f"gaussians.grid_abs_max: {what} at (x, mu) = ({x}, {mu})") from None
    return best

