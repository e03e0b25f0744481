"""Closed-form vectors: polynomial-times-Gaussian sections of R x Z_m.

A vector is a finite sum of terms

    P(x) * exp(-sigma*x**2/2 - c*x)   supported on one component mu,

with P a complex polynomial and Re(sigma) > 0, so every term is Schwartz.
The family is exactly closed under translation, multiplication by
exp(beta*x) and by x, differentiation, and linear combination.  All module
actions, connections, and tensor products in this library are expressed
through these operations, so nothing is ever discretized; floating error
enters only through complex arithmetic on the parameters.

Scalar factors are folded into the polynomial part.  Canonicalization
merges terms sharing (sigma, c, mu), drops polynomial coefficients of
magnitude <= PRUNE_TOL, and orders terms deterministically, so equal
construction paths yield structurally equal vectors and JSON output is
reproducible.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DimensionMismatch, IndexOutOfRange, InvalidSigma

PRUNE_TOL = 1e-14

# Evaluation grid used for approximate comparisons and residual norms.
PROBE_XS: tuple[float, ...] = tuple(i * 0.25 for i in range(-20, 21))

Poly = tuple[complex, ...]


def _poly_trim(p: Sequence[complex]) -> Poly:
    out = [complex(v) for v in p]
    out = [0j if abs(v) <= PRUNE_TOL else v for v in out]
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


def _poly_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [0j] * (len(p) + len(q) - 1)
    for i, pv in enumerate(p):
        for j, qv in enumerate(q):
            out[i + j] += pv * qv
    return tuple(out)


def _poly_shift(p: Poly, s: complex) -> Poly:
    """Coefficients of P(x - s), by Horner against the factor (x - s)."""
    out: Poly = ()
    for coef in reversed(p):
        out = _poly_add(_poly_mul(out, (-s, 1.0 + 0j)), (coef,))
    return out


def _poly_deriv(p: Poly) -> Poly:
    return tuple(complex(k) * p[k] for k in range(1, len(p)))


def _poly_eval(p: Poly, x: complex) -> complex:
    acc = 0j
    for coef in reversed(p):
        acc = acc * x + coef
    return acc


@dataclass(frozen=True)
class PolyGaussTerm:
    """One term P(x) * exp(-sigma*x**2/2 - c*x) on component mu."""

    poly: Poly
    sigma: complex
    c: complex
    mu: int

    def __post_init__(self) -> None:
        if self.sigma.real <= 0:
            raise InvalidSigma(f"Re(sigma) must be positive, got sigma = {self.sigma}")


@dataclass(frozen=True)
class PolyGaussVector:
    """Canonical finite sum of PolyGaussTerms on R x Z_m."""

    m: int
    terms: tuple[PolyGaussTerm, ...]

    def is_zero(self) -> bool:
        return not self.terms


def vector(m: int, terms: Iterable[PolyGaussTerm]) -> PolyGaussVector:
    """Canonical constructor: merge, prune, order.  Validates component ranges."""
    if m < 1:
        raise ValueError(f"component count must be >= 1, got {m}")
    merged: dict[tuple[complex, complex, int], Poly] = {}
    for t in terms:
        if not 0 <= t.mu < m:
            raise IndexOutOfRange(f"component {t.mu} outside range(0, {m})")
        key = (complex(t.sigma), complex(t.c), t.mu)
        merged[key] = _poly_add(merged.get(key, ()), tuple(map(complex, t.poly)))
    out = []
    for (sigma, c, mu), poly in merged.items():
        poly = _poly_trim(poly)
        if poly:
            out.append(PolyGaussTerm(poly, sigma, c, mu))
    out.sort(
        key=lambda t: (t.mu, t.sigma.real, t.sigma.imag, t.c.real, t.c.imag, len(t.poly))
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


def evaluate(v: PolyGaussVector, x: float, mu: int) -> complex:
    """Pointwise value v(x, mu)."""
    if not 0 <= mu < v.m:
        raise IndexOutOfRange(f"component {mu} outside range(0, {v.m})")
    acc = 0j
    for t in v.terms:
        if t.mu == mu:
            acc += _poly_eval(t.poly, x) * cmath.exp(-0.5 * t.sigma * x * x - t.c * x)
    return acc


def shift(v: PolyGaussVector, s: complex) -> PolyGaussVector:
    """The translate x -> v(x - s, mu).

    Completing the square: exp(-sigma*(x-s)**2/2 - c*(x-s)) equals
    exp(c*s - sigma*s**2/2) * exp(-sigma*x**2/2 - (c - sigma*s)*x).
    """
    out = []
    for t in v.terms:
        scalar = cmath.exp(t.c * s - 0.5 * t.sigma * s * s)
        out.append(
            PolyGaussTerm(
                _poly_scale(scalar, _poly_shift(t.poly, s)),
                t.sigma,
                t.c - t.sigma * s,
                t.mu,
            )
        )
    return vector(v.m, out)


def mul_exp(v: PolyGaussVector, beta: complex) -> PolyGaussVector:
    """Multiply by exp(beta*x): absorbed as c -> c - beta."""
    return vector(
        v.m, (PolyGaussTerm(t.poly, t.sigma, t.c - beta, t.mu) for t in v.terms)
    )


def mul_x(v: PolyGaussVector) -> PolyGaussVector:
    return vector(
        v.m, (PolyGaussTerm((0j,) + t.poly, t.sigma, t.c, t.mu) for t in v.terms)
    )


def differentiate(v: PolyGaussVector) -> PolyGaussVector:
    """d/dx applied termwise: P -> P' - c*P - sigma*x*P."""
    out = []
    for t in v.terms:
        poly = _poly_add(
            _poly_deriv(t.poly),
            _poly_add(
                _poly_scale(-t.c, t.poly), (0j,) + _poly_scale(-t.sigma, t.poly)
            ),
        )
        out.append(PolyGaussTerm(poly, t.sigma, t.c, t.mu))
    return vector(v.m, out)


def roll(v: PolyGaussVector, dmu: int) -> PolyGaussVector:
    """Rotate components: the result's value at mu is v at mu - dmu (mod m)."""
    return vector(
        v.m,
        (PolyGaussTerm(t.poly, t.sigma, t.c, (t.mu + dmu) % v.m) for t in v.terms),
    )


def component_scale(v: PolyGaussVector, factors: Sequence[complex]) -> PolyGaussVector:
    """Multiply the component-mu part by factors[mu]."""
    if len(factors) != v.m:
        raise DimensionMismatch(f"need {v.m} factors, got {len(factors)}")
    return vector(
        v.m,
        (
            PolyGaussTerm(_poly_scale(factors[t.mu], t.poly), t.sigma, t.c, t.mu)
            for t in v.terms
        ),
    )


def scale(alpha: complex, v: PolyGaussVector) -> PolyGaussVector:
    return vector(
        v.m,
        (PolyGaussTerm(_poly_scale(alpha, t.poly), t.sigma, t.c, t.mu) for t in v.terms),
    )


def axpy(alpha: complex, v: PolyGaussVector, w: PolyGaussVector) -> PolyGaussVector:
    """alpha*v + w."""
    if v.m != w.m:
        raise DimensionMismatch(f"component counts differ: {v.m} vs {w.m}")
    scaled = (
        PolyGaussTerm(_poly_scale(alpha, t.poly), t.sigma, t.c, t.mu) for t in v.terms
    )
    return vector(v.m, tuple(scaled) + w.terms)


def add(v: PolyGaussVector, w: PolyGaussVector) -> PolyGaussVector:
    return axpy(1.0 + 0j, v, w)


def sub(v: PolyGaussVector, w: PolyGaussVector) -> PolyGaussVector:
    return axpy(-1.0 + 0j, w, v)


def grid_abs_max(v: PolyGaussVector) -> float:
    """Max |v| over the probe grid PROBE_XS x range(m)."""
    best = 0.0
    for mu in range(v.m):
        for x in PROBE_XS:
            val = abs(evaluate(v, x, mu))
            if val > best:
                best = val
    return best


def approx_eq(v: PolyGaussVector, w: PolyGaussVector, tol: float = 1e-9) -> bool:
    """Grid comparison: max |v - w| <= tol * (1 + max |v|)."""
    if v.m != w.m:
        raise DimensionMismatch(f"component counts differ: {v.m} vs {w.m}")
    return grid_abs_max(sub(v, w)) <= tol * (1.0 + grid_abs_max(v))


def _moments(a: complex, b: complex, deg: int) -> list[complex]:
    """Integrals M_k = int x**k exp(-a*x**2 - b*x) dx for k = 0..deg, Re(a) > 0.

    M_0 is Gaussian; integrating (x**(k-1) exp(...))' = 0 gives the recursion
    M_k = ((k - 1) M_{k-2} - b M_{k-1}) / (2a).
    """
    m0 = cmath.sqrt(cmath.pi / a) * cmath.exp(b * b / (4 * a))
    out = [m0]
    if deg >= 1:
        out.append(-b * m0 / (2 * a))
    for k in range(2, deg + 1):
        out.append(((k - 1) * out[k - 2] - b * out[k - 1]) / (2 * a))
    return out


def l2_pairing(v: PolyGaussVector, w: PolyGaussVector) -> complex:
    """<v, w> = sum_mu int conj(v(x, mu)) w(x, mu) dx, in closed form."""
    if v.m != w.m:
        raise DimensionMismatch(f"component counts differ: {v.m} vs {w.m}")
    acc = 0j
    for tv in v.terms:
        pv = tuple(z.conjugate() for z in tv.poly)
        for tw in w.terms:
            if tv.mu != tw.mu:
                continue
            a = (tv.sigma.conjugate() + tw.sigma) / 2
            b = tv.c.conjugate() + tw.c
            q = _poly_mul(pv, tw.poly)
            mom = _moments(a, b, len(q) - 1)
            acc += sum(qk * mk for qk, mk in zip(q, mom))
    return acc


def _c2p(z: complex) -> list[float]:
    return [z.real, z.imag]


def to_json(v: PolyGaussVector) -> dict:
    """JSON-ready dict; deterministic given canonical term order."""
    return {
        "m": v.m,
        "terms": [
            {
                "poly": [_c2p(z) for z in t.poly],
                "sigma": _c2p(t.sigma),
                "c": _c2p(t.c),
                "mu": t.mu,
            }
            for t in v.terms
        ],
    }

