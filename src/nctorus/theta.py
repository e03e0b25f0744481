"""The classical theta series Theta(s, t) = sum_u exp(pi*i*s*u**2 + 2*pi*i*t*u).

The sum runs over u in Z and converges for Im(s) > 0.  Truncation is
certified: with a = pi*Im(s) and b = 2*pi*|Im(t)| the term magnitudes are
exp(-a*u**2 + b*|u|), so past the peak |u| = b/(2a) consecutive term ratios
are at most rho = exp(-a*(2U + 3) + b) and the discarded tail is bounded by
a geometric series.  The radius returned by :func:`truncation_radius` makes
that bound smaller than the requested eps.  An offset k enters each term's
exponent, so exp(k)*Theta(s, t) has no factor apart that could overflow.
"""

from __future__ import annotations

import cmath
import math

from .errors import InvalidS

DEFAULT_EPS = 1e-13


def tail_bound(s: complex, t: complex, radius: int) -> float:
    """Upper bound on |sum over |u| > radius|; inf when radius is pre-peak."""
    a = math.pi * s.imag
    b = 2 * math.pi * abs(t.imag)
    u = radius + 1
    if 2 * a * u <= b:
        return math.inf
    rho = math.exp(-a * (2 * u + 1) + b)
    if rho >= 1:
        return math.inf
    first = 2 * math.exp(-a * u * u + b * u)
    return first / (1 - rho)


def truncation_radius(s: complex, t: complex, eps: float = DEFAULT_EPS) -> int:
    """Smallest tested radius whose certified tail bound is below eps."""
    if s.imag <= 0:
        raise InvalidS(f"Im(s) must be positive, got s = {s}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    a = math.pi * s.imag
    b = 2 * math.pi * abs(t.imag)
    radius = max(1, math.ceil(b / (2 * a)))
    while tail_bound(s, t, radius) > eps:
        radius += max(1, radius // 2)
    return radius


def theta_truncated(s: complex, t: complex, radius: int, k: complex = 0j) -> complex:
    """Sum over |u| <= radius of exp(pi*i*s*u**2 + 2*pi*i*t*u + k), one exponent a term."""
    quad, lin = 1j * math.pi * s, 2j * math.pi * t
    res, ims = [], []
    for u in range(-radius, radius + 1):
        term = cmath.exp((quad * u + lin) * u + k)
        res.append(term.real)
        ims.append(term.imag)
    return complex(math.fsum(res), math.fsum(ims))


def theta(s: complex, t: complex, eps: float = DEFAULT_EPS, k: complex = 0j) -> complex:
    """exp(k)*Theta(s, t) with certified absolute truncation error below eps*|exp(k)|.

    Raises InvalidS unless Im(s) > 0.
    """
    return theta_truncated(s, t, truncation_radius(s, t, eps), k)
