"""The classical theta series Theta(s, t) = sum_u exp(pi*i*s*u**2 + 2*pi*i*t*u).

The sum runs over u in Z and converges for Im(s) > 0.  Truncation is
certified: with a = pi*Im(s) and b = 2*pi*|Im(t)| the term magnitudes are
exp(-a*u**2 + b*|u|), so past the peak |u| = b/(2a) the discarded tail is
bounded by a geometric series, taken in log space (:func:`log_tail`) so that
no peak term overflows.  :func:`truncation_radius` makes that bound smaller
than the requested eps.  An offset k enters each term's exponent, so
exp(k)*Theta(s, t) has no factor apart that could overflow.
"""

from __future__ import annotations

import cmath
import math

from .errors import InvalidS

DEFAULT_EPS = 1e-13


def log_tail(c0: float, b: float, a: float, k: float, u: int) -> float:
    """Log bound on sum over j >= u of exp(c0 + b*j - a*j**2 + k*|j|); inf before the peak.

    For a > 0 and k >= 0 the exponent grows from one j >= u to the next by
    at most log rho = k + b - a*(2*u + 1), so where rho < 1 the sum is at
    most its term at u over 1 - rho.
    """
    log_rho = k + b - a * (2 * u + 1)
    if not log_rho < 0:
        return math.inf
    return c0 + (b - a * u) * u + k * abs(u) - math.log(-math.expm1(log_rho))


def truncation_radius(s: complex, t: complex, eps: float = DEFAULT_EPS) -> int:
    """Smallest tested radius whose certified tail bound is below eps.

    The search starts at max(1, ceil(|Im t|/Im s)) and grows by half of
    itself.  The bound grows with |Im t|, so the radius of the largest
    |Im t| certifies every smaller one.  It is also at least each one's own
    radius only on 0 <= |Im t| <= Im s, where every search starts at 1 and
    the radius is nondecreasing in |Im t|.  Above Im s it is not monotone
    (at s = 0.5i: 15 at |Im t| = 2.5, 13 at 2.501), so a radius shared by
    a row of t is taken only at peaks, whose |Im t| <= Im s
    (``tensor.ProductClosedForm.row`` checks it).
    """
    if s.imag <= 0:
        raise InvalidS(f"Im(s) must be positive, got s = {s}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    a = math.pi * s.imag
    b = 2 * math.pi * abs(t.imag)
    radius = max(1, math.ceil(b / (2 * a)))
    log_eps = math.log(eps)
    while log_tail(math.log(2), b, a, 0.0, radius + 1) > log_eps:
        radius += max(1, radius // 2)
    return radius


def theta_truncated(s: complex, t: complex, radius: int, k: complex = 0j) -> complex:
    """Sum over |u| <= radius of exp(pi*i*s*u**2 + 2*pi*i*t*u + k), one exponent a term."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
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
