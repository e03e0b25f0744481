"""Fourier-series arithmetic on the smooth two-dimensional noncommutative torus.

An element is a finitely supported map v -> C_v on Z^2, read as
f = sum_v C_v U_v.  The monomials multiply as

    U_v U_w = exp(pi*i*theta*(v1*w2 - v2*w1)) U_{v+w},

carry the involution U_v* = U_{-v}, the canonical trace Tr f = C_(0,0),
and the two basic derivations delta_a U_v = 2*pi*i*v_a U_v.  Under the
Weyl ordering U_(v1,v2) = exp(-pi*i*v1*v2*theta) U1^v1 U2^v2 this
encodes the generator relation U1 U2 = exp(2*pi*i*theta) U2 U1.

The module also owns the integer Bezout arithmetic attached to a label
(n, m) with gcd(n, m) = 1: :func:`bezout` returns its normal-form pair.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable, Mapping

from ._record import Record
from .errors import NotCoprime

Index = tuple[int, int]

TWO_PI_I = 2j * math.pi


class TorusElement(Record):
    """Finitely supported coefficient map; exact zeros are never stored.

    Treat ``coeffs`` as immutable.  Build instances through :func:`element`
    (or the convenience constructors below), never directly, so that
    canonicalization is guaranteed.  The operations of this module, whose
    dicts already have distinct int-pair keys, go through the private
    :func:`_canonical`, which must keep its ``0j + v``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[Index, complex]) -> None:
        object.__setattr__(self, "coeffs", coeffs)


def element(coeffs: Mapping[Index, complex] | Iterable[tuple[Index, complex]]) -> TorusElement:
    """Canonical constructor: casts indices, drops coefficients equal to 0.

    Repeated indices are summed, starting from 0j, which turns -0.0 parts
    into +0.0.  :func:`_canonical` is the same for a dict of distinct
    int-pair keys and complex values, and must keep its ``0j + v``.
    """
    items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
    clean: dict[Index, complex] = {}
    for idx, val in items:
        v = complex(val)
        if v != 0:
            key = (int(idx[0]), int(idx[1]))
            clean[key] = clean.get(key, 0j) + v
    return TorusElement({k: v for k, v in clean.items() if v != 0})


def _canonical(acc: dict[Index, complex]) -> TorusElement:
    """element(acc) for distinct int-pair keys and complex values, without the casts.

    ``0j + v`` is element's first sum; dropping it would keep -0.0 parts.
    """
    return TorusElement({k: 0j + v for k, v in acc.items() if v != 0})


def monomial(n1: int, n2: int, coeff: complex = 1.0) -> TorusElement:
    return element({(n1, n2): coeff})


def unit() -> TorusElement:
    return monomial(0, 0)


def coeff(f: TorusElement, n1: int, n2: int) -> complex:
    return f.coeffs.get((n1, n2), 0j)


def add(f: TorusElement, g: TorusElement) -> TorusElement:
    acc = dict(f.coeffs)
    for idx, val in g.coeffs.items():
        acc[idx] = acc.get(idx, 0j) + val
    return _canonical(acc)


def sub(f: TorusElement, g: TorusElement) -> TorusElement:
    """f - g in one pass, bit-identical to add(f, scale(-1.0, g)) for finite coefficients:
    a - b is a + (-b) in IEEE arithmetic, and the -0.0 parts where the two
    could differ become +0.0 in :func:`_canonical`'s ``0j + v``."""
    acc = dict(f.coeffs)
    for idx, val in g.coeffs.items():
        acc[idx] = acc.get(idx, 0j) - val
    return _canonical(acc)


def scale(alpha: complex, f: TorusElement) -> TorusElement:
    return _canonical({idx: alpha * val for idx, val in f.coeffs.items()})


def mul(f: TorusElement, g: TorusElement, theta: float) -> TorusElement:
    """Product in the torus algebra with rotation parameter theta."""
    acc: dict[Index, complex] = {}
    # 1j * math.pi * theta * k evaluates left to right: hoisting the prefix keeps every bit.
    ipt = 1j * math.pi * theta
    for (v1, v2), cv in f.coeffs.items():
        for (w1, w2), cw in g.coeffs.items():
            phase = cmath.exp(ipt * (v1 * w2 - v2 * w1))
            idx = (v1 + w1, v2 + w2)
            acc[idx] = acc.get(idx, 0j) + cv * cw * phase
    return _canonical(acc)


def involution(f: TorusElement) -> TorusElement:
    """The *-operation: U_v* = U_{-v}, coefficients conjugated."""
    return _canonical({(-v1, -v2): val.conjugate() for (v1, v2), val in f.coeffs.items()})


def trace(f: TorusElement) -> complex:
    """The canonical trace, i.e. the coefficient of the identity monomial."""
    return f.coeffs.get((0, 0), 0j)


def derivation(f: TorusElement, axis: int) -> TorusElement:
    """delta_axis f, with delta_a U_v = 2*pi*i*v_a U_v and axis in {1, 2}."""
    if axis not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {axis!r}")
    pos = axis - 1
    return _canonical({idx: TWO_PI_I * idx[pos] * val for idx, val in f.coeffs.items()})


def norm_max(f: TorusElement) -> float:
    """Largest coefficient magnitude; zero residuals compare against this."""
    return max((abs(v) for v in f.coeffs.values()), default=0.0)


def bezout(n: int, m: int) -> tuple[int, int]:
    """Normal-form Bezout pair (a, b), a*n - b*m = 1, for a coprime label (n, m).

    The normal form takes 0 <= a < |m| when m != 0 and (a, b) = (n, 0)
    when m = 0.  Raises NotCoprime when gcd(n, m) != 1.
    """
    if math.gcd(n, m) != 1:
        raise NotCoprime(f"gcd({n}, {m}) != 1")
    if m == 0:
        # n is +-1; a = n, b = 0 gives a*n = n^2 = 1.
        return n, 0
    a = pow(n, -1, abs(m))
    return a, (a * n - 1) // m
