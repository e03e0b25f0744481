"""Tensor products of basic modules and their theta-series closed forms.

A right module vector f on R x Z_m with label (n, m) and a left module
vector g on R x Z_l with label (k, l) pair to a section h of R x Z_M,
M = n*l + m*k, through the averaged bilinear map

    h(z, Delta) = sum_q f(A*z - (A/m)*q + (l*A/(m*M))*Delta, a*Delta - q)
                        * g(A*z + (B/l)*q - (B/M)*Delta, q),

with A = n + m*theta, B = k - l*theta, (a, b) the Bezout pair of (n, m),
and the component indices read mod m and mod l.  Splitting the q-line by
the congruences q = a*Delta - alpha (mod m), q = beta (mod l) projects h
onto the component pair (alpha, beta); the pair is compatible iff
a*Delta - alpha = beta (mod r), r = gcd(m, l), in which case the solutions
are q0 + u*L, u in Z, with L = m*l/r.

The direct sum, :class:`DirectSeries`, splits the q-line by the factors'
terms instead: each pair of an f-term on component mu and a g-term on nu
is nonzero on one class q1 + j*L, found by stepping q, not by the CRT,
and is walked outward from its peak until its own tails, certified by
:func:`theta.log_tail`, are below the unit roundoff of its sum.  It is the
oracle of the closed form below and shares none of its algebra.

For Gaussian inputs the arithmetic sum over u is itself a theta series:
completing the square in q = q0 + u*L gives

    h_{alpha,beta}(z, Delta) = sum_u exp(pi*i*s*u**2 + 2*pi*i*t*u + K),
    s = -(sigma1*l**2*A**2 + sigma2*m**2*B**2) / (2*pi*i*r**2),
    t = (sigma1*(l*A/r)*X0 - sigma2*(m*B/r)*Y0 + (c1*l*A - c2*m*B)/r)
        / (2*pi*i),
    K = -sigma1*X0**2/2 - c1*X0 - sigma2*Y0**2/2 - c2*Y0,

where X0 and Y0 are the f- and g-arguments at q = q0, affine in z and
N = M*q - l*Delta as X = A*z - (A/(m*M))*N and Y = A*z + (B/(l*M))*N,
and exp(K) is the summand at q0.  Always Im(s) > 0, and replacing q0 by
q0 + L shifts t by s and relabels the terms, so every representative
gives the same value.  With x_n = -A/(m*M), y_n = B/(l*M), t and K are
affine and quadratic in the integer N: at z = 0,

    t = -(kappa*N + lam)*M*L/(2*pi*i),    K = -(kappa*N/2 + lam)*N,
    kappa = sigma1*x_n**2 + sigma2*y_n**2,    lam = c1*x_n + c2*y_n,

and at z != 0, lam and a constant k0 subtracted from K take the z terms.
The closed form builds t and K from these coefficients in one pass per
entry, at the representative of the largest term, where |Im t| <= Im s/2,
and sums each term as one exponent, so none overflows where the value is
representable.
One form serves a product: s depends on neither the pair nor Delta.  The
certified tail bound grows with |Im t|, so the entries of a pair at one z
are summed together at one truncation radius, at their largest |Im t|, by
:meth:`ProductClosedForm.row`, the one closed-form summer: the structure
constants one row per pair, the oracle of verify-all one per pair and
probe point z, and a single value its own.

Specializing f, g to the Gaussian vectors holomorphic for a common
complex structure tau makes t independent of z and factors out

    phi_gamma(z) = exp(-sigma'*z**2/2 - c'*z) on component gamma,
    sigma' = i*tau*M*A/B,    c' = (c_f + c_g)*A,

so each product of basis vectors is an exact finite combination
f_alpha (x) g_beta = sum_gamma c^gamma_{alpha,beta} phi_gamma with
coefficients exp(K)*Theta(s, t) evaluated at z = 0.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Iterable

from . import gaussians as gs
from ._record import Record
from .algebra import TWO_PI_I
from .connections import ComplexStructure
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidSigma,
    NoHolomorphicVectors,
    NonConvergent,
    SeriesOverflow,
    SignAssumptionViolated,
    TableTooLarge,
)
from .modules import act_U1, act_U2, act_Z1, act_Z2, module_tag
from .theta import log_tail, theta_truncated, truncation_radius

# Probe points in z used by the verification routines.
PROBE_ZS: tuple[float, ...] = (-1.0, -0.5, 0.0, 0.3, 0.7, 1.0)

DEFAULT_QMAX = 16384
# The direct q-sum stops once its certified tails are below the unit
# roundoff of the sum, or below the smallest normal double.
_ROUNDOFF = 2.0**-53
_TINY = sys.float_info.min
# Largest table, in entries m*l*M, that structure_constants builds: the CLI
# table costs about 40 us and, in its JSON report, 0.65 KB of peak memory per
# entry (CSV 0.45 KB), so one at the limit needs about 20 s and 0.35 GB.  Time,
# not memory, sets the limit.  The table holds about 240 B an entry; the JSON
# report's entry dicts hold most of the rest, as the text streams to its handle.
TABLE_LIMIT = 500_000


class ProductParams(Record):
    """Labels, factor modules, and derived constants of one tensor product.

    Build through :func:`product_params`.  ``right`` is the module (n, m)
    at theta and ``left`` the module (k, l) at -theta, so its denominator
    is B = k - l*theta.  A, B, M, r and L are stored, not derived, because
    every q-sum call reads them.  With (a, b) = (right.a, right.b) and
    (c, d) = (left.a, left.b), N_prime = a*k + b*l and N_double_prime =
    -(c*n + d*m) are the induced endomorphism labels, with
    gcd(N_prime, M) = 1; theta_prime = right.theta_prime and
    theta_double_prime = -left.theta_prime are the rotation parameters
    of the two endomorphism tori.  These five are the bimodule profile,
    which presumes the cone A > 0, B > 0 that :func:`holomorphic_factors`
    checks; the q-sum itself needs neither sign, and at A = 0 or B = 0 the
    rotation parameter that divides by it raises DegenerateDenominator.
    """

    __slots__ = ("n", "m", "k", "l", "theta", "right", "left", "A", "B", "M", "r", "L")

    @property
    def theta_prime(self) -> float:
        return self.right.theta_prime

    @property
    def theta_double_prime(self) -> float:
        return -self.left.theta_prime

    @property
    def N_prime(self) -> int:
        return self.right.a * self.k + self.right.b * self.l

    @property
    def N_double_prime(self) -> int:
        return -(self.left.a * self.n + self.left.b * self.m)

    def __str__(self) -> str:
        return f"({self.n}, {self.m}) x ({self.k}, {self.l}) at theta = {self.theta}"


def product_params(
    n: int,
    m: int,
    k: int,
    l: int,
    theta: float,
) -> ProductParams:
    """Validated parameters for the product of labels (n, m) and (k, l).

    The factor tags, ``modules.module_tag`` of (n, m) at theta and of
    (k, l) at -theta, carry the normal-form Bezout pairs (a, b) and (c, d),
    and A and B are their denominators.  The bilinear map and its
    verification identities need only m, l >= 1, coprime labels (NotCoprime)
    and M >= 1, so A and B may each be negative or 0; the theta vectors of
    :func:`holomorphic_factors` need A > 0 and B > 0, and the endomorphism
    quantities a nonzero denominator.
    """
    right, left = module_tag(n, m, theta), module_tag(k, l, -theta)
    if n * l + m * k < 1:
        raise SignAssumptionViolated(f"n*l + m*k = {n * l + m * k} must be positive")
    r = math.gcd(m, l)
    p = ProductParams(
        n, m, k, l, theta, right, left,
        A=right.denominator, B=left.denominator, M=n * l + m * k, r=r, L=m * l // r,
    )
    # (N', M) is (k, l) under ((a, b), (m, n)), of determinant a*n - b*m = 1.
    assert math.gcd(p.N_prime, p.M) == 1
    return p


def _check_index(name: str, value: int, bound: int) -> None:
    if not 0 <= value < bound:
        raise IndexOutOfRange(f"{name} = {value} outside range(0, {bound})")


def crt_q0(alpha: int, beta: int, delta: int, p: ProductParams) -> int | None:
    """Smallest q >= 0 with q = a*delta - alpha (mod m) and q = beta (mod l).

    Returns None when the pair of congruences is incompatible, i.e. when
    a*delta - alpha != beta (mod gcd(m, l)).
    """
    m, l, r = p.m, p.l, p.r
    rhs = (p.right.a * delta - alpha) % m
    beta_mod = beta % l
    if (rhs - beta_mod) % r != 0:
        return None
    mr = m // r
    y = ((rhs - beta_mod) // r * pow(l // r, -1, mr)) % mr
    return beta_mod + l * y


class DirectSeries:
    """The q-series of f (x) g, set up once and summed term pair by term pair at any (z, delta).

    Each term pair of f.terms x g.terms, in that order, is one series: its
    f-term on component mu and g-term on component nu are both nonzero only
    at q = a*delta - mu (mod m) and q = nu (mod l), one class q1 + j*L,
    found by stepping q through a*delta - mu (mod m) until q = nu (mod l)
    and tabulated by a*delta mod m, once per (mu, nu).  The pair bounds its
    log summand at q1 + j*L by c0 + b*j - a*j**2 + k*|j|: with u = x - x0 a
    factor's log modulus is -(Re sigma*u/2 + Re c)*u, plus at most
    log ||P||_1 + deg P*|u|.  Set-up keeps all that depends on neither z nor delta, a > 0
    and k included; :meth:`evaluate` builds c0 and b, starts at the class
    member nearest the peak b/(2a) and grows the side whose certified tail
    (:func:`theta.log_tail`, with b -> -b on the left) is larger, until both
    tails together are below 2**-53 of |pair sum| or below the smallest
    normal double.  So the omitted total is at most 2**-53 times the sum of
    the pairs' |sums|, the order of the rounding of adding them.  Each pair
    is its own walk, so factors of several terms on one component cost a
    walk per pair; the hot path, the basis products, has one-term factors.
    NonConvergent means that window left |q| <= qmax.  An overflowing
    summand, term norm or total raises SeriesOverflow at the call that
    reaches it.  Factors on other components than Z_m x Z_l raise
    DimensionMismatch, and qmax < 1, which would sum nothing, a ValueError.
    """

    def __init__(self, f: gs.PolyGaussVector, g: gs.PolyGaussVector, p: ProductParams,
                 qmax: int = DEFAULT_QMAX) -> None:
        if f.m != p.m or g.m != p.l:
            raise DimensionMismatch(
                f"factors on Z_{f.m} x Z_{g.m}, label needs Z_{p.m} x Z_{p.l}"
            )
        if qmax < 1:
            raise ValueError(f"qmax must be >= 1, got {qmax}")
        m, l, big_l = p.m, p.l, p.L
        self.p, self.qmax = p, qmax
        f_q, g_q = p.A / m, p.B / l
        dx, dy = -f_q * big_l, g_q * big_l
        # the steps of the f- and g-arguments in q, in j and in delta
        self._coefs = f_q, g_q, dx, dy, p.l * p.A / (m * p.M), p.B / p.M
        self._pairs, classes = [], {}
        for tf in f.terms:
            for tg in g.terms:
                mu, nu = tf.mu, tg.mu
                # None where a*delta - mu != nu (mod r): no q carries the pair
                q1s = classes.get((mu, nu))
                if q1s is None:
                    q1s = classes[mu, nu] = [
                        next((q for q in range((rho - mu) % m, big_l, m) if q % l == nu), None)
                        for rho in range(m)
                    ]
                sf, sg = tf.sigma.real, tg.sigma.real
                deg_f, deg_g = len(tf.poly) - 1, len(tg.poly) - 1
                fault = None
                try:
                    log_norm = math.log(sum(map(abs, tf.poly)) * sum(map(abs, tg.poly)))
                except (ArithmeticError, ValueError) as exc:
                    fault, log_norm = exc, math.nan
                self._pairs.append((
                    gs.PolyGaussVector(m, (tf,)), gs.PolyGaussVector(l, (tg,)), mu, nu, q1s,
                    (tf.x0, tg.x0, sf, tf.c.real, sg, tg.c.real, log_norm, deg_f, deg_g,
                     (sf * dx * dx + sg * dy * dy) / 2, deg_f * abs(dx) + deg_g * abs(dy)),
                    fault,
                ))

    def evaluate(self, z: float, delta: int) -> complex:
        """h(z, delta) for any integer delta; the series is M-periodic in delta."""
        evaluate = gs.evaluate
        p, qmax = self.p, self.qmax
        big_l, rho, az = p.L, p.right.a * delta % p.m, p.A * z
        f_q, g_q, dx, dy, f_dn, g_dn = self._coefs
        f_delta, g_delta = f_dn * delta, g_dn * delta
        total = 0j
        try:
            for f_term, g_term, mu, nu, q1s, consts, fault in self._pairs:
                q1 = q1s[rho]
                if q1 is None:
                    continue
                if fault is not None:
                    raise type(fault)(*fault.args)
                x0_f, x0_g, sf, cf, sg, cg, log_norm, deg_f, deg_g, a, k = consts
                u_f, u_g = az - f_q * q1 + f_delta - x0_f, az + g_q * q1 - g_delta - x0_g
                c0 = -(sf * u_f / 2 + cf) * u_f - (sg * u_g / 2 + cg) * u_g
                c0 += log_norm
                c0 += deg_f * abs(u_f) + deg_g * abs(u_g)
                b = -(sf * u_f + cf) * dx - (sg * u_g + cg) * dy
                # start at the class member nearest the peak
                lo = hi = round(b / (2 * a))
                q = q1 + hi * big_l
                right, left = log_tail(c0, b, a, k, hi + 1), log_tail(c0, -b, a, k, 1 - lo)
                acc = 0j
                while True:
                    if abs(q) > qmax:
                        raise NonConvergent(f"q-series not certified within |q| <= {qmax} "
                                            f"at z = {z}, delta = {delta}")
                    acc += evaluate(f_term, az - f_q * q + f_delta, mu) * evaluate(
                        g_term, az + g_q * q - g_delta, nu
                    )
                    # the two tails together are at most twice the larger; a nan
                    # bound walks on, a non-finite acc stops (log inf) or walks on
                    # to the floor
                    if max(right, left) <= math.log(max(_TINY, _ROUNDOFF * abs(acc)) / 2):
                        break
                    if right >= left:
                        hi += 1
                        q, right = q1 + hi * big_l, log_tail(c0, b, a, k, hi + 1)
                    else:
                        lo -= 1
                        q, left = q1 + lo * big_l, log_tail(c0, -b, a, k, 1 - lo)
                total += acc
            if not cmath.isfinite(total):
                raise OverflowError(f"non-finite sum {total}")
        except (ArithmeticError, ValueError) as exc:
            raise SeriesOverflow(
                f"tensor.DirectSeries.evaluate: {exc} at z = {z}, delta = {delta} of {p}"
            ) from exc
        return total


def tensor_direct(
    f: gs.PolyGaussVector,
    g: gs.PolyGaussVector,
    p: ProductParams,
    z: float,
    delta: int,
    qmax: int = DEFAULT_QMAX,
) -> complex:
    """The bilinear map evaluated pointwise by direct summation over q, term pair by term pair.

    One throwaway :class:`DirectSeries`, which certifies each term pair's
    truncation on its own; a caller that sums the same factors at many
    (z, delta) builds the series once and calls its ``evaluate``.
    """
    series = DirectSeries(f, g, p, qmax)
    _check_index("delta", delta, p.M)
    return series.evaluate(z, delta)


class ProductClosedForm(Record):
    """Theta-series form of a product of factor Gaussians, every component pair at once.

    sigma1, c1, sigma2, c2 are the factor Gaussians; ``x_n`` and ``y_n``
    are the coefficients of N = M*q - l*delta in the f- and g-arguments
    X = A*z + x_n*N and Y = A*z + y_n*N; ``s`` is the theta modulus of every
    pair and delta.  The methods take the pair (alpha, beta), whose q0 is
    None at a delta where it is incompatible and the product vanishes.
    """

    __slots__ = ("params", "sigma1", "c1", "sigma2", "c2", "x_n", "y_n", "s")

    def q0(self, alpha: int, beta: int, delta: int) -> int | None:
        """The :func:`crt_q0` of (alpha, beta) at delta, each index checked in that order."""
        p = self.params
        _check_index("alpha", alpha, p.m)
        _check_index("beta", beta, p.l)
        _check_index("delta", delta, p.M)
        return crt_q0(alpha, beta, delta, p)

    def n_coefficients(self, z: complex) -> tuple[complex, complex, complex]:
        """(kappa, lam, k0), the coefficients of t and K at z in N = M*q - l*delta.

        kappa = sigma1*x_n**2 + sigma2*y_n**2, lam = (sigma1*A*z + c1)*x_n +
        (sigma2*A*z + c2)*y_n and k0 = ((sigma1 + sigma2)*A*z/2 + c1 + c2)*A*z;
        at z = 0, lam = c1*x_n + c2*y_n and k0 = 0.
        """
        xn, yn, az = self.x_n, self.y_n, self.params.A * z
        kappa = self.sigma1 * xn * xn + self.sigma2 * yn * yn
        lam = (self.sigma1 * az + self.c1) * xn + (self.sigma2 * az + self.c2) * yn
        return kappa, lam, ((self.sigma1 + self.sigma2) * az / 2 + self.c1 + self.c2) * az

    def row(self, alpha: int, beta: int, z: complex, deltas: Iterable[int]
            ) -> tuple[list[tuple[int, int, int, complex, complex, complex]], int]:
        """(entries, radius) of (alpha, beta)'s values at z over deltas, each in range(M).

        entries lists (delta, q0, u, t, K, value) of every compatible delta
        in order.  Each entry is reduced inline to the N = M*q - l*delta of
        its largest term: with (kappa, lam, k0) the :meth:`n_coefficients`
        at z, t = -(kappa*N + lam)*M*L/(2*pi*i) at N = M*q0 - l*delta gives
        u = nint(-Im t/Im s); t is built again at N + u*M*L only if u != 0,
        and K = -(kappa*N/2 + lam)*N - k0, the log of the summand at
        q0 + u*L, once, at the final N.  value = exp(K)*Theta(s, t) =
        theta_truncated(s, t, radius, K).  The entries share s, and radius
        is the :func:`theta.truncation_radius` at their largest |Im t|,
        which certifies each of them and is at least each one's own radius,
        since every reduced entry has |Im t| <= Im s.  Every entry is
        reduced before any sum.  IndexOutOfRange for alpha, then beta, then,
        before any sum, the first delta outside range(M); SeriesOverflow,
        from the OverflowError or ValueError, of the first entry whose
        reduction or sum fails, a reduction also unless K is finite and
        |Im t| <= Im s; no sum runs after it.
        """
        p = self.params
        _check_index("alpha", alpha, p.m)
        _check_index("beta", beta, p.l)
        kappa, lam, k0 = self.n_coefficients(z)
        s, big_m, l, m, ml = self.s, p.M, p.l, p.m, p.M * p.L
        s_im = s.imag
        # q0 depends on delta only through a*delta mod m
        q0s = [crt_q0(alpha, beta, rho, p) for rho in range(min(m, big_m))]
        reduced, failed, worst = [], None, 0.0
        for delta in deltas:
            if not 0 <= delta < big_m:
                _check_index("delta", delta, big_m)
            q0 = q0s[delta % m]
            if q0 is None:
                continue
            n = big_m * q0 - l * delta
            try:
                t = -(kappa * n + lam) * ml / TWO_PI_I
                u = round(-t.imag / s_im)
                if u:
                    n += u * ml
                    t = -(kappa * n + lam) * ml / TWO_PI_I
                k = -(kappa * n / 2 + lam) * n - k0
                if not (cmath.isfinite(k) and abs(t.imag) <= s_im):
                    raise OverflowError(f"peak t = {t}, K = {k} is not reduced")
            except (OverflowError, ValueError) as exc:  # ValueError: round of a nan ratio
                failed = exc
                break
            reduced.append((delta, q0, u, t, k))
            if abs(t.imag) > worst:
                worst = abs(t.imag)
        radius, entries = truncation_radius(s, 1j * worst), []
        try:
            for at, q0, u, t, k in reduced:
                entries.append((at, q0, u, t, k, theta_truncated(s, t, radius, k)))
            if failed is not None:
                at = delta  # the failing reduction, once every entry before it is summed
                raise failed
        except (OverflowError, ValueError) as exc:  # ValueError: cmath.exp's domain error
            raise SeriesOverflow(
                f"ProductClosedForm.row: {exc} at (alpha, beta) = ({alpha}, {beta}), "
                f"delta = {at}, z = {z} of {p}"
            ) from exc
        return entries, radius

    def evaluate(self, alpha: int, beta: int, z: complex, delta: int) -> complex:
        """exp(K)*Theta(s, t) of (alpha, beta) at (z, delta), within DEFAULT_EPS*|exp(K)|.

        A one-entry :meth:`row`, 0j where the pair is incompatible at delta,
        with its errors; one entry's radius is its own, as :func:`theta.theta` takes it.
        """
        entries, _ = self.row(alpha, beta, z, (delta,))
        return entries[0][-1] if entries else 0j


def tensor_gaussian_closed(
    sigma1: complex,
    c1: complex,
    sigma2: complex,
    c2: complex,
    p: ProductParams,
) -> ProductClosedForm:
    """Closed form of gaussian(m, sigma1, c1, alpha) (x) gaussian(l, sigma2, c2, beta)."""
    if not sigma1.real > 0:
        raise InvalidSigma(f"Re(sigma1) must be positive, got {sigma1}")
    if not sigma2.real > 0:
        raise InvalidSigma(f"Re(sigma2) must be positive, got {sigma2}")
    s = -(sigma1 * (p.l * p.A) ** 2 + sigma2 * (p.m * p.B) ** 2) / (TWO_PI_I * p.r * p.r)
    if not cmath.isfinite(s):
        raise SeriesOverflow(f"tensor_gaussian_closed: theta modulus s = {s} is not finite "
                             f"for {p}")
    assert s.imag > 0
    return ProductClosedForm(p, sigma1, c1, sigma2, c2, -p.A / (p.m * p.M), p.B / (p.l * p.M), s)


def holomorphic_factors(p: ProductParams, cs: ComplexStructure
                        ) -> tuple[complex, complex, complex]:
    """(sigma1, sigma2, c) of the factor Gaussians holomorphic for cs.

    sigma1 = i*tau*m/A and sigma2 = i*tau*l/B are the widths, and c =
    cs.offset the linear coefficient, of the bases of p.right and p.left.
    Theta vectors of both factors exist only on the cone A > 0, B > 0:
    SignAssumptionViolated off it, then NoHolomorphicVectors when a width
    or c is not finite or a width has Re <= 0.
    """
    if p.A <= 0 or p.B <= 0:
        raise SignAssumptionViolated(
            f"need n + m*theta > 0 and k - l*theta > 0, got {p.A:.6g} and {p.B:.6g}"
        )
    sigma1 = 1j * cs.tau * p.m / p.A
    sigma2 = 1j * cs.tau * p.l / p.B
    c = cs.offset
    if not all(map(cmath.isfinite, (sigma1, sigma2, c))):
        raise NoHolomorphicVectors(
            f"factor widths i*tau*m/A = {sigma1}, i*tau*l/B = {sigma2} or offset {c} "
            f"is not finite for tau = {cs.tau}"
        )
    if sigma1.real <= 0 or sigma2.real <= 0:
        raise NoHolomorphicVectors(
            f"factor widths i*tau*m/A = {sigma1:.6g}, i*tau*l/B = {sigma2:.6g} "
            "must both have positive real part"
        )
    return sigma1, sigma2, c


def product_basis(p: ProductParams, cs: ComplexStructure) -> list[gs.PolyGaussVector]:
    """The M Gaussian vectors phi_gamma spanning products of holomorphic pairs."""
    sigma1, sigma2, c = holomorphic_factors(p, cs)
    # sigma' = (sigma1 + sigma2)*A**2 = i*tau*M*A/B via l*A + m*B = M, and c' = 2*c*A
    sigma_p, c_p = (sigma1 + sigma2) * p.A * p.A, 2 * c * p.A
    return [gs.gaussian(p.M, sigma_p, c_p, gamma) for gamma in range(p.M)]


class StructureConstants(Record):
    """Coefficients c^gamma_{alpha,beta} with the theta series they were summed from.

    values[alpha][beta][gamma] is the coefficient.  rows[alpha, beta] is
    the (radius, entries) of that row's :meth:`ProductClosedForm.row` at
    z = 0 over range(M): entries lists (gamma, q0, u, t, K, value) of every
    compatible gamma, with (t, K) reduced by the row to q0 + u*L, the q of
    the largest term, so each value is theta_truncated(s, t, radius, K)
    with s the theta modulus every entry shares.  An incompatible gamma
    has no entry and the value 0j.
    """

    __slots__ = ("shape", "values", "rows", "s")

    def value(self, alpha: int, beta: int, gamma: int) -> complex:
        m, l, big_m = self.shape
        if not (0 <= alpha < m and 0 <= beta < l and 0 <= gamma < big_m):
            raise IndexOutOfRange(
                f"({alpha}, {beta}, {gamma}) outside shape {self.shape}"
            )
        return self.values[alpha][beta][gamma]


def structure_constants(p: ProductParams, cs: ComplexStructure) -> StructureConstants:
    """Expand products of holomorphic basis vectors over the product basis.

    The (alpha, beta) product equals sum_gamma c^gamma_{alpha,beta} *
    phi_gamma with phi_gamma from :func:`product_basis`; the coefficient
    is the closed form at z = 0, where phi_gamma(0) = 1.  Each row
    (alpha, beta) is one :meth:`ProductClosedForm.row` at z = 0, kept in
    ``rows``, so an overflow is the row's SeriesOverflow of the first
    failing entry in (alpha, beta, gamma) order.  A table of more than
    TABLE_LIMIT entries m*l*M raises TableTooLarge before any work; then
    the factors are :func:`holomorphic_factors`, so it returns only on the
    cone A > 0, B > 0.
    """
    if p.m * p.l * p.M > TABLE_LIMIT:
        raise TableTooLarge(
            f"structure_constants: m*l*M = {p.m * p.l * p.M} entries exceed the limit "
            f"{TABLE_LIMIT} for ({p.n}, {p.m}) x ({p.k}, {p.l})"
        )
    sigma1, sigma2, c = holomorphic_factors(p, cs)
    form = tensor_gaussian_closed(sigma1, c, sigma2, c, p)
    values, rows = [], {}
    for alpha in range(p.m):
        cols = []
        for beta in range(p.l):
            entries, radius = form.row(alpha, beta, 0.0, range(p.M))
            rows[alpha, beta] = radius, entries
            col = [0j] * p.M
            for entry in entries:
                col[entry[0]] = entry[-1]
            cols.append(tuple(col))
        values.append(tuple(cols))
    return StructureConstants(shape=(p.m, p.l, p.M), values=tuple(values), rows=rows, s=form.s)


def verify_identities(
    f: gs.PolyGaussVector,
    g: gs.PolyGaussVector,
    p: ProductParams,
    qmax: int = DEFAULT_QMAX,
) -> dict[str, float]:
    """Residuals of the five identities of h = f (x) g, keyed by name.

    Each is max |lhs - rhs| / (1 + max |lhs|) over z in PROBE_ZS and delta
    in range(M).  identification_u1, _u2: (f.U) (x) g = f (x) (U.g);
    delta_periodicity: h(z, delta) = h(z, delta + M); z1_covariance:
    (Z1 f) (x) g at (z, delta) = h(z - N'/M + theta', delta - 1);
    z2_covariance: (Z2 f) (x) g at (z, delta) = exp(2*pi*i*(z - N'*delta/M))
    * h(z, delta), the same h(z, delta) as delta_periodicity's lhs.  Each
    of the seven factor pairs is one :class:`DirectSeries`, set up once,
    f (x) g first, so factors on the wrong components raise its DimensionMismatch.
    """
    hfg = DirectSeries(f, g, p, qmax).evaluate
    fu1, gu1 = act_U1(f, p.right), act_U1(g, p.left)
    fu2, gu2 = act_U2(f, p.right), act_U2(g, p.left)
    z1f, z2f = act_Z1(f, p.right), act_Z2(f, p.right)
    shift_z = -p.N_prime / p.M + p.theta_prime
    # one direct series per factor pair, summed at every probe point
    hu1f, hu1g, hu2f, hu2g, hz1, hz2 = (DirectSeries(u, v, p, qmax).evaluate for u, v in (
        (fu1, g), (f, gu1), (fu2, g), (f, gu2), (z1f, g), (z2f, g)))
    worst: dict[str, float] = {}
    ref: dict[str, float] = {}
    for z in PROBE_ZS:
        for d in range(p.M):
            sides = {
                "identification_u1": (hu1f(z, d), hu1g(z, d)),
                "identification_u2": (hu2f(z, d), hu2g(z, d)),
                "delta_periodicity": (h := hfg(z, d), hfg(z, d + p.M)),
                "z1_covariance": (hz1(z, d), hfg(z + shift_z, d - 1)),
                "z2_covariance": (hz2(z, d), cmath.exp(TWO_PI_I * (z - p.N_prime * d / p.M)) * h),
            }
            for name, (lhs, rhs) in sides.items():
                worst[name] = max(worst.get(name, 0.0), abs(lhs - rhs))
                ref[name] = max(ref.get(name, 0.0), abs(lhs))
    return {name: worst[name] / (1 + ref[name]) for name in worst}
