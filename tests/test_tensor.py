"""The explicit tensor product map and its theta-series closed form."""

import cmath
import itertools
import math
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nctorus.algebra import TWO_PI_I
from nctorus.connections import ComplexStructure, holomorphic_basis
from nctorus.errors import (
    DegenerateDenominator,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidSigma,
    NoHolomorphicVectors,
    NonConvergent,
    NotCoprime,
    SeriesOverflow,
    SignAssumptionViolated,
)
from nctorus import gaussians as gs
from nctorus import tensor
from nctorus.modules import act_U1, act_U2, act_Z1, act_Z2, module_tag
from nctorus.tensor import (
    DirectSeries,
    crt_q0,
    product_basis,
    product_params,
    structure_constants,
    tensor_direct,
    tensor_gaussian_closed,
    verify_identities,
)
from nctorus.theta import log_tail

from conftest import coprime_pair, random_gaussian, random_theta, random_vector


def _canonical(theta=0.2):
    return product_params(1, 2, 1, 3, theta)


def _factor_bases(p, tau=-1j):
    cs = ComplexStructure(tau=tau)
    fb = holomorphic_basis(module_tag(p.n, p.m, p.theta), cs)
    gb = holomorphic_basis(module_tag(p.k, p.l, -p.theta), cs)
    return fb, gb


# ------------------------------------------------------------- parameters

def test_product_params_constants():
    p = _canonical()
    assert (p.A, p.B) == (pytest.approx(1.4), pytest.approx(0.4))
    assert p.M == 5
    assert p.r == 1
    assert p.L == 6
    assert p.N_prime == 1
    assert abs(p.theta_prime - 1 / 7) < 1e-15


def test_product_params_validation():
    with pytest.raises(NotCoprime):
        product_params(2, 4, 1, 3, 0.2)
    with pytest.raises(ValueError):
        product_params(1, 0, 1, 3, 0.2)
    with pytest.raises(SignAssumptionViolated):
        product_params(-1, 2, 1, 3, 0.2)
    # A = 0 is admitted; the endomorphism quantities divide by it
    p = product_params(-1, 2, 1, 1, 0.5)
    assert p.A == 0
    with pytest.raises(DegenerateDenominator, match=r"vanishes for \(-1, 2\) at theta = 0.5"):
        p.theta_prime


def test_product_params_hold_factor_modules():
    for n, m, k, l, theta in ((1, 2, 1, 3, 0.2), (3, 2, 2, 3, math.sqrt(2) - 1),
                              (1, 2, 1, 2, 0.5), (-1, 2, 1, 1, 0.5)):  # B = 0, A = 0
        p = product_params(n, m, k, l, theta)
        assert p.right == module_tag(n, m, theta)
        assert p.left == module_tag(k, l, -theta)


def test_relaxed_signs_allow_negative_B():
    p = product_params(1, 2, 1, 3, math.sqrt(2) - 1)
    assert p.B < 0


def test_key_linear_identity():
    # M = l A + m B ties the integer invariant to the two denominators
    for theta in (0.2, 0.41, 0.77):
        p = product_params(3, 2, 2, 3, theta)
        assert abs(p.l * p.A + p.m * p.B - p.M) < 1e-12


# ------------------------------------------------------- bimodule profile

def test_product_params_profile_oracle():
    p = product_params(1, 2, 1, 3, 0.2)
    assert p.M == 5
    assert p.N_prime == 1
    assert p.N_double_prime == -1
    assert abs(p.theta_prime - 1 / 7) < 1e-15
    assert abs(p.theta_double_prime - 0.5) < 1e-15


def test_theta_double_prime_is_the_left_formula():
    # -theta' of the left module at -theta is, bit for bit, the left-label
    # formula -(d - c*theta)/(k - l*theta) with c*k - d*l = 1
    count = 0
    for theta in (0.2, math.sqrt(2) - 1, 0.37, 0.5, 0.77):
        for k in range(-5, 17):
            for l in range(1, 10):
                if math.gcd(k, l) != 1 or k - l * theta == 0:
                    continue
                p = product_params(6, 1, k, l, theta)  # M = 6*l + k >= 1
                c, d = p.left.a, p.left.b
                assert p.theta_double_prime == -(d - c * theta) / (k - l * theta)
                count += 1
    assert count > 400


def test_product_params_profile_requires_positive_denominators():
    # product_params admits either sign; the holomorphic data, which the
    # profile's table needs, reject A < 0 and B < 0 with the cone's text
    for label, a_b in (((-1, 2, 2, 3, 0.2), "-0.6 and 1.4"), ((1, 2, -1, 3, 0.1), "1.2 and -1.3")):
        p = product_params(*label)
        with pytest.raises(SignAssumptionViolated) as info:
            tensor.holomorphic_factors(p, ComplexStructure(tau=-1j))
        assert str(info.value) == f"need n + m*theta > 0 and k - l*theta > 0, got {a_b}"


def test_product_params_coprimality_invariant():
    rng = random.Random(14)
    for _ in range(30):
        theta = random_theta(rng)
        n, m = coprime_pair(rng)
        k, l = coprime_pair(rng)
        if n + m * theta <= 0.05 or k - l * theta <= 0.05:
            continue
        p = product_params(n, m, k, l, theta)
        assert math.gcd(p.N_prime, p.M) == 1


def _relaxed_params():
    """product_params over a label grid, labels it rejects left out."""
    grid = itertools.product(
        (0.2, 0.5, math.sqrt(2) - 1), range(-3, 4), range(1, 4), range(-3, 4), range(1, 4)
    )
    for theta, n, m, k, l in grid:
        if math.gcd(n, m) != 1 or math.gcd(k, l) != 1:
            continue
        try:
            p = product_params(n, m, k, l, theta)
        except SignAssumptionViolated:
            continue
        yield p


def _cone_side(p):
    return ("A<0" if p.A < 0 else "A=0" if p.A == 0 else "B<0" if p.B < 0
            else "B=0" if p.B == 0 else "cone")


def test_product_params_coprimality_off_the_cone():
    # (N', M) is (k, l) under a unimodular matrix, so gcd(N', M) = 1 needs no
    # sign; product_params asserts it for labels off the cone too
    seen = set()
    for p in _relaxed_params():
        assert math.gcd(p.N_prime, p.M) == 1
        seen.add(_cone_side(p))
    assert seen == {"A<0", "A=0", "B<0", "B=0", "cone"}
    # the B = 0 labels of test_identification_with_vanishing_B
    p = product_params(1, 2, 1, 2, 0.5)
    assert p.B == 0
    assert math.gcd(p.N_prime, p.M) == 1


def test_structure_constants_only_on_the_cone():
    # the table, and so the profile of its report, exists only for A > 0 and
    # B > 0: off the cone its holomorphic data raise the cone's error, at
    # either sign of Im(tau)
    seen = set()
    for p in _relaxed_params():
        side = _cone_side(p)
        if side == "cone":
            continue
        seen.add(side)
        for tau in (-1j, 1j):
            with pytest.raises(SignAssumptionViolated, match="^need n \\+ m\\*theta > 0"):
                structure_constants(p, ComplexStructure(tau=tau))
    assert seen == {"A<0", "A=0", "B<0", "B=0"}


# ------------------------------------------------------------ congruences

def test_crt_oracle():
    p = _canonical()
    assert crt_q0(0, 1, 0, p) == 4
    assert crt_q0(0, 0, 0, p) == 0


def test_crt_matches_brute_force():
    rng = random.Random(51)
    labels = [(1, 2, 1, 3), (1, 2, 1, 2), (3, 2, 2, 3), (1, 4, 1, 2)]
    for n, m, k, l in labels:
        p = product_params(n, m, k, l, 0.2)
        for _ in range(30):
            alpha = rng.randrange(m)
            beta = rng.randrange(l)
            delta = rng.randrange(-p.M, 2 * p.M)
            brute = [q for q in range(p.L)
                     if (q + alpha - p.right.a * delta) % m == 0
                     and (q - beta) % l == 0]
            got = crt_q0(alpha, beta, delta, p)
            if brute:
                assert got == brute[0]
            else:
                assert got is None


def test_incompatible_pair_exists_when_gcd_nontrivial():
    p = product_params(1, 2, 1, 2, 0.2)
    assert p.r == 2
    assert crt_q0(0, 1, 0, p) is None


# ------------------------------------------------------------- direct sum

def test_direct_sum_input_validation():
    p = _canonical()
    fb, gb = _factor_bases(p)
    with pytest.raises(DimensionMismatch):
        tensor_direct(gb[0], gb[0], p, 0.0, 0)
    # the certified window of this point is |q| <= 6: a cap below it raises,
    # a cap above it changes nothing
    for qmax in (2, 5):
        with pytest.raises(NonConvergent):
            tensor_direct(fb[0], gb[0], p, 0.0, 0, qmax=qmax)
    assert tensor_direct(fb[0], gb[0], p, 0.0, 0, qmax=6) == tensor_direct(fb[0], gb[0], p, 0.0, 0)
    for qmax in (0, -5):
        with pytest.raises(ValueError):
            tensor_direct(fb[0], gb[0], p, 0.0, 0, qmax=qmax)


def _reference_q_sum(f, g, p, z, delta, radius=128):
    """(sum, sum of moduli) of the q-series over every |q| <= radius, one
    argument expression per factor."""
    total, size = 0j, 0.0
    for q in range(-radius, radius + 1):
        mu = (p.right.a * delta - q) % p.m
        nu = q % p.l
        x = p.A * z - (p.A / p.m) * q + (p.l * p.A / (p.m * p.M)) * delta
        y = p.A * z + (p.B / p.l) * q - (p.B / p.M) * delta
        term = gs.evaluate(f, x, mu) * gs.evaluate(g, y, nu)
        total += term
        size += abs(term)
    return total, size


def test_q_sum_against_every_q():
    # summing each live class outward from its peak, up to its certified
    # tails, agrees with the sum over every q to rounding; a cap below the
    # certified window raises, one above it changes no bit
    rng = random.Random(57)
    capped = set()
    for n, m, k, l in ((1, 2, 1, 4), (1, 4, 1, 6)):
        p = product_params(n, m, k, l, 0.2)
        assert p.r == 2
        # random multi-term polynomial pairs, then a Gaussian pair and a pair
        # of degree-8 monomials, whose growth the tail bound must absorb; the
        # last two sit on components (0, 1), incompatible where a*delta is
        # even: an exact zero
        factors = [(random_vector(rng, m, nterms=3), random_vector(rng, l, nterms=3))
                   for _ in range(3)]
        assert all(any(len(t.poly) > 1 for t in f.terms + g.terms) for f, g in factors)
        monomial = (0j,) * 8 + (1,)
        factors += [(gs.gaussian(m, 1.0, mu=0), gs.gaussian(l, 1.0, mu=1)),
                    (gs.gaussian(m, 1.0, mu=0, poly=monomial),
                     gs.gaussian(l, 1.0, mu=1, poly=monomial))]
        for i, (f, g) in enumerate(factors):
            series, capped_series = DirectSeries(f, g, p), DirectSeries(f, g, p, 2)
            for delta in (-1, 0, p.M - 1, p.M):
                for z in (-0.7, 0.0, 0.45):
                    got = series.evaluate(z, delta)
                    want, size = _reference_q_sum(f, g, p, z, delta)
                    if i >= 3 and p.right.a * delta % 2 == 0:
                        assert repr(got) == "0j"
                    assert abs(got - want) <= 2**-50 * size
                    try:
                        assert capped_series.evaluate(z, delta) == got
                    except NonConvergent as exc:
                        assert str(exc) == (
                            f"q-series not certified within |q| <= 2 at z = {z}, delta = {delta}")
                        capped.add((n, m, k, l, i))
    assert len(capped) >= 4


def test_q_sum_evaluates_only_live_residues(monkeypatch):
    # with one term per factor only q in one class mod L = lcm(m, l) are
    # evaluated, two evaluate calls each, within |q| <= 32; a series looks
    # gs.evaluate up at each call, so one built before the patch is counted
    # too, with the same calls as a throwaway one
    p = product_params(3, 2, 2, 3, 0.2)
    assert p.L == 6
    fb, gb = _factor_bases(p)
    series = {(alpha, beta): DirectSeries(fb[alpha], gb[beta], p)
              for alpha in range(p.m) for beta in range(p.l)}
    calls = [0]
    evaluate = gs.evaluate

    def counting(v, x, mu):
        calls[0] += 1
        return evaluate(v, x, mu)

    monkeypatch.setattr(gs, "evaluate", counting)
    for (alpha, beta), built in series.items():
        for delta in range(p.M):
            calls[0] = 0
            tensor_direct(fb[alpha], gb[beta], p, 0.3, delta)
            assert 0 < calls[0] <= 2 * (65 // p.L + 1)
            throwaway, calls[0] = calls[0], 0
            built.evaluate(0.3, delta)
            assert calls[0] == throwaway


def _old_pair_envelope(tf, tg, x, y, dx, dy):
    # the per-call term-pair envelope of the former tensor._q_sum, kept as a reference
    u_f, u_g = x - tf.x0, y - tg.x0
    sf, cf, sg, cg = tf.sigma.real, tf.c.real, tg.sigma.real, tg.c.real
    c0 = -(sf * u_f / 2 + cf) * u_f - (sg * u_g / 2 + cg) * u_g
    c0 += math.log(sum(map(abs, tf.poly)) * sum(map(abs, tg.poly)))
    deg_f, deg_g = len(tf.poly) - 1, len(tg.poly) - 1
    c0 += deg_f * abs(u_f) + deg_g * abs(u_g)
    b = -(sf * u_f + cf) * dx - (sg * u_g + cg) * dy
    return c0, b, (sf * dx * dx + sg * dy * dy) / 2, deg_f * abs(dx) + deg_g * abs(dy)


def _old_q_sum(f, g, p, z, delta, qmax):
    """The former tensor._q_sum, which set every class up again at each call,
    run on each one-term factor pair of f.terms x g.terms in that order, its
    class sums added into the one total that is checked for finiteness: the
    term-pair walk of DirectSeries.  Its class tails are _inline_log_tail,
    bit for bit the former _log_tail.
    """
    if qmax < 1:
        raise ValueError(f"qmax must be >= 1, got {qmax}")
    m, l, big_l = p.m, p.l, p.L
    a_delta = p.right.a * delta
    az = p.A * z
    f_q, f_delta = p.A / m, (p.l * p.A / (m * p.M)) * delta
    g_q, g_delta = p.B / l, (p.B / p.M) * delta
    dx, dy = -f_q * big_l, g_q * big_l
    total = 0j
    try:
        for tf, tg in itertools.product(f.terms, g.terms):
            f1, g1 = gs.PolyGaussVector(m, (tf,)), gs.PolyGaussVector(l, (tg,))
            mu, nu = tf.mu, tg.mu
            for q1 in range((a_delta - mu) % m, big_l, m):
                if q1 % l == nu:
                    break
            else:
                continue
            x, y = az - f_q * q1 + f_delta, az + g_q * q1 - g_delta
            envelopes = [_old_pair_envelope(tf, tg, x, y, dx, dy)]
            _, b, a, _ = envelopes[0]
            lo = hi = round(b / (2 * a))
            q = q1 + hi * big_l
            right = _inline_log_tail(envelopes, 1, hi + 1)
            left = _inline_log_tail(envelopes, -1, lo - 1)
            acc = 0j
            while True:
                if abs(q) > qmax:
                    raise NonConvergent(f"q-series not certified within |q| <= {qmax} "
                                        f"at z = {z}, delta = {delta}")
                acc += gs.evaluate(f1, az - f_q * q + f_delta, mu) * gs.evaluate(
                    g1, az + g_q * q - g_delta, nu)
                if max(right, left) <= math.log(
                        max(sys.float_info.min, 2.0**-53 * abs(acc)) / 2):
                    break
                if right >= left:
                    hi += 1
                    q, right = q1 + hi * big_l, _inline_log_tail(envelopes, 1, hi + 1)
                else:
                    lo -= 1
                    q, left = q1 + lo * big_l, _inline_log_tail(envelopes, -1, lo - 1)
            total += acc
        if not cmath.isfinite(total):
            raise OverflowError(f"non-finite sum {total}")
    except (ArithmeticError, ValueError) as exc:
        raise SeriesOverflow(
            f"tensor.DirectSeries.evaluate: {exc} at z = {z}, delta = {delta} of "
            f"({p.n}, {p.m}) x ({p.k}, {p.l}) at theta = {p.theta}"
        ) from exc
    return total


def _outcome(fn, *args):
    """repr of the value, or the type and text of the error it raised."""
    try:
        return repr(fn(*args))
    except (ArithmeticError, ValueError, NonConvergent, SeriesOverflow) as exc:
        return type(exc).__name__, str(exc)


# (n, m, k, l): r = 2 for the first two, so some (mu, nu) classes are empty
_SERIES_LABELS = ((1, 2, 1, 4), (1, 4, 1, 6), (1, 2, 1, 3), (3, 2, 2, 3), (2, 3, 3, 5))


@settings(max_examples=60)
@given(st.sampled_from(_SERIES_LABELS), st.sampled_from(("random", "zero", "overflow", "inf")),
       st.sampled_from((2, 16, tensor.DEFAULT_QMAX)), st.integers(0, 2**32 - 1))
def test_direct_series_is_bit_exact(label, kind, qmax, seed):
    # one series reused over shuffled (z, delta) gives every bit, and every
    # error text, of the former per-call q-sum over each term pair
    rng = random.Random(seed)
    p = product_params(*label, 0.2)
    if kind == "random":
        f, g = (random_vector(rng, p.m, nterms=3), random_vector(rng, p.l, nterms=3))
    elif kind == "zero":  # incompatible wherever a*delta is even when r = 2
        f, g = gs.gaussian(p.m, 1.0, mu=0), gs.gaussian(p.l, 1.0, mu=1)
    elif kind == "overflow":  # a summand or a term norm overflows: only that pair's calls raise
        f = gs.gaussian(p.m, 1.0, c=rng.choice((-30.0, -400.0)), mu=0)
        poly = rng.choice(((1 + 0j,), (1.5e308 + 1.5e308j,), ()))  # built raw: vector() rejects
        g = gs.PolyGaussVector(p.l, (gs.PolyGaussTerm(poly, 1 + 0j, 0j, 0),
                                     gs.PolyGaussTerm((1 + 0j,), 0.5 + 0j, 0j, 1)))
    else:  # a product of finite values overflows: the pair sums add up before the check
        f = gs.PolyGaussVector(p.m, (gs.PolyGaussTerm((1e200 + 0j,), 1 + 0j, 0j, 0),))
        g = gs.PolyGaussVector(p.l, (gs.PolyGaussTerm((1e200 + 0j,), 1 + 0j, 0j, 0),
                                     gs.PolyGaussTerm((1 + 1j,), 0.5 + 0j, 0j, 1)))
    points = [(z, delta) for delta in (-1, 0, p.M - 1, p.M, rng.randrange(p.M))
              for z in (-0.7, 0.0, rng.uniform(-1, 1))]
    rng.shuffle(points)
    series = DirectSeries(f, g, p, qmax)
    for z, delta in points:
        got = _outcome(series.evaluate, z, delta)
        assert got == _outcome(_old_q_sum, f, g, p, z, delta, qmax)
        if kind == "zero" and p.r == 2 and p.right.a * delta % 2 == 0:
            assert got == "0j"


def _inline_log_tail(envelopes, side, u):
    # the pair tails as _q_sum once computed them inline, kept as a reference
    worst = -math.inf
    for c0, b, a, k in envelopes:
        log_rho = k + side * b - a * (2 * side * u + 1)
        if not log_rho < 0:
            return math.inf
        log_tail = c0 + (b - a * u) * u + k * abs(u) - math.log(-math.expm1(log_rho))
        if log_tail > worst:
            worst = log_tail
    return worst + math.log(len(envelopes))


_ENVELOPE = st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(1e-3, 1e3),
                      st.floats(0, 50))


@settings(max_examples=300)
@given(_ENVELOPE, st.sampled_from((1, -1)), st.integers(-1000, 1000))
def test_log_tail_through_theta_is_bit_exact(envelope, side, u):
    # a pair's tails read theta.log_tail with side folded into b and u;
    # negation is exact, so every bit matches, inf included
    c0, b, a, k = envelope
    got = log_tail(c0, side * b, a, k, side * u)
    assert got.hex() == _inline_log_tail([envelope], side, u).hex()


def test_direct_sum_rejects_delta_outside_fundamental_range():
    # periodic extension is the business of verify_identities
    p = _canonical()
    fb, gb = _factor_bases(p)
    with pytest.raises(IndexOutOfRange):
        tensor_direct(fb[1], gb[2], p, 0.3, p.M)
    with pytest.raises(IndexOutOfRange):
        tensor_direct(fb[1], gb[2], p, 0.3, -1)


# ------------------------------------------------------------- closed form

def _closed_for(p, fb, gb):
    # every vector of a holomorphic basis shares sigma and c
    tf, tg = fb[0].terms[0], gb[0].terms[0]
    return tensor_gaussian_closed(tf.sigma, tf.c, tg.sigma, tg.c, p)


# ---------------------------------------- one pass per row, bit-exact

def _theta_args_ref(self, coefs, n):
    # the former ProductClosedForm.theta_args, kept as a reference
    kappa, lam, k0 = coefs
    p = self.params
    return -(kappa * n + lam) * (p.M * p.L) / TWO_PI_I, -(kappa * n / 2 + lam) * n - k0


def _peak_ref(self, coefs, n):
    # the former ProductClosedForm.peak, kept as a reference
    t, k = _theta_args_ref(self, coefs, n)
    u = round(-t.imag / self.s.imag)
    if u:
        t, k = _theta_args_ref(self, coefs, n + u * self.params.M * self.params.L)
    if not (cmath.isfinite(k) and abs(t.imag) <= self.s.imag):
        raise OverflowError(f"peak t = {t}, K = {k} is not reduced")
    return u, t, k


def _row_ref(self, alpha, beta, z, deltas):
    # the former ProductClosedForm.row, which called peak per entry, typing
    # a ValueError as SeriesOverflow as the row does
    from nctorus.tensor import _check_index
    from nctorus.theta import theta_truncated, truncation_radius
    p = self.params
    _check_index("alpha", alpha, p.m)
    _check_index("beta", beta, p.l)
    coefs = self.n_coefficients(z)
    q0s = [crt_q0(alpha, beta, rho, p) for rho in range(min(p.m, p.M))]
    peaks, failed, worst = [], None, 0.0
    for delta in deltas:
        _check_index("delta", delta, p.M)
        q0 = q0s[delta % p.m]
        if q0 is None:
            continue
        try:
            u, t, k = _peak_ref(self, coefs, p.M * q0 - p.l * delta)
        except (OverflowError, ValueError) as exc:
            failed = exc
            break
        peaks.append((delta, q0, u, t, k))
        worst = max(worst, abs(t.imag))
    radius, entries = truncation_radius(self.s, 1j * worst), []
    try:
        for at, q0, u, t, k in peaks:
            entries.append((at, q0, u, t, k, theta_truncated(self.s, t, radius, k)))
        if failed is not None:
            at = delta
            raise failed
    except (OverflowError, ValueError) as exc:
        raise SeriesOverflow(
            f"ProductClosedForm.row: {exc} at (alpha, beta) = ({alpha}, {beta}), "
            f"delta = {at}, z = {z} of {p}"
        ) from exc
    return entries, radius


def _check_row_against_reference(labels, theta, sigmas, cs, z):
    """Every row of the product against _row_ref; returns the rows' entries."""
    p = product_params(*labels, theta)
    form = tensor_gaussian_closed(sigmas[0], cs[0], sigmas[1], cs[1], p)
    rows = []
    for alpha in range(p.m):
        for beta in range(p.l):
            row = _outcome(form.row, alpha, beta, z, range(p.M))
            assert row == _outcome(_row_ref, form, alpha, beta, z, range(p.M))
            if isinstance(row, str):
                rows.append(form.row(alpha, beta, z, range(p.M))[0])
    return rows


_LABELS = st.sampled_from([(1, 2, 1, 3), (1, 2, 1, 4), (3, 2, 1, 2), (1, 4, 1, 6), (1, 3, 2, 3),
                           (-1, 2, 2, 1), (1, 3, 2, 5)])
_WIDTHS = st.builds(complex, st.floats(0.3, 2.0), st.floats(-0.5, 0.5))
# offsets up to ones whose reduction keeps no digit (K = nan) or overflows
_OFFSETS = st.builds(lambda x, y, scale: complex(x, y) * scale, st.floats(-1, 1),
                     st.floats(-1, 1), st.sampled_from((1.0, 30.0, 400.0, 1e200, 1e308)))


@settings(max_examples=60)
@given(_LABELS, st.sampled_from((0.2, math.sqrt(2) - 1, 0.05)), st.tuples(_WIDTHS, _WIDTHS),
       st.tuples(_OFFSETS, _OFFSETS), st.sampled_from((0.0, -0.0, 0.3, -0.8, 2.5)))
@example((1, 2, 1, 3), 0.2, (1.2 + 0j, 0.8 + 0j), (0.1 + 0j, 1e308j), 0.0)
@example((1, 2, 1, 3), 0.2, (1.2 + 0j, 0.8 + 0j), (400j, 0j), 0.0)
def test_row_matches_the_former_peak_bit_for_bit(labels, theta, sigmas, cs, z):
    # the row reduces each entry inline: (delta, q0, u, t, K, value), the
    # radius and every overflow text are those of the former peak and
    # theta_args, at u != 0, r > 1 and z != 0 alike
    _check_row_against_reference(labels, theta, sigmas, cs, z)


def test_row_reference_cases_reach_every_branch():
    # a row at z != 0 with r = gcd(m, l) = 2, where entries move their
    # representative (u != 0) and others keep it
    rows = _check_row_against_reference((1, 2, 1, 4), 0.2, (1.1 + 0.2j, 0.9 - 0.1j),
                                        (0.3 - 0.2j, 0.1j), 0.3)
    us = {entry[2] for row in rows for entry in row}
    assert product_params(1, 2, 1, 4, 0.2).r == 2
    assert 0 in us and us - {0}


def test_closed_form_matches_direct_sum():
    rng = random.Random(53)
    p = _canonical()
    for _ in range(6):
        sigma1 = complex(rng.uniform(0.7, 1.5), rng.uniform(-0.3, 0.3))
        sigma2 = complex(rng.uniform(0.7, 1.5), rng.uniform(-0.3, 0.3))
        c1 = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        c2 = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        alpha, beta = rng.randrange(2), rng.randrange(3)
        form = tensor_gaussian_closed(sigma1, c1, sigma2, c2, p)
        from nctorus.gaussians import gaussian
        f = gaussian(2, sigma1, c=c1, mu=alpha)
        g = gaussian(3, sigma2, c=c2, mu=beta)
        for z in (-0.8, 0.0, 0.45):
            for delta in range(p.M):
                want = tensor_direct(f, g, p, z, delta)
                got = form.evaluate(alpha, beta, z, delta)
                assert abs(got - want) <= 1e-11 * (1 + abs(want))


def test_closed_form_with_negative_B():
    # the q-series and the theta form agree even off the positive cone
    p = product_params(1, 2, 1, 3, math.sqrt(2) - 1)
    assert p.B < 0
    from nctorus.gaussians import gaussian
    f = gaussian(2, 1.1, c=0.2, mu=0)
    g = gaussian(3, 0.9, c=-0.1j, mu=1)
    form = tensor_gaussian_closed(1.1, 0.2, 0.9, -0.1j, p)
    for z in (0.0, 0.6):
        want = tensor_direct(f, g, p, z, 2)
        got = form.evaluate(0, 1, z, 2)
        assert abs(got - want) <= 1e-11 * (1 + abs(want))


def test_closed_form_modulus_always_upper_half():
    rng = random.Random(55)
    for theta in (0.2, math.sqrt(2) - 1, 0.7):
        p = product_params(1, 2, 1, 3, theta)
        sigma1 = complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5))
        sigma2 = complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5))
        form = tensor_gaussian_closed(sigma1, 0, sigma2, 0, p)
        assert form.s.imag > 0


def test_closed_form_q0_shift_consistency():
    # moving the representative q by the lattice period L moves t by s and
    # relabels the terms, so exp(K)*Theta(s, t) does not change
    from nctorus.theta import theta
    p = _canonical()
    form = tensor_gaussian_closed(1.2, 0.1, 0.8, -0.2, p)
    q0 = form.q0(0, 0, 1)
    coefs = form.n_coefficients(0.3)
    t, k = _theta_args_ref(form, coefs, p.M * q0 - p.l)
    t_next, k_next = _theta_args_ref(form, coefs, p.M * (q0 + p.L) - p.l)
    assert abs(t_next - t - form.s) < 1e-13 * abs(form.s)
    value = theta(form.s, t, k=k)
    assert abs(theta(form.s, t_next, k=k_next) - value) <= 1e-13 * abs(value)
    u, t_peak, k_peak = _peak_ref(form, coefs, p.M * q0 - p.l)
    assert abs(t_peak.imag) <= form.s.imag / 2
    # the peak is one integer N, whichever representative it is reached from
    assert _peak_ref(form, coefs, p.M * (q0 + 3 * p.L) - p.l) == (u - 3, t_peak, k_peak)
    assert abs(theta(form.s, t_peak, k=k_peak) - value) <= 1e-13 * abs(value)
    # a one-entry row takes the entry's own radius, as theta() does
    assert form.evaluate(0, 0, 0.3, 1) == theta(form.s, t_peak, k=k_peak)


def test_closed_form_unsolvable_is_exact_zero():
    p = product_params(1, 2, 1, 2, 0.2)
    form = tensor_gaussian_closed(1.0, 0.0, 1.0, 0.0, p)
    assert form.q0(0, 1, 0) is None
    assert form.evaluate(0, 1, 0.3, 0) == 0j
    # the q-series vanishes exactly too: every summand has a factor on an
    # empty component, so it is an exact zero
    from nctorus.gaussians import gaussian
    f = gaussian(2, 1.0, mu=0)
    g = gaussian(2, 1.0, mu=1)
    assert tensor_direct(f, g, p, 0.3, 0) == 0j


def test_closed_form_validation():
    p = _canonical()
    with pytest.raises(InvalidSigma):
        tensor_gaussian_closed(-1.0, 0, 1.0, 0, p)
    with pytest.raises(InvalidSigma):
        tensor_gaussian_closed(1.0, 0, -1.0, 0, p)
    with pytest.raises(InvalidSigma):
        tensor_gaussian_closed(float("nan"), 0, 1.0, 0, p)
    form = tensor_gaussian_closed(1.0, 0, 1.0, 0, p)
    calls = (form.q0, lambda a, b, d: form.evaluate(a, b, 0.3, d),
             lambda a, b, d: form.row(a, b, 0.3, [d]))
    # alpha is checked before beta and beta before delta, whatever the later
    # indices are; q0 is not M-periodic in delta, so delta = -1 must not
    # read the q0 of delta = M - 1
    cases = [((2, 3, p.M), "alpha = 2 outside range(0, 2)"),
             ((-1, 0, 0), "alpha = -1 outside range(0, 2)"),
             ((1, 3, -1), "beta = 3 outside range(0, 3)"),
             ((0, -1, 0), "beta = -1 outside range(0, 3)"),
             ((1, 2, p.M), "delta = 5 outside range(0, 5)"),
             ((0, 0, -1), "delta = -1 outside range(0, 5)")]
    for (alpha, beta, delta), text in cases:
        for call in calls:
            with pytest.raises(IndexOutOfRange) as info:
                call(alpha, beta, delta)
            assert str(info.value) == text
    # a row checks its pair before its deltas, even when it has none
    with pytest.raises(IndexOutOfRange, match="^beta = 3 "):
        form.row(0, 3, 0.3, [])


@pytest.mark.parametrize("labels", [(1, 2, 14, 1), (3, 2, 1, 2)])
def test_one_form_gives_every_row(labels):
    # one form per product: its row of each pair at z = 0 is the table's row,
    # bit for bit, and its q0 the congruence representative at every index;
    # r = 2 at (3, 2) x (1, 2) leaves incompatible (empty) q0 cells
    p = product_params(*labels, 0.2)
    cs = ComplexStructure(tau=-1j)
    sc = structure_constants(p, cs)
    sigma1, sigma2, c = tensor.holomorphic_factors(p, cs)
    form = tensor_gaussian_closed(sigma1, c, sigma2, c, p)
    assert form.s == sc.s
    empty = 0
    for alpha in range(p.m):
        for beta in range(p.l):
            entries, radius = form.row(alpha, beta, 0.0, range(p.M))
            assert (radius, entries) == sc.rows[alpha, beta]
            for delta in range(p.M):
                q0 = form.q0(alpha, beta, delta)
                assert q0 == crt_q0(alpha, beta, delta, p)
                empty += q0 is None
    assert (empty > 0) == (p.r == 2)


# ---------------------------------------------------------- identification

def test_generator_identification():
    p = _canonical()
    fb, gb = _factor_bases(p)
    assert verify_identities(fb[0], gb[0], p)["identification_u1"] < 1e-9
    assert verify_identities(fb[1], gb[2], p)["identification_u2"] < 1e-9


def test_identification_with_vanishing_B():
    # k - l*theta = 0 is admitted by product_params, though module_tag rejects it
    from nctorus.gaussians import gaussian
    p = product_params(1, 2, 1, 2, 0.5)
    assert p.B == 0
    f = gaussian(2, 1.1, c=0.2, mu=0)
    g = gaussian(2, 0.9, c=-0.1j, mu=1)
    assert verify_identities(f, g, p)["identification_u1"] <= 1e-9


def test_delta_period_and_z_covariance():
    p = _canonical()
    fb, gb = _factor_bases(p)
    res = verify_identities(fb[0], gb[1], p)
    assert res["delta_periodicity"] < 1e-9
    assert res["z1_covariance"] < 1e-9
    assert res["z2_covariance"] < 1e-9


def _reference_residual(p, sides):
    """max |lhs - rhs| / (1 + max |lhs|) of one identity over the whole probe grid."""
    worst = ref = 0.0
    for z in tensor.PROBE_ZS:
        for delta in range(p.M):
            lhs, rhs = sides(z, delta)
            worst = max(worst, abs(lhs - rhs))
            ref = max(ref, abs(lhs))
    return worst / (1 + ref)


def _reference_identities(f, g, p):
    """The former verify_identification, verify_delta_period and
    verify_z_covariance: each identity in its own pass, h(z, delta) summed twice."""
    qmax = tensor.DEFAULT_QMAX

    def q_sum(f, g, p, z, delta, qmax):
        return DirectSeries(f, g, p, qmax).evaluate(z, delta)

    res = {}
    for name, act in (("identification_u1", act_U1), ("identification_u2", act_U2)):
        fu, gu = act(f, p.right), act(g, p.left)
        res[name] = _reference_residual(
            p, lambda z, d: (q_sum(fu, g, p, z, d, qmax), q_sum(f, gu, p, z, d, qmax)))
    res["delta_periodicity"] = _reference_residual(
        p, lambda z, d: (q_sum(f, g, p, z, d, qmax), q_sum(f, g, p, z, d + p.M, qmax)))
    z1f, z2f = act_Z1(f, p.right), act_Z2(f, p.right)
    shift_z = -p.N_prime / p.M + p.theta_prime
    res["z1_covariance"] = _reference_residual(p, lambda z, d: (
        q_sum(z1f, g, p, z, d, qmax), q_sum(f, g, p, z + shift_z, d - 1, qmax)))
    res["z2_covariance"] = _reference_residual(p, lambda z, d: (
        q_sum(z2f, g, p, z, d, qmax),
        cmath.exp(tensor.TWO_PI_I * (z - p.N_prime * d / p.M)) * q_sum(f, g, p, z, d, qmax)))
    return res


def test_verify_identities_is_bit_exact():
    # one pass that sums the shared h(z, delta) once gives every residual,
    # in name and order, bit for bit as five passes of one identity each
    rng = random.Random(58)
    cases = [(*label, theta)
             for label in ((1, 2, 1, 3), (3, 2, 2, 3), (1, 4, 2, 3), (1, 3, 2, 5), (2, 3, 3, 5))
             for theta in (0.2, math.sqrt(2) - 1)]
    # k - l*theta = 0 at (1,2)x(1,2), and the small left denominator of (0,1)x(8,1)
    cases += [(1, 2, 1, 2, 0.5), (0, 1, 8, 1, 0.2)]
    for n, m, k, l, theta in cases:
        # some pairs have B < 0 at sqrt2-1, as in the CLI's identity stage
        p = product_params(n, m, k, l, theta)
        f, g = random_gaussian(rng, m), random_gaussian(rng, l)
        got = verify_identities(f, g, p)
        want = _reference_identities(f, g, p)
        assert list(got) == list(want)
        assert got == want
    with pytest.raises(DimensionMismatch):
        verify_identities(gs.gaussian(3, 1.0), gs.gaussian(3, 1.0), _canonical())


# ------------------------------------------------------------ theta basis

def test_product_sigma_oracle():
    # (1,2) x (1,3) at theta = 0.2, tau = -i: i tau M A / B = 5*1.4/0.4
    p = _canonical()
    cs = ComplexStructure(tau=-1j)
    assert abs(product_basis(p, cs)[0].terms[0].sigma - 17.5) < 1e-12


@pytest.mark.parametrize("cs", [ComplexStructure(tau=-1j),
                                ComplexStructure(0.3 - 1.2j, 0.1 + 0.2j, -0.3 + 0.1j)],
                         ids=["tau=-i", "offsets"])
def test_holomorphic_factors_are_the_basis_data(cs):
    # on the cone, (sigma1, sigma2, c) are, bit for bit, the width and offset
    # of every holomorphic basis vector of either factor, so the CLI's tensor
    # may build its two Gaussians from them; off it both reject the label
    on_cone = 0
    for label in ((1, 2, 1, 3), (3, 2, 2, 3), (1, 4, 2, 3), (1, 3, 2, 5), (2, 3, 3, 5)):
        for theta in (0.2, math.sqrt(2) - 1):
            p = product_params(*label, theta)
            if p.B < 0:
                with pytest.raises(SignAssumptionViolated):
                    tensor.holomorphic_factors(p, cs)
                with pytest.raises(NoHolomorphicVectors):
                    holomorphic_basis(p.left, cs)
                continue
            f = holomorphic_basis(p.right, cs)[0].terms[0]
            g = holomorphic_basis(p.left, cs)[0].terms[0]
            # repr tells -0.0 from 0.0
            want = repr((f.sigma, g.sigma, cs.offset))
            assert repr(tensor.holomorphic_factors(p, cs)) == want
            assert repr(f.c) == repr(g.c) == repr(cs.offset)
            on_cone += 1
    assert on_cone == 8


def test_product_basis_layout():
    p = _canonical()
    cs = ComplexStructure(tau=-1j)
    basis = product_basis(p, cs)
    assert len(basis) == p.M
    assert [v.terms[0].mu for v in basis] == list(range(p.M))
    widths = {v.terms[0].sigma for v in basis}
    assert len(widths) == 1
    assert widths.pop().real > 0


# ------------------------------------------------------ structure constants

def test_structure_constants_shape_and_zeros():
    p = product_params(1, 2, 1, 2, 0.2)
    cs = ComplexStructure(tau=-1j)
    sc = structure_constants(p, cs)
    assert sc.shape == (2, 2, 4)
    for alpha in range(2):
        for beta in range(2):
            for gamma in range(4):
                solvable = crt_q0(alpha, beta, gamma, p) is not None
                assert (sc.value(alpha, beta, gamma) != 0) == solvable


def test_structure_constants_value_rejects_indices_outside_the_shape():
    sc = structure_constants(_canonical(), ComplexStructure(tau=-1j))
    assert sc.value(1, 2, 4) == sc.values[1][2][4]
    for index in ((2, 0, 0), (0, 3, 0), (0, 0, 5), (-1, 0, 0), (0, 0, -1)):
        with pytest.raises(IndexOutOfRange) as info:
            sc.value(*index)
        assert str(info.value) == f"{index} outside shape (2, 3, 5)"


def test_structure_constants_provenance_reproduces_values():
    from nctorus.theta import theta_truncated, truncation_radius
    p = _canonical()
    cs = ComplexStructure(tau=-1j)
    sc = structure_constants(p, cs)
    fb, gb = _factor_bases(p)
    form = _closed_for(p, fb, gb)
    coefs = form.n_coefficients(0.0)
    for (alpha, beta), (radius, entries) in sc.rows.items():
        for gamma, q0, u, t, k, value in entries:
            assert theta_truncated(sc.s, t, radius, k) == value == sc.value(alpha, beta, gamma)
            assert radius >= truncation_radius(sc.s, t)
            assert q0 == crt_q0(alpha, beta, gamma, p)
            # (t, K) are those at q = q0 + u*L, a member of q0's class mod L
            q = q0 + u * p.L
            assert _theta_args_ref(form, coefs, p.M * q - p.l * gamma) == (t, k)


def test_structure_constants_reconstruct_products():
    p = _canonical()
    cs = ComplexStructure(tau=-1j)
    sc = structure_constants(p, cs)
    fb, gb = _factor_bases(p)
    phis = product_basis(p, cs)
    cmax = max(abs(v) for row in sc.values for col in row for v in col)
    from nctorus.gaussians import evaluate
    for alpha in range(p.m):
        for beta in range(p.l):
            for z in (0.0, 0.45):
                for gamma in range(p.M):
                    want = tensor_direct(fb[alpha], gb[beta], p, z, gamma)
                    got = sc.value(alpha, beta, gamma) * evaluate(phis[gamma], z, gamma)
                    assert abs(got - want) <= 1e-9 * (1 + cmax)


def test_structure_constants_ratio_is_z_independent():
    p = _canonical()
    cs = ComplexStructure(tau=-1j)
    fb, gb = _factor_bases(p)
    phis = product_basis(p, cs)
    form = _closed_for(p, fb, gb)
    from nctorus.gaussians import evaluate
    gamma = 3
    ratios = [form.evaluate(1, 2, z, gamma) / evaluate(phis[gamma], z, gamma)
              for z in (-0.4, 0.0, 0.55)]
    for r in ratios[1:]:
        assert abs(r - ratios[0]) <= 1e-9 * (1 + abs(ratios[0]))


def test_structure_constants_need_matching_tau_sign():
    p = _canonical()
    with pytest.raises(NoHolomorphicVectors, match="must both have positive real part"):
        structure_constants(p, ComplexStructure(tau=1j))


def test_table_path_needs_a_nonzero_left_denominator():
    # product_params admits k - l*theta = 0, where the holomorphic widths would
    # divide by zero; the holomorphic data reject it as off the cone
    p = product_params(1, 2, 1, 2, 0.5)
    for build in (structure_constants, product_basis):
        with pytest.raises(SignAssumptionViolated) as info:
            build(p, ComplexStructure(tau=-1j))
        assert str(info.value) == "need n + m*theta > 0 and k - l*theta > 0, got 2 and 0"


def test_structure_constants_overflow_is_typed():
    # a connection offset of 400/(2*pi) puts the products past double range;
    # the error names the entry
    p = _canonical()
    with pytest.raises(SeriesOverflow) as info:
        structure_constants(p, ComplexStructure(tau=-1j, c1=400j))
    assert isinstance(info.value.__cause__, OverflowError)
    assert str(info.value).startswith("ProductClosedForm.row:")
    assert "(alpha, beta) = (0, 0), delta = 0, z = 0.0" in str(info.value)
    assert "(1, 2) x (1, 3)" in str(info.value)


def test_table_and_single_value_raise_the_same_overflow():
    # the table's first row and evaluate at its first entry are the same row
    # of pair (0, 0) at z = 0: one failing entry, one error text
    p = _canonical()
    cs = ComplexStructure(-1j, c1=400j)
    form = _closed_for(p, holomorphic_basis(p.right, cs), holomorphic_basis(p.left, cs))
    errors = []
    for call in (lambda: structure_constants(p, cs), lambda: form.evaluate(0, 0, 0.0, 0)):
        with pytest.raises(SeriesOverflow) as info:
            call()
        assert isinstance(info.value.__cause__, OverflowError)
        errors.append(str(info.value))
    assert errors[0] == errors[1]
    assert errors[0].startswith("ProductClosedForm.row: ")
    assert errors[0].endswith(
        " at (alpha, beta) = (0, 0), delta = 0, z = 0.0 of (1, 2) x (1, 3) at theta = 0.2")


@pytest.mark.parametrize("sum_fails, gamma", [(True, 1), (False, 3)])
def test_structure_constants_report_the_first_failing_entry(monkeypatch, sum_fails, gamma):
    # a row reduces every entry to its peak before it sums any: a reduction
    # that fails at gamma = 3 is reported unless the sum of an earlier entry
    # fails first, and the row of pair (0, 0) at z = 0 reports it as delta =
    # gamma.  Each reduction rounds -Im t/Im s once, so a failing round is a
    # failing reduction, as round of an infinite ratio is.
    calls = {"peak": 0, "sum": 0}
    theta_truncated = tensor.theta_truncated

    def failing_round(x):
        calls["peak"] += 1
        if calls["peak"] == 4:
            raise OverflowError("peak fails")
        return round(x)

    def failing_sum(*args):
        calls["sum"] += 1
        if sum_fails and calls["sum"] == 2:
            raise OverflowError("sum fails")
        return theta_truncated(*args)

    monkeypatch.setattr(tensor, "round", failing_round, raising=False)
    monkeypatch.setattr(tensor, "theta_truncated", failing_sum)
    with pytest.raises(SeriesOverflow) as info:
        structure_constants(_canonical(), ComplexStructure(tau=-1j))
    what = "sum fails" if sum_fails else "peak fails"
    assert isinstance(info.value.__cause__, OverflowError)
    assert str(info.value) == (f"ProductClosedForm.row: {what} at (alpha, beta) = (0, 0), "
                               f"delta = {gamma}, z = 0.0 of (1, 2) x (1, 3) at theta = 0.2")


def test_row_stops_at_the_first_failing_sum(monkeypatch):
    # every delta of (0, 0) in (1, 2) x (1, 3) is compatible: the sum at
    # delta = 2 fails, so the row raises there after summing deltas 0 and 1,
    # and sums nothing after
    p = _canonical()
    cs = ComplexStructure(tau=-1j)
    form = _closed_for(p, holomorphic_basis(p.right, cs), holomorphic_basis(p.left, cs))
    want, _ = form.row(0, 0, 0.3, range(p.M))
    sums, theta_truncated = [], tensor.theta_truncated

    def failing_sum(s, t, radius, k):
        sums.append(t)
        if len(sums) == 3:
            raise OverflowError("sum fails")
        return theta_truncated(s, t, radius, k)

    monkeypatch.setattr(tensor, "theta_truncated", failing_sum)
    with pytest.raises(SeriesOverflow) as info:
        form.row(0, 0, 0.3, range(p.M))
    assert str(info.value.__cause__) == "sum fails"
    assert str(info.value).startswith("ProductClosedForm.row: sum fails at (alpha, beta) = "
                                      "(0, 0), delta = 2, z = 0.3 of ")
    assert sums == [t for _, _, _, t, _, _ in want[:3]]


@pytest.mark.parametrize("c1, c2, delta, what", [
    (0.1, 1e308j, 1, "math domain error"),  # cmath.exp of an inf - inf exponent in the sum
    (1e308j, 1e308, 0, "cannot convert float NaN to integer"),  # round of a nan ratio
])
def test_row_types_a_value_error(c1, c2, delta, what):
    # both were a bare ValueError; the row now names the entry, as for an overflow
    form = tensor_gaussian_closed(1.2, c1, 0.8, c2, _canonical())
    with pytest.raises(SeriesOverflow) as info:
        form.row(0, 0, 0.0, range(5))
    assert isinstance(info.value.__cause__, ValueError)
    assert str(info.value) == (f"ProductClosedForm.row: {what} at (alpha, beta) = (0, 0), "
                               f"delta = {delta}, z = 0.0 of (1, 2) x (1, 3) at theta = 0.2")


def test_closed_form_evaluate_overflow_is_typed():
    # the same product overflows in the closed form of one component pair
    p = _canonical()
    cs = ComplexStructure(tau=-1j, c1=400j)
    fb, gb = holomorphic_basis(p.right, cs), holomorphic_basis(p.left, cs)
    form = _closed_for(p, fb, gb)
    with pytest.raises(SeriesOverflow) as info:
        form.evaluate(0, 0, 0.0, 1)
    assert isinstance(info.value.__cause__, OverflowError)
    text = str(info.value)
    assert text.startswith("ProductClosedForm.row:")
    assert "(alpha, beta) = (0, 0), delta = 1, z = 0.0" in text
    assert "(1, 2) x (1, 3)" in text
    assert f"theta = {p.theta}" in text


def test_direct_sum_overflow_is_typed():
    # at c1 = 400i a summand overflows; at c1 = 280i, z = -7 every summand is
    # finite but their sum is not: both name the stage, the point and labels
    p = _canonical()
    for c1, z, delta, what in ((400j, 0.0, 0, "math range error"),
                               (280j, -7.0, 1, "non-finite sum (inf+0j)")):
        cs = ComplexStructure(tau=-1j, c1=c1)
        fb, gb = holomorphic_basis(p.right, cs), holomorphic_basis(p.left, cs)
        with pytest.raises(SeriesOverflow) as info:
            tensor_direct(fb[0], gb[0], p, z, delta)
        assert isinstance(info.value.__cause__, OverflowError)
        assert str(info.value) == (
            f"tensor.DirectSeries.evaluate: {what} at z = {z}, delta = {delta} of (1, 2) x (1, 3) "
            f"at theta = {p.theta}"
        )


def test_closed_form_at_large_modulus():
    # Im(s) ~ 160 at (2,5)x(3,7), sqrt2-1: exp(2*pi*i*t*u) and exp(K) apart
    # overflow, the terms exp(pi*i*s*u**2 + 2*pi*i*t*u + K) do not
    p = product_params(2, 5, 3, 7, math.sqrt(2) - 1)
    fb, gb = _factor_bases(p)
    form = _closed_for(p, fb, gb)
    assert form.s.imag > 150
    for delta in (0, 1, p.M - 1):
        want = tensor_direct(fb[0], gb[0], p, 0.0, delta)
        assert abs(form.evaluate(0, 0, 0.0, delta) - want) <= 1e-10 * (1 + abs(want))
