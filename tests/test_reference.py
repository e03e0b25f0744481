"""Arbitrary-precision referees for the theta series and the structure constants.

Theta(s, t) = sum_u exp(pi*i*s*u**2 + 2*pi*i*t*u) is evaluated independently
as an explicit sum at 50 significant digits over the terms within a
certified radius of the largest one.  Each structure constant is checked
against a second referee that knows nothing of the closed form: the
Gaussian summand f(X(q))*g(Y(q)) of the product, summed in mpmath over
its congruence class; at z != 0 the same referee checks the direct
q-sum of the library.  A third referee evaluates a polynomial Gaussian
vector at a translated point, for the translations of the module actions.
"""

import math
import random

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nctorus.connections import ComplexStructure, holomorphic_basis
from nctorus.gaussians import evaluate, gaussian, translate
from nctorus.tensor import (
    PROBE_ZS,
    product_params,
    structure_constants,
    tensor_direct,
    tensor_gaussian_closed,
    verify_identities,
)
from nctorus.theta import DEFAULT_EPS, theta, theta_truncated, truncation_radius

from conftest import random_gaussian, random_vector
from test_tensor import _theta_args_ref

mpmath.mp.dps = 50

# Worst relative error measured: 1.4e-14 for the entries of the eight valid
# benchmark points, 5.5e-14 at the three large-Im(s) points, 8.8e-15 for
# theta alone.
REL_TOL = 1e-13
# Worst relative error of the direct q-sum measured over the eight valid
# benchmark points x PROBE_ZS x every delta and component pair: 2.6e-14,
# both for doubled shells of q and for the walk outward from the peak.
DIRECT_REL_TOL = 4e-14
# Discarded tail of the theta referee sum, relative to its largest term.
TAIL_RATIO = 1e-40
# The entry referee needs only to resolve REL_TOL, so it runs at 30 digits.
ENTRY_DPS = 30
ENTRY_TAIL_RATIO = 1e-25

# Rounding allowance of the closed form per unit of its largest exponent
# piece; derived in the docstring of test_closed_form_sweep.
ROUNDING_C = 257
SWEEP_MAX_M = 60

PAIRS = ((1, 2, 1, 3), (3, 2, 2, 3), (1, 4, 2, 3), (1, 3, 2, 5), (2, 3, 3, 5))
THETAS = (0.2, math.sqrt(2) - 1)


def _window(a, centre, tail_ratio):
    """Integers u with |u - centre| <= rho, for terms proportional to exp(-a*(u - centre)**2).

    The largest term is u* = nint(centre), |u* - centre| <= 1/2 <= rho.  On
    each side the discarded terms lie at distances of at least rho, rho + 1,
    ..., so relative to the peak term the tail is at most
    2*exp(-a*(rho**2 - 1/4))/(1 - exp(-a*(2*rho + 1))).  rho is read off
    that Gaussian envelope (peak-centred truncation, Deconinck et al.,
    "Computing Riemann theta functions", Math. Comp. 73, 2004).
    """
    a, centre = float(a), mpmath.mpf(centre)
    rho = math.sqrt(math.log(4 / tail_ratio) / a + 0.25)
    tail = 2 * math.exp(-a * (rho * rho - 0.25)) / (1 - math.exp(-a * (2 * rho + 1)))
    assert tail < tail_ratio
    return range(int(mpmath.ceil(centre - rho)), int(mpmath.floor(centre + rho)) + 1)


def _theta_ref(s: complex, t: complex) -> mpmath.mpc:
    """Theta(s, t) summed over the certified window around its peak term.

    |term(u)| is proportional to exp(-pi*Im(s)*(u + Im(t)/Im(s))**2).
    """
    s, t = mpmath.mpc(s), mpmath.mpc(t)
    return mpmath.fsum(
        mpmath.exp(1j * mpmath.pi * s * u * u + 2j * mpmath.pi * t * u)
        for u in _window(mpmath.pi * s.imag, -t.imag / s.imag, TAIL_RATIO)
    )


def _entry_refs(p, f, g, z=0.0) -> list[mpmath.mpc | None]:
    """h(z, gamma) of f (x) g summed over q for each gamma; None if no q is admissible.

    The formula of the tensor module docstring at real z: the summand is
    f(X) * g(Y) with X = A*z - (A/m)*q + (l*A/(m*M))*gamma and
    Y = A*z + (B/l)*q - (B/M)*gamma, over q = a*gamma - alpha (mod m),
    q = beta (mod l), for single-term Gaussians f on component alpha and
    g on component beta.  The admissible q are found by trying each
    residue mod m*l; they are q_c + j*L with L = lcm(m, l).  The exponent
    E(q) of the summand has Re E(q) = -w*q**2 + v*q + const, so along the
    class the terms are proportional to exp(-w*L**2*(j - centre)**2).
    """
    (tf,), (tg,) = f.terms, g.terms
    assert tf.poly == tg.poly == (1,)
    m, l, big_l = f.m, g.m, math.lcm(f.m, g.m)
    refs = []
    with mpmath.workdps(ENTRY_DPS):
        big_a, big_b, z = mpmath.mpf(p.A), mpmath.mpf(p.B), mpmath.mpf(z)
        sf, cf = mpmath.mpc(tf.sigma), mpmath.mpc(tf.c)
        sg, cg = mpmath.mpc(tg.sigma), mpmath.mpc(tg.c)
        hf, hg = -sf / 2, -sg / 2
        x1, y1 = -big_a / m, big_b / l
        w = mpmath.re(sf * x1 * x1 + sg * y1 * y1) / 2
        for gamma in range(p.M):
            hits = [q for q in range(m * l) if (p.right.a * gamma - tf.mu - q) % m == 0
                    and (q - tg.mu) % l == 0]
            if not hits:
                refs.append(None)
                continue
            x0 = big_a * z + l * big_a * gamma / (m * p.M)
            y0 = big_a * z - big_b * gamma / p.M

            def summand(q):
                # f(X)*g(Y) = exp(-sigma_f*X**2/2 - c_f*X - sigma_g*Y**2/2 - c_g*Y)
                x, y = x1 * q + x0, y1 * q + y0
                return mpmath.exp(x * (hf * x - cf) + y * (hg * y - cg))

            v = -mpmath.re(sf * x1 * x0 + cf * x1 + sg * y1 * y0 + cg * y1)
            js = _window(w * big_l**2, (v / (2 * w) - hits[0]) / big_l, ENTRY_TAIL_RATIO)
            refs.append(+mpmath.fsum(summand(hits[0] + j * big_l) for j in js))
    return refs


def _jtheta(s: complex, t: complex) -> mpmath.mpc:
    return mpmath.jtheta(3, mpmath.pi * mpmath.mpc(t), mpmath.exp(1j * mpmath.pi * mpmath.mpc(s)))


def _rel(got: complex, want: mpmath.mpc) -> float:
    return float(abs(mpmath.mpc(got) - want) / abs(want))


def _valid_points():
    for n, m, k, l in PAIRS:
        for th in THETAS:
            if k - l * th > 0:
                yield pytest.param(n, m, k, l, th, id=f"({n},{m})x({k},{l})@{th:.4f}")


def _check_table(n, m, k, l, th):
    p = product_params(n, m, k, l, th)
    cs = ComplexStructure(-1j)
    sc = structure_constants(p, cs)
    fb, gb = holomorphic_basis(p.right, cs), holomorphic_basis(p.left, cs)
    worst = 0.0
    for alpha in range(m):
        for beta in range(l):
            refs = _entry_refs(p, fb[alpha], gb[beta])
            gammas = {gamma for gamma, *_ in sc.rows[alpha, beta][1]}
            for gamma, want in enumerate(refs):
                got = sc.values[alpha][beta][gamma]
                if want is None:
                    assert got == 0j and gamma not in gammas
                    continue
                assert gamma in gammas
                worst = max(worst, _rel(got, want))
    assert any(entries for _, entries in sc.rows.values())
    assert worst <= REL_TOL
    return sc


def test_eight_valid_benchmark_points():
    assert len(list(_valid_points())) == 8


@pytest.mark.parametrize("n, m, k, l, th", _valid_points())
def test_structure_constants_against_referee(n, m, k, l, th):
    sc = _check_table(n, m, k, l, th)
    for _, entries in sc.rows.values():
        for _, _, _, t, _, _ in entries:
            ref = _theta_ref(sc.s, t)
            assert _rel(theta(sc.s, t), ref) <= REL_TOL
            # Away from the jtheta defect below, the two references agree.
            assert _rel(_jtheta(sc.s, t), ref) <= 1e-40


@pytest.mark.parametrize("n, m, k, l, th, zs", [
    # two of the six probe points per label pair, each probe point on two or three pairs
    pytest.param(*point.values, PROBE_ZS[i % 3::3], id=point.id)
    for i, point in enumerate(_valid_points())
])
def test_direct_sum_against_referee(n, m, k, l, th, zs):
    # the direct q-sum at z != 0, every component pair and every delta
    p = product_params(n, m, k, l, th)
    cs = ComplexStructure(-1j)
    fb, gb = holomorphic_basis(p.right, cs), holomorphic_basis(p.left, cs)
    worst = 0.0
    for alpha in range(m):
        for beta in range(l):
            for z in zs:
                for delta, want in enumerate(_entry_refs(p, fb[alpha], gb[beta], z)):
                    got = tensor_direct(fb[alpha], gb[beta], p, z, delta)
                    if want is None:
                        assert got == 0j
                        continue
                    worst = max(worst, _rel(got, want))
    assert worst <= DIRECT_REL_TOL


def test_referee_keeps_the_term_jtheta_drops():
    # Entry (2, 3, 27) of (2,5)x(3,7) at 0.2 with (t, K) built at the
    # congruence representative q0 = 24: Im t is about Im s/2, so the u = 0
    # and u = -1 terms are about equal and jtheta returns the u = 0 term.
    p = product_params(2, 5, 3, 7, 0.2)
    cs = ComplexStructure(-1j)
    f = holomorphic_basis(p.right, cs)[2].terms[0]
    g = holomorphic_basis(p.left, cs)[3].terms[0]
    form = tensor_gaussian_closed(f.sigma, f.c, g.sigma, g.c, p)
    assert form.q0(2, 3, 27) == 24
    t, k = _theta_args_ref(form, form.n_coefficients(0.0), p.M * 24 - p.l * 27)
    assert abs(t.imag / form.s.imag - 0.5) < 0.01
    scale = mpmath.exp(mpmath.mpc(k))
    assert _rel(1.63417e-55, _theta_ref(form.s, t) * scale) < 1e-5
    assert _rel(1.01720e-55, _jtheta(form.s, t) * scale) < 1e-5


@pytest.mark.parametrize("n, m, k, l, th", [
    pytest.param(2, 5, 3, 7, 0.2, id="(2,5)x(3,7)@0.2000"),
    pytest.param(2, 5, 3, 7, math.sqrt(2) - 1, id="(2,5)x(3,7)@0.4142"),
    pytest.param(1, 7, 2, 9, 0.2, id="(1,7)x(2,9)@0.2000"),
])
def test_overflow_reproducers_against_referee(n, m, k, l, th):
    # Im(s) ~ 160 here: exp(2*pi*i*t*u) and exp(K) alone overflow, the terms do not.
    _check_table(n, m, k, l, th)


@st.composite
def _sweep_cases(draw, thetas=st.floats(0.05, 0.95)):
    """(n, m, k, l, theta, alpha, beta): a label pair on the cone with M <= SWEEP_MAX_M."""
    th = draw(thetas)
    m, l = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    n_min, k_min = math.floor(-m * th) + 1, math.floor(l * th) + 1
    room = SWEEP_MAX_M - n_min * l - m * k_min
    if room < 0:
        return draw(st.nothing())
    n = draw(st.integers(n_min, n_min + room // l))
    k = draw(st.integers(k_min, k_min + (room - (n - n_min) * l) // m))
    if math.gcd(n, m) != 1 or math.gcd(k, l) != 1 or n + m * th <= 0 or k - l * th <= 0:
        return draw(st.nothing())
    return n, m, k, l, th, draw(st.integers(0, m - 1)), draw(st.integers(0, l - 1))


def _largest_piece(p, f, g, q, gamma, s):
    """E: the largest of |sigma1*X**2/2|, |c1*X|, |sigma2*Y**2/2|, |c2*Y| and pi*Im s.

    X and Y are the factor arguments at the peak representative q, z = 0.
    """
    (tf,), (tg,) = f.terms, g.terms
    big_n = p.M * q - p.l * gamma
    x, y = -p.A / (p.m * p.M) * big_n, p.B / (p.l * p.M) * big_n
    return max(abs(tf.sigma * x * x / 2), abs(tf.c * x), abs(tg.sigma * y * y / 2),
               abs(tg.c * y), math.pi * s.imag)


@settings(max_examples=20)
@example((-1, 6, 11, 7, 0.37, 0, 2))
@example((5, 6, 4, 7, 0.37, 3, 0))
@given(_sweep_cases())
def test_closed_form_sweep(case):
    """Every entry of one component pair against _entry_refs, within its rounding bound.

    The bound on an entry is REL_TOL + ROUNDING_C*E*2**-53, E as in
    :func:`_largest_piece`.  REL_TOL covers the certified truncation (below
    1e-13 of exp(K), the u = 0 term).  ROUNDING_C counts the roundings, of
    at most 2**-53 relative each, that assemble the exponent
    (i*pi*s*u + 2*pi*i*t)*u + K of theta term u at tau = -i, where
    sigma1 = m/A and sigma2 = l/B are real, c1 = c2 = 0, and s, t, K are
    real multiples of i, i, 1.  With P1 = sigma1*X**2/2, P3 = sigma2*Y**2/2
    and dX = -A*l/r, dY = B*m/r the steps of X and Y per u:

    - kappa = sigma1*x_n*x_n + sigma2*y_n*y_n with x_n = fl(-A/(m*M)) and
      y_n = fl(B/(l*M)): 1 rounding in x_n, so 2 in x_n**2, 2 products and
      1 sum of two positive terms: 5 roundings relative to sigma1*x_n**2 +
      sigma2*y_n**2.  lam = c1*x_n + c2*y_n = 0 exactly.
    - K = -(kappa*N/2 + lam)*N: 5 in kappa, 1 in kappa*N (N < 2**53 is an
      exact double, /2 and + 0 are exact), 1 product by N:
      7*(P1 + P3) <= 14*E.
    - 2*pi*i*t = -(kappa*N + lam)*M*L: 5 in kappa, 1 in kappa*N, 1 product
      by M*L, 1 division by 2*pi*i, 1 product by 2*pi*i, so
      9*(|sigma1*X*dX| + |sigma2*Y*dY|) <= 9*(P1 + P3 + pi*Im s) <= 27*E,
      since |sigma*X*dX| <= sigma*(X**2 + dX**2)/2 and
      sigma1*dX**2/2 + sigma2*dY**2/2 = pi*Im s.
    - i*pi*s: 3 in (l*A)**2 (libm pow within 0.52 ulp), 1 product, 1 sum,
      2 in 2*pi*i*r*r, 1 division, 1 product by i*pi: 9*pi*Im s <= 9*E.
    - assembly (i*pi*s*u + 2*pi*i*t)*u + K: 4 roundings, of at most
      (4*u**2 + 3*|u| + 2)*E in all, as |2*pi*t| <= pi*Im s at the peak
      representative and |K| <= 2*E.

    So term u's exponent is off by at most c(u)*E*2**-53 with c(0) = 14
    (no u-dependent operation is inexact at u = 0) and c(u) = 14 + 27*|u|
    + 9*u**2 + (4*u**2 + 3*|u| + 2) = 16 + 30*|u| + 13*u**2.  All terms
    are positive, so the sum's relative error is at most
    sum_u (term_u/term_0)*c(u)*E*2**-53.  With a = pi*Im s = m*l*M/(2*r**2)
    >= 1/2 and |2*pi*Im t| <= a, term_u/term_0 <= exp(-a*(u**2 - |u|)) <=
    exp(-(u**2 - |u|)/2), and sum_u exp(-(u**2 - |u|)/2)*c(u) = 250.1.
    exp (within 1 ulp) and fsum (1 rounding) add at most 3*2**-53 <=
    6*E*2**-53, since E >= pi*Im s >= 1/2; 256.1 < ROUNDING_C.
    """
    n, m, k, l, th, alpha, beta = case
    p = product_params(n, m, k, l, th)
    assert p.M <= SWEEP_MAX_M
    cs = ComplexStructure(-1j)
    sc = structure_constants(p, cs)
    f, g = holomorphic_basis(p.right, cs)[alpha], holomorphic_basis(p.left, cs)[beta]
    qs = {gamma: q0 + u * p.L for gamma, q0, u, *_ in sc.rows[alpha, beta][1]}
    for gamma, want in enumerate(_entry_refs(p, f, g)):
        got = sc.values[alpha][beta][gamma]
        if want is None:
            assert got == 0j and gamma not in qs
            continue
        e_max = _largest_piece(p, f, g, qs[gamma], gamma, sc.s)
        assert _rel(got, want) <= REL_TOL + ROUNDING_C * e_max * 2**-53


def _assert_certified(s, t, k_exp, radius, got, eps=DEFAULT_EPS):
    """got, summed at a shared radius, is the entry's own certified theta(s, t, eps, K).

    The shared radius is at least the entry's own, and the terms it adds sum
    to less than the certified tail eps*|exp(K)|, plus the rounding of the
    two sums.
    """
    assert radius >= truncation_radius(s, t, eps)
    own = theta(s, t, eps, k_exp)
    assert abs(got - own) <= eps * math.exp(k_exp.real) + 2**-51 * abs(own)


# The labels of the verify benchmark, checked as verify-all checks them.
VERIFY_LABELS = tuple((*pair, th) for pair in PAIRS for th in THETAS) + ((1, 2, 14, 1, 0.2),)


@settings(max_examples=30)
@example((3, 2, 1, 2, 0.2, 0, 0), -1j, VERIFY_LABELS[0], 3)  # every row at radius 3
@given(_sweep_cases(st.sampled_from(THETAS)), st.sampled_from((-1j, 0.3 - 1.2j)),
       st.sampled_from(VERIFY_LABELS), st.integers(0, 2**32 - 1))
def test_row_radius_certifies_every_entry(case, tau, label, seed):
    """One radius per row, and no entry summed with fewer terms than its own.

    The rows are the structure constants' (alpha, beta) rows at z = 0 and
    the closed-form oracle's rows at each z in PROBE_ZS, for the Gaussians
    verify-all draws, over every component pair of a verify label.
    """
    n, m, k, l, th, _, _ = case
    p = product_params(n, m, k, l, th)
    sc = structure_constants(p, ComplexStructure(tau))
    for (a, b), (radius, entries) in sc.rows.items():
        for gamma, _, _, t, k_exp, _ in entries:
            _assert_certified(sc.s, t, k_exp, radius, sc.values[a][b][gamma])
    n, m, k, l, th = label
    p = product_params(n, m, k, l, th)
    rng = random.Random(seed)
    sigma1 = complex(rng.uniform(0.6, 1.6), rng.uniform(-0.4, 0.4))
    sigma2 = complex(rng.uniform(0.6, 1.6), rng.uniform(-0.4, 0.4))
    c1 = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    c2 = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    form = tensor_gaussian_closed(sigma1, c1, sigma2, c2, p)
    for alpha in range(m):
        for beta in range(l):
            for z in PROBE_ZS:
                entries, radius = form.row(alpha, beta, z, range(p.M))
                assert [d for d, *_ in entries] == [d for d in range(p.M)
                                                    if form.q0(alpha, beta, d) is not None]
                for _, _, _, t, k_exp, got in entries:
                    assert got == theta_truncated(form.s, t, radius, k_exp)
                    _assert_certified(form.s, t, k_exp, radius, got)


def test_large_shift_is_not_a_silent_zero():
    v = translate(gaussian(1, 4), 5, 0)
    assert not v.is_zero()
    assert _rel(evaluate(v, 5.0, 0), mpmath.mpc(1)) <= REL_TOL


def _vector_ref(v, u, mu) -> mpmath.mpc:
    """v(u, mu) at 50 digits for a vector whose terms are centred at 0."""
    acc = mpmath.mpc(0)
    for t in v.terms:
        assert t.x0 == 0
        if t.mu == mu:
            poly = mpmath.polyval([mpmath.mpc(z) for z in reversed(t.poly)], u)
            acc += poly * mpmath.exp(-mpmath.mpc(t.sigma) * u * u / 2 - mpmath.mpc(t.c) * u)
    return acc


@settings(max_examples=50)
@given(st.integers(0, 10**9), st.floats(-1e6, 1e6))
@example(0, 1e6)
@example(0, -37.5)
def test_shift_round_trip(seed, s):
    # A translate by s and back returns v itself, and at x = s + d the
    # translate takes v's value at d, however far s moves the centre.
    rng = random.Random(seed)
    v = random_vector(rng, 2)
    w = translate(v, s, 0)
    assert translate(w, -s, 0) == v
    for d in (0.0, rng.uniform(-2, 2)):
        x = s + d
        u = mpmath.mpf(x) - mpmath.mpf(s)
        for mu in range(2):
            want = _vector_ref(v, u, mu)
            got = evaluate(w, x, mu)
            assert abs(mpmath.mpc(got) - want) <= REL_TOL * (1 + abs(want))
            assert abs(got - evaluate(v, float(u), mu)) <= REL_TOL * (1 + abs(want))


def test_identification_at_small_left_denominator():
    # The smallest failing label of verify-all's grid B: (0,1)x(8,1) at 0.2,
    # with the instance the CLI draws at --seed 0.
    p = product_params(0, 1, 8, 1, 0.2)
    rng = random.Random(2)
    f, g = random_gaussian(rng, 1), random_gaussian(rng, 1)
    assert verify_identities(f, g, p)["identification_u1"] <= 1e-9


def test_oracle_closed_form_at_small_right_label():
    # The smallest label of verify-all's grid A that overflowed before the
    # theta terms became one exponent: (3,4)x(4,1) at 0.2, with the second
    # sigma/c draw of the CLI's oracle stage at --seed 0.
    p = product_params(3, 4, 4, 1, 0.2)
    rng = random.Random(3)
    for _ in range(2):
        sigma1 = complex(rng.uniform(0.6, 1.6), rng.uniform(-0.4, 0.4))
        sigma2 = complex(rng.uniform(0.6, 1.6), rng.uniform(-0.4, 0.4))
        c1 = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        c2 = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    form = tensor_gaussian_closed(sigma1, c1, sigma2, c2, p)
    direct = tensor_direct(gaussian(4, sigma1, c1, 1), gaussian(1, sigma2, c2, 0), p, 1.0, 0)
    assert abs(form.evaluate(1, 0, 1.0, 0) - direct) <= 1e-10 * (1 + abs(direct))
