"""Acceptance suite: one test per release criterion, one verdict line each.

Every criterion prints a single [PASS]/[FAIL] line (visible with -s, or in
the captured output on failure) and asserts at its stated tolerance.
"""

import cmath
import io
import json
import math
import random
import contextlib

import pytest

from nctorus.algebra import (
    TWO_PI_I,
    derivation,
    involution,
    monomial,
    mul,
    norm_max,
    sub as elem_sub,
    trace,
)
from nctorus.connections import (
    ComplexStructure,
    curvature_constant,
    dbar_residual,
    holomorphic_basis,
    leibniz_defect,
    nabla1,
    nabla2,
)
from nctorus.errors import NoHolomorphicVectors
from nctorus.gaussians import (
    evaluate,
    gaussian,
    grid_abs_max,
    scale,
    sub,
)
from nctorus.modules import act_U1, act_U2, act_Z1, act_Z2, module_tag
from nctorus.tensor import (
    PROBE_ZS,
    crt_q0,
    product_basis,
    product_params,
    structure_constants,
    tensor_direct,
    tensor_gaussian_closed,
    verify_identities,
)
from nctorus.theta import theta

from conftest import coprime_pair, random_element, random_gaussian, random_vector


LABELS = [(1, 1, 1, 1), (1, 2, 1, 3), (1, 1, 1, 2), (3, 2, 2, 3)]
THETAS = [0.2, math.sqrt(2) - 1, 0.5]


def _verdict(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _rel(v, w):
    d = sub(v, w)
    return grid_abs_max(d) / (1 + max(grid_abs_max(v), grid_abs_max(w)))


def _elem_rel(f, g):
    d = elem_sub(f, g)
    return norm_max(d) / (1 + max(norm_max(f), norm_max(g)))


# --------------------------------------------------------------------------

def test_criterion_1_algebra_laws():
    rng = random.Random(1001)
    worst = 0.0
    for _ in range(200):
        theta = rng.uniform(0.02, 0.98)
        f, g, h = (random_element(rng) for _ in range(3))
        worst = max(worst, _elem_rel(mul(mul(f, g, theta), h, theta),
                                     mul(f, mul(g, h, theta), theta)))
        worst = max(worst, _elem_rel(involution(mul(f, g, theta)),
                                     mul(involution(g), involution(f), theta)))
        worst = max(worst, abs(trace(mul(f, g, theta)) - trace(mul(g, f, theta)))
                    / (1 + abs(trace(mul(f, g, theta)))))
        axis = rng.choice((1, 2))
        lhs = derivation(mul(f, g, theta), axis)
        rhs_e = mul(derivation(f, axis), g, theta)
        rhs_e = elem_sub(lhs, rhs_e)
        rhs_e = elem_sub(rhs_e, mul(f, derivation(g, axis), theta))
        worst = max(worst, norm_max(rhs_e) / (1 + norm_max(lhs)))
    _verdict("criterion 1 (algebra laws, 200 instances)", worst <= 1e-12,
             f"max residual {worst:.3e} <= 1e-12")


def test_criterion_2_generator_phases():
    rng = random.Random(1002)
    worst = 0.0
    done = 0
    while done < 20:
        theta = rng.uniform(0.05, 0.95)
        n, m = coprime_pair(rng)
        if abs(n + m * theta) < 0.1:
            continue
        tag = module_tag(n, m, theta)
        tp = (tag.b + tag.a * theta) / tag.denominator
        v = random_gaussian(rng, m, with_poly=True)
        lhs = act_U2(act_U1(v, tag), tag)
        rhs = scale(cmath.exp(TWO_PI_I * theta), act_U1(act_U2(v, tag), tag))
        worst = max(worst, _rel(lhs, rhs))
        lhs = act_Z2(act_Z1(v, tag), tag)
        rhs = scale(cmath.exp(-TWO_PI_I * tp), act_Z1(act_Z2(v, tag), tag))
        worst = max(worst, _rel(lhs, rhs))
        for ez in (act_Z1, act_Z2):
            for eu in (act_U1, act_U2):
                worst = max(worst, _rel(ez(eu(v, tag), tag),
                                        eu(ez(v, tag), tag)))
        done += 1
    _verdict("criterion 2 (generator phases, 20 labels)", worst <= 1e-12,
             f"max residual {worst:.3e} <= 1e-12")


def test_criterion_3_connection_suite():
    # The commutator defect collapses structurally: it never leaves the
    # (sigma, c, mu) span of v, and its surviving coefficients sit at the
    # double-precision association floor (two multiplication orders of
    # the same scalars), eleven orders below any competing curvature
    # constant.  The test therefore discriminates the constant rather
    # than asserting a bitwise-empty vector.
    rng = random.Random(1003)
    worst_coeff = 0.0
    worst_grid = 0.0
    worst_leibniz = 0.0
    paper_display_detected = True
    for _ in range(20):
        theta = rng.uniform(0.05, 0.95)
        n, m = coprime_pair(rng)
        if abs(n + m * theta) < 0.1:
            continue
        tag = module_tag(n, m, theta)
        kappa = curvature_constant(tag)
        assert abs(kappa - (-4j * math.pi**2 * m / (n + m * theta))) \
            <= 1e-15 * abs(kappa)
        v = random_vector(rng, m, nterms=2, max_deg=2)
        comm = sub(nabla1(nabla2(v, tag), tag), nabla2(nabla1(v, tag), tag))
        defect = sub(comm, scale(kappa, v))
        vkeys = {(t.sigma, t.c, t.mu) for t in v.terms}
        assert {(t.sigma, t.c, t.mu) for t in defect.terms} <= vkeys
        coeff_max = max((abs(c) for t in defect.terms for c in t.poly),
                        default=0.0)
        worst_coeff = max(worst_coeff, coeff_max)
        scale_bound = (1 + abs(kappa)) * (1 + grid_abs_max(v))
        worst_grid = max(worst_grid, grid_abs_max(defect) / scale_bound)
        # the competing normalization 2*pi*i*m/D must NOT satisfy the identity
        display = TWO_PI_I * m / tag.denominator
        miss = grid_abs_max(sub(comm, scale(display, v)))
        expected_gap = abs(kappa - display) * grid_abs_max(v)
        paper_display_detected &= miss > 0.5 * expected_gap > 0
        for f in (monomial(1, 0), monomial(0, 1), random_element(rng)):
            worst_leibniz = max(worst_leibniz,
                                leibniz_defect(v, f, tag, 1),
                                leibniz_defect(v, f, tag, 2))
    ok = (worst_coeff <= 1e-10 and worst_grid <= 1e-12
          and worst_leibniz <= 1e-10 and paper_display_detected)
    _verdict("criterion 3 (connection suite)", ok,
             f"defect coeff {worst_coeff:.3e} <= 1e-10, grid {worst_grid:.3e}"
             f" <= 1e-12, Leibniz {worst_leibniz:.3e} <= 1e-10,"
             f" display constant rejected: {paper_display_detected}")


def test_criterion_4_holomorphy():
    rng = random.Random(1004)
    worst = 0.0
    sets = 0
    sign_regimes = set()
    while sets < 10:
        theta = rng.uniform(0.05, 0.95)
        if sets < 8:
            n, m = coprime_pair(rng)
            if n + m * theta < 0.15:
                continue
            tau = complex(rng.uniform(-0.5, 0.5), -rng.uniform(0.5, 1.5))
        else:
            n, m = -coprime_pair(rng)[0], coprime_pair(rng)[1]
            if math.gcd(n, m) != 1 or n + m * theta > -0.15:
                continue
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 1.5))
        tag = module_tag(n, m, theta)
        cs = ComplexStructure(tau=tau)
        basis = holomorphic_basis(tag, cs)
        assert len(basis) == m
        for v in basis:
            worst = max(worst, dbar_residual(v, tag, cs))
        with pytest.raises(NoHolomorphicVectors):
            holomorphic_basis(tag, ComplexStructure(tau=-tau))
        sign_regimes.add(tag.denominator > 0)
        sets += 1
    ok = worst <= 1e-12 and sign_regimes == {True, False}
    _verdict("criterion 4 (holomorphy, 10 sets)", ok,
             f"max dbar residual {worst:.3e} <= 1e-12, both sign regimes hit")


def test_criterion_5_appendix_identities():
    rng = random.Random(1005)
    worst = 0.0
    for n, m, k, l in LABELS:
        for theta in THETAS:
            p = product_params(n, m, k, l, theta)
            f = random_gaussian(rng, m)
            g = random_gaussian(rng, l)
            worst = max(worst, *verify_identities(f, g, p).values())
    _verdict("criterion 5 (appendix identities, 12 configs)", worst <= 1e-9,
             f"max residual {worst:.3e} <= 1e-9")


def test_criterion_6_oracle_equivalence():
    rng = random.Random(1006)
    p = product_params(1, 2, 1, 3, 0.2)
    worst = 0.0
    for _ in range(10):
        sigma1 = complex(rng.uniform(0.6, 1.6), rng.uniform(-0.4, 0.4))
        sigma2 = complex(rng.uniform(0.6, 1.6), rng.uniform(-0.4, 0.4))
        c1 = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        c2 = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        alpha, beta = rng.randrange(p.m), rng.randrange(p.l)
        form = tensor_gaussian_closed(sigma1, c1, sigma2, c2, p)
        f = gaussian(p.m, sigma1, c=c1, mu=alpha)
        g = gaussian(p.l, sigma2, c=c2, mu=beta)
        for z in PROBE_ZS:
            for delta in range(p.M):
                want = tensor_direct(f, g, p, z, delta)
                got = form.evaluate(alpha, beta, z, delta)
                worst = max(worst, abs(got - want) / (1 + abs(want)))
    _verdict("criterion 6 (closed form vs direct sum, 10 sets)",
             worst <= 1e-10, f"max relative deviation {worst:.3e} <= 1e-10")


STRUCTURE_SETS = [
    (1, 2, 1, 3, 0.2, -1j),
    (1, 1, 1, 1, 0.3, -1j),
    (1, 1, 1, 2, 0.2, -2j),
    (2, 1, 1, 1, 0.35, complex(-0.4, -0.9)),
    (3, 2, 2, 3, 0.5, -1j),
]


def test_criterion_7_structure_constants():
    worst_flat = 0.0
    worst_ratio = 0.0
    worst_recon = 0.0
    zeros_exact = True
    for n, m, k, l, theta, tau in STRUCTURE_SETS:
        p = product_params(n, m, k, l, theta)
        cs = ComplexStructure(tau=tau)
        sc = structure_constants(p, cs)
        fb = holomorphic_basis(module_tag(n, m, theta), cs)
        gb = holomorphic_basis(module_tag(k, l, -theta), cs)
        phis = product_basis(p, cs)
        cmax = max(abs(v) for row in sc.values for col in row for v in col)
        for alpha in range(p.m):
            for beta in range(p.l):
                for gamma in range(p.M):
                    value = sc.value(alpha, beta, gamma)
                    solvable = crt_q0(alpha, beta, gamma, p) is not None
                    zeros_exact &= (value != 0) == solvable
                    if not solvable:
                        continue
                    ratios = []
                    for z in (0.0, 0.3, 0.7):
                        h = tensor_direct(fb[alpha], gb[beta], p, z, gamma)
                        phi = evaluate(phis[gamma], z, gamma)
                        ratios.append(h / phi)
                    base = ratios[0]
                    for rr in ratios[1:]:
                        worst_flat = max(worst_flat,
                                         abs(rr - base) / (1 + abs(base)))
                    worst_ratio = max(worst_ratio,
                                      abs(value - ratios[1]) / (1 + abs(value)))
                for z in (0.0, 0.45):
                    for delta in range(p.M):
                        want = tensor_direct(fb[alpha], gb[beta], p, z, delta)
                        got = sum(
                            sc.value(alpha, beta, gamma)
                            * evaluate(phis[gamma], z, delta)
                            for gamma in range(p.M)
                        )
                        worst_recon = max(worst_recon,
                                          abs(got - want) / (1 + cmax))
    ok = (worst_flat <= 1e-8 and worst_ratio <= 1e-8
          and worst_recon <= 1e-8 and zeros_exact)
    _verdict("criterion 7 (structure constants, 5 sets)", ok,
             f"z-independence {worst_flat:.3e}, ratio oracle {worst_ratio:.3e},"
             f" reconstruction {worst_recon:.3e} (all <= 1e-8),"
             f" zero iff unsolvable: {zeros_exact}")


def test_criterion_8_theta_function():
    rng = random.Random(1008)
    eps = 1e-13
    worst = 0.0
    for _ in range(20):
        s = complex(rng.uniform(-1, 1), rng.uniform(0.3, 1.5))
        t = complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4))
        phase = cmath.exp(-1j * math.pi * s - 2j * math.pi * t)
        lhs = theta(s, t + s, eps)
        rhs = phase * theta(s, t, eps)
        worst = max(worst, abs(lhs - rhs) / (eps * (2 + abs(phase) + abs(rhs))))
    pinned = abs(theta(1j, 0.0) - 1.0864348112)
    brute = sum(math.exp(-math.pi * u * u) for u in range(-30, 31))
    brute_gap = abs(theta(1j, 0.0) - brute)
    ok = worst <= 5.0 and pinned <= 1e-9 and brute_gap <= 1e-12
    _verdict("criterion 8 (theta function)", ok,
             f"quasi-periodicity within {worst:.2f}x certified eps,"
             f" lattice value off pinned digits by {pinned:.3e} <= 1e-9,"
             f" off brute force by {brute_gap:.3e}")


def test_criterion_9_cli():
    from nctorus.cli import main

    def run(args):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(args)
        return rc, buf.getvalue()

    theta_flags = {0.2: "0.2", math.sqrt(2) - 1: "sqrt2-1", 0.5: "1/2"}
    codes = []
    for n, m, k, l in LABELS:
        for theta, flag in theta_flags.items():
            rc, _ = run(["verify-all", "--theta", flag,
                         "--nm", f"{n},{m}", "--kl", f"{k},{l}"])
            codes.append(rc)
    for n, m, k, l, theta, tau in STRUCTURE_SETS:
        rc, _ = run(["verify-all", "--theta", repr(theta),
                     "--nm", f"{n},{m}", "--kl", f"{k},{l}",
                     f"--tau={tau.real},{tau.imag}"])
        codes.append(rc)
    _, out1 = run(["verify-all", "--theta", "0.2", "--seed", "11"])
    _, out2 = run(["verify-all", "--theta", "0.2", "--seed", "11"])
    deterministic = out1 == out2 and json.loads(out1)["pass"]
    ok = all(c == 0 for c in codes) and deterministic
    _verdict("criterion 9 (CLI)", ok,
             f"{codes.count(0)}/{len(codes)} verify-all runs exited 0,"
             f" byte-identical repeat run: {deterministic}")
