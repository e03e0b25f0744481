"""Arbitrary-precision referee for the theta series and the structure constants.

Theta(s, t) = sum_u exp(pi*i*s*u**2 + 2*pi*i*t*u) is evaluated independently
as mpmath.jtheta(3, pi*t, exp(pi*i*s)) at 50 significant digits.  Every
compatible structure constant is Theta(s, t)*exp(K) from its provenance
record, so the referee recomputes each reported coefficient from (s, t, K)
alone.  Known defects are pinned as strict xfails naming the ROADMAP item
whose fix removes the marker.
"""

import math

import mpmath
import pytest

from nctorus.connections import ComplexStructure
from nctorus.errors import SeriesOverflow
from nctorus.gaussians import evaluate, gaussian, shift
from nctorus.tensor import product_params, structure_constants
from nctorus.theta import theta

mpmath.mp.dps = 50

# Worst relative error measured over the eight valid benchmark points: 2.1e-14.
REL_TOL = 1e-13

PAIRS = ((1, 2, 1, 3), (3, 2, 2, 3), (1, 4, 2, 3), (1, 3, 2, 5), (2, 3, 3, 5))
THETAS = (0.2, math.sqrt(2) - 1)
OVERFLOW = pytest.mark.xfail(
    raises=SeriesOverflow, strict=True,
    reason="ROADMAP item 4: exp(2*pi*i*t*u) overflows at large Im(s)",
)


def _theta_ref(s: complex, t: complex) -> mpmath.mpc:
    return mpmath.jtheta(3, mpmath.pi * mpmath.mpc(t), mpmath.exp(1j * mpmath.pi * mpmath.mpc(s)))


def _rel(got: complex, want: mpmath.mpc) -> float:
    return float(abs(mpmath.mpc(got) - want) / abs(want))


def _valid_points():
    for n, m, k, l in PAIRS:
        for th in THETAS:
            if k - l * th > 0:
                yield pytest.param(n, m, k, l, th, id=f"({n},{m})x({k},{l})@{th:.4f}")


def _check_table(n, m, k, l, th):
    sc = structure_constants(product_params(n, m, k, l, th), ComplexStructure(-1j))
    worst = 0.0
    for alpha in range(m):
        for beta in range(l):
            for gamma in range(sc.shape[2]):
                got = sc.values[alpha][beta][gamma]
                prov = sc.provenance.get((alpha, beta, gamma))
                if prov is None:
                    assert got == 0j
                    continue
                ref = _theta_ref(prov["s"], prov["t"])
                worst = max(worst, _rel(theta(prov["s"], prov["t"]), ref))
                worst = max(worst, _rel(got, ref * mpmath.exp(mpmath.mpc(prov["K"]))))
    assert sc.provenance
    assert worst <= REL_TOL


def test_eight_valid_benchmark_points():
    assert len(list(_valid_points())) == 8


@pytest.mark.parametrize("n, m, k, l, th", _valid_points())
def test_structure_constants_against_referee(n, m, k, l, th):
    _check_table(n, m, k, l, th)


@pytest.mark.parametrize("n, m, k, l, th", [
    pytest.param(2, 5, 3, 7, 0.2, marks=OVERFLOW, id="(2,5)x(3,7)@0.2000"),
    pytest.param(2, 5, 3, 7, math.sqrt(2) - 1, marks=OVERFLOW, id="(2,5)x(3,7)@0.4142"),
    pytest.param(1, 7, 2, 9, 0.2, marks=OVERFLOW, id="(1,7)x(2,9)@0.2000"),
])
def test_overflow_reproducers_against_referee(n, m, k, l, th):
    _check_table(n, m, k, l, th)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: shift folds exp(c*s - sigma*s**2/2) into "
           "coefficients that the absolute 1e-14 prune drops",
)
def test_large_shift_is_not_a_silent_zero():
    v = shift(gaussian(1, 4), 5)
    assert not v.is_zero()
    assert _rel(evaluate(v, 5.0, 0), mpmath.mpc(1)) <= REL_TOL
