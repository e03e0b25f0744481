"""Label-space symmetries of the structure constants, checked without a reference value.

The side swap.  Multiplication in T_theta read backwards is multiplication
in T_{-theta}, mul(f, g, theta) = mul(g, f, -theta), so a left module at
theta is a right module at -theta (the ``modules`` docstring; Dieng and
Schwarz, math/0203160, and the tensor product of Polishchuk and Schwarz,
math/0211262).  Swapping the factors of (n, m) x (k, l) at theta gives
(k, l) x (n, m) at -theta: the same M, A and B trading places, and the
component gamma of one product is u*gamma mod M of the other, with
u = N' mod M of the first, the inverse mod M of the swapped product's N'.
So

    c^gamma_{alpha,beta}(n, m, k, l, theta)
        = c^{u*gamma mod M}_{beta,alpha}(k, l, n, m, -theta).

The two tables come from different Bezout pairs, congruence
representatives and peak terms.  Without connection offsets the relation
holds bit for bit, the sign of every zero included: 42,966 of 42,966
values over n -2..4, m 1..3, k 1..7, l 1..3 with M <= 30 on the cone
A > 0, B > 0, theta in {0.2, sqrt2-1, 0.05} and tau in {-i, 0.3-1.2i}.
With offsets it holds bit for bit except at a tie |Im t| = Im s/2, where
the two largest terms of an entry's series are equal and the two products
reduce it to different ones of them, so its truncated sums differ in
rounding: at most 1.1e-15 of the table's largest entry, measured over
n -2..4, m 1..3, k 1..7, l 1..2 with M <= 20, theta in {0.2, sqrt2-1},
at offsets (c1, c2) = (0, 0.5i) and (0.3, 0).  On the direct q-sum of any
factors f, g the swap reads h_p(z, gamma) = h_q(z*A/B, u*gamma mod M) for
the sum of g (x) f in q: within 3.2e-15 of 1 + |h| over 4,912 points
(112 products with M <= 20 on the cone, theta in {0.2, sqrt2-1, 0.37},
z in {0, 0.3, -0.5, 0.7}, three-term polynomial Gaussian factors).

The T move.  T_theta and T_{theta+1} are the same algebra, and the module
E(n, m) depends on theta only through its dimension n + m*theta (Rieffel,
"C*-algebras associated with irrational rotations", Pacific J. Math. 93
(1981) 415-429), so (n, m) x (k, l) at theta + 1 is (n + m, m) x
(k - l, l) at theta: the same A, B and M up to the rounding of theta + 1,
the same a and c, and Bezout partners b + a and d - c.  The tables agree
entry by entry to 2.6 ulps of the table's largest entry (5.8e-16), 69,250
of 83,808 entries bit for bit, over n -2..4, m 1..4, k 1..8, l 1..3 with
M <= 20 on the cone, theta in {0.2, sqrt2-1, 0.37}, tau in {-i, 0.3-1.2i}
and offsets (c1, c2) in {(0, 0), (0.1-0.2i, 0.05-0.1i)}.  The direct
q-sums of the same factors agree within 1.2e-15 of 1 + |h| over 4,804
points, drawn as for the swap.  The Bezout partners enter crt_q0 and the
q-sum's component walk nowhere, so a defect that reads b for a in either
fails the relation.

A metamorphic test (Chen, Cheung and Yiu, HKUST-CS98-01, 1998).
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from nctorus.connections import ComplexStructure
from nctorus.errors import NCTorusError
from nctorus.tensor import DirectSeries, product_params, structure_constants

from conftest import random_vector

# 16 units of roundoff of the table's largest entry
_TIE_TOL = 16 * 2.0**-53
# 8 ulps of the table's largest entry
_T_MOVE_TOL = 8 * 2.0**-52
# of 1 + |h|, for the direct q-sum
_DIRECT_TOL = 1e-14
_ZS = (0.0, 0.3, -0.5, 0.7)


@st.composite
def _swapped_products(draw):
    """(p, q): a product on the cone with M <= 20, else (1, 2) x (1, 3), and its side swap."""
    theta = draw(st.sampled_from((0.2, math.sqrt(2) - 1, 0.05)) | st.floats(0.01, 0.99))
    n, m, k, l = draw(st.tuples(st.integers(-2, 4), st.integers(1, 4), st.integers(1, 8),
                                st.integers(1, 4)))
    try:
        p = product_params(n, m, k, l, theta)
    except (NCTorusError, ValueError):
        p = None
    if p is None or not (p.A > 0 and p.B > 0 and p.M <= 20):
        p = product_params(1, 2, 1, 3, 0.2)
    return p, product_params(p.k, p.l, p.n, p.m, -p.theta)


@st.composite
def _t_moved_products(draw):
    """(p, q): p at theta + 1 on the cone with M <= 20, else (1, 2) x (3, 1); q its T move."""
    theta = draw(st.sampled_from((0.2, math.sqrt(2) - 1, 0.37)) | st.floats(0.01, 0.99))
    n, m, k, l = draw(st.tuples(st.integers(-2, 4), st.integers(1, 4), st.integers(1, 10),
                                st.integers(1, 3)))
    try:
        p = product_params(n, m, k, l, theta + 1)
    except (NCTorusError, ValueError):
        p = None
    if p is None or not (p.A > 0 and p.B > 0 and p.M <= 20):
        theta, p = 0.2, product_params(1, 2, 3, 1, 1.2)
    return p, product_params(p.n + p.m, p.m, p.k - p.l, p.l, theta)


_TAUS = st.builds(complex, st.floats(-1, 1), st.floats(-2, -0.3))
_PARTS = st.sampled_from((0.0, -0.0, 0.5)) | st.floats(-0.5, 0.5)
_OFFSETS = st.builds(complex, _PARTS, _PARTS)


def _swap_pairs(p, q, cs):
    """(table, [(c^gamma_{alpha,beta} of p, its swapped entry of q), ...])."""
    table, swapped = structure_constants(p, cs), structure_constants(q, cs)
    assert q.M == p.M
    u = p.N_prime % p.M
    assert u * q.N_prime % p.M == 1 % p.M
    return table, [(table.value(alpha, beta, gamma), swapped.value(beta, alpha, u * gamma % p.M))
                   for alpha in range(p.m) for beta in range(p.l) for gamma in range(p.M)]


@settings(max_examples=100)
@given(_swapped_products(), _TAUS)
def test_side_swap_relabels_the_table_bit_for_bit(products, tau):
    _, pairs = _swap_pairs(*products, ComplexStructure(tau))
    for got, want in pairs:
        assert repr(got) == repr(want)


@settings(max_examples=60)
@given(_swapped_products(), _TAUS, _OFFSETS, _OFFSETS)
def test_side_swap_with_offsets_holds_to_rounding(products, tau, c1, c2):
    table, pairs = _swap_pairs(*products, ComplexStructure(tau, c1, c2))
    scale = max(abs(v) for row in table.values for col in row for v in col)
    for got, want in pairs:
        assert abs(got - want) <= _TIE_TOL * scale


def test_side_swap_at_a_peak_tie():
    # (-1, 3) x (1, 2) at sqrt2-1 has M = 1; at offset c2 = 0.5i the entry
    # (0, 1, 0) sits at Im t = Im s/2 in both products, each at the other's
    # second largest term, t' = -t + s: its values differ in the last bits
    p = product_params(-1, 3, 1, 2, math.sqrt(2) - 1)
    q = product_params(1, 2, -1, 3, -p.theta)
    cs = ComplexStructure(-1j, 0j, 0.5j)
    table, pairs = _swap_pairs(p, q, cs)
    (_, (entry,)), (_, (swapped,)) = (structure_constants(p, cs).rows[0, 1],
                                      structure_constants(q, cs).rows[1, 0])
    t, t_swapped = entry[3], swapped[3]
    assert t.imag == t_swapped.imag == table.s.imag / 2
    assert abs(t_swapped - (table.s - t)) <= 1e-15
    got, want = pairs[1]
    assert abs(got - want) <= _TIE_TOL * abs(want)


def _direct_pairs(p, q, seed, swap):
    """[(h_p(z, delta), h_q at the image of (z, delta)), ...] for random factors f, g.

    The image is (z*A/B, u*delta mod M) for the sum of g (x) f in the side
    swap q, else (z, delta) for the sum of f (x) g in the T move q.
    """
    rng = random.Random(seed)
    f, g = random_vector(rng, p.m, nterms=3), random_vector(rng, p.l, nterms=3)
    if swap:
        image, z_scale, u = DirectSeries(g, f, q), p.A / p.B, p.N_prime % p.M
    else:
        image, z_scale, u = DirectSeries(f, g, q), 1.0, 1
    series = DirectSeries(f, g, p)
    return [(series.evaluate(z, delta), image.evaluate(z * z_scale, u * delta % p.M))
            for z in _ZS for delta in range(p.M)]


@settings(max_examples=30)
@given(_swapped_products(), st.integers(0, 2**32))
def test_side_swap_relabels_the_direct_sum(products, seed):
    """The side swap, mul(f, g, theta) = mul(g, f, -theta), on the direct q-sum.

    Within 1e-14 of 1 + |h|; measured 3.2e-15 (module docstring).
    """
    for got, want in _direct_pairs(*products, seed, swap=True):
        assert abs(got - want) <= _DIRECT_TOL * (1 + abs(got))


@settings(max_examples=60)
@given(_t_moved_products(), _TAUS, _OFFSETS, _OFFSETS)
def test_t_move_keeps_the_table(products, tau, c1, c2):
    """The T move, T_theta = T_{theta+1} (Rieffel 1981), on the structure constants.

    Entry by entry within 8 ulps of the table's largest entry; measured 2.6
    ulps, 5.8e-16 (module docstring).
    """
    p, q = products
    assert (q.M, q.right.a, q.left.a) == (p.M, p.right.a, p.left.a)
    cs = ComplexStructure(tau, c1, c2)
    table, moved = structure_constants(p, cs), structure_constants(q, cs)
    scale = max(abs(v) for row in table.values for col in row for v in col)
    for row, moved_row in zip(table.values, moved.values, strict=True):
        for col, moved_col in zip(row, moved_row, strict=True):
            for got, want in zip(col, moved_col, strict=True):
                assert abs(got - want) <= _T_MOVE_TOL * scale


@settings(max_examples=30)
@given(_t_moved_products(), st.integers(0, 2**32))
def test_t_move_keeps_the_direct_sum(products, seed):
    """The T move, T_theta = T_{theta+1} (Rieffel 1981), on the direct q-sum.

    Within 1e-14 of 1 + |h|; measured 1.2e-15 (module docstring).
    """
    for got, want in _direct_pairs(*products, seed, swap=False):
        assert abs(got - want) <= _DIRECT_TOL * (1 + abs(got))
