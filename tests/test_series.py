import math
import random
from fractions import Fraction

import pytest

from helpers import random_series1, random_series2, series1_close
from oracles import frac_integral_quadrature

from mpde.errors import DomainError, EstimationError, WindowError
from mpde.exact import RationalComplex
from mpde.moments import MomentFunction, combine, eval_at, gamma_s
from mpde.series import (Series1, Series2, apply_operator, borel, gevrey_fit,
                         inv_borel, moment_antidiff, moment_diff)

G1 = gamma_s(1)
GHALF = gamma_s(Fraction(1, 2))
G2 = gamma_s(2)
MIX = combine(G1, GHALF, "product")


def test_borel_factorials_to_ones():
    s = Series1([math.factorial(j) for j in range(11)])
    out = borel(G1, s)
    assert all(abs(c - 1) < 1e-12 for c in out.coeffs)


def test_borel_gamma2_to_ones():
    s = Series1([math.gamma(1 + 2 * j) for j in range(12)])
    out = borel(G2, s)
    assert all(abs(c - 1) < 1e-12 for c in out.coeffs)


def test_inv_borel_examples():
    ones = Series1([1] * 11)
    out = inv_borel(G1, ones)
    for j, c in enumerate(out.coeffs):
        assert abs(c - math.factorial(j)) <= 1e-12 * math.factorial(j)
    ident = combine(G1, G1, "quotient")  # order 0
    s = Series1([1.5, -2.25, 3.0])
    assert inv_borel(ident, s).coeffs == s.coeffs


def test_borel_round_trip_exact_and_float():
    rng = random.Random(7)
    for m in (G1, GHALF, G2, MIX):
        for kappa in (1, 2):
            se = random_series1(rng, 50, kappa=kappa, exact=True)
            rt = inv_borel(m, borel(m, se))
            assert rt.coeffs == se.coeffs  # bit-for-bit
            sf = random_series1(rng, 50, kappa=kappa)
            rtf = inv_borel(m, borel(m, sf))
            assert series1_close(rtf, sf, 1e-12)
            # and the opposite composition order
            rt2 = borel(m, inv_borel(m, se))
            assert rt2.coeffs == se.coeffs


def test_borel_quotient_form_round_trip():
    # applying the transform for m after the one for 1/m is the identity
    rng = random.Random(71)
    for m in (G1, GHALF, MIX):
        inv_m = combine(MomentFunction(()), m, "quotient")
        se = random_series1(rng, 30, exact=True)
        assert borel(m, borel(inv_m, se)).coeffs == se.coeffs
        sf = random_series1(rng, 30)
        assert series1_close(borel(m, borel(inv_m, sf)), sf, 1e-12)


def test_borel_series2_axes():
    rng = random.Random(8)
    u = random_series2(rng, 6, 9, exact=True)
    for axis in ("t", "z"):
        rt = inv_borel(GHALF, borel(GHALF, u, axis), axis)
        assert rt.coeffs == u.coeffs


def test_moment_diff_ordinary_derivative():
    s = Series1([0, 0, 0, 0, 1])  # z^4
    d = moment_diff(G1, s)
    assert [round(abs(c), 10) for c in d.coeffs] == [0, 0, 0, 4]
    assert d.truncation == 3


def test_moment_diff_is_normalized_shift():
    # Caputo-style check at kappa=2: the normalized coefficients shift by one
    rng = random.Random(9)
    s = random_series1(rng, 12, kappa=2)
    d = moment_diff(GHALF, s)
    for j in range(d.truncation + 1):
        lhs = complex(d.coeffs[j]) * eval_at(GHALF, Fraction(j, 2))
        rhs = complex(s.coeffs[j + 1]) * eval_at(GHALF, Fraction(j + 1, 2))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_diff_antidiff_identity_zero_constant():
    rng = random.Random(10)
    s = random_series1(rng, 15, exact=True)
    s = Series1((RationalComplex(0),) + s.coeffs[1:], exact=True)
    back = moment_antidiff(G1, moment_diff(G1, s))
    assert back.coeffs == s.coeffs[: len(back.coeffs)]


def test_moment_antidiff_examples():
    one = Series1([1, 0, 0, 0])
    t = moment_antidiff(G1, one)
    assert abs(t.coeffs[1] - 1) < 1e-12 and abs(t.coeffs[0]) == 0
    t3 = moment_antidiff(G1, one, times=3)
    assert abs(t3.coeffs[3] - Fraction(1, 6)) < 1e-12
    # antidiff then diff is the identity on the shared truncation
    rng = random.Random(11)
    s = random_series1(rng, 12, exact=True)
    back = moment_diff(G1, moment_antidiff(G1, s))
    assert back.coeffs == s.coeffs[: len(back.coeffs)]


def test_moment_diff_window_error():
    with pytest.raises(WindowError):
        moment_diff(G1, Series1([1, 2]), times=5)


def test_apply_operator_examples():
    # dt applied to t*g(z) recovers g
    g_row = [2.0, -1.0, 0.5, 3.0]
    u = Series2([[0.0] * 4, g_row])
    out = apply_operator({(1, 0): 1}, G1, G1, u)
    assert all(abs(a - b) < 1e-12 for a, b in zip(out.coeffs[0], g_row))
    # identity operator
    rng = random.Random(12)
    v = random_series2(rng, 4, 5, exact=True)
    same = apply_operator({(0, 0): 1}, G1, G1, v)
    assert same.coeffs == v.coeffs
    with pytest.raises(WindowError):
        apply_operator({(5, 0): 1}, G1, G1, v)


@pytest.mark.parametrize("m1,m2,kappa1", [(GHALF, GHALF, 1), (MIX, G2, 2),
                                         (G1, MIX, 1)])
def test_apply_operator_float_matches_exact(m1, m2, kappa1):
    # the float and the exact branch on the same random complex grids and
    # complex operators; the error scale of a cell is its term magnitude,
    # the operator with absolute coefficients applied to |u|
    rng = random.Random(15)

    def gaussian():
        return RationalComplex(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                               Fraction(rng.randint(-5, 5), rng.randint(1, 3)))

    for _ in range(5):
        rows = random_series2(rng, 7, 8, exact=True).coeffs
        table = {(rng.randint(0, 3), rng.randint(0, 3)): gaussian()
                 for _ in range(4)}
        exact = apply_operator(table, m1, m2,
                               Series2(rows, kappa1=kappa1, exact=True))
        approx = apply_operator(
            {k: complex(v) for k, v in table.items()}, m1, m2,
            Series2([[complex(c) for c in row] for row in rows],
                    kappa1=kappa1))
        bound = apply_operator(
            {k: abs(complex(v)) for k, v in table.items()}, m1, m2,
            Series2([[abs(complex(c)) for c in row] for row in rows],
                    kappa1=kappa1))
        assert approx.valid == exact.valid
        for a_row, e_row, b_row in zip(approx.coeffs, exact.coeffs,
                                       bound.coeffs):
            for a, e, b in zip(a_row, e_row, b_row):
                assert abs(a - complex(e)) <= 1e-13 * b.real


def test_commutation_with_moment_diff():
    # B_{m'} d_m u = d_{m m'} B_{m'} u
    rng = random.Random(13)
    pairs = [(G1, GHALF), (GHALF, G1), (G2, MIX), (MIX, GHALF)]
    for m, mp in pairs:
        for _ in range(10):
            s = random_series1(rng, 30)
            lhs = borel(mp, moment_diff(m, s))
            rhs = moment_diff(combine(m, mp, "product"), borel(mp, s))
            assert series1_close(lhs, rhs, 1e-12)


def _poly_diff_apply(m, s, coeffs):
    """P(d_m) s for a univariate polynomial with the given coefficients."""
    n = len(coeffs) - 1
    out = None
    for a, p in enumerate(coeffs):
        term = moment_diff(m, s, times=a) if a else s
        cut = s.truncation - n
        vals = [p * term.coeffs[j] for j in range(cut + 1)]
        out = vals if out is None else [x + y for x, y in zip(out, vals)]
    return Series1(out, s.kappa, s.axis, s.exact)


def test_commutation_with_polynomial_operator():
    rng = random.Random(14)
    for _ in range(10):
        coeffs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                  for _ in range(rng.randint(2, 4))]
        s = random_series1(rng, 25)
        m, mp = GHALF, G1
        lhs = borel(mp, _poly_diff_apply(m, s, coeffs))
        rhs = _poly_diff_apply(combine(m, mp, "product"), borel(mp, s), coeffs)
        assert series1_close(lhs, rhs, 1e-12)


def test_linearity_exact():
    rng = random.Random(15)
    c = RationalComplex(Fraction(3, 7), Fraction(-2, 5))
    s1 = random_series1(rng, 20, exact=True)
    s2 = random_series1(rng, 20, exact=True)
    comb = Series1([a + c * b for a, b in zip(s1.coeffs, s2.coeffs)],
                   exact=True)
    for op in (lambda s: borel(GHALF, s),
               lambda s: inv_borel(MIX, s),
               lambda s: moment_diff(G1, s, times=2),
               lambda s: moment_antidiff(GHALF, s)):
        lhs = op(comb)
        a, b = op(s1), op(s2)
        rhs = [x + c * y for x, y in zip(a.coeffs, b.coeffs)]
        assert list(lhs.coeffs) == rhs


def test_gevrey_fit_oracles():
    u = Series2.from_t_coeffs([math.factorial(j) for j in range(41)])
    assert abs(gevrey_fit(u).s_hat - 1) <= 0.1
    flat = Series2.from_t_coeffs([1.0] * 41)
    assert abs(gevrey_fit(flat).s_hat) <= 0.05
    fast = Series2.from_t_coeffs([math.gamma(1 + 2 * j) for j in range(41)])
    assert abs(gevrey_fit(fast).s_hat - 2) <= 0.1


def test_gevrey_fit_needs_data():
    with pytest.raises(EstimationError):
        gevrey_fit(Series2.from_t_coeffs([0.0] * 41))
    with pytest.raises(EstimationError):
        gevrey_fit(Series2.from_t_coeffs([1.0] * 8))


def test_gevrey_shift_under_borel():
    u = Series2.from_t_coeffs([math.gamma(1 + 2 * j) for j in range(41)])
    base = gevrey_fit(u).s_hat
    shifted = gevrey_fit(borel(G1, u, "t")).s_hat
    assert abs(shifted - (base - 1)) <= 0.15


def test_iterated_derivative_growth():
    # z-derivative powers of 1/(1-z): weighted row norms grow at Gevrey
    # order q when lambda(zeta) = zeta^q, s = 0, 1/k = 1.  The base series
    # is much longer than the derivative depth so that the 0.1-weighted
    # norms are effectively untruncated.
    steps = 25
    for q in (1, 2):
        rows = []
        phi = Series1([1.0] * 201)
        for _ in range(steps + 1):
            rows.append(math.fsum(abs(c) * 0.1 ** i
                                  for i, c in enumerate(phi.coeffs)))
            phi = moment_diff(G1, phi, times=q)
        fit = gevrey_fit(Series2.from_t_coeffs(rows))
        assert abs(fit.s_hat - q) <= 0.2


def test_frac_integral_quadrature_examples():
    one = Series1([1])
    assert frac_integral_quadrature(one, 1, 1, 0.5) == pytest.approx(0.5, rel=1e-9)
    assert frac_integral_quadrature(one, 1, 2, 1.0) == pytest.approx(0.5, rel=1e-9)
    # phi(x) = x at s = 1/2, k = 2 against the coefficient route
    phi = Series1([0, 1])
    quad = frac_integral_quadrature(phi, Fraction(1, 2), 2, 0.8)
    padded = Series1([0, 1, 0, 0])
    anti = moment_antidiff(gamma_s(Fraction(1, 2)), padded, times=2)
    coef = sum(complex(c) * 0.8 ** j for j, c in enumerate(anti.coeffs))
    assert abs(quad - coef) <= 1e-6 * abs(coef)


def test_frac_integral_domain():
    with pytest.raises(DomainError):
        frac_integral_quadrature(Series1([1]), 1, 0, 0.5)
    with pytest.raises(DomainError):
        frac_integral_quadrature(Series1([1]), 1, 1, -1.0)


def test_series2_csv_format():
    u = Series2([[1.0, 2.0], [0.25, complex(0, -1 / 3)]])
    lines = u.to_csv().strip().split("\n")
    assert lines[0] == "j,i,re,im"
    assert lines[1] == "0,0,1,0"
    assert lines[4].startswith("1,1,0,-0.333333333333333")
    assert len(lines) == 5


def test_zero_series_legal_everywhere_but_fit():
    z = Series2.zeros(5, 5, exact=True)
    assert borel(G1, z, "t").coeffs == z.coeffs
    assert apply_operator({(1, 1): 1}, G1, G1, z).shape == (4, 4)
