import math
import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import (from_t_coeffs, larger_k, random_series1, random_series2,
                     series1_close, transposed)
from oracles import (csv_cells, exact_gevrey_fit_cells,
                     frac_integral_quadrature)
from routes import (Series1, apply_operator, borel, eval_at, inv_borel,
                    moment_antidiff, moment_diff, row_values)

from mpde import kernel
from mpde.errors import DomainError, EstimationError, WindowError
from mpde.exact import RationalComplex
from mpde.moments import MomentFunction, gamma_s
from mpde.series import LEAST_FIT_TRUNCATION, Series2, gevrey_fit

G1 = gamma_s(1)
GHALF = gamma_s(Fraction(1, 2))
G2 = gamma_s(2)
MIX = G1 * GHALF


@pytest.mark.parametrize("exact", [False, True])
def test_series1_eval_at_matches_closed_forms(exact):
    n = 12
    # the geometric sum (1 - x**(n+1)) / (1 - x); the exp sum at 1
    ones = Series1([1] * (n + 1), exact=exact)
    assert ones.eval_at(0.5) == pytest.approx((1 - 0.5 ** (n + 1)) / 0.5,
                                              rel=1e-15)
    inv_fact = [Fraction(1, math.factorial(j)) for j in range(n + 1)]
    assert Series1(inv_fact, exact=exact).eval_at(1) == pytest.approx(
        sum(1 / math.factorial(j) for j in range(n + 1)), rel=1e-15)
    # complex points and an integer point, where the sum is exact
    assert ones.eval_at(2) == 2 ** (n + 1) - 1
    for x in (2j, complex(math.sqrt(0.5), math.sqrt(0.5))):
        assert ones.eval_at(x) == pytest.approx(
            (1 - x ** (n + 1)) / (1 - x), rel=1e-13)
    alt = Series1([(-1) ** j for j in range(n + 1)], exact=exact)
    assert alt.eval_at(3) == pytest.approx((1 - (-3) ** (n + 1)) / 4,
                                           rel=1e-15)


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
    ident = G1 / G1  # order 0
    s = Series1([1.5, -2.25, 3.0])
    assert inv_borel(ident, s).coeffs == s.coeffs


def test_borel_round_trip_exact_and_float():
    rng = random.Random(7)
    for m in (G1, GHALF, G2, MIX):
        for kappa in (1, 2):  # multiplies each factor's k
            mk = larger_k(m, kappa)
            se = random_series1(rng, 50, exact=True)
            rt = inv_borel(mk, borel(mk, se))
            assert rt.coeffs == se.coeffs  # bit-for-bit
            sf = random_series1(rng, 50)
            rtf = inv_borel(mk, borel(mk, sf))
            assert series1_close(rtf, sf, 1e-12)
            # and the opposite composition order
            rt2 = borel(mk, inv_borel(mk, se))
            assert rt2.coeffs == se.coeffs


def test_borel_quotient_form_round_trip():
    # applying the transform for m after the one for 1/m is the identity
    rng = random.Random(71)
    for m in (G1, GHALF, MIX):
        inv_m = MomentFunction(()) / m
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
    # Caputo-style check with k doubled, the moments of GHALF at j/2: the
    # normalized coefficients shift by one
    rng = random.Random(9)
    s = random_series1(rng, 12)
    d = moment_diff(larger_k(GHALF, 2), s)
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
    # the operator with absolute coefficients applied to |u|; kappa1
    # multiplies each factor's k in m1
    m1 = larger_k(m1, kappa1)
    rng = random.Random(15)

    def gaussian():
        return RationalComplex(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                               Fraction(rng.randint(-5, 5), rng.randint(1, 3)))

    for _ in range(5):
        rows = random_series2(rng, 7, 8, exact=True).coeffs
        table = {(rng.randint(0, 3), rng.randint(0, 3)): gaussian()
                 for _ in range(4)}
        exact = apply_operator(table, m1, m2, Series2(rows, exact=True))
        approx = apply_operator(
            {k: complex(v) for k, v in table.items()}, m1, m2,
            Series2([[complex(c) for c in row] for row in rows]))
        bound = apply_operator(
            {k: abs(complex(v)) for k, v in table.items()}, m1, m2,
            Series2([[abs(complex(c)) for c in row] for row in rows]))
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
            rhs = moment_diff(m * mp, borel(mp, s))
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
    return Series1(out, s.axis, s.exact)


def test_commutation_with_polynomial_operator():
    rng = random.Random(14)
    for _ in range(10):
        coeffs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                  for _ in range(rng.randint(2, 4))]
        s = random_series1(rng, 25)
        m, mp = GHALF, G1
        lhs = borel(mp, _poly_diff_apply(m, s, coeffs))
        rhs = _poly_diff_apply(m * mp, borel(mp, s), coeffs)
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
    u = from_t_coeffs([math.factorial(j) for j in range(41)])
    assert abs(gevrey_fit(u).s_hat - 1) <= 0.1
    flat = from_t_coeffs([1.0] * 41)
    assert abs(gevrey_fit(flat).s_hat) <= 0.05
    fast = from_t_coeffs([math.gamma(1 + 2 * j) for j in range(41)])
    assert abs(gevrey_fit(fast).s_hat - 2) <= 0.1


def test_gevrey_fit_needs_data():
    with pytest.raises(EstimationError):
        gevrey_fit(from_t_coeffs([0.0] * 41))
    with pytest.raises(EstimationError):
        gevrey_fit(from_t_coeffs([1.0] * 8))


def test_fit_truncation_bound_is_the_least_that_fits():
    # the fit of J + 1 nonzero levels raises exactly for J below the bound
    # that probe checks
    assert LEAST_FIT_TRUNCATION == 14
    for J in range(LEAST_FIT_TRUNCATION + 3):
        u = from_t_coeffs([math.factorial(j) for j in range(J + 1)])
        if J < LEAST_FIT_TRUNCATION:
            with pytest.raises(EstimationError,
                               match="need at least 8 nonzero"):
                gevrey_fit(u)
        else:
            gevrey_fit(u)


def test_gevrey_shift_under_borel():
    u = from_t_coeffs([math.gamma(1 + 2 * j) for j in range(41)])
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
        fit = gevrey_fit(from_t_coeffs(rows))
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


# signed zeros, infinities, NaN, subnormals, the binary64 extremes and
# values that need all 17 digits
CSV_SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-320,
                1e-310, 2.2250738585072014e-308, 1.7976931348623157e308,
                -1 / 3, 0.1, 123456789.0]


@pytest.mark.parametrize("shape,valid", [((1, 1), None), ((4, 7), None),
                                         ((4, 7), (2, 5)), ((4, 7), (0, 0))])
def test_to_csv_matches_the_per_cell_formatter_on_float_grids(shape, valid):
    rng = random.Random(17)
    cells = [complex(rng.choice(CSV_SPECIALS), rng.choice(CSV_SPECIALS))
             for _ in range(shape[0] * shape[1])]
    grid = np.array(cells).reshape(shape)
    if valid is not None:  # a corner of the grid, sliced by hand
        grid = grid[: valid[0] + 1, : valid[1] + 1]
    s = Series2(grid)
    assert s.to_csv() == csv_cells(s)


def test_to_csv_of_one_cell():
    s = Series2([[complex(-0.0, 5e-324)]])
    want = "j,i,re,im\n0,0,-0,4.9406564584124654e-324\n"
    assert s.to_csv() == csv_cells(s) == want


@pytest.mark.parametrize("complex_lanes", [False, True])
@pytest.mark.parametrize("shape,valid", [((0, 0), None), ((3, 6), None),
                                         ((3, 6), (1, 4))])
def test_to_csv_matches_the_per_cell_formatter_on_exact_lanes(
        complex_lanes, shape, valid):
    rng = random.Random(18)

    def part():
        return Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**20)) \
            * Fraction(2) ** rng.randint(-1130, 900)
    rows = [[RationalComplex(part(), part() if complex_lanes else 0)
             for _ in range(shape[1] + 1)] for _ in range(shape[0] + 1)]
    if shape[1]:
        rows[-1][0] = RationalComplex(0)  # a zero among nonzero cells
    lanes = kernel.lanes_of_table(
        {(j, i): c for j, row in enumerate(rows) for i, c in enumerate(row)},
        *shape)
    if valid is not None:  # a corner of the lanes, cut by hand
        lanes = kernel.window(lanes, *valid)
    s = Series2(lanes, exact=True)
    assert (s.lanes.im is None) == (not complex_lanes)
    assert s.to_csv() == csv_cells(s)


def test_series2_copies_a_grid_it_may_not_keep():
    # a writeable array, a read-only view of one, and a read-only array of
    # another dtype are copied, an int one to float64; the series does not
    # follow later writes
    grid = np.array([[1, 2], [3, 4]], dtype=complex)
    view = grid[:, :]
    view.flags.writeable = False
    ints = np.array([[1, 2], [3, 4]])
    ints.flags.writeable = False
    series = [Series2(grid), Series2(view), Series2(ints)]
    grid[0, 0] = 9
    for s, dtype in zip(series, (complex, complex, float)):
        assert s.grid.dtype == dtype and not s.grid.flags.writeable
        assert s.coeffs == ((1, 2), (3, 4))
    assert grid.flags.writeable


def test_float64_and_complex128_grids_of_one_series_agree():
    values = [[1.5, -0.0, 0.0], [2.0 ** -1074, -3.0, 1e308]]
    real, cplx = (kernel.read_only(np.array(values, dtype=dtype))
                  for dtype in (float, complex))
    a, b = Series2(real), Series2(cplx)
    assert a.grid.dtype == float and b.grid.dtype == complex
    assert a == b and hash(a) == hash(b)
    assert a.to_csv() == b.to_csv() == csv_cells(b)
    # +0.0 imaginary parts, signs of the real zeros kept
    assert all(type(x) is complex and math.copysign(1.0, x.imag) == 1.0
               for row in a.coeffs for x in row)
    assert [[math.copysign(1.0, x.real) for x in row] for row in a.coeffs] \
        == [[math.copysign(1.0, x) for x in row] for row in values]


@pytest.mark.parametrize("value,dtype", [
    (1.5, float), (complex(1.5, 0.0), float), (complex(1.5, -0.0), complex),
    (complex(0.0, 1.0), complex), (complex(1.0, math.nan), complex)])
def test_from_entries_is_float64_only_where_every_imaginary_part_is_plus_zero(
        value, dtype):
    s = Series2.from_entries([(0, 0, 2.0), (1, 1, value)], 1, 1)
    assert s.grid.dtype == dtype
    assert np.asarray(s.grid, dtype=complex).tobytes() == np.array(
        [[2.0, 0.0], [0.0, value]], dtype=complex).tobytes()


def test_series2_keeps_a_read_only_complex_grid_it_owns():
    # and a float64 one: a real grid is kept as it is
    for dtype in (complex, float):
        grid = np.array([[1, 2], [3, 4]], dtype=dtype)
        grid.flags.writeable = False
        assert Series2(grid).grid is grid


@pytest.mark.parametrize("transform", [borel, inv_borel, moment_diff])
def test_z_transform_hands_over_its_grid_uncopied(transform, monkeypatch):
    # the z-axis output is built row-major and kept by Series2 as built; it
    # equals the t-axis transform of the transposed series bit for bit
    kept = []
    read_only = kernel.read_only
    monkeypatch.setattr(kernel, "read_only",
                        lambda grid: kept.append(read_only(grid)) or kept[-1])
    s = random_series2(random.Random(5), 6, 9)
    m = larger_k(MIX, 2)
    out = transform(m, s, "z")
    assert out.grid is kept[-1] and out.grid.flags.c_contiguous
    flipped = transform(m, Series2(s.grid.T), "t")
    assert out.grid.tobytes() == flipped.grid.T.tobytes()


def test_zero_series_legal_everywhere_but_fit():
    z = Series2.from_entries((), 5, 5, exact=True)
    assert borel(G1, z, "t").coeffs == z.coeffs
    assert apply_operator({(1, 1): 1}, G1, G1, z).valid == (4, 4)


def test_series_coercion_keeps_the_coefficient_type():
    cells = [RationalComplex(Fraction(1, 3), -2), RationalComplex(5), 0.5, 2]
    for s in (Series2([cells, cells]), Series1(cells)):
        rows = s.coeffs if isinstance(s, Series2) else (s.coeffs,)
        assert all(type(c) is complex for row in rows for c in row)
        assert rows[0] == (complex(1 / 3, -2), 5 + 0j, 0.5 + 0j, 2 + 0j)
    grid = Series2(np.array([[complex(-0.0, 1), 1.5], [2, -1j]]))
    assert all(type(c) is complex for row in grid.coeffs for c in row)
    assert grid.coeffs == ((-0.0 + 1j, 1.5 + 0j), (2 + 0j, -1j))
    assert math.copysign(1.0, grid.coeffs[0][0].real) == -1.0
    exact = Series2([[1.5, 1j, RationalComplex(1, 2)]], exact=True)
    assert all(type(c) is RationalComplex for c in exact.coeffs[0])
    assert exact.coeffs[0] == (RationalComplex(Fraction(3, 2)),
                               RationalComplex(0, 1), RationalComplex(1, 2))


def _bits(c: complex) -> tuple:
    return (c.real.hex(), math.copysign(1.0, c.real),
            c.imag.hex(), math.copysign(1.0, c.imag))


def test_float_series_from_array_matches_one_from_rows():
    rng = np.random.default_rng(54)
    arr = rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))
    arr[0, 0] = complex(-0.0, 0.0)
    arr[1, 2] = complex(0.0, -0.0)
    arr[2, 3] = complex(-0.0, -0.0)
    arr[3, 4] = complex(math.inf, -math.inf)
    arr[4, 5] = complex(-1e-320, 1e308)
    from_array = Series2(arr)
    from_rows = Series2(arr.tolist())
    assert all(type(c) is complex for row in from_array.coeffs for c in row)
    assert [list(map(_bits, row)) for row in from_array.coeffs] == \
        [list(map(_bits, row)) for row in from_rows.coeffs]
    assert from_array == from_rows and hash(from_array) == hash(from_rows)
    assert from_array.valid == from_rows.valid == (4, 5)
    # the series holds its own read-only copy of the array
    arr[1, 1] = 7.0
    assert from_array.coeffs[1][1] != 7.0
    with pytest.raises(ValueError):
        from_array.grid[0, 0] = 1.0
    with pytest.raises(AttributeError):
        from_array.valid = (0, 0)
    assert np.array_equal(from_rows.grid, from_array.grid)
    # a corner sliced by hand from the array equals one cut from the rows
    rows = [row[:5] for row in from_rows.coeffs[:4]]
    assert Series2(from_array.grid[:4, :5]) == Series2(rows)
    # a real array gives complex coefficients too
    real = Series2(np.array([[1.0, -0.0], [2.5, 3.0]]))
    assert real.coeffs == ((1 + 0j, -0.0 + 0j), (2.5 + 0j, 3 + 0j))
    assert all(type(c) is complex for row in real.coeffs for c in row)


def test_exact_series_from_lanes_matches_one_from_rows():
    # operator output keeps moment values as row and column divisors; a
    # series of those lanes, or of a corner cut from them, equals one of its
    # rows
    rng = random.Random(55)
    u = random_series2(rng, 5, 7, exact=True)
    v = apply_operator({(1, 1): RationalComplex(2, -1), (0, 0): 1},
                       GHALF, G1, u)
    rows = [list(row) for row in v.coeffs]
    assert v.lanes.col_div[3] == 6 and v.lanes.row_div[0] != 1
    from_lanes = Series2(v.lanes, exact=True)
    from_rows = Series2(rows, exact=True)
    assert from_lanes == from_rows and hash(from_lanes) == hash(from_rows)
    assert from_lanes.to_csv() == from_rows.to_csv()
    corner = Series2(kernel.window(v.lanes, 2, 3), exact=True)
    assert corner == Series2([row[:4] for row in rows[:3]], exact=True)
    assert corner.to_csv() == csv_cells(corner)
    with pytest.raises(DomainError):
        Series2([[1.0]]).lanes  # float series have no integer lanes


@pytest.mark.parametrize("z", [0.0, 0.3, -0.7 + 0.2j, 1.5j])
def test_row_values_match_a_per_row_horner_loop(z):
    rng = random.Random(55)
    u = random_series2(rng, 6, 9)
    cells = [list(row) for row in u.coeffs]
    cells[2][3] = complex(-0.0, 0.0)
    cells[4] = [complex(-0.0, -0.0)] * 10
    corner = [row[:8] for row in cells[:6]]  # sliced by hand
    for s in (Series2(cells), Series2(corner), Series2(cells, exact=True),
              Series2(corner, exact=True)):
        want = []
        for row in s.coeffs:
            acc = 0j
            for c in reversed(row):
                acc = acc * complex(z) + complex(c)
            want.append(acc)
        got = row_values(s, z)
        assert list(map(_bits, got)) == list(map(_bits, want))


@pytest.mark.parametrize("axis", ["t", "z"])
def test_gevrey_fit_float_matches_exact_of_the_same_values(axis):
    # the float path (np.hypot, one reduction of the rows) against the exact
    # path (math.hypot per cell) on cells with one zero part, whose modulus
    # both take exactly; the z axis is the fit of the transposed series
    rows = [[RationalComplex(0, -math.factorial(j + i)) if (i + j) % 2
             else RationalComplex(Fraction(math.factorial(j + 2 * i), 3 + i))
             for i in range(20)] for j in range(30)]
    rows[20][3] = RationalComplex(0)
    rows[25][1] = RationalComplex(10 ** 307)
    exact = Series2(rows, exact=True)
    approx = Series2(np.array([[complex(c) for c in row] for row in rows]))
    if axis == "z":
        exact, approx = transposed(exact), transposed(approx)
    assert gevrey_fit(exact) == gevrey_fit(approx)


# pairs on which math.hypot, which abs() of a RationalComplex takes, differs
# in the last bit from the C hypot of abs(complex) and np.hypot
HYPOT_PAIRS = [("0x1.38343775cc7fap+0", "0x1.de8c38a17add4p+0"),
               ("0x1.cbc6d821b79c0p-1", "0x1.d61524f130211p-1"),
               ("0x1.95ff9fc72412fp-1", "0x1.575dbb1e3dc28p+0"),
               ("0x1.8ceade0831836p+0", "0x1.89322b6d5e9fep+0"),
               ("0x1.a44dcd4e079fep-1", "0x1.d8115cabd98b2p+0"),
               ("0x1.75b0814ab1c8ep-1", "0x1.4ce86525f5fdcp+0")]


@pytest.mark.parametrize("axis", ["t", "z"])
def test_exact_gevrey_fit_takes_math_hypot_of_the_parts(axis):
    pairs = [(float.fromhex(x), float.fromhex(y)) for x, y in HYPOT_PAIRS]
    assert all(math.hypot(x, y) != abs(complex(x, y)) for x, y in pairs)
    # each row and column of the 16 x 16 grid holds every pair; its row
    # sums, near 2, keep a last-bit change of a modulus in their logarithms
    rows = [[complex(*xy) for xy in (pairs * 4)[j % 6: j % 6 + 16]]
            for j in range(16)]
    exact, approx = Series2(rows, exact=True), Series2(rows)
    if axis == "z":
        exact, approx = transposed(exact), transposed(approx)
    fit = gevrey_fit(exact)
    assert fit == exact_gevrey_fit_cells(exact)
    assert fit != gevrey_fit(approx)


def _fsum_fit(moduli):
    """The fit of the rows of a 2-D array of cell moduli whose weighted
    sums are ``math.fsum`` of their terms: the fit of a one-column series
    of those sums, whose one term of weight 1 sums to itself."""
    sums = [math.fsum(x * 0.1 ** i for i, x in enumerate(row.tolist()))
            for row in moduli]
    return gevrey_fit(from_t_coeffs(sums))


@pytest.mark.parametrize("exact", [False, True])
def test_gevrey_fit_row_sums_are_within_the_pairwise_bound(exact):
    # the pairwise sum of np.add.reduce against the correctly rounded
    # math.fsum of the same nonnegative terms, on grids of 15 to 300 rows
    # and columns whose cells grow at a random Gevrey order in t and
    # geometrically in z, with a tenth of them zero: s_hat and stderr agree
    # within 1e-10 relative on both axes, z that of the transposed series
    rng = random.Random(45 + exact)
    shapes = [(30, 15), (20, 300), (300, 15), (15, 300)]
    shapes += [(rng.randint(15, 40), rng.randint(15, 300)) for _ in range(6)]
    for rows, cols in shapes:
        s, rho = rng.uniform(0.2, 2.0), rng.uniform(0.5, 8.0)
        s = min(s, 250 / math.lgamma(rows + 1))
        rho = math.exp(min(math.log(rho), 250 / cols))
        is_complex = rng.random() < 0.5
        cells = []
        for j in range(rows):
            row = []
            for i in range(cols):
                x = (math.exp(s * math.lgamma(1 + j)) * rho ** i
                     * rng.uniform(0.5, 2.0) * rng.choice((1, -1)))
                y = x * rng.uniform(-2.0, 2.0) if is_complex else 0.0
                row.append(complex(x, y) if rng.random() < 0.9 else 0j)
            cells.append(row)
        if exact:
            u = Series2([[RationalComplex(Fraction(c.real), Fraction(c.imag))
                          for c in row] for row in cells], exact=True)
            moduli = np.array([[abs(c) for c in row] for row in u.coeffs])
        else:
            u = Series2(np.array(cells) if is_complex
                        else np.array(cells).real.copy())
            moduli = kernel.modulus(u.grid)
        for got, want in ((gevrey_fit(u), _fsum_fit(moduli)),
                          (gevrey_fit(transposed(u)), _fsum_fit(moduli.T))):
            assert got.j_range == want.j_range
            assert abs(got.s_hat - want.s_hat) <= 1e-10 * abs(want.s_hat)
            assert abs(got.stderr - want.stderr) <= 1e-10 * want.stderr
