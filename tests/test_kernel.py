import cmath
import json
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import random_series2
from oracles import (expand_taps, normalize_fractions,
                     recurrence_float_levels, recurrence_float_terms)

from mpde import kernel
from mpde.exact import RationalComplex
from mpde.moments import fraction_table, log_table
from mpde.parsing import parse_moment

@pytest.mark.parametrize("is_complex", [False, True])
def test_lanes_of_table_matches_fraction_oracle(is_complex):
    # the nonzero cells of random grids, a third of them zero, become raw
    # lanes over the cells' common denominator: the per-cell Fraction
    # normalization with unit weights; cells beyond the grid are dropped
    rng = random.Random(51)
    for n_rows, n_cols in ((0, 0), (3, 7), (6, 4)):
        rows = [list(row) for row in
                random_series2(rng, n_rows + 1, n_cols + 2, exact=True).coeffs]
        for row in rows:
            for i in range(len(row)):
                if rng.random() < 0.3:
                    row[i] = RationalComplex(0)
                elif not is_complex:
                    row[i] = RationalComplex(row[i].re)
        table = {(j, i): c for j, row in enumerate(rows)
                 for i, c in enumerate(row) if c}
        got = kernel.lanes_of_table(table, n_rows, n_cols)
        want = normalize_fractions(rows, [1] * (n_rows + 1),
                                   [1] * (n_cols + 1), n_rows, n_cols)
        assert (got.re, got.im) == (want.re, want.im)
        assert got.row_div == [want.den] * (n_rows + 1)
        assert got.col_div == [1] * (n_cols + 1)
        if n_rows:
            assert (got.im is None) == (not is_complex)


WEIGHTS = ("Gamma(1/2)", "Gamma(1)*Gamma(1/2)/Gamma(2)")


@pytest.mark.parametrize("is_complex", [False, True])
@pytest.mark.parametrize("moment", WEIGHTS)
def test_normalize_matches_fraction_oracle(moment, is_complex):
    # a table normalized to moment weights, as the solvers do it: raw lanes
    # of the table, then rescaled by the weights, against the per-cell
    # Fraction normalization of the same cells
    m = parse_moment(moment)
    rng = random.Random(51)
    for n_rows, n_cols in ((0, 0), (3, 7), (6, 4)):
        rows = [list(row) for row in
                random_series2(rng, n_rows + 1, n_cols + 2, exact=True).coeffs]
        for row in rows:
            for i in range(len(row)):
                if rng.random() < 0.3:
                    row[i] = RationalComplex(0)
                elif not is_complex:
                    row[i] = RationalComplex(row[i].re)
        table = {(j, i): c for j, row in enumerate(rows)
                 for i, c in enumerate(row) if c}
        raw = kernel.lanes_of_table(table, n_rows, n_cols)
        w1 = fraction_table(m, 2, n_rows + 1)
        w2 = fraction_table(m, 1, n_cols + 2)
        for weights in ((w1, w2), ([1] * (n_rows + 2), w2)):
            got = kernel.rescale(raw, *weights, n_rows, n_cols)
            want = normalize_fractions(rows, *weights, n_rows, n_cols)
            assert (got.re, got.im, got.den) == (want.re, want.im, want.den)
            if n_rows:
                assert (got.im is None) == (not is_complex)


def _taps(rng, B):
    """Taps ``m_k`` of ``1 + sum m_k w**k = prod (1 - rho w)`` for B roots
    rho of modulus below 0.9, so that their power series decays."""
    poly = [1.0 + 0j]
    for _ in range(B):
        rho = cmath.rect(rng.uniform(0.1, 0.9), rng.uniform(-math.pi, math.pi))
        poly = [c - rho * p for c, p in zip(poly + [0j], [0j] + poly)]
    return [(k, m) for k, m in enumerate(poly) if k]


def _tail_case(rng, levels=7, width=16):
    """Pseudo-mode-like terms: an upward part, and downward terms for two row
    offsets under taps of order 1 or 2, on windows that shrink by the
    largest upward shift."""
    terms = [(1, 0, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))),
             (2, 2, complex(rng.uniform(-1, 1), 0))]
    B = rng.choice([1, 2])
    terms += [(a, -r, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
              for a in (1, 2) for r in range(1, B + 1)]
    widths = [width - 2 * max(t - 1, 0) for t in range(levels)]
    base = np.array([[complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                      for _ in range(width + 1)] for _ in range(levels)])
    m = parse_moment("Gamma(1/2)")
    return (base, 0.5, terms, 2, widths, log_table(m, 1, levels),
            log_table(m, 1, width + 2), _taps(rng, B))


def _terms_oracle(base, q, terms, n, widths, logs1, logs2, taps):
    """The term-by-term sum, taps expanded over the whole width."""
    return recurrence_float_terms(base, q,
                                  expand_taps(terms, taps, max(widths)),
                                  n, widths, logs1, logs2)


def test_recurrence_float_tail_matches_term_by_term_sum():
    # the last levels are narrower than the largest downward shift
    rng = random.Random(52)
    for _ in range(5):
        args = _tail_case(rng, levels=10)
        got = list(kernel.recurrence_float(*args))
        want = _terms_oracle(*args)
        for g, w in zip(got, want):
            scale = max(np.max(np.abs(w)), 1.0)
            assert np.max(np.abs(g - w)) <= 1e-13 * scale


@pytest.mark.parametrize("bad", [math.inf, math.nan, complex(-math.inf, 1.0)])
def test_recurrence_float_tail_spreads_nonfinite_as_term_by_term_sum(bad):
    # a non-finite cell reaches the cells that read it, and no other
    rng = random.Random(53)
    args = list(_tail_case(rng))
    base = args[0].copy()
    base[0, 1] = bad  # level 2, column 1: spread upward by the taps
    base[3, 5] = bad
    args[0] = base
    got = list(kernel.recurrence_float(*args))
    want = _terms_oracle(*args)
    for g, w in zip(got, want):
        assert np.array_equal(np.isfinite(g), np.isfinite(w))
    assert any(np.isfinite(g).any() and not np.isfinite(g).all() for g in got)


def test_recurrence_float_tail_memory_follows_the_width():
    # taps of order 2 solve along z in O(width) memory, where a band of the
    # expanded inverse-power tail, (width+1)^2 cells, would take 256 MB;
    # the taps' power series is below 1e-20 from w**30 on, so the oracle
    # stops there
    width, levels = 4000, 4
    rng = random.Random(54)
    terms = [(1, 0, 1.5), (1, -1, -0.5), (1, -2, 0.25j)]
    taps = [(1, 0.125 - 0.0625j), (2, -0.015625)]
    base = np.array([[complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                      for _ in range(width + 1)] for _ in range(levels)])
    m = parse_moment("Gamma(1/2)")
    args = (base, 0.5, terms, 1, [width] * levels, log_table(m, 1, levels),
            log_table(m, 1, width + 2))
    tracemalloc.start()
    try:
        got = [row.copy() for row in kernel.recurrence_float(*args, taps)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    want = recurrence_float_terms(args[0], args[1],
                                  expand_taps(terms, taps, 30), *args[3:])
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-13 * max(np.max(np.abs(w)), 1.0)


def test_lanes_of_table_of_zero_grid_has_unit_denominator():
    zero = kernel.RawLanes([[0, 0, 0], [0, 0, 0]], None, [1, 1], [1, 1, 1])
    assert kernel.lanes_of_table({}, 1, 2) == zero
    assert kernel.lanes_of_table({(1, 1): RationalComplex(0),
                                  (2, 0): RationalComplex(5, 1)}, 1, 2) == zero


AXPY_KS = [(1, 0), (-1, 0), (3, 0), (1, 2), (0, -1)]
AXPY_BS = [-2, 0, 3]


def _fused_rows(accs, terms, src_re, src_im, complex_lanes):
    """Row 0 of each output lane, built by the fused row builder from the
    accumulator rows ``accs`` and the Gaussian terms (b, k) on row 0 of
    the source lanes."""
    lanes = kernel._lane_terms([(0, b, k) for b, k in terms], [src_re],
                               [src_im] if complex_lanes else None,
                               complex_lanes)
    return [kernel._fold(iter(acc), kernel._row(lane, 0))
            for acc, lane in zip(accs, lanes)]


@pytest.mark.parametrize("k", AXPY_KS)
@pytest.mark.parametrize("b", AXPY_BS)
def test_axpy_matches_the_cellwise_sum(k, b):
    # one term of a fused row pass is the axpy acc[i] += k * src[i + b] on
    # Gaussian integers: cell by cell, on real lanes (a real k only) and
    # complex ones; a real k of 1 or -1 adds or subtracts without the
    # multiply, and reads below index 0 are zero
    rng = random.Random(55)

    def ints(n):
        return [rng.randint(-10**30, 10**30) for _ in range(n)]
    n, kr, ki = 8, *k
    acc_re, acc_im = ints(n + 1), ints(n + 1)
    src_re, src_im = ints(n + 1 + max(b, 0)), ints(n + 1 + max(b, 0))
    for complex_lanes in ([True] if ki else [False, True]):
        a_im, s_im = (acc_im, src_im) if complex_lanes else (None, None)
        got = _fused_rows([acc_re, a_im][: 1 + complex_lanes], [(b, k)],
                          src_re, s_im, complex_lanes)
        got_re, got_im = got[0], got[1] if complex_lanes else None
        assert len(got_re) == n + 1
        for i in range(n + 1):
            want_re, want_im = acc_re[i], a_im[i] if complex_lanes else 0
            if i + b >= 0:
                sr, si = src_re[i + b], s_im[i + b] if complex_lanes else 0
                want_re += kr * sr - ki * si
                want_im += kr * si + ki * sr
            assert got_re[i] == want_re
            assert got_im is None or got_im[i] == want_im


@pytest.mark.parametrize("complex_lanes", [False, True])
def test_one_pass_of_many_terms_matches_the_cellwise_sum(complex_lanes):
    # every (k, b) of the grid above folded into one lazy pass per lane,
    # each with its own zero padding, equals the cellwise sum of its terms
    rng = random.Random(56)

    def ints(n):
        return [rng.randint(-10**30, 10**30) for _ in range(n)]
    n = 8
    terms = [(b, k) for b in AXPY_BS for k in AXPY_KS
             if complex_lanes or not k[1]]
    src_re, src_im = ints(n + 1 + max(AXPY_BS)), ints(n + 1 + max(AXPY_BS))
    s_im = src_im if complex_lanes else None
    zeros = [[0] * (n + 1)] * (1 + complex_lanes)
    got = _fused_rows(zeros, terms, src_re, s_im, complex_lanes)
    want = [[0] * (n + 1) for _ in range(2)]
    for b, (kr, ki) in terms:
        for i in range(max(-b, 0), n + 1):
            sr, si = src_re[i + b], s_im[i + b] if complex_lanes else 0
            want[0][i] += kr * sr - ki * si
            want[1][i] += kr * si + ki * sr
    assert got == want[: 1 + complex_lanes]


@pytest.mark.parametrize("offsets", [{0, 1, 3}, {-1, -4}, {-12}])
def test_ratios_are_math_exp_of_float_differences(offsets):
    # one array subtraction, then math.exp per element: the floats of the
    # scalar expression; offsets reaching below index 0 leave zeros
    m = parse_moment("Gamma(1/3)*Gamma(2)")
    logs, width = log_table(m, 2, 40), 30
    listed = logs.tolist()
    for b, r in kernel.ratios(logs, offsets, width).items():
        want = [math.exp(listed[i + b] - listed[i]) if i + b >= 0 else 0.0
                for i in range(width + 1)]
        assert [x.hex() for x in r.tolist()] == [x.hex() for x in want]


DIVISORS = (1, 2, -3, 7, Fraction(5, 12), Fraction(-2, 9), Fraction(16, 3))


@pytest.mark.parametrize("kind", ["real", "real-zero-im", "complex", "zero"])
def test_rescale_matches_fraction_oracle(kind):
    # raw lanes with row and column divisors, normalized to moment weights,
    # give the same Lanes as the per-cell Fraction normalization of their
    # cells; an imaginary lane of zeros is dropped as the oracle drops it
    m = parse_moment("Gamma(1/2)")
    rng = random.Random(53)
    for n_rows, n_cols in ((0, 0), (3, 7), (6, 4)):
        shape = (n_rows + 2, n_cols + 3)  # one row and two columns unread

        def lane():
            return [[rng.randint(-60, 60) if kind != "zero"
                     and rng.random() < 0.7 else 0
                     for _ in range(shape[1])] for _ in range(shape[0])]

        re = lane()
        im = {"complex": lane(), "real-zero-im": [[0] * shape[1]] * shape[0]
              }.get(kind)
        grid = kernel.RawLanes(re, im,
                               [rng.choice(DIVISORS) for _ in range(shape[0])],
                               [rng.choice(DIVISORS) for _ in range(shape[1])])
        rows = [[RationalComplex(
            Fraction(re[j][i]) / (grid.row_div[j] * grid.col_div[i]),
            Fraction(im[j][i] if im else 0) / (grid.row_div[j]
                                                * grid.col_div[i]))
            for i in range(shape[1])] for j in range(shape[0])]
        assert kernel.denormalize(grid) == tuple(map(tuple, rows))
        w1 = fraction_table(m, 2, n_rows + 1)
        w2 = fraction_table(m, 1, n_cols + 2)
        for weights in ((w1, w2), ([1] * (n_rows + 2), w2)):
            got = kernel.rescale(grid, *weights, n_rows, n_cols)
            want = normalize_fractions(rows, *weights, n_rows, n_cols)
            assert (got.re, got.im, got.den) == (want.re, want.im, want.den)
    if kind == "zero":
        assert (got.im, got.den) == (None, 1)


def _uneven_lanes(rng, n_rows, n_cols, is_complex):
    """Raw lanes whose row and column divisors are not uniform: the lanes
    of a t-Borel transform followed by a z-derivative, as an exact series
    keeps them, and those of an exact solve."""
    from mpde.problem import assemble, load_problem
    from mpde.solver import formal_solve
    from routes import borel, moment_diff

    s = random_series2(rng, n_rows, n_cols + 3, exact=True)
    if not is_complex:
        s = type(s)([[RationalComplex(c.re) for c in row] for row in s.coeffs],
                    exact=True)
    m = parse_moment("Gamma(1/2)")
    transformed = moment_diff(m, borel(parse_moment("Gamma(1)"), s, "t"), "z")
    heat = json.loads((Path(__file__).parents[1] / "src" / "mpde"
                       / "problems" / "heat.json").read_text())
    if is_complex:
        heat["operator"] = "(1+1i)*dt - dz^2"
    solved = formal_solve(assemble(load_problem(heat), n_rows, n_cols + 2,
                                   "exact"))
    return [transformed.lanes, solved.lanes]


def _gaussian_rows(lanes):
    """Normalized Gaussian rationals of ``Lanes`` (numerators over den)."""
    im = lanes.im or [[0] * len(row) for row in lanes.re]
    return [[RationalComplex(Fraction(x, lanes.den), Fraction(y, lanes.den))
             for x, y in zip(rx, ry)] for rx, ry in zip(lanes.re, im)]


def _raw(U, w1, w2):
    """Raw coefficients ``U[j][i] / (w1[j] * w2[i])`` of normalized rows."""
    return tuple(tuple(c * Fraction(1) / (w1[j] * w2[i])
                       for i, c in enumerate(row)) for j, row in enumerate(U))


@pytest.mark.parametrize("is_complex", [False, True])
def test_shift_of_uneven_raw_lanes_matches_per_cell_shift(is_complex):
    # raw lanes go in with the moment tables, finished raw lanes come out:
    # they decode to the per-cell shift of the per-cell Fraction
    # normalization, divided by the tables again
    rng = random.Random(57)
    w1 = fraction_table(parse_moment("Gamma(1/2)"), 2, 12)
    w2 = fraction_table(parse_moment("Gamma(1)*Gamma(1/2)/Gamma(2)"), 1, 12)
    table = {(0, 0): RationalComplex(2), (1, 1): RationalComplex(-1, 3),
             (0, 2): Fraction(1, 3), (2, 0): RationalComplex(Fraction(5, 7))}
    if not is_complex:
        table[(1, 1)] = RationalComplex(-1)
    n_rows, n_cols = 3, 4
    for raw in _uneven_lanes(rng, n_rows + 2, n_cols, is_complex):
        assert len(set(raw.row_div)) > 1 and len(set(raw.col_div)) > 1
        rows = [list(row) for row in kernel.denormalize(raw)]
        U = _gaussian_rows(normalize_fractions(rows, w1, w2, n_rows + 2,
                                               n_cols + 2))
        want = [[sum((RationalComplex.coerce(p) * U[j + a][i + b]
                      for (a, b), p in table.items()), RationalComplex(0))
                 for i in range(n_cols + 1)] for j in range(n_rows + 1)]
        got = kernel.shift(raw, table, w1, w2, n_rows, n_cols)
        assert kernel.denormalize(got) == _raw(want, w1, w2)


@pytest.mark.parametrize("shift", [0, -1])
@pytest.mark.parametrize("is_complex", [False, True])
def test_recurrence_of_uneven_raw_lanes_matches_per_cell_recursion(
        is_complex, shift):
    # the levels of the per-cell recursion on the Fraction normalization of
    # the base, with its taps solved cell by cell, then divided by the
    # tables: what the returned lanes decode to
    rng = random.Random(58)
    w1 = fraction_table(parse_moment("Gamma(1/2)"), 2, 12)
    w2 = fraction_table(parse_moment("Gamma(1)*Gamma(1/2)/Gamma(2)"), 1, 16)
    c = RationalComplex(Fraction(1, 2), Fraction(1, 3) if is_complex else 0)
    q = RationalComplex(Fraction(3, 4))
    terms = [(1, 0, c), (1, 2, RationalComplex(Fraction(-2, 3))),
             (2, 1, RationalComplex(Fraction(1, 5))),
             (1, -1, RationalComplex(Fraction(-1, 6)))]
    taps = [(1, RationalComplex(Fraction(1, 2))),
            (2, RationalComplex(Fraction(-1, 9)))]
    n, widths = 1, [10, 8, 6, 4, 2]
    zero = RationalComplex(0)
    for raw in _uneven_lanes(rng, len(widths), max(widths), is_complex):
        rows = [list(row) for row in kernel.denormalize(raw)]
        B = _gaussian_rows(normalize_fractions(
            rows, w1, w2, len(widths) - 1 - n, max(widths) + shift))

        def read(grid, r, i):
            return grid[r][i] if i >= 0 else zero
        U = []
        for t, w in enumerate(widths):
            if t < n:
                U.append([zero] * (w + 1))
                continue
            base = [q * read(B, t - n, i + shift) for i in range(w + 1)]
            up = [sum((c * U[t - a][i + b] for a, b, c in terms if b >= 0),
                      zero) for i in range(w + 1)]
            x = [sum((c * read(U, t - a, i + b) for a, b, c in terms
                      if b < 0), zero) for i in range(w + 1)]
            up, x = (up, [y + z for y, z in zip(x, base)]) if shift else (
                [y + z for y, z in zip(up, base)], x)
            v = []
            for i in range(w + 1):
                v.append(x[i] - sum((m * v[i - k] for k, m in taps if k <= i),
                                    zero))
            U.append([y + z for y, z in zip(up, v)])
        got = kernel.recurrence(raw, q, terms, n, widths, w1, w2, taps, shift)
        assert kernel.denormalize(got) == _raw(U, w1, w2)


@pytest.mark.parametrize("is_complex", [False, True])
def test_float_kernels_round_their_own_coefficients(is_complex):
    # coefficients given as Gaussian rationals, or already rounded by
    # kernel.binary64 (the form problem._divide passes), give bit-identical
    # arrays of the same dtype
    rng = random.Random(59)
    im = Fraction(1, 3) if is_complex else 0
    q = RationalComplex(Fraction(3, 7))
    terms = [(1, 0, RationalComplex(Fraction(1, 3), im)),
             (1, 2, RationalComplex(Fraction(-2, 3))),
             (1, -1, RationalComplex(Fraction(-1, 7), im))]
    taps = [(1, RationalComplex(Fraction(1, 3))),
            (2, RationalComplex(Fraction(-1, 11), im))]
    items = [((0, 0), RationalComplex(2)), ((1, 1), RationalComplex(-1, im)),
             ((0, 2), RationalComplex(Fraction(1, 3)))]
    m = parse_moment("Gamma(1/2)")
    logs1, logs2 = log_table(m, 2, 12), log_table(m, 1, 16)
    for dtype in (float, complex):
        base = np.array([[rng.uniform(-2, 2) for _ in range(11)]
                         for _ in range(5)], dtype=dtype)
        if dtype is complex:
            base.imag = [[rng.uniform(-2, 2) for _ in range(11)]
                         for _ in range(5)]
        grids = []
        for rounded in (False, True):
            args = ((kernel.binary64(q),
                     [(a, b, kernel.binary64(c)) for a, b, c in terms],
                     [(k, kernel.binary64(m)) for k, m in taps])
                    if rounded else (q, terms, taps))
            levels = [row.copy() for row in kernel.recurrence_float(
                base, args[0], args[1], 1, [10, 8, 6, 4, 2], logs1, logs2,
                args[2], -1)]
            r1 = kernel.ratios(logs1, {0, 1}, 3)
            r2 = kernel.ratios(logs2, {0, 1, 2}, 8)
            shifted = kernel.shift_float(
                base, [(k, kernel.binary64(p)) if rounded else (k, p)
                       for k, p in items], r1, r2, 3, 8)
            grids.append([*levels, shifted])
        for got, want in zip(*grids):
            assert got.dtype == want.dtype
            assert got.dtype == (complex if is_complex or dtype is complex
                                 else float)
            assert got.tobytes() == want.tobytes()


def _level_case(rng, is_complex):
    """A random ``recurrence_float`` case: real or complex base and
    coefficients, some of them exactly 1 or -1 or Gaussian rationals,
    terms shifting up and down, taps, a shift of 0 or below, widths that
    keep every read inside the level it reads (as ``level_widths`` does),
    and a base with inf, nan and -0.0 cells."""
    def coefficient():
        kind = rng.choice(["one", "minus_one", "real", "complex", "rational"])
        if kind == "one":
            return 1.0
        if kind == "minus_one":
            return -1.0
        if kind == "rational":
            return RationalComplex(Fraction(rng.randint(-9, 9), 7),
                                   Fraction(rng.randint(-3, 3), 5)
                                   if is_complex else 0)
        if kind == "complex" and is_complex:
            return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        return rng.uniform(-2, 2)

    n = rng.randint(1, 3)
    shift = rng.choice([0, 0, -1, -2])
    terms = [(rng.randint(1, n), rng.randint(-2, 2), coefficient())
             for _ in range(rng.randint(1, 5))]
    taps = [(k, coefficient() * 0.25) for k in range(1, rng.randint(1, 3))]
    levels, n2 = rng.randint(1, 14), rng.randint(0, 9)
    widths = [n2] * levels
    for t in range(levels - 2, -1, -1):
        for a, b, _ in terms:
            if t + a < levels and b >= 0:
                widths[t] = max(widths[t], widths[t + a] + b)
    width = max(widths)
    dtype = complex if is_complex and rng.random() < 0.7 else float
    base = np.array([[rng.uniform(-3, 3) for _ in range(width + 1)]
                     for _ in range(max(levels - n, 1))], dtype=dtype)
    if dtype is complex:
        base.imag = [[rng.uniform(-3, 3) for _ in range(width + 1)]
                     for _ in range(base.shape[0])]
    for _ in range(rng.randint(0, 3)):
        base[rng.randrange(base.shape[0]), rng.randrange(width + 1)] = \
            rng.choice([math.inf, -math.inf, math.nan, -0.0])
    m = parse_moment(rng.choice(["Gamma(1)", "Gamma(1/2)", "Gamma(3/2)"]))
    logs1 = log_table(m, rng.randint(1, 2), levels)
    logs2 = log_table(m, 1, width + 3)
    return base, coefficient(), terms, n, widths, logs1, logs2, taps, shift


@pytest.mark.parametrize("is_complex", [False, True])
def test_recurrence_float_matches_the_level_by_level_form(is_complex):
    # the bases filled at once, the ratio tables and the unit coefficients
    # applied as signs give every level bit for bit, and its dtype, as the
    # form that computes each level on its own
    rng = random.Random(60 + is_complex)
    units = 0
    for _ in range(150):
        args = _level_case(rng, is_complex)
        got = [row.copy() for row in kernel.recurrence_float(*args)]
        want = [row.copy() for row in recurrence_float_levels(*args)]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()
        units += any(abs(complex(c)) == 1.0 for _, _, c in args[2])
    assert units > 50
