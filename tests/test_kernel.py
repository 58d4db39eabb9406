import cmath
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import larger_k, random_series2, traced_peak
from oracles import (expand_taps, normalize_fractions,
                     recurrence_float_levels, recurrence_float_terms)

from mpde import kernel
from mpde.errors import EvaluationError
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
        w1 = fraction_table(larger_k(m, 2), n_rows + 1)
        w2 = fraction_table(m, n_cols + 2)
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
             (2, 2, rng.uniform(-1, 1))]
    B = rng.choice([1, 2])
    terms += [(a, -r, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
              for a in (1, 2) for r in range(1, B + 1)]
    widths = [width - 2 * max(t - 1, 0) for t in range(levels)]
    base = np.array([[complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                      for _ in range(width + 1)] for _ in range(levels)])
    m = parse_moment("Gamma(1/2)")
    return (base, 0.5, terms, 2, widths, log_table(m, levels),
            log_table(m, width + 2), _taps(rng, B))


def _terms_oracle(base, q, terms, n, widths, logs1, logs2, taps):
    """The term-by-term sum, taps expanded over the whole width."""
    return recurrence_float_terms(base, q,
                                  expand_taps(terms, taps, max(widths)),
                                  n, widths, logs1, logs2)


def _levels(grid, widths) -> list:
    """Level t of the grid that ``kernel.recurrence_float`` returns: its
    cells ``i <= widths[t]``."""
    return [grid[t, : w + 1] for t, w in enumerate(widths)]


def test_recurrence_float_tail_matches_term_by_term_sum():
    # the last levels are narrower than the largest downward shift
    rng = random.Random(52)
    for _ in range(5):
        args = _tail_case(rng, levels=10)
        got = _levels(kernel.recurrence_float(*args), args[4])
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
    got = _levels(kernel.recurrence_float(*args), args[4])
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
    args = (base, 0.5, terms, 1, [width] * levels, log_table(m, levels),
            log_table(m, width + 2))
    got, peak = traced_peak(lambda: _levels(
        kernel.recurrence_float(*args, taps), args[4]))
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
    accumulator rows ``accs``, each given as the first term ``(1, acc, 0)``,
    and the Gaussian terms (b, k) on row 0 of the source lanes."""
    lanes = kernel._lane_terms([(0, b, k) for b, k in terms], [src_re],
                               [src_im] if complex_lanes else None,
                               complex_lanes)
    return [kernel._fold([(1, acc, 0)] + kernel._row(lane, 0), len(acc))
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
    # one array subtraction, then np.exp of the differences: the floats of
    # np.exp of the scalar differences, bit for bit; offsets reaching below
    # index 0 leave zeros (math.exp agrees within 2 ulps, test_properties)
    m = parse_moment("Gamma(1/3)*Gamma(2)")
    logs, width = log_table(larger_k(m, 2), 40), 30
    listed = logs.tolist()
    for b, r in kernel.ratios(logs, offsets, width).items():
        lo = max(0, -b)
        want = [0.0] * lo + np.exp(np.array(
            [listed[i + b] - listed[i] for i in range(lo, width + 1)])).tolist()
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
        w1 = fraction_table(larger_k(m, 2), n_rows + 1)
        w2 = fraction_table(m, n_cols + 2)
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
    w1 = fraction_table(larger_k(parse_moment("Gamma(1/2)"), 2), 12)
    w2 = fraction_table(parse_moment("Gamma(1)*Gamma(1/2)/Gamma(2)"), 12)
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
        grid = kernel.rescale(raw, w1, w2, n_rows + 2, n_cols + 2)
        got = kernel.shift(grid, table, w1, w2, n_rows, n_cols)
        assert kernel.denormalize(got) == _raw(want, w1, w2)


@pytest.mark.parametrize("shift", [0, -1])
@pytest.mark.parametrize("is_complex", [False, True])
def test_recurrence_of_uneven_raw_lanes_matches_per_cell_recursion(
        is_complex, shift):
    # the levels of the per-cell recursion on the Fraction normalization of
    # the base, with its taps solved cell by cell, then divided by the
    # tables: what the returned lanes decode to; a base that stops before
    # the last level's row is read as zero past its last row
    rng = random.Random(58)
    w1 = fraction_table(larger_k(parse_moment("Gamma(1/2)"), 2), 12)
    w2 = fraction_table(parse_moment("Gamma(1)*Gamma(1/2)/Gamma(2)"), 16)
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
        for last in (len(widths) - 1 - n, 1):
            U = []
            for t, w in enumerate(widths):
                if t < n:
                    U.append([zero] * (w + 1))
                    continue
                base = [q * read(B, t - n, i + shift) if t - n <= last
                        else zero for i in range(w + 1)]
                up = [sum((c * U[t - a][i + b] for a, b, c in terms
                           if b >= 0), zero) for i in range(w + 1)]
                x = [sum((c * read(U, t - a, i + b) for a, b, c in terms
                          if b < 0), zero) for i in range(w + 1)]
                up, x = (up, [y + z for y, z in zip(x, base)]) if shift \
                    else ([y + z for y, z in zip(up, base)], x)
                v = []
                for i in range(w + 1):
                    v.append(x[i] - sum((m * v[i - k] for k, m in taps
                                         if k <= i), zero))
                U.append([y + z for y, z in zip(up, v)])
            base = kernel.rescale(raw, w1, w2, last, max(widths) + shift)
            assert len(base.re) == last + 1
            got = kernel.recurrence(base, q, terms, n, widths, w1, w2, taps,
                                    shift)
            assert kernel.denormalize(got) == _raw(U, w1, w2)


def test_recurrence_float_holds_its_output_and_a_ring_of_levels():
    # 2,000 levels of 201 columns and a window of 5 columns: beside its
    # output the kernel holds a ring of R = 16 levels (n = 2) and a few
    # scalars per level (the m1 ratios, the terms' scalars, the base's
    # scale), 256 bytes a level allowed, where a grid of every level would
    # take 3.2 MB; the ring wraps 125 times, and the levels are those of
    # the level-by-level form bit for bit
    levels, width, window = 2000, 200, 4
    rng = random.Random(67)
    base = np.array([[rng.uniform(-2, 2) for _ in range(width + 1)]])
    m = parse_moment("Gamma(1/2)")
    args = (base, 0.5, [(1, 0, 0.5), (2, 0, -0.25), (2, -1, 0.125)], 2,
            [width] * levels, log_table(m, levels), log_table(m, width + 2))
    got, peak = traced_peak(lambda: kernel.recurrence_float(*args,
                                                            window=window))
    ring = 16 * (width + 1) * got.itemsize
    assert got.shape == (levels, window + 1)
    assert peak <= got.nbytes + ring + 256 * levels
    want = recurrence_float_levels(*args)
    assert [g.tobytes() for g in got] == [
        w[: window + 1].tobytes() for w in want]


def _level_case(rng, is_complex):
    """A random ``recurrence_float`` case: real or complex base and
    coefficients, some of them exactly 1 or -1 or Gaussian rationals
    rounded by ``kernel.binary64``, as the package's callers round them,
    terms shifting up and down, taps, a shift of 0 or below, widths that
    keep every read inside the level it reads (as ``level_widths`` does),
    and a base with inf, nan and -0.0 cells, which may stop before the row
    of the last level; the oracle reads it zero-padded.  A third of the
    cases have 30 to 60 levels and n up to 9, so that the kernel's ring of
    levels (16 rows for n <= 8, 24 for n = 9) wraps."""
    def coefficient():
        kind = rng.choice(["one", "minus_one", "real", "complex", "rational"])
        if kind == "one":
            return 1.0
        if kind == "minus_one":
            return -1.0
        if kind == "rational":
            return kernel.binary64(RationalComplex(
                Fraction(rng.randint(-9, 9), 7),
                Fraction(rng.randint(-3, 3), 5) if is_complex else 0))
        if kind == "complex" and is_complex:
            return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        return rng.uniform(-2, 2)

    deep = rng.random() < 1 / 3
    n = rng.randint(1, 9 if deep else 3)
    shift = rng.choice([0, 0, -1, -2])
    terms = [(rng.randint(1, n), rng.randint(-2, 2), coefficient())
             for _ in range(rng.randint(1, 5))]
    taps = [(k, coefficient() * 0.25) for k in range(1, rng.randint(1, 3))]
    levels = rng.randint(30, 60) if deep else rng.randint(1, 14)
    n2 = rng.randint(0, 9)
    widths = [n2] * levels
    for t in range(levels - 2, -1, -1):
        for a, b, _ in terms:
            if t + a < levels and b >= 0:
                widths[t] = max(widths[t], widths[t + a] + b)
    width = max(widths)
    dtype = complex if is_complex and rng.random() < 0.7 else float
    base = np.array([[rng.uniform(-3, 3) for _ in range(width + 1)]
                     for _ in range(rng.randint(1, max(levels - n, 1)))],
                    dtype=dtype)
    if dtype is complex:
        base.imag = [[rng.uniform(-3, 3) for _ in range(width + 1)]
                     for _ in range(base.shape[0])]
    for _ in range(rng.randint(0, 3)):
        base[rng.randrange(base.shape[0]), rng.randrange(width + 1)] = \
            rng.choice([math.inf, -math.inf, math.nan, -0.0])
    # Gamma(0) is the unit moments that every rational rhs division passes
    m = parse_moment(rng.choice(["Gamma(0)", "Gamma(1)", "Gamma(1/2)",
                                 "Gamma(3/2)"]))
    logs1 = log_table(larger_k(m, rng.randint(1, 2)), levels)
    logs2 = log_table(m, width + 3)
    return base, coefficient(), terms, n, widths, logs1, logs2, taps, shift


@pytest.mark.parametrize("is_complex", [False, True])
def test_recurrence_float_matches_the_level_by_level_form(is_complex):
    # the bases filled at once, the ratio tables and the unit coefficients
    # applied as signs give every level bit for bit, and its dtype, as the
    # form that computes each level on its own, unit moments (M2 = 1, as
    # the rhs division runs) included; both float kernels keep a float64
    # grid float64 when every rounded coefficient is real
    rng = random.Random(60 + is_complex)
    units = unit_moments = 0
    for _ in range(150):
        args = _level_case(rng, is_complex)
        base, scalars = args[0], [args[1], *(c for _, _, c in args[2]),
                                  *(m for _, m in args[7])]
        dtype = complex if base.dtype == complex or any(
            isinstance(c, complex) for c in scalars) else float
        assert is_complex or dtype is float
        got = _levels(kernel.recurrence_float(*args), args[4])
        want = [row.copy() for row in recurrence_float_levels(*args)]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == dtype
            assert g.tobytes() == w.tobytes()
        rows, cols = base.shape
        shifted = kernel.shift_float(
            base, [((0, 0), c) for c in scalars], {0: np.ones(rows)},
            {0: np.ones(cols)}, rows - 1, cols - 1)
        assert shifted.dtype == dtype
        units += any(abs(complex(c)) == 1.0 for _, _, c in args[2])
        unit_moments += not (args[5].any() or args[6].any())
    assert units > 50 and unit_moments > 20


@pytest.mark.parametrize("is_complex", [False, True])
def test_shift_float_leaves_out_only_factors_of_one(is_complex):
    # shift_float multiplies a block by p_ab unless it is the real 1 or -1,
    # by the m1 ratio column only for a != 0 and by the m2 ratio row only
    # for b != 0, and reads no ratio of a zero offset: its float64 output
    # is the written-out sum of p * u * r1 * r2 bit for bit, signed zeros,
    # overflows and NaNs included, and a complex128 one has its modulus on
    # every finite cell; the items +-1j, of modulus one, are multiplied
    rng = random.Random(45 + is_complex)
    n_rows, n_cols = 7, 9
    logs1 = log_table(parse_moment("Gamma(1/2)"), n_rows + 3)
    logs2 = log_table(parse_moment("Gamma(3/2)"), n_cols + 3)
    values = (1.5, -0.75, 0.0, -0.0, 3e307, -1.7e308, 1e-310)
    coefficients = (1.0, -1.0, 2.5, -0.5, 1j, -1j)
    float_cases = 0
    for _ in range(200):
        u = np.array([[rng.choice(values) for _ in range(n_cols + 4)]
                      for _ in range(n_rows + 4)])
        if is_complex:
            u = u + 1j * np.array([[rng.choice(values)
                                    for _ in range(n_cols + 4)]
                                   for _ in range(n_rows + 4)])
        offsets = [(0, 0), (rng.randint(1, 3), 0), (0, rng.randint(1, 3)),
                   (rng.randint(0, 3), rng.randint(0, 3))]
        real_only = rng.random() < 0.5
        items = [(k, rng.choice(coefficients[:4] if real_only
                                else coefficients))
                 for k in rng.sample(offsets, rng.randint(1, 4))]
        r1 = kernel.ratios(logs1, {a for (a, _), _ in items}, n_rows)
        r2 = kernel.ratios(logs2, {b for (_, b), _ in items}, n_cols)
        got = kernel.shift_float(
            u, items, {a: r for a, r in r1.items() if a},
            {b: r for b, r in r2.items() if b}, n_rows, n_cols)
        want = np.zeros((n_rows + 1, n_cols + 1),
                        dtype=np.result_type(u, *(p for _, p in items)))
        with np.errstate(over="ignore", invalid="ignore"):
            for (a, b), p in items:
                want += (p * u[a: a + n_rows + 1, b: b + n_cols + 1]
                         * r1[a][:, None] * r2[b])
        assert got.dtype == want.dtype
        if want.dtype == float:
            float_cases += 1
            assert got.tobytes() == want.tobytes()
        else:
            finite = np.isfinite(want)
            with np.errstate(over="ignore"):
                assert np.array_equal(kernel.modulus(got)[finite],
                                      kernel.modulus(want)[finite])
    assert float_cases > 50 or is_complex


@pytest.mark.parametrize("q", [1.78e308, -1.78e308, 0.5])
def test_recurrence_float_reads_past_the_base_rows_as_a_zero_row(q):
    # a one-row base gives the levels, bit for bit, of the base zero-padded
    # to every level it reads, also at level 2, whose scale q * m1(1)/m1(2),
    # 1.02 q, is beyond binary64 for the largest q: a zero row gives NaN
    m = larger_k(parse_moment("Gamma(1/2)"), 2)
    levels, width = 6, 4
    args = ([(1, 0, 0.5)], 1, [width] * levels, log_table(m, levels),
            log_table(m, width + 3))
    base = np.array([[1.5, -0.0, 2.0, 0.5, -1.0]])
    padded = np.vstack([base, np.zeros((levels - 2, width + 1))])
    got = kernel.recurrence_float(base, q, *args)
    want = kernel.recurrence_float(padded, q, *args)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert np.isnan(want[2]).all() == (abs(q) > 1e308)


@pytest.mark.parametrize("is_complex", [False, True])
def test_recurrence_float_runs_a_table_too_wide_to_z_normalize_raw(
        is_complex):
    # a log m2 that bends too far from a line for z-normalized levels, D2
    # past D2_MAX: the levels run with M2 = 1 and the m2 ratio vectors, as
    # the level-by-level form does bit for bit and the term-by-term sum
    # does within its bound
    rng = random.Random(64 + is_complex)
    ran = 0
    for _ in range(100):
        args = list(_level_case(rng, is_complex))
        width = max(args[4])
        if width < 14:
            continue
        # log m2(i) = alpha i**2, whose ratios at offsets up to 2 stay
        # below e**600 and whose D2 is alpha width**2 / 4 nats, past
        # D2_MAX bits from width 14 on
        args[6] = 150 / (width + 3) * np.arange(width + 4.0) ** 2
        assert kernel._z_scale(args[6], width) is None
        got = _levels(kernel.recurrence_float(*args), args[4])
        want = [row.copy() for row in recurrence_float_levels(*args)]
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        ran += 1
    assert ran > 20
    args = list(_tail_case(random.Random(65), levels=4))
    args[6] = 150 / len(args[6]) * np.arange(len(args[6]), dtype=float) ** 2
    got = _levels(kernel.recurrence_float(*args), args[4])
    for g, w in zip(got, _terms_oracle(*args)):
        assert np.max(np.abs(g - w)) <= 1e-13 * max(np.max(np.abs(w)), 1.0)


@pytest.mark.parametrize("c", [1e300, 1e300 + 1e300j, 1e-300])
def test_recurrence_float_scalar_beyond_binary64_keeps_zero_cells_zero(c):
    # m1(1)/m1(2) = e**700, so the term's scalar of level 2, c times it, is
    # beyond binary64 but for the smallest c; such a term multiplies by c,
    # the m1 ratio and exp(kappa*b) in turn, so the zero cells of the level
    # it reads stay zero, where an infinite scalar would make them NaN, and
    # its other cells are those of the term-by-term sum; the smallest c
    # keeps its finite scalar, whose product the term-by-term order, c
    # times 1e-300 first, would flush to zero
    logs1 = np.array([0.0, 0.0, -700.0])
    logs2 = log_table(parse_moment("Gamma(1/2)"), 8)
    base = np.zeros((2, 7), dtype=complex)
    base[0, 3] = 1e-300
    widths = [6, 5, 4]
    args = (base, 1.0, [(1, 1, c)], 1, widths, logs1, logs2)
    got = _levels(kernel.recurrence_float(*args), widths)
    want = [row.copy() for row in recurrence_float_levels(*args)]
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    assert np.isfinite(got[2]).all() and np.count_nonzero(got[2]) == 1
    if abs(c) > 1:
        for g, w in zip(got, recurrence_float_terms(*args)):
            assert np.allclose(g, w, rtol=1e-13, atol=0)


@pytest.mark.parametrize("is_complex", [False, True])
def test_recurrence_float_checks_its_window_as_the_level_by_level_form(
        is_complex):
    # with a window, the kernel raises exactly when the level-by-level form
    # has a non-finite cell at a column <= window, naming the same first
    # level and advising exact arithmetic when that level is n, the first
    # that the base sets; non-finite cells past the window alone do not
    # raise, and the levels returned are those of no window, cut to the
    # window's columns
    rng = random.Random(62 + is_complex)
    raised, at_n, past = 0, 0, 0
    for _ in range(200):
        args = _level_case(rng, is_complex)
        n, widths = args[3], args[4]
        window = rng.randint(0, min(widths))
        want = [row.copy() for row in recurrence_float_levels(*args)]
        bad = next((t for t, row in enumerate(want)
                    if not np.isfinite(row[: window + 1]).all()), None)
        if bad is None:
            got = kernel.recurrence_float(*args, window)
            assert got.shape == (len(widths), window + 1)
            assert [g.tobytes() for g in got] == [
                w[: window + 1].tobytes() for w in want]
            past += not all(np.isfinite(row).all() for row in want)
            continue
        with pytest.raises(EvaluationError) as exc:
            kernel.recurrence_float(*args, window)
        advice = ("use --arithmetic exact" if bad == n else
                  f"lower the t-truncation (--n1) below {bad}, or check "
                  f"larger ones with verify --arithmetic exact")
        assert str(exc.value) == (
            f"float coefficients overflow at t-level {bad} (of "
            f"{len(widths) - 1}) inside the requested window; {advice}")
        raised += 1
        at_n += bad == n
    assert raised > 20 and 0 < at_n < raised and past > 5


def test_recurrence_float_restores_the_numpy_error_state():
    # level 1 overflows, which the kernel ignores inside, whether it then
    # returns (no window, or the finite column 0) or raises (window 1); the
    # caller's error state, here one that raises on overflow, comes back
    # in every case
    base = np.array([[1.0, 1e300]])
    args = (base, 1e10, [], 1, [1, 1], np.zeros(2), np.zeros(2))
    with np.errstate(over="raise", invalid="warn", divide="print",
                     under="ignore"):
        state = np.geterr()
        grid = kernel.recurrence_float(*args)
        assert grid[1].tolist() == [1e10, math.inf]
        assert np.geterr() == state
        kernel.recurrence_float(*args, (), 0, 0)
        assert np.geterr() == state
        with pytest.raises(EvaluationError, match="t-level 1 .of 1. "):
            kernel.recurrence_float(*args, (), 0, 1)
        assert np.geterr() == state
