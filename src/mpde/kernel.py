"""Shift kernel of the moment operators, for exact and float arithmetic.

In normalized coordinates ``U_{j,i} = u_{j,i} * m1(j) * m2(i)`` a moment
operator with constant coefficients is a pure shift,
``sum p_ab U_{j+a,i+b}``, and the formal-solution recursion is a shift
recursion between t-levels.  Each runs as one function per arithmetic:
:func:`shift` and :func:`recurrence` for exact mode, :func:`shift_float`
and :func:`recurrence_float` for float mode.  All four return a finished
grid of raw coefficients.  The float pair takes raw coefficients and
applies the moment ratios; the exact pair takes a grid that
:func:`rescale` normalized, once for every reader.

Exact mode runs on Python integers:

* an exact grid of raw coefficients is held as :class:`RawLanes`, integer
  numerator rows with one divisor per row and one per column; real and
  imaginary parts sit in separate lanes, and the imaginary lane is ``None``
  when every imaginary part is zero;
* :func:`rescale` brings the rows and columns that :func:`shift` and
  :func:`recurrence` read to normalized coordinates, :class:`Lanes` of
  integer numerators over one common denominator, with O(rows + columns)
  quotients and one gcd;
* a recursion with rational coefficients stays integral by scaling level t
  by ``d**(t+1)``, where d is the common denominator of its coefficients,
  in the fraction-free spirit of Bareiss (Math. Comp. 1968), and column i
  by ``e**i``, where e is the common denominator of its taps;
* each output row is built in one lazy pass, :func:`_fold`, per lane: a
  chain of maps that starts from the first term's integer multiple of a
  source row and adds each further term's, materialized once, whatever the
  terms (real or Gaussian, shifting up or down, the base or the tap sum);
* the output keeps its level divisors times the moment values as row and
  column divisors.  Moment values (:func:`mpde.moments.fraction_table`),
  divisors and the parts of Gaussian rationals are ints where integral and
  Fractions otherwise, and divide by one rule, :func:`mpde.exact.quotient`.
  One decoder divides the divisors out of raw lanes, row by row:
  :func:`denormalize` builds Gaussian rationals, :func:`binary64_rows`
  correctly rounded binary64 parts.

Float mode runs on numpy arrays of raw coefficients, so that grids whose
normalized coefficients would overflow binary64 stay finite.  The two
float functions take their coefficients as binary64 scalars, which the
callers round once by :func:`rounded` (a real one to a Python float), where
they can name a coefficient beyond binary64; numpy's dtype follows the
data: float64 for a real problem, which never computes an imaginary plane,
complex128 otherwise.  The moment values enter through the logs of
:func:`mpde.moments.log_table`.  :func:`shift_float` takes them as ratios
``m(x)/m(y) = exp(log m(x) - log m(y))``: one scalar per row offset and
level, and one vector per column offset (:func:`ratios`), each offset's
exponentials one ``np.exp`` of the array of log differences.
:func:`recurrence_float` takes the m1 ratios so, one scalar per row offset
and level, and applies m2 once, at the boundary: its levels are
z-normalized, ``W = u * M2`` with the column scale of :func:`_z_scale`, on
which each term is one scalar per level times a shifted row.  On hosts
where numpy vectorizes ``exp`` its last bit may differ from ``math.exp``,
far below the rounding error of the recursion; a ratio beyond binary64,
found on the log differences, raises EvaluationError naming the moment
function.  The fixed cost of a numpy call outweighs the arithmetic on a
level's columns, so :func:`recurrence_float` makes few calls per level,
fills its levels' base and checks its output window a block of levels at
a time, stopping at the block where the window overflows, and gives every
cell the same IEEE operations in the same order as a loop over levels and
terms would.  Overflow and invalid operations give ``inf`` and ``nan``
without a warning: :func:`shift_float` ignores them around its sum,
:func:`recurrence_float` from its moment ratios to its last level, and
both restore the caller's numpy error state when they return or raise.

Both recursions divide by a top coefficient of degree B in z through B
taps: the terms that shift down are summed into a second accumulator per
level, on which a B-tap recurrence along z runs, in order of increasing i;
a base read at a negative z-offset joins that accumulator.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import chain, islice, repeat
from operator import add, neg, sub

from .errors import EvaluationError
from .exact import RationalComplex, quotient
from .record import record


@record
class Lanes:
    """Grid ``(re + i*im) / den`` of integer numerator rows.

    Rows may differ in length; ``im`` is None for real data.
    """

    re: list
    im: list | None
    den: int


@record
class RawLanes:
    """Grid ``(re + i*im)[j][i] / (row_div[j] * col_div[i])`` of raw
    coefficients: integer numerator rows, ``im`` None for real data, and
    nonzero rational divisors (ints or Fractions), one per row and one per
    column.
    """

    re: list
    im: list | None
    row_div: list
    col_div: list


def common_denominator(values) -> int:
    """Least common denominator of the parts of Gaussian rationals."""
    return math.lcm(*(q.denominator for c in values for q in (c.re, c.im)))


def gaussian_int(c: RationalComplex, d: int) -> tuple:
    """``c * d`` as an integer pair; d must clear the denominators of c."""
    return tuple(q.numerator * (d // q.denominator) for q in (c.re, c.im))


def lanes_of_table(table: dict, n1: int, n2: int) -> RawLanes:
    """The (n1, n2) grid of the Gaussian rationals ``table`` {(j, i): value},
    absent cells zero, as raw lanes over their common denominator; entries
    outside the grid are dropped; only the entries are read."""
    table = {k: v for k, v in table.items() if k[0] <= n1 and k[1] <= n2}
    d = common_denominator(table.values())
    lanes = [[[0] * (n2 + 1) for _ in range(n1 + 1)]
             for _ in range(1 + any(v.im for v in table.values()))]
    for (j, i), v in table.items():
        for lane, x in zip(lanes, gaussian_int(v, d)):
            lane[j][i] = x
    return RawLanes(lanes[0], lanes[1] if len(lanes) == 2 else None,
                    [d] * (n1 + 1), [1] * (n2 + 1))


def rescale(grid: RawLanes, w1, w2, n_rows: int, n_cols: int) -> Lanes:
    """Numerators of ``grid[j][i] * w1[j] * w2[i]`` for j <= n_rows,
    i <= n_cols, over the least common denominator of the cells.

    Row j is multiplied by ``w1[j] / row_div[j]`` and column i by
    ``w2[i] / col_div[i]``, O(rows + columns) quotients, ints where they
    are integral and Fractions otherwise (:func:`mpde.exact.quotient`),
    brought to the product L of their two common denominators; one gcd of
    L and all the numerators then leaves the least common denominator of
    the cells.  An exact solve calls it once on its rhs
    (:attr:`mpde.solver.CauchyProblem.normalized_rhs`) and once on its
    solution.
    """
    rows = [quotient(w1[j], grid.row_div[j]) for j in range(n_rows + 1)]
    # a unit divisor, as in every column of an rhs, needs no quotient
    cols = [w2[i] if c == 1 else quotient(w2[i], c)
            for i, c in enumerate(grid.col_div[: n_cols + 1])]
    lr = math.lcm(*(f.denominator for f in rows))
    rk = [f.numerator * (lr // f.denominator) for f in rows]
    if set(map(type, cols)) == {int}:  # as for Gamma(1) or unit tables
        lc, ck = 1, cols
    else:
        lc = math.lcm(*(f.denominator for f in cols))
        ck = [f.numerator * (lc // f.denominator) for f in cols]
    unit_cols = ck.count(1) == len(ck)
    den = g = lr * lc
    lanes = []
    for lane in (grid.re, grid.im):
        if lane is None:
            continue
        out = []
        for r, row in zip(rk, lane):
            row = row[: n_cols + 1]
            if any(row):
                if not unit_cols:
                    row = [x * k for x, k in zip(row, ck)]
                if r != 1:
                    row = [x * r for x in row]
                if g > 1:
                    g = math.gcd(g, *row)
            out.append(row)
        lanes.append(out)
    if g > 1:
        lanes = [[[x // g for x in row] for row in lane] for lane in lanes]
        den //= g
    im = lanes[1] if len(lanes) == 2 and any(map(any, lanes[1])) else None
    return Lanes(lanes[0], im, den)


def window(grid: RawLanes, n_rows: int, n_cols: int) -> RawLanes:
    """The rows j <= n_rows and columns i <= n_cols of ``grid``."""
    re, im = (None if lane is None
              else [row[: n_cols + 1] for row in lane[: n_rows + 1]]
              for lane in (grid.re, grid.im))
    return RawLanes(re, im, grid.row_div[: n_rows + 1],
                    grid.col_div[: n_cols + 1])


def _fold(terms, n: int) -> list:
    """``sum k * src[i + b]`` for i < n over the ``terms`` (k, src, b), in
    one lazy pass that ``list`` materializes once; reads below index 0 are
    zero, and no term list gives n zeros.

    The first term starts the sum, ``src``, ``-src`` or ``k * src`` cut to
    its n cells, so no cell is added to a zero; a k of 1 or -1 adds or
    subtracts without the multiply.  Each src must reach index
    ``n - 1 + b``.
    """
    if not terms:
        return [0] * n
    (k, src, b), *rest = terms
    src = (islice(src, b, b + n) if b >= 0
           else islice(chain(repeat(0, -b), src), n))
    acc = (src if k == 1 else map(neg, src) if k == -1
           else map(k.__mul__, src))
    for k, src, b in rest:
        src = islice(src, b, None) if b >= 0 else chain(repeat(0, -b), src)
        if k == 1:
            acc = map(add, acc, src)
        elif k == -1:
            acc = map(sub, acc, src)
        else:
            acc = map(add, acc, map(k.__mul__, src))
    return list(acc)


def _lane_terms(terms, src_re, src_im, is_complex: bool) -> tuple:
    """The integer terms (k, rows, da, b) of the real and of the imaginary
    output lane for the Gaussian-integer terms (da, b, (kr, ki)) that read
    row ``r + da`` of the source lanes into output row r: ``k * src`` adds
    ``kr*re - ki*im`` to the real lane and ``kr*im + ki*re`` to the
    imaginary one.  A zero part, or an ``src_im`` of None, adds nothing."""
    re, im = [], []
    for da, b, (kr, ki) in terms:
        re += [(k, s, da, b) for k, s in ((kr, src_re), (-ki, src_im))
               if k and s is not None]
        if is_complex:
            im += [(k, s, da, b) for k, s in ((kr, src_im), (ki, src_re))
                   if k and s is not None]
    return (re, im) if is_complex else (re,)


def _row(lane_terms, r: int, scale: int = 1) -> list:
    """The (k * scale, src, b) terms that ``lane_terms`` give output row r."""
    return [(k * scale, rows[r + da], b) for k, rows, da, b in lane_terms]


def shift(grid: Lanes, table, w1, w2, n_rows: int, n_cols: int) -> RawLanes:
    """``out[j][i] = sum p_ab * U[j+a][i+b]`` over ``table`` {(a, b): p_ab}
    for j <= n_rows, i <= n_cols, U the grid :func:`rescale` normalized by
    the moment tables w1, w2 on at least the cells it reads, as raw lanes
    with ``row_div[j] = den * d * w1[j]`` and ``col_div[i] = w2[i]``: d,
    the common denominator of the coefficients, joins the ``den`` of U;
    each output row is one :func:`_fold` per lane.
    """
    coeffs = {k: RationalComplex.coerce(p) for k, p in table.items()}
    d = common_denominator(coeffs.values())
    ks = [(a, b, gaussian_int(p, d)) for (a, b), p in coeffs.items()]
    is_complex = grid.im is not None or any(k[1] for _, _, k in ks)
    lanes = _lane_terms(ks, grid.re, grid.im, is_complex)
    out = [[_fold(_row(terms, j), n_cols + 1)
            for j in range(n_rows + 1)] for terms in lanes]
    return RawLanes(out[0], out[1] if is_complex else None,
                    [grid.den * d * w for w in w1[: n_rows + 1]],
                    w2[: n_cols + 1])


def run_taps(x_re, x_im, taps) -> None:
    """Solve ``V_i + sum m_k V_{i-k} = X_i`` in place of x, i ascending, for
    the ``taps`` [(k, m_k)], k >= 1 ascending, V zero below index 0."""
    for i in range(len(x_re)):
        for k, (mr, mi) in taps:
            if k > i:
                break
            if x_im is None:
                x_re[i] -= mr * x_re[i - k]
            else:
                pr, pi = x_re[i - k], x_im[i - k]
                x_re[i] -= mr * pr - mi * pi
                x_im[i] -= mr * pi + mi * pr


def recurrence(base: Lanes, q: RationalComplex, terms, n: int, widths,
               w1, w2, taps, shift: int) -> RawLanes:
    """Levels ``U[t] = q B[t-n][i+shift] + sum c U[t-a][i+b] + V[t]``.

    ``B`` is the grid ``base`` that :func:`rescale` normalized by the
    moment tables w1, w2 on at least the cells the levels read; ``terms``
    are (a, b, c) with a >= 1 and Gaussian-rational c.  Level t is zero for
    t < n and computed for ``i <= widths[t]``; reads below index 0, and of
    the base's rows past its last, are zero.  The terms with b < 0, and
    the base when ``shift < 0``, are summed into ``X[t]`` instead, and
    ``V[t]`` solves ``V_i + sum m_k V_{i-k} = X_i`` for the ``taps``
    [(k, m_k)], k >= 1 ascending.  ``X[t]``
    and then level t, which adds ``V[t]`` to the base and the other terms,
    are one :func:`_fold` per lane each.

    With e the common denominator of the taps, ``W[t][i] = U[t][i] e**i``
    obeys the recursion with ``c e**-b`` for c, ``q e**-shift`` for q and
    the Gaussian integers ``m_k e**k`` for the taps.  With d the common
    denominator of q and the ``c e**-b``, the levels
    ``V[t] = W[t] * den * d**(t+1)`` are integral, den that of the rescaled
    B.  Returns the raw levels as lanes with ``row_div[t] = den * d**(t+1)
    * w1[t]`` and ``col_div[i] = e**i * w2[i]``.
    """
    width = max(widths)
    e = common_denominator(m for _, m in taps)
    kt = [(k, gaussian_int(m, e ** k)) for k, m in taps]
    if e != 1:
        terms = [(a, b, c * Fraction(e) ** -b) for a, b, c in terms]
        q = q * Fraction(e) ** -shift
    d = common_denominator([q] + [c for _, _, c in terms])
    kq = gaussian_int(q, d)
    ks = [(a, b, tuple(x * d ** (a - 1) for x in gaussian_int(c, d)))
          for a, b, c in terms]
    is_complex = (base.im is not None or kq[1] != 0
                  or any(k[1] for _, _, k in ks) or any(m[1] for _, m in kt))
    col_div = [e ** i for i in range(width + 1)]
    base_re, base_im = base.re, base.im
    if e != 1:
        base_re, base_im = ([[x * p for x, p in zip(row, col_div)]
                             for row in lane] if lane is not None else None
                            for lane in (base_re, base_im))
    v_re, v_im = [], [] if is_complex else None
    lanes = [v_re, v_im][: 1 + is_complex]
    # per output lane: the base's terms, whose multiplier level t scales by
    # d**t, and those of the terms that shift up and down
    lane_base = _lane_terms([(-n, shift, kq)], base_re, base_im, is_complex)
    lane_up, lane_down = (
        _lane_terms([(-a, b, k) for a, b, k in ks if (b >= 0) == is_up],
                    v_re, v_im, is_complex) for is_up in (True, False))
    power = 1  # d**t
    row_div = []
    for t, w in enumerate(widths):
        row_div.append(base.den * power * d * w1[t])
        if t < n:
            rows = [[0] * (w + 1) for _ in lanes]
        else:
            ups, downs = [], []
            for b_terms, u_terms, d_terms in zip(lane_base, lane_up,
                                                 lane_down):
                b_terms = _row(b_terms, t, power) if t - n < len(base.re) \
                    else []
                ups.append((b_terms if not shift else []) + _row(u_terms, t))
                downs.append((b_terms if shift else []) + _row(d_terms, t))
            if any(downs):
                xs = [_fold(terms, w + 1) for terms in downs]
                run_taps(xs[0], xs[1] if is_complex else None, kt)
                for terms, x in zip(ups, xs):
                    terms.append((1, x, 0))
            rows = [_fold(terms, w + 1) for terms in ups]
        for lane, row in zip(lanes, rows):
            lane.append(row)
        power *= d
    return RawLanes(v_re, v_im, row_div,
                    [w if c == 1 else c * w for c, w in zip(col_div, w2)])


class CellOverflow(OverflowError):
    """A part of exact cell ``(j, i)`` lies outside the binary64 range."""

    def __init__(self, j: int, i: int, log2: float):
        super().__init__(f"exact coefficient ({j}, {i}) is about "
                         f"2^{log2:.1f}, outside the binary64 range")
        self.j = j


def _decode(grid: RawLanes, rows, n_cols: int):
    """The one decoder of raw lanes: yield ``(j, parts, nums, dens)`` for
    each row j in ``rows``; ``parts`` are its numerator rows ``[re]`` or
    ``[re, im]``, and a part x of cell i <= n_cols is ``x * nums[i] /
    dens[i]``, with ``nums[i] > 0``.  The factors come from each divisor's
    ``as_integer_ratio()``, an int's or a Fraction's alike."""
    col_nums, col_dens = zip(*(c.as_integer_ratio()
                               for c in grid.col_div[: n_cols + 1]))
    for j in rows:
        r_num, r_den = grid.row_div[j].as_integer_ratio()
        yield (j, [lane[j] for lane in (grid.re, grid.im) if lane is not None],
               [r_den * c for c in col_dens], [r_num * c for c in col_nums])


def denormalize(grid: RawLanes) -> tuple:
    """Tuple rows of the raw coefficients of ``grid`` as RationalComplex."""
    out = []
    for _, parts, nums, dens in _decode(grid, range(len(grid.re)),
                                        len(grid.col_div) - 1):
        vals = [[quotient(x * n, d) if x else 0
                 for x, n, d in zip(part, nums, dens)] for part in parts]
        out.append(tuple(map(RationalComplex, vals[0],
                             vals[1] if len(vals) == 2 else repeat(0))))
    return tuple(out)


def binary64_rows(grid: RawLanes, rows, n_cols: int):
    """Yield, for each row j in ``rows``, the float lists ``[re]`` (real
    lanes) or ``[re, im]`` of its cells i <= n_cols, each part the integer
    quotient ``x * n / d``, which Python rounds correctly, as
    ``float(Fraction)`` does.  The first cell, in row-major order, with a
    part outside the binary64 range raises CellOverflow."""
    for j, parts, nums, dens in _decode(grid, rows, n_cols):
        try:
            out = [[x * n / d if x else 0.0
                    for x, n, d in zip(part, nums, dens)] for part in parts]
        except OverflowError:
            for i, (n, d) in enumerate(zip(nums, dens)):
                for x in (part[i] for part in parts):
                    try:
                        x * n / d
                    except OverflowError:
                        log2 = math.log2(abs(x) * n) - math.log2(abs(d))
                        raise CellOverflow(j, i, log2) from None
        yield out


# -- float arithmetic -------------------------------------------------------


def binary64(c):
    """``c`` rounded to a Python float when its imaginary part is +0.0,
    else to a Python complex; a RationalComplex too large for binary64
    raises OverflowError; a float or complex it returned comes back as is."""
    z = complex(c)
    return z.real if z.imag == 0.0 and math.copysign(1.0, z.imag) > 0 else z


_USE_EXACT = "; use --arithmetic exact"


def beyond_binary64(what: str, advice: str = _USE_EXACT) -> EvaluationError:
    """The EvaluationError of a value ``what`` names that binary64 cannot
    hold, followed by ``advice``."""
    return EvaluationError(f"{what} beyond the binary64 range of float "
                           f"arithmetic{advice}")


def rounded(c, what: str, advice: str = _USE_EXACT):
    """:func:`binary64` of ``c``; a c beyond binary64 raises the
    :func:`beyond_binary64` error of ``what`` and ``advice``."""
    try:
        return binary64(c)
    except OverflowError:
        raise beyond_binary64(f"{what} is", advice) from None


def modulus(grid):
    """``|c|`` of each cell of a numpy array: ``np.abs`` of a float64 one,
    which is bit for bit ``hypot(x, 0)``, and ``np.hypot`` of the planes of
    a complex one, which rounds as ``abs()`` of a Python complex does
    (``np.abs`` of a complex array may differ in the last bit)."""
    import numpy as np

    if grid.dtype.kind != "c":
        return np.abs(grid)
    return np.hypot(grid.real, grid.imag)


def read_only(grid):
    """``grid`` marked read-only, so that a Series2 keeps it uncopied."""
    grid.flags.writeable = False
    return grid


# np.exp and math.exp of x are beyond binary64 exactly when x exceeds this
_LOG_MAX = math.log(sys.float_info.max)


def _log_differences(logs, b: int, lo: int, hi: int, name: str):
    """``logs[i + b] - logs[i]`` for ``lo <= i <= hi``, a numpy array: one
    array subtraction, which rounds as Python's float subtraction does.  A
    difference above :data:`_LOG_MAX`, a ratio of moment values beyond
    binary64, raises the :func:`beyond_binary64` error naming the first such
    i and the moment function ``name`` of the table ``logs``."""
    import numpy as np

    if lo > hi:
        return np.empty(0)
    d = logs[lo + b: hi + 1 + b] - logs[lo: hi + 1]
    if not d.max() <= _LOG_MAX:  # or a NaN, which np.exp keeps finite
        big = d > _LOG_MAX
        if big.any():
            i = lo + int(big.argmax())
            raise beyond_binary64(f"the ratio of the {name} values at "
                                  f"indices {i + b} and {i} is")
    return d


def ratios(logs, offsets, width: int, name: str = "m") -> dict:
    """``{b: r}`` with ``r[i] = exp(logs[i + b] - logs[i])`` for i <= width.

    ``logs`` is a numpy float array of the logs of the moment function
    ``name``; each offset costs one array subtraction
    (:func:`_log_differences`, which raises EvaluationError naming ``name``
    for a ratio beyond binary64) and one ``np.exp``, whose last bit may
    differ from ``math.exp`` on hosts where numpy vectorizes it.  Entries
    with ``i + b < 0`` are never read and stay 0.
    """
    import numpy as np

    out = {}
    for b in offsets:
        lo = max(0, -b)
        r = np.zeros(width + 1)
        with np.errstate(under="ignore"):
            r[lo:] = np.exp(_log_differences(logs, b, lo, width, name))
        out[b] = r
    return out


# recurrence_float z-normalizes its levels while D2, the bits by which that
# raises the bottom of its float range, is at most this
D2_MAX = 512
# kappa is rounded up to a multiple of this, so that kappa*i is exact on
# any table of fewer than 2**17 columns and slope below 2**4
_KAPPA_STEP = 2.0 ** -32


def _z_scale(logs, width: int):
    """``(kappa, M2)``, the column scale of the z-normalized levels of
    :func:`recurrence_float` on the columns i <= width, or None.

    With ``l(i) = logs[i] - logs[0]``, the natural log of ``m2(i)/m2(0)``,
    kappa is the largest slope ``l(i)/i`` over 1 <= i <= width (0 for width
    0), rounded up to a multiple of :data:`_KAPPA_STEP`, and ``M2(i) =
    exp(min(l(i) - kappa*i, 0))``, a numpy array: M2 <= 1, the min catching
    only a last-bit excess of ``l(i)/i``.  As ``kappa*i`` is exact, the
    exponent of M2 carries the rounding of one subtraction, so that
    ``exp(kappa*b) * M2(i+b) / M2(i)`` matches the ratio ``m2(i+b)/m2(i)``
    of the log table to a few units in the last place.  A cell of ``u *
    M2`` falls below the binary64 range where u does not only when ``|u| <
    2**-1074 / M2(i)``: the bottom of the range rises by at most ``D2 =
    max(kappa*i - l(i)) / log(2)`` bits.  None, a table too wide to
    z-normalize, when D2 exceeds :data:`D2_MAX` or is not finite.  Unit
    moments, a table of zeros as the rhs division passes, return at once
    with kappa = 0 and M2 = 1 on every column.  Run it where numpy ignores
    overflow and invalid operations, as a table that is not finite raises
    them.
    """
    import numpy as np

    lm = logs[: width + 1] - logs[0]
    if not (width and np.count_nonzero(lm)):  # unit moments, as _divide's
        return 0.0, np.ones(width + 1)
    i = np.arange(width + 1.0)
    kappa = float((lm[1:] / i[1:]).max()) / _KAPPA_STEP
    if not math.isfinite(kappa):
        return None
    kappa = math.ceil(kappa) * _KAPPA_STEP
    g = lm - kappa * i
    np.minimum(g, 0.0, out=g)
    if not g.min() >= -D2_MAX * math.log(2.0):
        return None
    return kappa, np.exp(g, out=g)


def _by_column(op, x, v, out=None):
    """``op(x, v)`` of a numpy grid x and a real vector v along its columns,
    into ``out`` (a new array when None): a complex x plane by plane, as
    numpy's ``op`` with ``v + 0j`` would turn an infinite part of a cell
    into a NaN in the other."""
    import numpy as np

    if out is None:
        out = np.empty(x.shape, x.dtype)
    if x.dtype.kind == "c":
        op(x.real, v, out=out.real)
        op(x.imag, v, out=out.imag)
    else:
        op(x, v, out=out)
    return out


def _unfused(y, c, r, p):
    """``c * y * r * p`` one factor at a time: the update of a term one of
    whose fused scalars ``c * r * p`` is zero or beyond binary64, so that a
    zero cell of y stays zero (on raw levels p is ``exp(0.0) = 1.0``)."""
    y = c * y
    y *= r
    y *= p
    return y


# recurrence_float fills the base of this many levels at a time, and checks
# as many levels of its output window at a time; its ring of levels is a
# multiple of this many rows
_BLOCK = 8


def shift_float(u, items, r1, r2, n_rows: int, n_cols: int):
    """Raw coefficients of ``sum p_ab * dt^a dz^b u`` for j <= n_rows, i <= n_cols.

    ``u`` is a 2-D numpy array of raw coefficients, ``items`` the pairs
    ``((a, b), p_ab)``, each p_ab a binary64 scalar (what :func:`binary64`
    returns), and ``r1``, ``r2`` the :func:`ratios` of the log moment
    values along the two axes, for widths of at least n_rows and exactly
    n_cols, and at least the offsets a and b of the items.  Cell (j, i)
    sums
    ``p_ab * u[j+a][i+b] * m1(j+a)/m1(j) * m2(i+b)/m2(i)`` in item order;
    the output is float64 when u is and every p_ab is real.

    A block is multiplied only by the factors that are not exactly one: by
    p_ab unless it is 1 or -1 (a -1 subtracts the block), by the m1 ratio
    column only for a != 0 and by the m2 ratio row only for b != 0, so r1
    and r2 need no entry for a zero offset (its ratio is ``exp(0.0) =
    1.0``).  On float64 cells that is bit for bit the product, since ``x *
    1.0`` is x and ``x * -1.0`` is -x, signed zeros, infinities and NaNs
    included.  A complex128 cell keeps its modulus where it is finite: the
    complex product by a real 1 that is left out could only turn the sign
    of a zero part, or turn the partner of an infinite part into NaN.
    """
    import numpy as np

    out = np.zeros((n_rows + 1, n_cols + 1),
                   dtype=np.result_type(u, *(p for _, p in items)))
    with np.errstate(over="ignore", invalid="ignore"):
        for (a, b), p in items:
            block = u[a: a + n_rows + 1, b: b + n_cols + 1]
            if p != 1 and p != -1:
                block = p * block
            if a:
                block = block * r1[a][: n_rows + 1, None]
            if b:
                block = block * r2[b]
            if p == -1:
                out -= block
            else:
                out += block
    return out


def recurrence_float(base, q, terms, n: int, widths, logs1, logs2, taps=(),
                     shift: int = 0, window: int | None = None):
    """Levels ``u[t] = q B[t-n][i+shift] + sum c u[t-a][i+b] + v[t]``.

    The float counterpart of :func:`recurrence`: ``base`` is a 2-D numpy
    array of raw coefficients, q, the term coefficients and the taps are
    binary64 scalars (what :func:`binary64` returns), and every term carries
    the moment ratios ``m1(t-a)/m1(t)`` and ``m2(i+b)/m2(i)``
    (``m1(t-n)/m1(t)`` and ``m2(i+shift)/m2(i)`` for the base) of the log
    arrays ``logs1``, ``logs2``.  Level t is zero for t < n and covers
    ``i <= widths[t]``; reads below index 0, and of the base's rows past its
    last, are zero, and a term (a, b) with b >= 0 must read level t - a
    inside its width, ``widths[t] + b <= widths[t-a]``, as
    :func:`mpde.solver.level_widths` gives.  Terms are added one row update
    at a time, in list order, those with b < 0 into ``x[t]`` (after the
    base when ``shift < 0``); ``v[t]`` solves ``v_i + sum m_k m2(i-k)/m2(i)
    v_{i-k} = x_i`` for the ``taps`` [(k, m_k)] cell by cell in Python
    scalars.  A moment ratio beyond binary64 raises the EvaluationError of
    :func:`ratios`, naming ``m1`` or ``m2``, from the log differences.

    The levels run z-normalized, on ``W[t][i] = u[t][i] * M2(i)`` with the
    column scale ``(kappa, M2)`` of :func:`_z_scale`, M2 <= 1.  There a term
    is one scalar per level, ``s = c * m1(t-a)/m1(t) * exp(kappa*b)``, times
    the shifted row of W, plus one add; the base is ``B * M2``, converted
    once, and its scalar ``q * m1(t-n)/m1(t)`` (times ``exp(kappa*shift)``
    for a shift); the taps are the constants ``m_k * exp(-kappa*k)``.  Where
    a term's s is zero or beyond binary64 at some level, every level
    multiplies its row by c, the m1 ratio and ``exp(kappa*b)`` in turn, as
    the raw form does, so that a zero cell stays zero.  Unit moments
    (kappa = 0, M2 = 1) run through the same steps.  So does a table too
    wide to z-normalize (:func:`_z_scale` None), with M2 = 1 and kappa =
    0, each term's row then multiplied by its m2 ratio vector and the taps
    by theirs.  Multiplying or dividing by M2 = 1 returns each cell as it
    is, signed zeros, infinities and NaNs included.  ``u = W / M2`` is
    formed once, a block of :data:`_BLOCK` levels at a time, on the
    columns ``i <= window`` (every column for None), each part of a
    complex cell on its own.  W is kept in a ring of ``min(levels, R)``
    rows, R the least multiple of :data:`_BLOCK` that is at least ``n +
    _BLOCK``, so that it holds a block and the n levels below it that the
    block reads: level t in row ``t % R``, the rows of a block zeroed
    before it is formed.  Only the output has a row per level.  Returns
    that new 2-D array of all levels,
    level t in ``grid[t, : min(widths[t], window) + 1]``: float64 when
    ``base`` is and q, the term coefficients and the taps are real, and
    complex128 otherwise.

    With ``window`` set, the last output column, at most every width, each
    block of u is checked for non-finite cells as it is formed (t //
    _BLOCK alike, and the last level, N1 = ``len(widths) - 1``): a
    non-finite cell raises EvaluationError naming the first level that holds
    one, after at most 7 levels past it, and advising a t-truncation below
    it or, when that level is n, the first the base sets, exact arithmetic.
    Overflow confined to the columns past ``window`` is not an error.

    The fixed cost per numpy call outweighs the arithmetic on a level's
    columns, so the calls are few, and each cell still gets the same IEEE
    operations in the same order as one level at a time: with ``shift ==
    0`` one multiply fills the base of each block as its first level
    starts, on that level's columns, one scale per row, so nothing is
    filled past the block where the check stops; a level past the base's
    rows is filled with the product of a zero and its scale, what a zero
    row of the base would give, only when some such product is not +0.0
    (-0.0 for a negative q, NaN for a scale beyond binary64), and the
    base's downward reads past its rows, which would add a zero to the
    zeros they start from, are skipped; the m1 ratios are one ``np.exp``
    per row offset, and each term's scalars one array product; and a
    single tap of k = 1 runs as one loop that carries the previous cell.

    Overflow, underflow and invalid operations are ignored from the moment
    ratios to the last level, and the caller's numpy error state returns
    when the function returns or raises.
    """
    import numpy as np

    width, levels = max(widths), len(widths)
    last = width if window is None else window
    scalars = (q, *(c for _, _, c in terms), *(m for _, m in taps))
    # rows of the ring: the least multiple of _BLOCK that is >= n + _BLOCK
    R = _BLOCK * (-(-n // _BLOCK) + 1)
    ring = np.zeros((min(levels, R), width + 1), dtype=complex if any(
        isinstance(c, complex) for c in scalars) else base.dtype)
    offsets = ({b for _, b, _ in terms} | {-k for k, _ in taps}
               | ({shift} - {0}))

    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        # m1(t-a)/m1(t) at index t - n, t >= n, per row offset a
        r1 = {a: np.exp(_log_differences(logs1, -a, n, levels - 1, "m1"))
              for a in {n, *(a for a, _, _ in terms)}}
        for b in offsets:
            _log_differences(logs2, b, max(0, -b), width, "m2")
        scaled = _z_scale(logs2, width)
        # a table too wide to z-normalize runs raw: M2 = 1, ratio vectors
        kappa, m2 = scaled or (0.0, np.ones(width + 1))
        r2 = None if scaled else ratios(logs2, offsets, width, "m2")
        out = np.empty((levels, last + 1), dtype=ring.dtype)
        base = _by_column(np.multiply, base[:, : width + 1],
                          m2[: min(base.shape[1], width + 1)])
        # tap k's factor of v_{i-k} at i >= k: m_k * exp(-kappa*k) on
        # z-normalized levels, m_k * m2(i-k)/m2(i) on raw ones
        kt = [(k, [m * math.exp(-kappa * k)] * (width + 1) if r2 is None
               else (m * r2[-k]).tolist()) for k, m in taps]

        def term(src, a, b, c):
            """The update (src, a, b, c, s, r1[a], p, r2[b]) of a term:
            s[t] = c * m1(t-a)/m1(t) * p, p = exp(kappa*b), the scalar of
            level t >= n, or None where one is zero or beyond binary64;
            r2[b] is None on z-normalized levels."""
            p = math.exp(kappa * b)
            s = c * r1[a] * p
            m = np.abs(s)
            fused = not m.size or 0 < m.min() and m.max() < math.inf
            s = [0.0] * n + s.tolist() if fused else None
            return src, a, b, c, s, r1[a], p, None if r2 is None else r2[b]

        up = [term(ring, a, b, c) for a, b, c in terms if b >= 0]
        down = [term(base, n, shift, q)] if shift else []
        down += [term(ring, a, b, c) for a, b, c in terms if b < 0]
        if not shift:
            # the base's scale q * m1(t-n)/m1(t) of each level t >= n
            scale = (q * r1[n])[:, None]
            zero = np.zeros(1, dtype=base.dtype)
            # a zero of the base times its scale is the grid's own +0.0
            # unless a part of that product is -0.0, as for a negative q,
            # or NaN, for a scale beyond binary64: any bit set
            fill = (zero * scale).view(np.uint64).any()
        for lo in range(0, levels, _BLOCK):
            end = min(lo + _BLOCK, levels)
            # level t of the block is ring row t - d = t % R, zeroed first
            d = lo - lo % R
            ring[lo - d: end - d] = 0
            if not shift and end > n:
                # the base of the block's levels from n, on the columns of
                # the widest, its first; the levels past the base's rows,
                # from mid, take zero times scale
                t, w = max(lo, n), widths[max(lo, n)]
                mid = min(n + len(base), end)
                if t < mid:
                    np.multiply(base[t - n: mid - n, : w + 1],
                                scale[t - n: mid - n],
                                out=ring[t - d: mid - d, : w + 1])
                mid = max(mid, t)
                if mid < end and fill:
                    np.multiply(zero, scale[mid - n: end - n],
                                out=ring[mid - d: end - d, : w + 1])
            for t in range(max(lo, n), end):
                w = widths[t]
                row = ring[t - d, : w + 1]
                for _, a, b, c, s, ra, p, rb in up:
                    y = ring[(t - a) % R, b: w + 1 + b]
                    y = s[t] * y if s is not None \
                        else _unfused(y, c, ra[t - n], p)
                    if rb is not None:
                        y *= rb[: w + 1]
                    row += y
                if not down:
                    continue
                x = np.zeros(w + 1, dtype=ring.dtype)
                for src, a, b, c, s, ra, p, rb in down:
                    j = (t - a) % R if src is ring else t - a
                    if -b > w or j >= len(src):
                        continue
                    y = src[j, : w + 1 + b]
                    y = s[t] * y if s is not None \
                        else _unfused(y, c, ra[t - n], p)
                    if rb is not None:
                        y *= rb[-b: w + 1]
                    x[-b:] += y
                if kt:
                    xs = x.tolist()
                    if [k for k, _ in kt] == [1]:  # v_{i-1} carried in v
                        (_, r), = kt
                        v = xs[0]
                        for i in range(1, w + 1):
                            v = xs[i] - r[i] * v
                            xs[i] = v
                    else:
                        for i in range(1, w + 1):
                            v = xs[i]
                            for k, r in kt:
                                if k > i:
                                    break
                                v -= r[i] * xs[i - k]
                            xs[i] = v
                    x[:] = xs
                row += x
            block = _by_column(np.divide, ring[lo - d: end - d, : last + 1],
                               m2[: last + 1], out[lo: end])
            if window is None:
                continue
            finite = np.isfinite(block)
            if not finite.all():
                bad = lo + int(finite.all(axis=1).argmin())
                advice = _USE_EXACT if bad == n else (
                    f"; lower the t-truncation (--n1) below {bad}, or "
                    f"check larger ones with verify --arithmetic exact")
                raise EvaluationError(
                    f"float coefficients overflow at t-level {bad} (of "
                    f"{levels - 1}) inside the requested window{advice}")
    return out
