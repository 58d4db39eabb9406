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
complex128 otherwise.  The moment values enter as ratios
``m(x)/m(y) = exp(log m(x) - log m(y))`` of the logs of
:func:`mpde.moments.log_table`: one scalar per row offset and level, and one
vector per column offset (:func:`ratios`), each offset's exponentials one
``np.exp`` of the array of log differences.  On hosts where numpy
vectorizes ``exp`` its last bit may differ from ``math.exp``, far below the
rounding error of the recursion; a ratio beyond binary64 raises
EvaluationError naming the moment function.  The fixed cost of a numpy
call outweighs the arithmetic on a level's columns, so
:func:`recurrence_float` makes few calls per level, fills its levels'
base and checks its output window a block of levels at a time, stopping
at the block where the window overflows, and gives every cell the same
IEEE operations in the same order as a loop over levels and terms would.
Overflow and invalid operations give ``inf`` and ``nan`` without a
warning: :func:`shift_float` ignores them around its sum,
:func:`recurrence_float` from its first level to its last, and both
restore the caller's numpy error state when they return or raise.

Both recursions divide by a top coefficient of degree B in z through B
taps: the terms that shift down are summed into a second accumulator per
level, on which a B-tap recurrence along z runs, in order of increasing i;
a base read at a negative z-offset joins that accumulator.
"""

from __future__ import annotations

import math
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


def _exp_differences(logs, b: int, lo: int, hi: int, name: str):
    """``exp(logs[i + b] - logs[i])`` for ``lo <= i <= hi``, a numpy array:
    one array subtraction, which rounds as Python's float subtraction does,
    and one ``np.exp``.  A ratio beyond binary64 raises the
    :func:`beyond_binary64` error naming the first such i and the moment
    function ``name`` of the table ``logs``."""
    import numpy as np

    if lo > hi:
        return np.empty(0)
    with np.errstate(over="ignore", under="ignore"):
        r = np.exp(logs[lo + b: hi + 1 + b] - logs[lo: hi + 1])
    big = np.isinf(r)
    if big.any():
        i = lo + int(big.argmax())
        raise beyond_binary64(f"the ratio of the {name} values at indices "
                              f"{i + b} and {i} is")
    return r


def ratios(logs, offsets, width: int, name: str = "m") -> dict:
    """``{b: r}`` with ``r[i] = exp(logs[i + b] - logs[i])`` for i <= width.

    ``logs`` is a numpy float array of the logs of the moment function
    ``name``; each offset costs one array subtraction and one ``np.exp``
    (:func:`_exp_differences`), whose last bit may differ from ``math.exp``
    on hosts where numpy vectorizes it.  Entries with ``i + b < 0`` are
    never read and stay 0.  A ratio beyond binary64 raises EvaluationError
    naming ``name``.
    """
    import numpy as np

    out = {}
    for b in offsets:
        lo = max(0, -b)
        r = np.zeros(width + 1)
        r[lo:] = _exp_differences(logs, b, lo, width, name)
        out[b] = r
    return out


# recurrence_float fills the base of this many levels at a time, and checks
# as many levels of its output window at a time
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
    """
    import numpy as np

    out = np.zeros((n_rows + 1, n_cols + 1),
                   dtype=np.result_type(u, *(p for _, p in items)))
    with np.errstate(over="ignore", invalid="ignore"):
        for (a, b), p in items:
            out += (p * u[a: a + n_rows + 1, b: b + n_cols + 1]
                    * r1[a][: n_rows + 1, None] * r2[b])
    return out


def recurrence_float(base, q, terms, n: int, widths, logs1, logs2, taps=(),
                     shift: int = 0, window: int | None = None):
    """Levels ``u[t] = q B[t-n][i+shift] + sum c u[t-a][i+b] + v[t]``.

    The float counterpart of :func:`recurrence`, in raw coordinates: ``base``
    is a 2-D numpy array of raw coefficients, q, the term coefficients and
    the taps are binary64 scalars (what :func:`binary64` returns), and
    every term carries the moment ratios ``m1(t-a)/m1(t)`` and
    ``m2(i+b)/m2(i)`` (``m1(t-n)/m1(t)`` and ``m2(i+shift)/m2(i)`` for the
    base) from the log arrays ``logs1``, ``logs2``.  Level t is zero for
    t < n and covers ``i <= widths[t]``; reads below index 0, and of the
    base's rows past its last, are zero, and
    a term (a, b) with b >= 0 must read level t - a inside its width,
    ``widths[t] + b <= widths[t-a]``, as :func:`mpde.solver.level_widths`
    gives.  Terms are
    added one row update at a time, in list order, those with b < 0 into
    ``x[t]`` (after the base when ``shift < 0``); ``v[t]`` solves ``v_i +
    sum m_k m2(i-k)/m2(i) v_{i-k} = x_i`` for the ``taps`` [(k, m_k)] cell
    by cell in Python scalars.  Returns the 2-D array of all levels, level
    t in ``grid[t, : widths[t] + 1]``: float64 when ``base`` is and q, the
    term coefficients and the taps are real, and complex128 otherwise.  A
    moment ratio beyond binary64 raises the EvaluationError of
    :func:`ratios`, naming ``m1`` or ``m2``.

    With ``window`` set, the last output column, at most every width, the
    columns ``i <= window`` are checked for non-finite cells once per block
    of :data:`_BLOCK` levels (t // _BLOCK alike) and at the last level,
    N1 = ``len(widths) - 1``: a non-finite cell raises EvaluationError
    naming the first level that holds one, after at most 7 levels past it,
    and advising a t-truncation below it or, when that level is n, the
    first the base sets, exact arithmetic.  Overflow confined to the
    columns past ``window`` is not an error.

    The fixed cost per numpy call outweighs the arithmetic on a level's
    columns, so the calls are few, and each cell still gets the same IEEE
    operations in the same order as one level at a time: with ``shift ==
    0`` one multiply fills the base of each block as its first level
    starts, on that level's columns, one scale ``q * m1(t-n)/m1(t)`` per
    row, so nothing is filled past the block where the check stops; a
    level past the base's rows is filled with the product of a zero and
    its scale, what a zero row of the base would give, only when some such
    product is not +0.0 (-0.0 for a negative q, NaN for a scale beyond
    binary64), and the base's downward reads past its rows, which would
    add a zero to the zeros they start from, are skipped; the
    ``m1`` ratios are one ``np.exp`` per row offset; a single tap runs as
    one loop from column k; and on a float64 grid a coefficient of 1.0 or
    -1.0 adds or subtracts its term with no multiply.  A complex grid keeps
    that multiply: ``(1+0j) * z`` may differ from z in the sign of a zero
    or turn an infinite part into NaN.

    Overflow and invalid operations are ignored from the first level to
    the last, and the caller's numpy error state returns when the function
    returns or raises.
    """
    import numpy as np

    width, levels = max(widths), len(widths)
    # m1(t-a)/m1(t) at index t >= n, one list of Python floats per row
    # offset a, for the scalar ratio of each level
    r1 = {a: [0.0] * n + _exp_differences(logs1, -a, n, levels - 1,
                                          "m1").tolist()
          for a in {n, *(a for a, _, _ in terms)}}
    r2 = ratios(logs2, {b for _, b, _ in terms} | {-k for k, _ in taps}
                | ({shift} - {0}), width, "m2")
    scalars = (q, *(c for _, _, c in terms), *(m for _, m in taps))
    grid = np.zeros((levels, width + 1), dtype=complex if any(
        isinstance(c, complex) for c in scalars) else base.dtype)
    real = grid.dtype.kind != "c"

    def signed(src, a, b, c):
        """The update (src, a, b, c, sign, m1 ratios, m2 ratios) of a term;
        on a float64 grid a c of 1.0 or -1.0 becomes None and the sign of
        the add, as ``1.0 * y`` and ``-1.0 * y`` are y and -y exactly."""
        if real and abs(c) == 1.0:
            return src, a, b, None, c, r1[a], r2[b]
        return src, a, b, c, 1.0, r1[a], r2[b]

    up = [signed(grid, a, b, c) for a, b, c in terms if b >= 0]
    down = [signed(base, n, shift, q)] if shift else []
    down += [signed(grid, a, b, c) for a, b, c in terms if b < 0]
    # m_k * m2(i-k)/m2(i), for i >= k
    kt = [(k, (m * r2[-k]).tolist()) for k, m in taps]
    with np.errstate(over="ignore", invalid="ignore"):
        if not shift:
            # the base's scale q * m1(t-n)/m1(t) of each level t >= n
            scale = np.array([q * r for r in r1[n][n:]])[:, None]
            zero = np.zeros(1, dtype=base.dtype)
            # a zero of the base times its scale is the grid's own +0.0
            # unless a part of that product is -0.0, as for a negative q,
            # or NaN, for a scale beyond binary64: any bit set
            fill = (zero * scale).view(np.uint64).any()
        for t, w in enumerate(widths):
            row = grid[t, : w + 1]
            if t >= n:
                if not shift and (t == n or t % _BLOCK == 0):
                    # the base of the levels up to the end of this block,
                    # on the columns of the widest, its first; the levels
                    # past the base's rows, from mid, take zero times scale
                    end = min(t - t % _BLOCK + _BLOCK, levels)
                    src = base[t - n: end - n, : w + 1]
                    mid = t + len(src)
                    np.multiply(src, scale[t - n: mid - n],
                                out=grid[t: mid, : w + 1])
                    if mid < end and fill:
                        np.multiply(zero, scale[mid - n: end - n],
                                    out=grid[mid: end, : w + 1])
                for src, a, b, c, sign, ra, rb in up:
                    y = src[t - a, b: w + 1 + b]
                    y = y * ra[t] if c is None else c * y * ra[t]
                    y *= rb[: w + 1]
                    if sign > 0:
                        row += y
                    else:
                        row -= y
                if down:
                    x = np.zeros(w + 1, dtype=grid.dtype)
                    for src, a, b, c, sign, ra, rb in down:
                        if -b > w or t - a >= len(src):
                            continue
                        y = src[t - a, : w + 1 + b]
                        y = y * ra[t] if c is None else c * y * ra[t]
                        y *= rb[-b: w + 1]
                        if sign > 0:
                            x[-b:] += y
                        else:
                            x[-b:] -= y
                    if kt:
                        xs = x.tolist()
                        if len(kt) == 1:  # one loop, no bounds check
                            (k, r), = kt
                            for i in range(k, w + 1):
                                xs[i] -= r[i] * xs[i - k]
                        else:
                            for i in range(1, w + 1):
                                s = xs[i]
                                for k, r in kt:
                                    if k > i:
                                        break
                                    s -= r[i] * xs[i - k]
                                xs[i] = s
                        x[:] = xs
                    row += x
            if window is not None and (t % _BLOCK == _BLOCK - 1
                                       or t == levels - 1):
                lo = t - t % _BLOCK
                finite = np.isfinite(grid[lo: t + 1, : window + 1])
                if not finite.all():
                    bad = lo + int(finite.all(axis=1).argmin())
                    advice = _USE_EXACT if bad == n else (
                        f"; lower the t-truncation (--n1) below {bad}, or "
                        f"check larger ones with verify --arithmetic exact")
                    raise EvaluationError(
                        f"float coefficients overflow at t-level {bad} (of "
                        f"{levels - 1}) inside the requested window{advice}")
    return grid
