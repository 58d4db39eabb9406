"""Shift kernel of the moment operators, for exact and float arithmetic.

In normalized coordinates ``U_{j,i} = u_{j,i} * m1(j/kappa1) * m2(i/kappa2)``
a moment operator with constant coefficients is a pure shift,
``sum p_ab U_{j+a,i+b}``, and the formal-solution recursion is a shift
recursion between t-levels.  Each runs as one kernel function per
arithmetic: :func:`shift` and :func:`recurrence` for exact mode,
:func:`shift_float` and :func:`recurrence_float` for float mode.

Exact mode runs on Python integers:

* an exact grid of raw coefficients is held as :class:`RawLanes`, integer
  numerator rows with one divisor per row and one per column; real and
  imaginary parts sit in separate lanes, and the imaginary lane is ``None``
  when every imaginary part is zero;
* a normalized grid is held as :class:`Lanes`, integer numerators over one
  common denominator; :func:`rescale` turns raw lanes into normalized ones
  with O(rows + columns) Fractions and one gcd;
* a recursion with rational coefficients stays integral by scaling level t
  by ``d**(t+1)``, where d is the common denominator of its coefficients,
  in the fraction-free spirit of Bareiss (Math. Comp. 1968), and column i
  by ``e**i``, where e is the common denominator of its taps.

Moment values enter as divisors: an output grid keeps its level divisors
times the moment values as row and column divisors.  One decoder divides
them out of raw lanes, row by row: :func:`denormalize` builds Gaussian
rationals from it, :func:`binary64_rows` correctly rounded binary64 parts.

Float mode runs on numpy complex arrays of raw coefficients, so that grids
whose normalized coefficients would overflow binary64 stay finite.  The
moment values enter as ratios ``m(x)/m(y) = exp(log m(x) - log m(y))``, read
from the numpy arrays of :func:`mpde.moments.log_table`: one scalar per row
offset and one vector per column offset, built by :func:`ratios` once per
call (once per residual, whose four shifts share them).  A vector's log
differences are one array subtraction; its exponentials are ``math.exp``
per element, whose results numpy's vectorized ``exp`` does not always
reproduce to the last bit.  Overflow and invalid operations give ``inf``
and ``nan`` without a warning: :func:`shift_float` ignores them around its
sum, :func:`recurrence_float` from its first level to its last, and both
restore the caller's numpy error state when they return, or, for the
generator, when it finishes or is closed.

Both recursions divide by a top coefficient of degree B in z through B
taps: the terms that shift down are summed into a second accumulator per
level, on which a B-tap recurrence along z runs, in order of increasing i;
a base read at a negative z-offset joins that accumulator.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import RationalComplex
from .record import record

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
    nonzero rational divisors, one per row and one per column.
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
    return (c.re * d).numerator, (c.im * d).numerator


def lanes_of_table(table: dict, n1: int, n2: int) -> RawLanes:
    """The (n1, n2) grid of the Gaussian rationals ``table`` {(j, i): value},
    absent cells zero, as raw lanes over their common denominator; entries
    outside the grid are dropped."""
    table = {k: v for k, v in table.items() if k[0] <= n1 and k[1] <= n2}
    d = common_denominator(table.values())
    re = [[0] * (n2 + 1) for _ in range(n1 + 1)]
    im = [[0] * (n2 + 1) for _ in range(n1 + 1)]
    for (j, i), v in table.items():
        re[j][i], im[j][i] = gaussian_int(v, d)
    return RawLanes(re, im if any(map(any, im)) else None,
                    [d] * (n1 + 1), [1] * (n2 + 1))


def _quotients(weights, divisors, n: int) -> list:
    """``weights[k] / divisors[k]`` as Fractions for k <= n; a weight equal
    to its divisor (the lanes divide by that same table) gives 1."""
    return [_ONE if w == d else Fraction(w) if d == 1 else Fraction(w) / d
            for w, d in ((weights[k], divisors[k]) for k in range(n + 1))]


def rescale(grid: RawLanes, w1, w2, n_rows: int, n_cols: int) -> Lanes:
    """Numerators of ``grid[j][i] * w1[j] * w2[i]`` for j <= n_rows,
    i <= n_cols, over the least common denominator of the cells.

    Row j is multiplied by ``w1[j] / row_div[j]`` and column i by
    ``w2[i] / col_div[i]``, O(rows + columns) Fractions brought to the
    product L of their two common denominators; one gcd of L and all the
    numerators then leaves the least common denominator of the cells.
    """
    rows = _quotients(w1, grid.row_div, n_rows)
    cols = _quotients(w2, grid.col_div, n_cols)
    lr = math.lcm(*(f.denominator for f in rows))
    lc = math.lcm(*(f.denominator for f in cols))
    rk = [f.numerator * (lr // f.denominator) for f in rows]
    ck = [f.numerator * (lc // f.denominator) for f in cols]
    unit_cols = all(k == 1 for k in ck)
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


def _plus(acc, k, src) -> list:
    """``acc + k * src`` elementwise; a k of 1 or -1 adds or subtracts
    without the multiply."""
    if k == 1:
        return [x + y for x, y in zip(acc, src)]
    if k == -1:
        return [x - y for x, y in zip(acc, src)]
    return [x + k * y for x, y in zip(acc, src)]


def axpy(acc_re, acc_im, k, src_re, src_im, b: int) -> None:
    """``acc[i] += k * src[i + b]`` in place; reads below index 0 are zero.

    The source must reach index ``len(acc) - 1 + b``.
    """
    kr, ki = k
    lo = -b if b < 0 else 0
    start = lo + b
    if acc_im is None:
        acc_re[lo:] = _plus(acc_re[lo:], kr, src_re[start:])
        return
    xs, ys = src_re[start:], src_im[start:]
    if ki:
        acc_re[lo:] = [x + kr * p - ki * q
                       for x, p, q in zip(acc_re[lo:], xs, ys)]
        acc_im[lo:] = [x + kr * q + ki * p
                       for x, p, q in zip(acc_im[lo:], xs, ys)]
    else:
        acc_re[lo:] = _plus(acc_re[lo:], kr, xs)
        acc_im[lo:] = _plus(acc_im[lo:], kr, ys)


def _imag_lane(grid: Lanes, is_complex: bool):
    if not is_complex or grid.im is not None:
        return grid.im
    return [[0] * len(row) for row in grid.re]


def shift(grid: Lanes, table, n_rows: int, n_cols: int) -> Lanes:
    """``out[j][i] = sum p_ab * grid[j+a][i+b]`` over ``table`` {(a, b): p_ab}.

    The common denominator of the exact coefficients joins ``den``.
    """
    coeffs = {k: RationalComplex.coerce(p) for k, p in table.items()}
    d = common_denominator(coeffs.values())
    ks = [(a, b, gaussian_int(p, d)) for (a, b), p in coeffs.items()]
    is_complex = grid.im is not None or any(k[1] for _, _, k in ks)
    src_im = _imag_lane(grid, is_complex)
    out_re, out_im = [], [] if is_complex else None
    for j in range(n_rows + 1):
        acc_re = [0] * (n_cols + 1)
        acc_im = [0] * (n_cols + 1) if is_complex else None
        for a, b, k in ks:
            axpy(acc_re, acc_im, k, grid.re[j + a],
                 src_im[j + a] if is_complex else None, b)
        out_re.append(acc_re)
        if is_complex:
            out_im.append(acc_im)
    return Lanes(out_re, out_im, grid.den * d)


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
               taps=(), shift: int = 0) -> RawLanes:
    """Levels ``U[t] = q B[t-n][i+shift] + sum c U[t-a][i+b] + V[t]``.

    ``B`` is the grid ``base`` holds; ``terms`` are (a, b, c) with a >= 1
    and Gaussian-rational c.  Level t is zero for t < n and computed for
    ``i <= widths[t]``; reads below index 0 are zero.  The terms with b < 0,
    and the base when ``shift < 0``, are summed into ``X[t]`` instead, and
    ``V[t]`` solves ``V_i + sum m_k V_{i-k} = X_i`` for the ``taps``
    [(k, m_k)], k >= 1 ascending.

    With e the common denominator of the taps, ``W[t][i] = U[t][i] e**i``
    obeys the recursion with ``c e**-b`` for c, ``q e**-shift`` for q and
    the Gaussian integers ``m_k e**k`` for the taps.  With d the common
    denominator of q and the ``c e**-b``, the levels
    ``V[t] = W[t] * base.den * d**(t+1)`` are integral.  Returns them as raw
    lanes with ``row_div[t] = base.den * d**(t+1)``, ``col_div[i] = e**i``.
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
    up = [k for k in ks if k[1] >= 0]
    down = [k for k in ks if k[1] < 0]
    is_complex = (base.im is not None or kq[1] != 0
                  or any(k[1] for _, _, k in ks) or any(m[1] for _, m in kt))
    col_div = [e ** i for i in range(width + 1)]
    base_re, base_im = base.re, _imag_lane(base, is_complex)
    if e != 1:
        base_re, base_im = ([[x * p for x, p in zip(row, col_div)]
                             for row in lane] if lane is not None else None
                            for lane in (base_re, base_im))
    v_re, v_im = [], [] if is_complex else None
    power = 1  # d**t
    row_div = []
    for t, w in enumerate(widths):
        row_div.append(base.den * power * d)
        acc_re = [0] * (w + 1)
        acc_im = [0] * (w + 1) if is_complex else None
        if t >= n:
            sr, si = kq[0] * power, kq[1] * power
            br = base_re[t - n][: w + 1]
            bi = base_im[t - n][: w + 1] if is_complex else None
            if not shift and not is_complex:
                acc_re = br if sr == 1 else [sr * x for x in br]
            elif not shift:
                acc_re = [sr * x - si * y for x, y in zip(br, bi)]
                acc_im = [sr * y + si * x for x, y in zip(br, bi)]
            for a, b, k in up:
                axpy(acc_re, acc_im, k, v_re[t - a],
                     v_im[t - a] if is_complex else None, b)
            if down or shift:
                x_re = [0] * (w + 1)
                x_im = [0] * (w + 1) if is_complex else None
                if shift:
                    axpy(x_re, x_im, (sr, si), br, bi, shift)
                for a, b, k in down:
                    axpy(x_re, x_im, k, v_re[t - a],
                         v_im[t - a] if is_complex else None, b)
                run_taps(x_re, x_im, kt)
                acc_re = [p + x for p, x in zip(acc_re, x_re)]
                if is_complex:
                    acc_im = [p + x for p, x in zip(acc_im, x_im)]
        v_re.append(acc_re)
        if is_complex:
            v_im.append(acc_im)
        power *= d
    return RawLanes(v_re, v_im, row_div, col_div)


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
    dens[i]``, with ``nums[i] > 0``."""
    col_nums, col_dens = zip(*(Fraction(c).as_integer_ratio()
                               for c in grid.col_div[: n_cols + 1]))
    for j in rows:
        r_num, r_den = Fraction(grid.row_div[j]).as_integer_ratio()
        yield (j, [lane[j] for lane in (grid.re, grid.im) if lane is not None],
               [r_den * c for c in col_dens], [r_num * c for c in col_nums])


def denormalize(grid: RawLanes) -> tuple:
    """Tuple rows of the raw coefficients of ``grid`` as RationalComplex."""
    out = []
    for _, parts, nums, dens in _decode(grid, range(len(grid.re)),
                                        len(grid.col_div) - 1):
        fracs = [[Fraction(x * n, d) if x else _ZERO
                  for x, n, d in zip(part, nums, dens)] for part in parts]
        out.append(tuple(map(RationalComplex, fracs[0],
                             fracs[1] if len(parts) == 2
                             else [_ZERO] * len(fracs[0]))))
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


def read_only(grid):
    """``grid`` marked read-only, so that a Series2 keeps it uncopied."""
    grid.flags.writeable = False
    return grid


def ratios(logs, offsets, width: int) -> dict:
    """``{b: r}`` with ``r[i] = exp(logs[i + b] - logs[i])`` for i <= width.

    ``logs`` is a numpy float array.  The differences are one array
    subtraction, which rounds as Python's float subtraction does; the
    exponentials are ``math.exp`` per element.  Entries with ``i + b < 0``
    are never read and stay 0.
    """
    import numpy as np

    out = {}
    for b in offsets:
        lo = max(0, -b)
        r = np.zeros(width + 1)
        if lo <= width:
            r[lo:] = list(map(math.exp, (logs[lo + b: width + 1 + b]
                                         - logs[lo: width + 1]).tolist()))
        out[b] = r
    return out


def shift_float(u, items, r1, r2, n_rows: int, n_cols: int):
    """Raw coefficients of ``sum p_ab * dt^a dz^b u`` for j <= n_rows, i <= n_cols.

    ``u`` is a 2-D numpy array of raw coefficients, ``items`` the pairs
    ``((a, b), p_ab)`` and ``r1``, ``r2`` the :func:`ratios` of the log
    moment values along the two axes, for widths n_rows and n_cols and at
    least the offsets a and b of the items.  Cell (j, i) sums
    ``p_ab * u[j+a][i+b] * m1(j+a)/m1(j) * m2(i+b)/m2(i)`` in item order.
    """
    import numpy as np

    out = np.zeros((n_rows + 1, n_cols + 1),
                   dtype=np.result_type(u, *(p for _, p in items)))
    with np.errstate(over="ignore", invalid="ignore"):
        for (a, b), p in items:
            out += (p * u[a: a + n_rows + 1, b: b + n_cols + 1]
                    * r1[a][:, None] * r2[b])
    return out


def recurrence_float(base, q, terms, n: int, widths, logs1, logs2, taps=(),
                     shift: int = 0):
    """Yield levels ``u[t] = q B[t-n][i+shift] + sum c u[t-a][i+b] + v[t]``.

    The float counterpart of :func:`recurrence`, in raw coordinates: ``base``
    is a 2-D numpy array of raw coefficients, every term carries the moment
    ratios ``m1(t-a)/m1(t)`` and ``m2(i+b)/m2(i)`` (``m1(t-n)/m1(t)`` and
    ``m2(i+shift)/m2(i)`` for the base) from the log arrays ``logs1``,
    ``logs2``.  Level t is zero for t < n and covers ``i <= widths[t]``;
    reads below index 0 are zero.  Terms are added one row update at a
    time, in list order, those with b < 0 into ``x[t]`` (after the base
    when ``shift < 0``); ``v[t]`` solves ``v_i + sum m_k m2(i-k)/m2(i)
    v_{i-k} = x_i`` for the ``taps`` [(k, m_k)] cell by cell in Python
    ``complex``.  Each level is yielded as soon as it is complete, so a
    caller can stop at the first one that overflows.

    Overflow and invalid operations are ignored from the first level to
    the last, and the caller's numpy error state returns when the
    generator finishes or is closed: a caller that stops early closes it.
    """
    import numpy as np

    width = max(widths)
    logs1 = logs1.tolist()  # Python floats for the scalar ratios per level
    r2 = ratios(logs2, {b for _, b, _ in terms} | {-k for k, _ in taps}
                | ({shift} - {0}), width)
    grid = np.zeros((len(widths), width + 1), dtype=complex)
    up = [(a, b, c) for a, b, c in terms if b >= 0]
    down = [(base, n, shift, q)] if shift else []
    down += [(grid, a, b, c) for a, b, c in terms if b < 0]
    # m_k * m2(i-k)/m2(i), for i >= k
    kt = [(k, (m * r2[-k]).tolist()) for k, m in taps]
    with np.errstate(over="ignore", invalid="ignore"):
        for t, w in enumerate(widths):
            row = grid[t, : w + 1]
            if t >= n:
                if not shift:
                    row[:] = base[t - n, : w + 1] * (
                        q * math.exp(logs1[t - n] - logs1[t]))
                for a, b, c in up:
                    r1 = math.exp(logs1[t - a] - logs1[t])
                    row += (c * grid[t - a, b: w + 1 + b] * r1
                            * r2[b][: w + 1])
                if down:
                    x = np.zeros(w + 1, dtype=complex)
                    for src, a, b, c in down:
                        if -b > w:
                            continue
                        r1 = math.exp(logs1[t - a] - logs1[t])
                        x[-b:] += (c * src[t - a, : w + 1 + b] * r1
                                   * r2[b][-b: w + 1])
                    if kt:
                        xs = x.tolist()
                        for i in range(1, w + 1):
                            s = xs[i]
                            for k, r in kt:
                                if k > i:
                                    break
                                s -= r[i] * xs[i - k]
                            xs[i] = s
                        x[:] = xs
                    row += x
            yield row
