"""Fraction-free shift kernel for exact arithmetic in normalized coordinates.

In normalized coordinates ``U_{j,i} = u_{j,i} * m1(j/kappa1) * m2(i/kappa2)``
a moment operator with constant coefficients is a pure shift,
``sum p_ab U_{j+a,i+b}``, and the formal-solution recursion is a shift
recursion between t-levels.  Exact mode runs both on Python integers:

* a grid of Gaussian rationals is held as :class:`Lanes`, integer numerators
  over one common denominator, with real and imaginary parts in separate
  lanes; the imaginary lane is ``None`` when every imaginary part is zero;
* a recursion with rational coefficients stays integral by scaling level t
  by ``d**(t+1)``, where d is the common denominator of its coefficients,
  in the fraction-free spirit of Bareiss (Math. Comp. 1968).

Moment values enter twice: once when a grid is normalized and once as a
single division per output cell when it is converted back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import RationalComplex

_ZERO = Fraction(0)


@dataclass
class Lanes:
    """Grid ``(re + i*im) / den`` of integer numerator rows.

    Rows may differ in length; ``im`` is None for real data.
    """

    re: list
    im: list | None
    den: int


def common_denominator(values) -> int:
    """Least common denominator of the parts of Gaussian rationals."""
    return math.lcm(*(q.denominator for c in values for q in (c.re, c.im)))


def gaussian_int(c: RationalComplex, d: int) -> tuple:
    """``c * d`` as an integer pair; d must clear the denominators of c."""
    return (c.re * d).numerator, (c.im * d).numerator


def normalize(rows, w1, w2, n_rows: int, n_cols: int) -> Lanes:
    """Numerators of ``rows[j][i] * w1[j] * w2[i]`` for j <= n_rows, i <= n_cols."""
    cells = []  # (j, i, re, im) of the nonzero cells, as Fractions
    for j in range(n_rows + 1):
        row = rows[j]
        wj = w1[j]
        for i in range(n_cols + 1):
            c = row[i]
            if c:
                w = wj * w2[i]
                cells.append((j, i, c.re * w, c.im * w))
    is_complex = any(im for _, _, _, im in cells)
    den = math.lcm(*(x.denominator for _, _, re, im in cells
                     for x in ((re, im) if is_complex else (re,))))
    re_rows = [[0] * (n_cols + 1) for _ in range(n_rows + 1)]
    im_rows = [[0] * (n_cols + 1) for _ in range(n_rows + 1)] \
        if is_complex else None
    for j, i, re, im in cells:
        re_rows[j][i] = re.numerator * (den // re.denominator)
        if is_complex:
            im_rows[j][i] = im.numerator * (den // im.denominator)
    return Lanes(re_rows, im_rows, den)


def _axpy(acc_re, acc_im, k, src_re, src_im, b: int) -> None:
    """``acc[i] += k * src[i + b]`` in place; reads below index 0 are zero.

    The source must reach index ``len(acc) - 1 + b``.
    """
    kr, ki = k
    lo = -b if b < 0 else 0
    start = lo + b
    if acc_im is None:
        acc_re[lo:] = [x + kr * y for x, y in zip(acc_re[lo:], src_re[start:])]
        return
    xs, ys = src_re[start:], src_im[start:]
    if ki:
        acc_re[lo:] = [x + kr * p - ki * q
                       for x, p, q in zip(acc_re[lo:], xs, ys)]
        acc_im[lo:] = [x + kr * q + ki * p
                       for x, p, q in zip(acc_im[lo:], xs, ys)]
    else:
        acc_re[lo:] = [x + kr * p for x, p in zip(acc_re[lo:], xs)]
        acc_im[lo:] = [x + kr * q for x, q in zip(acc_im[lo:], ys)]


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
            _axpy(acc_re, acc_im, k, grid.re[j + a],
                  src_im[j + a] if is_complex else None, b)
        out_re.append(acc_re)
        if is_complex:
            out_im.append(acc_im)
    return Lanes(out_re, out_im, grid.den * d)


def recurrence(base: Lanes, q: RationalComplex, terms, n: int, widths):
    """Levels ``U[t] = q * B[t-n] + sum c * U[t-a][i+b]``, zero for t < n.

    ``B`` is the grid ``base`` holds; ``terms`` are (a, b, c) with a >= 1
    and Gaussian-rational c.  Level t is computed for ``i <= widths[t]``;
    reads below index 0 are zero (b < 0 is a downward shift).  With d the
    common denominator of q and the c, the integer levels
    ``V[t] = U[t] * base.den * d**(t+1)`` obey
    ``V[t] = (d q) d**t base[t-n] + sum (d c) d**(a-1) V[t-a][i+b]``.
    Returns ``(re, im, row_div)`` of V, ``row_div[t] = base.den * d**(t+1)``.
    """
    d = common_denominator([q] + [c for _, _, c in terms])
    kq = gaussian_int(q, d)
    ks = [(a, b, tuple(x * d ** (a - 1) for x in gaussian_int(c, d)))
          for a, b, c in terms]
    is_complex = (base.im is not None or kq[1] != 0
                  or any(k[1] for _, _, k in ks))
    base_im = _imag_lane(base, is_complex)
    v_re, v_im = [], [] if is_complex else None
    power = 1  # d**t
    row_div = []
    for t, width in enumerate(widths):
        row_div.append(base.den * power * d)
        if t < n:
            acc_re = [0] * (width + 1)
            acc_im = [0] * (width + 1) if is_complex else None
        else:
            sr, si = kq[0] * power, kq[1] * power
            br = base.re[t - n][: width + 1]
            if not is_complex:
                acc_re = br if sr == 1 else [sr * x for x in br]
                acc_im = None
            else:
                bi = base_im[t - n][: width + 1]
                acc_re = [sr * x - si * y for x, y in zip(br, bi)]
                acc_im = [sr * y + si * x for x, y in zip(br, bi)]
            for a, b, k in ks:
                _axpy(acc_re, acc_im, k, v_re[t - a],
                      v_im[t - a] if is_complex else None, b)
        v_re.append(acc_re)
        if is_complex:
            v_im.append(acc_im)
        power *= d
    return v_re, v_im, row_div


def denormalize(re, im, row_div, w1, w2, n_rows: int, n_cols: int):
    """Rows of ``(re + i*im)[j][i] / (row_div[j] * w1[j] * w2[i])``.

    Entries are RationalComplex; ``im`` may be None for real data.
    """
    w2n = [w.numerator for w in w2[: n_cols + 1]]
    w2d = [w.denominator for w in w2[: n_cols + 1]]
    out = []
    for j in range(n_rows + 1):
        wj = row_div[j] * Fraction(w1[j])
        jn, jd = wj.numerator, wj.denominator
        nums = [jd * y for y in w2d]
        dens = [jn * y for y in w2n]
        rr = re[j]
        if im is None:
            out.append([RationalComplex(Fraction(rr[i] * nums[i], dens[i])
                                        if rr[i] else _ZERO, _ZERO)
                        for i in range(n_cols + 1)])
        else:
            ri = im[j]
            out.append([RationalComplex(
                Fraction(rr[i] * nums[i], dens[i]) if rr[i] else _ZERO,
                Fraction(ri[i] * nums[i], dens[i]) if ri[i] else _ZERO)
                for i in range(n_cols + 1)])
    return out
