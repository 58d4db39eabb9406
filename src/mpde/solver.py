"""Normalized truncated formal solutions of moment Cauchy problems.

Solves ``P(dt, dz) u = f`` with zero initial data, where dt and dz are the
moment derivatives attached to m1 and m2.  In normalized coordinates
``U_{j,i} = u_{j,i} * m1(j/kappa1) * m2(i/kappa2)`` the operator is a
constant-coefficient shift, and the recursion runs level by level in the
t-order as ``U[j+n][i] = G[j][i] + sum c_ab U[j+n-a][i+b]``.

Both arithmetics run this recursion, ``g_from_f`` and the residual on the
shift kernel of :mod:`mpde.kernel`.  Exact mode normalizes g once, recurses
on Python integers over one common denominator and divides the moment values
out once per output cell.  Float mode recurses on raw coefficients with
moment ratios taken from their logarithms, so that grids whose normalized
coefficients would overflow stay finite; an output row that overflows anyway
raises EvaluationError.

Two modes:

* ``direct``  - the top lambda coefficient is a constant; the recursion
  solves for the highest t-level directly.
* ``pseudo``  - the top lambda coefficient ``A_n(zeta)`` is a polynomial;
  each ``A_{n-a}/A_n`` is expanded at ``zeta = infinity`` into a polynomial
  part plus an inverse-power tail.  Positive powers shift z-indices up,
  inverse powers shift down with zero padding.  Truncating the tail at the
  internal grid width is exact on the grid.

The internal z-truncation is inflated to ``N2 + N1 * max_b`` so the whole
requested output window is valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernel, moments
from .charroots import CharPoly, _divmod, branches_at_infinity
from .errors import EvaluationError, PreconditionError, WindowError
from .exact import QC_ONE, RationalComplex, as_fraction
from .moments import MomentFunction
from .series import Series2, normalize_table, operator_window


@dataclass(frozen=True)
class CauchyProblem:
    """Problem data: operator, moment functions, inhomogeneity, truncation.

    ``rhs`` is read as the normalized right-hand side g by default
    (``rhs_is_g``), or as f itself; in the latter case g is reconstructed by
    inverting the top zeta-polynomial with free coefficients set to zero.
    ``rhs_gevrey`` is declared metadata; it never alters coefficients.
    """

    operator: CharPoly
    m1: MomentFunction
    m2: MomentFunction
    rhs: Series2
    out_shape: tuple
    rhs_is_g: bool = True
    rhs_gevrey: tuple = (Fraction(0), Fraction(0))
    mode: str = "direct"

    def __post_init__(self):
        if self.mode not in ("direct", "pseudo"):
            raise PreconditionError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "rhs_gevrey",
                           (as_fraction(self.rhs_gevrey[0]),
                            as_fraction(self.rhs_gevrey[1])))
        n1, n2 = self.out_shape
        if n1 < 0 or n2 < 0:
            raise PreconditionError("output truncation must be non-negative")

    @property
    def max_b(self) -> int:
        return z_order(self.operator)

    @property
    def inflated_n2(self) -> int:
        return inflated_window(self.operator, self.out_shape)


def z_order(P: CharPoly) -> int:
    """Largest z-order ``max_b`` of the operator."""
    return max(len(row) - 1 for row in P.coeff_polys if row)


def inflated_window(P: CharPoly, out_shape) -> int:
    """Internal z-truncation ``N2 + N1 * max_b`` for the output window
    ``(N1, N2)``; solving on it leaves the whole output window valid."""
    return out_shape[1] + out_shape[0] * z_order(P)


def g_from_f(p0_coeffs, m2: MomentFunction, f: Series2) -> Series2:
    """Solve ``P0(dz) g = f`` for g with the free z-coefficients set to zero.

    In z-normalized coordinates ``G_i = g_i * m2(i/kappa2)`` the equation is
    the recursion ``G_{i+deg} = (F_i - sum_{b<deg} p_b G_{i+b}) / p_deg``
    upward in the z-index, with ``G_{j,i} = 0`` for ``i < deg P0``.  Both
    arithmetics run it on the shift kernel with z-levels as the recursion
    levels, all rows at once.
    """
    exact = f.exact
    p = [RationalComplex.coerce(c) if exact else complex(c) for c in p0_coeffs]
    while p and not p[-1]:
        p.pop()
    if not p:
        raise PreconditionError("P0 must not be identically zero")
    deg = len(p) - 1
    J, I = f.valid
    # z-levels: the recursion runs over columns, each a vector over j
    terms = [(deg - b, 0, -p[b] / p[deg]) for b in range(deg) if p[b]]
    widths = [J] * (I + deg + 1)
    if exact:
        w2 = moments.fraction_table(m2, f.kappa2, I + deg)
        F = kernel.normalize(f.coeffs, [1] * (J + 1), w2, J, I)
        cols = kernel.Lanes(_transpose(F.re),
                            _transpose(F.im) if F.im is not None else None,
                            F.den)
        levels = kernel.recurrence(cols, 1 / p[deg], terms, deg, widths)
        rows = _transpose(kernel.denormalize(*levels, w2, [1] * (J + 1),
                                             I + deg, J))
    else:
        F = np.array(f.coeffs, dtype=complex)[: J + 1, : I + 1].T
        levels = kernel.recurrence_float(
            F, 1 / p[deg], terms, deg, widths,
            moments.log_table(m2, f.kappa2, I + deg), [0.0] * (J + 1))
        rows = np.array(list(levels)).T.tolist()
    return Series2(rows, f.kappa1, f.kappa2, exact)


def _transpose(rows) -> list:
    return [list(col) for col in zip(*rows)]


def _laurent_tail(rem, den, order: int):
    """Coefficients h_1..h_order of ``rem/den`` expanded in powers of 1/zeta.

    ``rem`` has degree < ``deg den``; substituting w = 1/zeta turns the
    quotient into a power series in w with zero constant term, computed
    exactly by series division.
    """
    B = len(den) - 1
    zero = RationalComplex(0)
    num_w = [zero] * (order + 1)
    for mdeg, c in enumerate(rem):
        t = B - mdeg
        if t <= order:
            num_w[t] = num_w[t] + c
    den_w = [den[B - t] if t <= B else zero for t in range(order + 1)]
    h = [zero] * (order + 1)
    for t in range(order + 1):
        acc = num_w[t]
        for sidx in range(t):
            if h[sidx] and den_w[t - sidx]:
                acc = acc - h[sidx] * den_w[t - sidx]
        h[t] = acc / den_w[0]
    return h[1:]


def _recursion_terms(prob: CauchyProblem, top, width: int) -> list:
    """Terms (a, b, c) of ``U[t] = G[t-n] + sum c * U[t-a][i+b]``.

    The recursion is in normalized coordinates; b < 0 reads ``U[t-a][i-|b|]``
    with zero below index 0.  Direct mode divides the lower lambda powers by
    the constant top coefficient (lambda power ascending, then b ascending).
    Pseudo mode expands each ``-A_{n-a}/A_n`` at zeta = infinity, exactly,
    into a polynomial part and an inverse-power tail of ``width`` terms (a
    ascending, then the polynomial part, then the tail by ascending power).
    """
    P = prob.operator
    n = P.n
    if prob.mode == "direct":
        return [(n - a, b, -RationalComplex.coerce(c) / top[0])
                for a, row in enumerate(P.coeff_polys[:n])
                for b, c in enumerate(row) if c]
    terms = []
    for a in range(1, n + 1):
        num = [RationalComplex.coerce(c) for c in P.coeff_polys[n - a]]
        if not any(num):
            continue
        quo, rem = _divmod(num, top)
        terms += [(a, b, -c) for b, c in enumerate(quo) if c]
        terms += [(a, -r, -h)
                  for r, h in enumerate(_laurent_tail(rem, top, width), 1) if h]
    return terms


def formal_solve(prob: CauchyProblem) -> Series2:
    """Truncated formal solution with zero initial data, determined by g.

    Output grid is exactly ``out_shape``; every returned coefficient is
    inside the valid window thanks to the internal z-inflation.  In float
    mode a t-level that overflows binary64 inside that window raises
    EvaluationError.
    """
    P = prob.operator
    n = P.n
    exact = prob.rhs.exact
    top = [RationalComplex.coerce(c) for c in P.p0()]
    B = len(top) - 1
    if prob.mode == "direct" and B != 0:
        raise PreconditionError(
            "direct mode requires a constant top lambda coefficient; "
            "use pseudo mode")
    if not top[-1]:
        raise PreconditionError("top lambda coefficient has vanishing leading term")
    N1, N2 = prob.out_shape
    N2i = prob.inflated_n2
    kappa1, kappa2 = prob.rhs.kappa1, prob.rhs.kappa2

    g = prob.rhs if prob.rhs_is_g else g_from_f(top, prob.m2, prob.rhs)
    J_g, I_g = g.valid
    rows_needed = max(N1 - n, -1)
    if J_g < rows_needed or I_g < N2i:
        raise PreconditionError(
            f"insufficient rhs data: need window ({rows_needed}, {N2i}), "
            f"rhs provides ({J_g}, {I_g})")

    terms = _recursion_terms(prob, top, N2i)
    windows = [N2i] * (N1 + 1)
    for t in range(n, N1 + 1):
        windows[t] = min([I_g, N2i] + [windows[t - a] - max(b, 0)
                                       for a, b, _ in terms])
    final_window = min(windows)
    if prob.mode == "pseudo" and final_window < 0:
        raise WindowError("pseudo-mode recursion ran out of columns")
    if final_window < N2:
        raise WindowError(
            f"internal inflation insufficient: reached column {final_window}, "
            f"needed {N2}")

    if exact:
        w1 = moments.fraction_table(prob.m1, kappa1, N1)
        w2 = moments.fraction_table(prob.m2, kappa2, N2i)
        G = kernel.normalize(g.coeffs, w1, w2, rows_needed, N2i)
        levels = kernel.recurrence(G, QC_ONE, terms, n, windows)
        return Series2(kernel.denormalize(*levels, w1, w2, N1, N2),
                       kappa1, kappa2, exact)
    levels = kernel.recurrence_float(
        np.array(g.coeffs, dtype=complex), 1,
        [(a, b, complex(c)) for a, b, c in terms], n, windows,
        moments.log_table(prob.m1, kappa1, N1),
        moments.log_table(prob.m2, kappa2, N2i + prob.max_b))
    out_rows = []
    for t, level in enumerate(levels):
        # overflow confined to the inflated columns is not an error
        out = level[: N2 + 1]
        if not np.isfinite(out).all():
            raise EvaluationError(
                f"float coefficients overflow at t-level {t} (of {N1}) inside "
                f"the requested window; use exact arithmetic or a smaller "
                f"t-truncation")
        out_rows.append(out.tolist())
    return Series2(out_rows, kappa1, kappa2, exact)


@dataclass(frozen=True)
class ResidualReport:
    max_abs: float
    scale: float  # largest term magnitude entering the comparison
    window: tuple
    exact_zero: bool
    relative: float


def _safe_float(x) -> float:
    try:
        return float(x)
    except OverflowError:
        return math.inf


def residual(prob: CauchyProblem, u_hat: Series2) -> ResidualReport:
    """Max-abs residual of ``P u - f`` on the common valid window.

    f is reconstructed as ``P0(dz) g`` by operator application when the
    problem was posed through g.  In exact mode a zero residual is exact;
    both sides are normalized once and shifted on integers, and the L1
    moduli ``|re| + |im|`` of raw coefficients are compared.  In float mode
    the relative residual is measured against the largest term magnitude
    (operator applied with absolute coefficients to the absolute series),
    the backward-error scale of the cancellation; a NaN or infinite value
    makes the relative residual NaN.  Both modes shift on
    :mod:`mpde.kernel`.
    """
    P = prob.operator
    support = P.support()
    p0_table = ({(0, b): c for b, c in enumerate(P.p0()) if c}
                if prob.rhs_is_g else None)
    if (u_hat.kappa1, u_hat.kappa2) != (prob.rhs.kappa1, prob.rhs.kappa2):
        raise PreconditionError("u_hat and the rhs must share kappa1, kappa2")
    J_l, I_l = operator_window(support, u_hat.valid)
    J_f, I_f = (operator_window(p0_table, prob.rhs.valid)
                if p0_table is not None else prob.rhs.valid)
    J, I = min(J_l, J_f), min(I_l, I_f)
    if J < 0 or I < 0:
        raise WindowError("empty comparison window for the residual")
    if u_hat.exact and prob.rhs.exact:
        return _residual_exact(prob, u_hat, support, p0_table, J, I)
    return _residual_float(prob, u_hat, support, p0_table, J, I)


def _modulus(grid):
    # np.abs of a complex array may differ from abs() in the last bit
    return np.hypot(grid.real, grid.imag)


def _residual_float(prob, u_hat, support, p0_table, J, I) -> ResidualReport:
    max_a = max(a for a, _ in support)
    max_b = max(b for _, b in support)
    deg0 = max(b for _, b in p0_table) if p0_table is not None else 0
    logs1 = moments.log_table(prob.m1, u_hat.kappa1, J + max_a)
    logs2 = moments.log_table(prob.m2, u_hat.kappa2, I + max(max_b, deg0))

    def sides(s: Series2, table):
        """``table`` applied to s and, with absolute coefficients, to |s|."""
        grid = np.array(s.coeffs, dtype=complex)
        if table is None:
            f = grid[: J + 1, : I + 1]
            return f, _modulus(f)
        items = [(k, complex(p)) for k, p in normalize_table(table)]
        abs_items = [(k, abs(p)) for k, p in items]
        return (kernel.shift_float(grid, items, logs1, logs2, J, I),
                kernel.shift_float(_modulus(grid), abs_items, logs1, logs2,
                                   J, I))

    lhs, abs_lhs = sides(u_hat, support)
    f, abs_f = sides(prob.rhs, p0_table)
    with np.errstate(invalid="ignore"):
        diffs = _modulus(lhs - f)
    # numpy maxima propagate NaN
    max_abs = float(np.max(diffs))
    scale = float(np.maximum(np.max(abs_lhs), np.max(abs_f)))
    if not (math.isfinite(max_abs) and math.isfinite(scale)):
        rel = math.nan
    else:
        rel = max_abs / scale if scale > 0.0 else max_abs
    return ResidualReport(max_abs, scale, (J, I), max_abs == 0.0, rel)


def _residual_exact(prob, u_hat, support, p0_table, J, I) -> ResidualReport:
    max_a = max(a for a, _ in support)
    max_b = max(b for _, b in support)
    deg0 = max(b for _, b in p0_table) if p0_table is not None else 0
    w1 = moments.fraction_table(prob.m1, u_hat.kappa1, J + max_a)
    w2 = moments.fraction_table(prob.m2, u_hat.kappa2, I + max(max_b, deg0))
    U = kernel.normalize(u_hat.coeffs, w1, w2, J + max_a, I + max_b)
    lhs = kernel.shift(U, support, J, I)
    if p0_table is not None:
        G = kernel.normalize(prob.rhs.coeffs, w1, w2, J, I + deg0)
        f = kernel.shift(G, p0_table, J, I)
    else:
        f = kernel.normalize(prob.rhs.coeffs, w1, w2, J, I)
    # raw coefficient = numerator / (den * w1[j] * w2[i]); put both sides
    # over one denominator and compare integer L1 moduli
    den = math.lcm(lhs.den, f.den)
    sl, sf = den // lhs.den, den // f.den
    zeros = [[0] * (I + 1) for _ in range(J + 1)]
    l_im = lhs.im if lhs.im is not None else zeros
    f_im = f.im if f.im is not None else zeros
    diff, size = [], []
    for j in range(J + 1):
        lr, li, fr, fi = lhs.re[j], l_im[j], f.re[j], f_im[j]
        diff.append([abs(lr[i] * sl - fr[i] * sf) + abs(li[i] * sl - fi[i] * sf)
                     for i in range(I + 1)])
        size.append([max((abs(lr[i]) + abs(li[i])) * sl,
                         (abs(fr[i]) + abs(fi[i])) * sf)
                     for i in range(I + 1)])
    max_abs = _max_weighted(diff, w1, w2) / den
    scale = _max_weighted(size, w1, w2) / den
    rel = float(max_abs / scale) if scale > 0 else float(max_abs != 0)
    return ResidualReport(_safe_float(max_abs), _safe_float(scale),
                          (J, I), max_abs == 0, rel)


def _max_weighted(rows, w1, w2) -> Fraction:
    """Largest ``rows[j][i] / (w1[j] * w2[i])`` over non-negative int rows.

    Candidates are compared by cross-multiplication, which needs no gcd per
    cell, and only the maximum becomes a Fraction.
    """
    best_num, best_den = 0, 1
    w2n = [w.numerator for w in w2]
    w2d = [w.denominator for w in w2]
    for j, row in enumerate(rows):
        jn, jd = w1[j].numerator, w1[j].denominator
        for i, x in enumerate(row):
            if x:
                num, den = x * jd * w2d[i], jn * w2n[i]
                if num * best_den > best_num * den:
                    best_num, best_den = num, den
    return Fraction(best_num, best_den)


@dataclass(frozen=True)
class BranchOrder:
    q: Fraction
    gevrey_t: Fraction


@dataclass(frozen=True)
class OrdersReport:
    per_branch: tuple
    t_order: Fraction
    z_order: Fraction


def theoretical_orders(P_or_branches, s1, s2, st1=0, st2=0) -> OrdersReport:
    """Gevrey order bound per branch: ``max(q+ * (s2 + st2) - s1, st1)``.

    ``q+`` is the positive part of the pole order; the overall t-order is
    the maximum over branches and the z-order is the declared st2.
    """
    if isinstance(P_or_branches, CharPoly):
        branches = branches_at_infinity(P_or_branches)
    else:
        branches = list(P_or_branches)
    s1, s2 = as_fraction(s1), as_fraction(s2)
    st1, st2 = as_fraction(st1), as_fraction(st2)
    per = []
    for b in branches:
        q_plus = b.q if b.q > 0 else Fraction(0)
        per.append(BranchOrder(b.q, max(q_plus * (s2 + st2) - s1, st1)))
    t_order = max((bo.gevrey_t for bo in per), default=st1)
    return OrdersReport(tuple(per), t_order, st2)
