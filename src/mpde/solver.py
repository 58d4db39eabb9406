"""Normalized truncated formal solutions of moment Cauchy problems.

Solves ``P(dt, dz) u = f`` with zero initial data, where dt and dz are the
moment derivatives attached to m1 and m2.  In normalized coordinates
``U_{j,i} = u_{j,i} * m1(j) * m2(i)`` the operator is a
constant-coefficient shift, and the recursion runs level by level in the
t-order as ``U[j+n][i] = G[j][i] + sum c_ab U[j+n-a][i+b]``.

Both arithmetics run this recursion and the residual on the shift kernel of
:mod:`mpde.kernel`, handing it raw grids, the operator's Gaussian-rational
coefficients and the moment tables that the :class:`CauchyProblem` builds
once.  Exact mode recurses on Python integers over one common denominator
and keeps the output window of lanes whose row divisors are the level
divisors times ``m1`` and whose column divisors are the values of ``m2``
(times ``e**i``, e the denominator of the top coefficient's taps); the
residual shifts those lanes on integers, on the window the operator's orders
leave, with no Gaussian rational built.  Float mode recurses on raw
coefficients with moment ratios taken from their logarithms, so that grids
whose normalized coefficients would overflow stay finite; an output row that
overflows anyway raises EvaluationError.  Float grids stay numpy arrays from
the rhs to the output (``Series2.grid``): the recursion checks the output
window for non-finite cells, a block of levels at a time, and returns its
grid of levels, out of which the window is copied once.  A solve has one
float dtype: float64 when the rhs grid and the operator's coefficients are
real, and complex128 otherwise.

One recursion serves both arithmetics, both rhs roles and the power-series
division of a ``rational`` rhs in :mod:`mpde.problem`.  Each ``A_{n-a}`` is
divided once by the top lambda coefficient ``A_n(zeta)`` of degree B: the
quotient shifts z-indices up, and the remainder over ``A_n``, which is the
inverse-power tail of ``A_{n-a}/A_n`` at ``zeta = infinity``, shifts down
with zero padding.  The kernel applies the tail as remainder terms followed
by a B-tap recurrence along z (``1/A_n``), exactly the Laurent convolution
on the grid.  An f rhs enters the same taps shifted down by B and divided
by ``p_B``, the top term of ``A_n``, which is ``g = A_n^-1 f`` at infinity.
A constant top (B = 0) has no remainder and no taps.

Level t is computed on the columns ``i <= w[t]`` of :func:`level_widths`:
a quotient term (a, b) reads level ``t - a`` at column ``i + b``, so
``w[t] = max(N2, w[t+a] + b)`` leaves the whole requested output window
valid; the remainder terms and the taps read lower columns, and the rhs is
read up to ``w[0]``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice, repeat

from . import kernel, moments
from .charroots import CharPoly, _divmod, monomial
from .errors import PreconditionError, WindowError
from .exact import QC_ONE, as_fraction, quotient
from .moments import MomentFunction
from .record import record
from .series import Series2


@record
class CauchyProblem:
    """Problem data: operator, moment functions, inhomogeneity, truncation.

    ``rhs`` is read as the normalized right-hand side g by default
    (``rhs_is_g``), or as f itself, for ``g = P0(dz)^-1 f`` with the free
    coefficients set to zero; f then needs B = deg P0 columns fewer.
    With ``rhs_zero_past`` the rhs is zero on the t-rows past its grid:
    every stage reads it as if it were zero-padded to the N1 rows of
    ``out_shape`` (:attr:`rhs_window`), and no stage allocates those rows.
    By default the rhs is known on its grid only, since a truncated series
    is not zero past its truncation, and a solve that needs more rows
    raises PreconditionError.
    The orders are the operator's own (``operator.n``, ``operator.B`` and
    ``operator.max_b``).  The declared Gevrey orders of a problem file's
    rhs enter only its analysis reports, not a solve.  Its moment tables
    and normalized rhs are built once, on first use, for every stage.
    """

    operator: CharPoly
    m1: MomentFunction
    m2: MomentFunction
    rhs: Series2
    out_shape: tuple
    rhs_is_g: bool = True
    rhs_zero_past: bool = False

    def __post_init__(self):
        n1, n2 = self.out_shape
        if n1 < 0 or n2 < 0:
            raise PreconditionError("output truncation must be non-negative")

    @cached_property
    def widths(self) -> list:
        """Last column of each solver level, :func:`level_widths`; level 0
        is the widest."""
        return level_widths(self.operator, self.out_shape)

    @property
    def rhs_window(self) -> tuple:
        """Last index pair ``(J, I)`` the rhs is known on: its grid's, with
        J raised to N1 when ``rhs_zero_past`` says the rows past the grid
        are zero."""
        J, I = self.rhs.valid
        return (max(J, self.out_shape[0]) if self.rhs_zero_past else J), I

    @property
    def _table_sizes(self) -> tuple:
        """Largest row and column index any stage reads a moment value at:
        the rhs or output window plus the t-order of the operator (rows)
        and plus its largest z-order ``max_b`` (columns)."""
        n1, _ = self.out_shape
        J, I = self.rhs_window
        return (max(n1, J) + self.operator.n,
                max(self.widths[0], I) + self.operator.max_b)

    @cached_property
    def fraction_tables(self) -> tuple:
        """Exact moment values ``(m1(j), m2(i))`` of
        :func:`moments.fraction_table` over :attr:`_table_sizes`, shared by
        every exact stage of a solve: ints where they are integral, so that
        the divisors the kernel multiplies and divides stay ints, and
        Fractions otherwise."""
        return self._tables(moments.fraction_table)

    @cached_property
    def normalized_rhs(self) -> kernel.Lanes:
        """The exact rhs normalized by :func:`kernel.rescale` on its whole
        grid, which holds every cell that the recursion and the residual of
        any u read, but for the zero rows past it that ``rhs_zero_past``
        declares."""
        return kernel.rescale(self.rhs.lanes, *self.fraction_tables,
                              *self.rhs.valid)

    @cached_property
    def log_tables(self) -> tuple:
        """Natural logs of the same moment values, for float mode."""
        return self._tables(moments.log_table)

    def _tables(self, build) -> tuple:
        """``build`` over :attr:`_table_sizes`; one table, sliced for both
        axes, when ``m1 == m2``."""
        n_rows, n_cols = self._table_sizes
        if self.m1 == self.m2:
            table = build(self.m1, max(n_rows, n_cols))
            return table[: n_rows + 1], table[: n_cols + 1]
        return build(self.m1, n_rows), build(self.m2, n_cols)


def level_widths(P: CharPoly, out_shape) -> list:
    """Last column ``w[t]`` that level t of the recursion is computed on,
    for the output window ``(N1, N2)``; the list is non-increasing in t.

    Level ``t + a`` reads level t up to b columns further through the
    quotient terms of ``A_{n-a}/A_n``, the largest of which has
    ``b = deg A_{n-a} - B``.  One backward pass sets ``w[N1] = N2`` and
    ``w[t] = max(N2, w[t+a] + b)``; every other read is at a lower column.
    """
    N1, N2 = out_shape
    n, B = P.n, P.B
    ups = [(n - lam, len(row) - 1 - B)
           for lam, row in enumerate(P.coeff_polys[:n]) if len(row) > B]
    w = [N2] * (N1 + 1)
    for t in range(N1 - 1, -1, -1):
        for a, b in ups:
            if t + a <= N1 and w[t + a] + b > w[t]:
                w[t] = w[t + a] + b
    return w


def _taps(top) -> list:
    """Taps (k, ``p_{B-k}/p_B``) of a top coefficient ``sum p_b zeta**b``."""
    B = len(top) - 1
    return [(k, top[B - k] / top[B]) for k in range(1, B + 1) if top[B - k]]


def _recursion_terms(rows, top) -> tuple:
    """Terms (a, b, c) and taps (k, m_k) of the normalized recursion
    ``U[t] = G[t-n] + sum c * U[t-a][i+b] + V[t]`` of :func:`kernel.recurrence`
    for the lambda coefficients ``rows`` (zeta-polynomials of
    :class:`RationalComplex` values, ``rows[n]`` the top coefficient
    ``top``, as a :class:`CharPoly` holds them).

    Each ``-A_{n-a}/A_n`` is divided once into a quotient, whose terms shift
    up (b >= 0), and a remainder of degree < B = deg A_n over ``A_n``.  In
    w = 1/zeta that fraction is ``sum_k (-rem_k/p_B) w**(B-k)`` over
    ``1 + sum_k m_k w**k`` with ``m_k = p_{B-k}/p_B``: its numerator gives
    the terms that shift down (b = k - B < 0), its denominator the taps.
    This is the expansion of ``A_{n-a}/A_n`` at zeta = infinity, whose
    inverse powers shift down with zero padding.  Terms come lambda power
    ascending, then quotient before remainder, b ascending; a constant top
    (B = 0) leaves no remainder and no taps.
    """
    n, B = len(rows) - 1, len(top) - 1
    terms = []
    for lam, row in enumerate(rows[:n]):
        quo, rem = _divmod(row, top)
        terms += [(n - lam, b, -c) for b, c in enumerate(quo) if c]
        terms += [(n - lam, k - B, -c / top[B])
                  for k, c in enumerate(rem) if c]
    return terms, _taps(top)


def rounded_recursion(q, terms, taps, q_name: str, name) -> tuple:
    """``q``, the terms and the taps of a recursion rounded by
    :func:`kernel.rounded`, real ones to floats.  One beyond binary64 raises
    EvaluationError naming it: ``q_name`` names q, ``name(a, b)`` the term
    at offset (a, b) and ``name(0, -k)`` tap k."""
    return (kernel.rounded(q, q_name),
            [(a, b, kernel.rounded(c, name(a, b))) for a, b, c in terms],
            [(k, kernel.rounded(m, name(0, -k))) for k, m in taps])


def formal_solve(prob: CauchyProblem) -> Series2:
    """Truncated formal solution with zero initial data, determined by g,
    for any top lambda coefficient, a constant or a polynomial.

    Output grid is exactly ``out_shape``; every returned coefficient is
    inside the valid window thanks to the level widths.  The recursion's
    terms and taps are the operator's Gaussian-rational coefficients as
    they are; exact mode recurses on :attr:`CauchyProblem.normalized_rhs`,
    and float mode on z-normalized levels (:func:`kernel.recurrence_float`,
    m1 a ratio per level, m2 applied once).  The rhs must be known on
    rows ``N1 - n`` (:attr:`CauchyProblem.rhs_window`), else
    PreconditionError; both kernels read the rows past its grid, which
    ``rhs_zero_past`` declares zero, as zero.  Float
    mode rounds them once (:func:`rounded_recursion`), so that one beyond
    binary64 raises EvaluationError naming the operator terms it divides,
    and the kernel takes the rounded values; it forms the raw coefficients
    of the window, columns ``i <= N2``, a block of levels at a time, checks
    them, and a t-level that overflows binary64 there raises
    EvaluationError naming the first such level.  The array of the window
    it returns is the solution's grid.
    """
    P = prob.operator
    n = P.n
    top, B = P.p0(), P.B
    N1, N2 = prob.out_shape
    N2i = prob.widths[0]

    # f enters shifted down by B, so that the taps turn it into g = P0^-1 f
    q, shift = (QC_ONE, 0) if prob.rhs_is_g else (1 / top[B], -B)
    J_g, I_g = prob.rhs_window
    rows_needed = max(N1 - n, -1)
    if J_g < rows_needed or I_g < N2i + shift:
        raise PreconditionError(
            f"insufficient rhs data: need window ({rows_needed}, "
            f"{N2i + shift}), rhs provides ({J_g}, {I_g})")

    terms, taps = _recursion_terms(P.coeff_polys, top)
    if prob.rhs.exact:
        v = kernel.recurrence(prob.normalized_rhs, q, terms, n, prob.widths,
                              *prob.fraction_tables, taps, shift)
        # only the output window is kept
        return Series2(kernel.window(v, N1, N2), True)

    def name(a, b):
        # a tap, and a term when B = 0, is one operator term over the top
        # one; a term when B > 0 is a coefficient of the quotient of two
        # lambda coefficients
        if a and B:
            return (f"the zeta^{b} coefficient of the lambda^{n - a} "
                    f"coefficient over the top lambda coefficient")
        return (f"operator term {monomial(n - a, B + b)} over term "
                f"{monomial(n, B)}")
    q, terms, taps = rounded_recursion(
        q, terms, taps, f"1 over operator term {monomial(n, B)}", name)
    out = kernel.recurrence_float(prob.rhs.grid, q, terms, n, prob.widths,
                                  *prob.log_tables, taps, shift, N2)
    return Series2(kernel.read_only(out), False)


@record
class ResidualReport:
    """Largest residual of ``P u - f`` on its window ``(J, I)``, absolute
    (``max_abs``) and relative (``relative``), and whether it is exactly
    zero (``exact_zero``)."""

    max_abs: float
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
    problem was posed through g.  The window is u's less P's orders
    ``(n, max_b)`` and g's less P0's ``(0, B)``, or f's; an empty one raises
    WindowError.  The rhs's window is :attr:`CauchyProblem.rhs_window`,
    and the rows of it past the rhs grid, zero by ``rhs_zero_past``, are
    read as zero without being allocated.  In exact mode a zero residual
    is exact: u is normalized
    and shifted on integers against the rhs the solve normalized once
    (:attr:`CauchyProblem.normalized_rhs`), equal sides report zero at
    once, and otherwise the L1 moduli ``|re| + |im|`` of raw coefficients
    are compared.  The relative residual is measured
    against the largest term magnitude (in float mode, the operator applied
    with absolute coefficients to the absolute series), the backward-error
    scale of the cancellation; in float mode a NaN or infinite value makes
    the relative residual NaN.  Both modes shift on :mod:`mpde.kernel`.
    """
    P = prob.operator
    support = P.support()
    p0_table = ({(0, b): c for b, c in enumerate(P.p0()) if c}
                if prob.rhs_is_g else {(0, 0): 1})
    B = P.B if prob.rhs_is_g else 0
    for a, b, valid in ((P.n, P.max_b, u_hat.valid), (0, B, prob.rhs_window)):
        if valid[0] < a or valid[1] < b:
            raise WindowError(f"operator orders ({a}, {b}) exceed the "
                              f"valid window {valid}")
    (J_u, I_u), (J_g, I_g) = u_hat.valid, prob.rhs_window
    J, I = min(J_u - P.n, J_g), min(I_u - P.max_b, I_g - B)
    if u_hat.exact and prob.rhs.exact:
        return _residual_exact(prob, u_hat, support, p0_table, J, I)
    return _residual_float(prob, u_hat, support, p0_table, J, I)


def _residual_float(prob, u_hat, support, p0_table, J, I) -> ResidualReport:
    """The float residual of ``2**e (P u - f)``: each side is one
    :func:`kernel.shift_float` of its grid, and one more of its moduli with
    absolute coefficients, for the scale.  e, minus the largest bit length
    of a part of an operator coefficient (0 near 1), scales each exactly
    before it is rounded, so the relative residual is that of ``P u - f``
    unless a value leaves the normal binary64 range; ``max_abs`` is scaled
    back, infinite beyond binary64.  The rhs side is one shift by its P0
    table in every case, ``{(0, 0): 1}`` for an f, which turns a -0.0 cell
    to +0.0 and changes no modulus.  It covers the rhs grid's rows only:
    past them it is +0.0, which leaves lhs's cells, and their moduli, as
    they are.  The m1 and m2 ratio vectors are built for the nonzero
    offsets only, as :func:`kernel.shift_float` multiplies by no factor of
    one: a float64 cell keeps its bits, a complex128 one its finite
    modulus.  When ``max_abs`` or the scale is not finite while every cell
    of u and of the rhs has a finite modulus, the terms of finite cells
    overflowed: the residual is computed once more with e lowered by the
    binary exponent of the largest cell modulus."""
    import numpy as np

    e = -max(x.numerator.bit_length() - x.denominator.bit_length()
             for c in support.values() for x in (c.re, c.im) if x)
    logs1, logs2 = prob.log_tables
    # the ratio vectors of all four shifts
    offsets = [*support, *p0_table]
    r1 = kernel.ratios(logs1, {a for a, _ in offsets if a}, J, "m1")
    r2 = kernel.ratios(logs2, {b for _, b in offsets if b}, I, "m2")

    def sides(s: Series2, table, rows: int):
        """``2**e table`` on s and, made absolute, on |s|, for j <= rows:
        two :func:`kernel.shift_float` calls."""
        items = [(k, kernel.binary64(p * Fraction(2) ** e))
                 for k, p in table.items()]
        abs_items = [(k, abs(p)) for k, p in items]
        grid = s.grid
        return (kernel.shift_float(grid, items, r1, r2, rows, I),
                kernel.shift_float(kernel.modulus(grid), abs_items, r1, r2,
                                   rows, I))

    for retry in (False, True):
        lhs, abs_lhs = sides(u_hat, support, J)
        f, abs_f = sides(prob.rhs, p0_table, min(J, prob.rhs.valid[0]))
        diff = lhs.astype(np.result_type(lhs, f), copy=False)
        with np.errstate(invalid="ignore", over="ignore"):
            diff[: len(f)] -= f
            # numpy maxima propagate NaN
            max_abs = float(np.max(kernel.modulus(diff)))
            abs_own = float(np.ldexp(max_abs, -e))
        scale = float(np.maximum(np.max(abs_lhs), np.max(abs_f)))
        finite = math.isfinite(max_abs) and math.isfinite(scale)
        if finite or retry:
            break
        with np.errstate(over="ignore"):
            top = max(float(np.max(kernel.modulus(s.grid)))
                      for s in (u_hat, prob.rhs))
        if not 0.0 < top < math.inf:
            break  # a cell, or its modulus, is not finite
        # finite cells whose terms overflow: 2**e brings the largest near 1
        e -= math.frexp(top)[1]
    if not finite:
        rel = math.nan
    else:
        rel = max_abs / scale if scale > 0.0 else max_abs
    return ResidualReport(abs_own, (J, I), max_abs == 0.0, rel)


def _residual_exact(prob, u_hat, support, p0_table, J, I) -> ResidualReport:
    """The exact residual, its rhs side the normalized rhs shifted by its
    P0 table, on the rows of the rhs grid.  The sides' row divisors differ
    by one ratio sf/sl in lowest terms, so lhs's lanes times sl and the
    rhs's times sf share one divisor: equal integer lanes (an absent
    imaginary lane, and the rows past the rhs grid's, read as zeros) are
    zero, and otherwise the L1 moduli of their differences are compared."""
    w1, w2 = prob.fraction_tables
    P, g = prob.operator, prob.normalized_rhs
    lhs = kernel.shift(kernel.rescale(u_hat.lanes, w1, w2, J + P.n,
                                      I + P.max_b), support, w1, w2, J, I)
    f = kernel.shift(g, p0_table, w1, w2, min(J, len(g.re) - 1), I)
    sf, sl = quotient(lhs.row_div[0], f.row_div[0]).as_integer_ratio()
    zero = [0] * (I + 1)
    l_re, l_im, f_re, f_im = (
        [row if s == 1 else [x * s for x in row]
         for row in islice(chain(lane or (), repeat(zero)), J + 1)]
        for lane, s in ((lhs.re, sl), (lhs.im, sl), (f.re, sf), (f.im, sf)))
    if l_re == f_re and l_im == f_im:
        return ResidualReport(0.0, (J, I), True, 0.0)
    rows = list(zip(l_re, l_im, f_re, f_im))
    diff = [[abs(lr[i] - fr[i]) + abs(li[i] - fi[i]) for i in range(I + 1)]
            for lr, li, fr, fi in rows]
    size = [[max(abs(lr[i]) + abs(li[i]), abs(fr[i]) + abs(fi[i]))
             for i in range(I + 1)] for lr, li, fr, fi in rows]
    max_abs = _max_weighted(diff, lhs.row_div, w2) / sl
    scale = _max_weighted(size, lhs.row_div, w2) / sl
    rel = float(max_abs / scale) if scale > 0 else float(max_abs != 0)
    return ResidualReport(_safe_float(max_abs), (J, I), max_abs == 0, rel)


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


@record
class BranchOrder:
    """Gevrey order bound in t of one branch of pole order q."""

    q: Fraction
    gevrey_t: Fraction


@record
class OrdersReport:
    """Theoretical Gevrey orders per branch and overall in t and z."""

    per_branch: tuple
    t_order: Fraction
    z_order: Fraction


def theoretical_orders(branches, s1, s2, st1=0, st2=0) -> OrdersReport:
    """Gevrey order bound per branch: ``max(q+ * (s2 + st2) - s1, st1)``.

    ``branches`` are those of :func:`mpde.charroots.branches_at_infinity`;
    ``q+`` is the positive part of the pole order; the overall t-order is
    the maximum over branches and the z-order is the declared st2.
    """
    s1, s2 = as_fraction(s1), as_fraction(s2)
    st1, st2 = as_fraction(st1), as_fraction(st2)
    per = []
    for b in branches:
        q_plus = b.q if b.q > 0 else Fraction(0)
        per.append(BranchOrder(b.q, max(q_plus * (s2 + st2) - s1, st1)))
    t_order = max((bo.gevrey_t for bo in per), default=st1)
    return OrdersReport(tuple(per), t_order, st2)
