"""Normalized truncated formal solutions of moment Cauchy problems.

Solves ``P(dt, dz) u = f`` with zero initial data, where dt and dz are the
moment derivatives attached to m1 and m2.  In normalized coordinates
``U_{j,i} = u_{j,i} * m1(j/kappa1) * m2(i/kappa2)`` the operator is a
constant-coefficient shift, and the recursion runs level by level in the
t-order as ``U[j+n][i] = G[j][i] + sum c_ab U[j+n-a][i+b]``.

Both arithmetics run this recursion and the residual on the shift kernel
of :mod:`mpde.kernel`, handing it raw grids, the operator's
Gaussian-rational coefficients and the moment tables that the
:class:`CauchyProblem` builds once.  Exact mode recurses on Python integers
over one common denominator and keeps the output window of lanes whose row
divisors are the level divisors times ``m1`` and whose column divisors are
the values of ``m2`` (times ``e**i``, e the denominator of the top
coefficient's taps); the residual shifts those lanes on integers, with no
Gaussian rational built in between.  Float mode recurses on raw
coefficients with moment ratios taken from their logarithms, so that grids
whose normalized coefficients would overflow stay finite; an output row
that overflows anyway raises EvaluationError.  Float grids stay numpy
arrays from the rhs to the output (``Series2.grid``): the output window of
each level is copied into one array as the level is yielded, and checked
for non-finite cells a block of levels at a time.  A solve has one float
dtype: float64 when the rhs grid and the operator's coefficients are real,
and complex128 otherwise.

One recursion serves both modes, both rhs roles and the power-series
division of a ``rational`` rhs in :mod:`mpde.problem`.  Each ``A_{n-a}`` is
divided once by the top lambda coefficient ``A_n(zeta)`` of degree B: the
quotient shifts z-indices up, and the remainder over ``A_n``, which is the
inverse-power tail of ``A_{n-a}/A_n`` at ``zeta = infinity``, shifts down
with zero padding.  The kernel applies the tail as remainder terms followed
by a B-tap recurrence along z (``1/A_n``), exactly the Laurent convolution
on the grid.  An f rhs enters the same taps shifted down by B and divided
by ``p_B``, the top term of ``A_n``, which is ``g = A_n^-1 f`` at infinity.
The ``mode`` only states what the top may be:

* ``direct``  - the top lambda coefficient is a constant (B = 0): no
  remainder and no taps;
* ``pseudo``  - the top lambda coefficient ``A_n(zeta)`` is a polynomial.

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

from . import kernel, moments
from .charroots import CharPoly, _divmod, monomial
from .errors import (DomainError, EvaluationError, PreconditionError,
                     WindowError)
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
    The orders are the operator's own (``operator.n``, ``operator.B`` and
    ``operator.max_b``).  The declared Gevrey orders of a problem file's
    rhs enter only its analysis reports, not a solve.
    """

    operator: CharPoly
    m1: MomentFunction
    m2: MomentFunction
    rhs: Series2
    out_shape: tuple
    rhs_is_g: bool = True
    mode: str = "direct"

    def __post_init__(self):
        if self.mode not in ("direct", "pseudo"):
            raise PreconditionError(f"unknown mode {self.mode!r}")
        n1, n2 = self.out_shape
        if n1 < 0 or n2 < 0:
            raise PreconditionError("output truncation must be non-negative")

    @cached_property
    def widths(self) -> list:
        """Last column of each solver level, :func:`level_widths`; level 0
        is the widest."""
        return level_widths(self.operator, self.out_shape)

    @property
    def _table_sizes(self) -> tuple:
        """Largest row and column index any stage reads a moment value at:
        the rhs or output window plus the t-order of the operator (rows)
        and plus its largest z-order ``max_b`` (columns)."""
        n1, _ = self.out_shape
        J, I = self.rhs.valid
        return (max(n1, J) + self.operator.n,
                max(self.widths[0], I) + self.operator.max_b)

    @cached_property
    def fraction_tables(self) -> tuple:
        """Exact moment values ``(m1(j/kappa1), m2(i/kappa2))`` of
        :func:`moments.fraction_table` over :attr:`_table_sizes`, shared by
        every exact stage of a solve: ints where they are integral, so that
        the divisors the kernel multiplies and divides stay ints, and
        Fractions otherwise."""
        return self._tables(moments.fraction_table)

    @cached_property
    def log_tables(self) -> tuple:
        """Natural logs of the same moment values, for float mode."""
        return self._tables(moments.log_table)

    def _tables(self, build) -> tuple:
        """``build`` over :attr:`_table_sizes`; one table, sliced for both
        axes, when ``(m1, kappa1) == (m2, kappa2)``."""
        n_rows, n_cols = self._table_sizes
        axes = (self.m1, self.rhs.kappa1), (self.m2, self.rhs.kappa2)
        if axes[0] == axes[1]:
            table = build(*axes[0], max(n_rows, n_cols))
            return table[: n_rows + 1], table[: n_cols + 1]
        return build(*axes[0], n_rows), build(*axes[1], n_cols)


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


# formal_solve checks the window of this many float levels at a time
_BLOCK = 8


def _check_finite(out, lo: int, hi: int, N1: int) -> None:
    """Raise EvaluationError naming the first of the levels ``lo..hi`` of
    the float output window ``out`` that holds a non-finite cell."""
    import numpy as np

    block = out[lo: hi + 1]
    if not np.isfinite(block).all():
        t = lo + int(np.isfinite(block).all(axis=1).argmin())
        raise EvaluationError(
            f"float coefficients overflow at t-level {t} (of {N1}) inside "
            f"the requested window; lower the t-truncation (--n1) below "
            f"{t}, or check larger ones with verify --arithmetic exact")


def formal_solve(prob: CauchyProblem) -> Series2:
    """Truncated formal solution with zero initial data, determined by g.

    Output grid is exactly ``out_shape``; every returned coefficient is
    inside the valid window thanks to the level widths.  The recursion's
    terms and taps are the operator's Gaussian-rational coefficients as
    they are: the kernel's recurrence applies the moment tables and the
    rounding.  Float mode rounds them first (:func:`rounded_recursion`), so
    that one beyond binary64 raises EvaluationError naming the operator
    terms it divides, and a t-level that overflows binary64 inside that
    window raises EvaluationError naming the first such level.  The window
    of each level is copied into the output array as the level is yielded,
    and checked for non-finite cells once per block of 8 levels and at
    level N1, not once per level; on a failure the recursion has run at
    most 7 levels past the one named.
    """
    P = prob.operator
    n = P.n
    top, B = P.p0(), P.B
    if prob.mode == "direct" and B != 0:
        raise PreconditionError(
            "direct mode requires a constant top lambda coefficient; "
            "use pseudo mode")
    N1, N2 = prob.out_shape
    N2i = prob.widths[0]

    # f enters shifted down by B, so that the taps turn it into g = P0^-1 f
    q, shift = (QC_ONE, 0) if prob.rhs_is_g else (1 / top[B], -B)
    J_g, I_g = prob.rhs.valid
    rows_needed = max(N1 - n, -1)
    if J_g < rows_needed or I_g < N2i + shift:
        raise PreconditionError(
            f"insufficient rhs data: need window ({rows_needed}, "
            f"{N2i + shift}), rhs provides ({J_g}, {I_g})")

    terms, taps = _recursion_terms(P.coeff_polys, top)
    if prob.rhs.exact:
        v = kernel.recurrence(prob.rhs.lanes, q, terms, n, prob.widths,
                              *prob.fraction_tables, taps, shift)
        # only the output window is kept
        return Series2(kernel.window(v, N1, N2), prob.rhs.kappa1,
                       prob.rhs.kappa2, True)
    import numpy as np

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
    levels = kernel.recurrence_float(prob.rhs.grid, q, terms, n, prob.widths,
                                     *prob.log_tables, taps, shift)
    try:
        for t, level in enumerate(levels):
            if not t:
                out = np.empty((N1 + 1, N2 + 1), dtype=level.dtype)
            # overflow confined to the columns past N2 is not an error
            out[t] = level[: N2 + 1]
            if t % _BLOCK == _BLOCK - 1 or t == N1:
                _check_finite(out, t - t % _BLOCK, t, N1)
    finally:
        levels.close()  # restores the caller's numpy error state
    return Series2(kernel.read_only(out), prob.rhs.kappa1, prob.rhs.kappa2,
                   False)


@record
class ResidualReport:
    """Largest residual of ``P u - f`` on its window, absolute and relative."""

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


def normalize_table(table) -> list:
    """Sorted ((a, b), coeff) items; sorting makes application order
    independent of the caller's enumeration order."""
    items = sorted(table.items())
    if not items:
        raise DomainError("empty operator support")
    if any(a < 0 or b < 0 for (a, b), _ in items):
        raise DomainError("operator support must live in the first quadrant")
    return items


def operator_window(table, valid) -> tuple:
    """Valid window left after applying the operator ``table`` to a series
    with valid window ``valid``; raises WindowError when it is empty."""
    items = normalize_table(table)
    max_a = max(a for (a, _), _ in items)
    max_b = max(b for (_, b), _ in items)
    J_out, I_out = valid[0] - max_a, valid[1] - max_b
    if J_out < 0 or I_out < 0:
        raise WindowError(
            f"operator orders ({max_a}, {max_b}) exceed the valid window {valid}")
    return J_out, I_out


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
    if u_hat.exact and prob.rhs.exact:
        return _residual_exact(prob, u_hat, support, p0_table, J, I)
    return _residual_float(prob, u_hat, support, p0_table, J, I)


def _residual_float(prob, u_hat, support, p0_table, J, I) -> ResidualReport:
    """The float residual: each side is one :func:`kernel.shift_float` of
    its grid, and one more of its moduli with absolute coefficients, for
    the scale; the rhs side of a g whose ``P0`` is 1 is the grid itself.
    An operator coefficient beyond binary64 raises EvaluationError naming
    its term."""
    import numpy as np

    logs1, logs2 = prob.log_tables
    # the ratio vectors of all four shifts
    offsets = [*support, *(p0_table or ())]
    r1 = kernel.ratios(logs1, {a for a, _ in offsets}, J)
    r2 = kernel.ratios(logs2, {b for _, b in offsets}, I)

    def sides(s: Series2, table, n: int = 0):
        """``table`` applied to s and, with absolute coefficients, to |s|;
        its key (a, b) is the operator term ``dt^(a+n)*dz^b``."""
        grid = s.grid
        if table is None:
            f = grid[: J + 1, : I + 1]
            return f, kernel.modulus(f)
        items = [((a, b), kernel.rounded(
                     p, f"operator term {monomial(a + n, b)}"))
                 for (a, b), p in normalize_table(table)]
        abs_items = [(k, abs(p)) for k, p in items]
        return (kernel.shift_float(grid, items, r1, r2, J, I),
                kernel.shift_float(kernel.modulus(grid), abs_items, r1, r2,
                                   J, I))

    lhs, abs_lhs = sides(u_hat, support)
    # P0 = 1 leaves g as it is: the grid itself, whose -0.0 cells the
    # shift would turn to +0.0, which modulus reads alike
    f, abs_f = sides(prob.rhs, None if p0_table == {(0, 0): 1} else p0_table,
                     prob.operator.n)
    with np.errstate(invalid="ignore"):
        diffs = kernel.modulus(lhs - f)
    # numpy maxima propagate NaN
    max_abs = float(np.max(diffs))
    scale = float(np.maximum(np.max(abs_lhs), np.max(abs_f)))
    if not (math.isfinite(max_abs) and math.isfinite(scale)):
        rel = math.nan
    else:
        rel = max_abs / scale if scale > 0.0 else max_abs
    return ResidualReport(max_abs, scale, (J, I), max_abs == 0.0, rel)


def _residual_exact(prob, u_hat, support, p0_table, J, I) -> ResidualReport:
    w1, w2 = prob.fraction_tables
    lhs = kernel.shift(u_hat.lanes, support, w1, w2, J, I)
    f = kernel.shift(prob.rhs.lanes, p0_table or {(0, 0): 1}, w1, w2, J, I)
    # the row divisors of the sides differ by one ratio sf/sl in lowest
    # terms: put both over lhs's divisors times sl, compare integer L1 moduli
    sf, sl = quotient(lhs.row_div[0], f.row_div[0]).as_integer_ratio()
    zeros = [[0] * (I + 1) for _ in range(J + 1)]
    l_im = lhs.im if lhs.im is not None else zeros
    f_im = f.im if f.im is not None else zeros
    diff, size = [], []
    for j in range(J + 1):
        lr, li, fr, fi = lhs.re[j], l_im[j], f.re[j], f_im[j]
        if sl == sf and lr == fr and li == fi:
            # equal rows over one denominator (sl = sf = 1): no difference,
            # and both sides have one size
            diff.append(())
            size.append([abs(x) for x in lr] if li is zeros[j] else
                        [abs(x) + abs(y) for x, y in zip(lr, li)])
            continue
        diff.append([abs(lr[i] * sl - fr[i] * sf) + abs(li[i] * sl - fi[i] * sf)
                     for i in range(I + 1)])
        size.append([max((abs(lr[i]) + abs(li[i])) * sl,
                         (abs(fr[i]) + abs(fi[i])) * sf)
                     for i in range(I + 1)])
    max_abs = _max_weighted(diff, lhs.row_div, w2) / sl
    scale = _max_weighted(size, lhs.row_div, w2) / sl
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
