"""Independent oracles for the test suite.

Two quadratures (they need scipy) cross-check the coefficient-shift
operators of mpde: a Mellin transform of the single-factor kernel against
``eval_at``, and an adaptive quadrature of the fractional integral against
``moment_antidiff``, both test routes of ``routes``.  A per-cell power-series division in
Python ``complex`` arithmetic is the reference for the float expansion of a
``rational`` rhs, within a bound set by the same division run on moduli,
and a per-cell fraction-free division on Gaussian integers for its exact
expansion.  Loop forms of shift-kernel functions are references for
their faster forms: a per-cell ``Fraction`` normalization
for ``kernel.lanes_of_table`` and ``kernel.rescale``, and a term-by-term
float recursion for ``kernel.recurrence_float``, with its taps expanded
into inverse-power terms; a form of that recursion computed one level at a
time on z-normalized levels must give its levels bit for bit.  Pseudo mode's division by the top
coefficient is checked against the Laurent-tail route: each
``A_{n-a}/A_n`` expanded at zeta = infinity into a polynomial part and an
inverse-power tail as wide as the grid, summed cell by cell in Gaussian
rationals.  The
moment Borel transforms and moment derivatives of ``routes`` are checked
against their per-cell forms: exact cells times ``Fraction`` moment values,
float cells scaled by ``math.ldexp`` or multiplied as Python ``complex``.
The exact residual is checked against its per-cell form in Gaussian
rationals, and the float residual, which walks row blocks, against its
whole-window form.  The edge roots of ``charroots`` are checked against numpy's
companion-matrix root finder run on every square-free part, linear ones
included, and the branch data of ``branches_at_infinity`` against the
roots of ``P(., zeta)`` at growing ``|zeta|`` (:func:`validate_numeric`),
which no command runs: a leading term ``lambda0 * zeta**q`` must match a
root to a relative deviation that does not grow with ``|zeta|``.  The
binary64 readers of an exact series (``grid``,
``gevrey_fit``, ``to_csv`` and ``row_values`` of ``routes``) are checked
against their per-cell forms: ``complex()`` and ``abs()`` of each
``RationalComplex`` of ``coeffs``; the CSV of a float series against one
f-string per cell.

From ``routes`` the oracles take only the ``Series1`` record and
``eval_fraction``.  Their single moment values come from
``moments.scaled_eval``, directly or through ``eval_fraction``, which
neither the solver, the shift kernel nor the transforms of ``routes`` call:
those read whole tables (``moments.fraction_table`` and ``log_table``).  So
no oracle shares the code it checks.  The one table an oracle reads is the
float ``log_table`` of the moment-shift oracle, which checks how the shift
applies the logarithms; ``tests/test_moments.py`` checks the table itself
against ``scaled_eval``, within ``helpers.LOG_ULPS``.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy import integrate

from mpde.charroots import _deg, _divmod, _squarefree_parts
from mpde.errors import (DomainError, EstimationError, EvaluationError,
                         WindowError)
from mpde.exact import RationalComplex, as_fraction
from mpde import kernel
from mpde.kernel import Lanes, common_denominator, gaussian_int, ratios
from mpde.moments import log_gamma, log_table, scaled_eval
from mpde.series import (FIT_J_MIN_FRAC, FIT_MIN_POINTS, FIT_RADIUS,
                         GevreyFit, Series2)
from mpde.solver import ResidualReport
from routes import Series1, eval_fraction


def mellin_check(a, b, k, u, quad_params: dict | None = None) -> float:
    """Numerical Mellin transform of the single-factor kernel.

    Integrates ``x**(u-1) * e_m(x)`` over (0, inf) after the substitution
    ``y = x**k``, which turns the integrand into ``a * y**(c-1) * exp(-y)``
    with ``c = b + u/k``.  The domain is cut at Y with the analytic tail
    bound ``2 * Y**(c-1) * exp(-Y)`` below the requested accuracy.  Serves
    as an independent oracle for :func:`eval_at`.
    """
    params = {"epsrel": 1e-12, "limit": 300}
    if quad_params:
        params.update(quad_params)
    a = float(a)
    u = as_fraction(u)
    if u < 0:
        raise DomainError("mellin_check requires u >= 0")
    c = float(as_fraction(b) + u / as_fraction(k))
    if c <= 0:
        raise DomainError("mellin_check requires b + u/k > 0")
    rough = math.exp(log_gamma(c))
    target = params["epsrel"] * rough * 0.1
    upper = max(2.0 * c, 40.0)
    while 2.0 * upper ** max(c - 1.0, 0.0) * math.exp(-upper) > target:
        upper *= 1.5
        if upper > 720.0:  # exp underflows anyway
            break

    def integrand(y):
        return y ** (c - 1.0) * math.exp(-y)

    out = integrate.quad(integrand, 0.0, upper,
                         epsabs=target, epsrel=params["epsrel"],
                         limit=params["limit"], full_output=1)
    if len(out) > 3:
        raise EvaluationError(f"Mellin quadrature failed: {out[3]}")
    value, abserr = out[0], out[1]
    if abserr > 10.0 * max(target, params["epsrel"] * abs(value)):
        raise EvaluationError("Mellin quadrature error estimate too large")
    return a * value


def frac_integral_quadrature(phi: Series1, s, k: int, x: float) -> complex:
    """Iterated fractional integral of a polynomial by adaptive quadrature.

    Evaluates ``(ks / Gamma(1+ks)) * integral_0^{x^(1/s)}
    phi(y^s) (x^(1/s) - y)^(ks-1) dy``, the integral form of the k-fold
    moment integration at scale s applied to the polynomial ``phi`` and
    summed at ``x``.  Independent of the coefficient-shift route, which it
    cross-checks.
    """
    s = as_fraction(s)
    if s <= 0 or k < 1 or x <= 0:
        raise DomainError("requires s > 0, integer k >= 1 and x > 0")
    sf = float(s)
    upper = x ** (1.0 / sf)
    expo = float(k * s) - 1.0  # exponent of the (upper - y) endpoint factor
    front = float(k * s) / math.gamma(1.0 + k * sf)
    coeffs = [complex(c) for c in phi.coeffs]

    def poly(y):
        acc = 0j
        for c in reversed(coeffs):
            acc = acc * (y ** sf) + c
        return acc

    def run(part):
        out = integrate.quad(lambda y: part(poly(y)), 0.0, upper,
                             weight="alg", wvar=(0.0, expo),
                             epsabs=1e-13, epsrel=1e-10, limit=200,
                             full_output=1)
        if len(out) > 3:
            raise EvaluationError(
                f"fractional-integral quadrature failed: {out[3]}")
        return out[0]

    re = run(lambda v: v.real)
    im = run(lambda v: v.imag)
    return front * complex(re, im)


def rational_rhs_float(payload: dict, n1: int, n2: int) -> list:
    """Rows of num/den on the (n1, n2) grid, one cell at a time.

    ``payload`` is a ``rational`` rhs payload of ``[j, i, re, im]`` entries;
    each entry becomes ``complex(float(re), float(im))`` of its exact
    rational parts and repeated indices add up from ``0j``.  Cell (j, i) is
    ``(N_ji - sum Q_ab R_{j-a,i-b}) / Q_00`` over the terms (a, b) != (0, 0)
    in sorted order, in Python ``complex`` arithmetic.
    """
    def table(quads):
        out = {}
        for j, i, re, im in quads:
            val = complex(float(as_fraction(re)), float(as_fraction(im)))
            out[(j, i)] = out.get((j, i), 0j) + val
        return out

    num, den = table(payload.get("num", [])), table(payload["den"])
    terms = sorted((k, v) for k, v in den.items() if k != (0, 0))
    rows = [[0j] * (n2 + 1) for _ in range(n1 + 1)]
    for j in range(n1 + 1):
        for i in range(n2 + 1):
            acc = num.get((j, i), 0j)
            for (a, b), v in terms:
                if a <= j and b <= i:
                    acc = acc - v * rows[j - a][i - b]
            rows[j][i] = acc / den[(0, 0)]
    return rows


def rational_rhs_sizes(payload: dict, n1: int, n2: int) -> list:
    """Rows of the term magnitude of each cell of num/den: the division
    recursion run on moduli, ``(|N_ji| + sum |Q_ab| size_{j-a,i-b}) /
    |Q_00|`` over the terms (a, b) != (0, 0), from the exact entries of the
    ``rational`` rhs payload."""
    tables = {}
    for key in ("num", "den"):
        table = tables[key] = {}
        for j, i, re, im in payload.get(key, []):
            table[(j, i)] = table.get((j, i), 0) + RationalComplex(re, im)
    num, den = tables["num"], tables["den"]
    size = [[0.0] * (n2 + 1) for _ in range(n1 + 1)]
    for j in range(n1 + 1):
        for i in range(n2 + 1):
            acc = abs(complex(num.get((j, i), 0)))
            for (a, b), v in den.items():
                if (a, b) != (0, 0) and a <= j and b <= i:
                    acc += abs(complex(v)) * size[j - a][i - b]
            size[j][i] = acc / abs(complex(den[(0, 0)]))
    return size


def rational_rhs_exact(num: dict, den: dict, n1: int, n2: int) -> list:
    """Rows of num/den on the (n1, n2) grid, one cell at a time, exactly.

    ``num`` and ``den`` map (j, i) to RationalComplex.  Both are scaled to
    Gaussian integers N and Q; with q = Q_00 the cells
    ``R_{j,i} = q**(j+i+1) * (num/den)_{j,i}`` obey the integer recursion
    ``R_{j,i} = q**(j+i) N_{j,i} - sum Q_ab q**(a+b-1) R_{j-a,i-b}`` over
    (a, b) != (0, 0), and each cell is divided by its power of q once.
    """
    d = common_denominator(list(num.values()) + list(den.values()))
    N = {k: gaussian_int(v, d) for k, v in num.items()}
    Q = {k: gaussian_int(v, d) for k, v in den.items()}
    qr, qi = Q[(0, 0)]
    powers = [(1, 0)]  # q**k
    for _ in range(n1 + n2 + 1):
        pr, pi = powers[-1]
        powers.append((pr * qr - pi * qi, pr * qi + pi * qr))

    def mul(x, y):
        return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    terms = [(a, b, mul(v, powers[a + b - 1]))
             for (a, b), v in sorted(Q.items())
             if (a, b) != (0, 0) and a <= n1 and b <= n2]
    R = [[(0, 0)] * (n2 + 1) for _ in range(n1 + 1)]
    rows = []
    for j in range(n1 + 1):
        row = []
        for i in range(n2 + 1):
            acc = mul(N[(j, i)], powers[j + i]) if (j, i) in N else (0, 0)
            for a, b, k in terms:
                if a <= j and b <= i:
                    x = mul(k, R[j - a][i - b])
                    acc = (acc[0] - x[0], acc[1] - x[1])
            R[j][i] = acc
            pr, pi = powers[j + i + 1]
            if pi:  # R / p = R * conj(p) / |p|**2
                (re, im), div = mul(acc, (pr, -pi)), pr * pr + pi * pi
            else:
                (re, im), div = acc, pr
            row.append(RationalComplex(Fraction(re, div), Fraction(im, div)))
        rows.append(row)
    return rows


def normalize_fractions(rows, w1, w2, n_rows: int, n_cols: int) -> Lanes:
    """Numerators of ``rows[j][i] * w1[j] * w2[i]`` for j <= n_rows,
    i <= n_cols, over their least common denominator, one cell at a time on
    ``Fraction`` products."""
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


def recurrence_float_terms(base, q, terms, n: int, widths, logs1, logs2):
    """Rows of ``kernel.recurrence_float`` with every term added on its own.

    Cell (t, i) adds ``c * u[t-a][i+b] * m1(t-a)/m1(t) * m2(i+b)/m2(i)`` for
    each term in list order, reads below index 0 being zero, and the moment
    ratios come from ``math.exp`` of the log tables.
    """
    width = max(widths)
    grid = np.zeros((len(widths), width + 1), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for t, w in enumerate(widths):
            if t < n:
                continue
            row = grid[t, : w + 1]
            row[:] = base[t - n, : w + 1] * (
                q * math.exp(logs1[t - n] - logs1[t]))
            for a, b, c in terms:
                r1 = math.exp(logs1[t - a] - logs1[t])
                for i in range(max(0, -b), w + 1):
                    r2 = math.exp(logs2[i + b] - logs2[i])
                    row[i] += c * grid[t - a, i + b] * r1 * r2
    return [grid[t, : w + 1] for t, w in enumerate(widths)]


def recurrence_float_levels(base, q, terms, n: int, widths, logs1, logs2,
                            taps=(), shift: int = 0):
    """``kernel.recurrence_float`` computed one level at a time, on the
    z-normalized levels ``W[t][i] = u[t][i] * M2(i)``.

    ``M2(i) = exp(min(l(i) - kappa*i, 0))``, l the logs2 differences
    ``logs2[i] - logs2[0]`` and kappa the largest ``l(i)/i`` over the
    columns, rounded up to a multiple of 2**-32, or M2 = 1 and kappa = 0
    when ``max(kappa*i - l(i))`` exceeds ``kernel.D2_MAX`` bits.  Per level:
    the base, times M2 once, times its scale; then one update per term, its
    scalar ``c * m1(t-a)/m1(t) * exp(kappa*b)`` times the shifted row of W
    (where one of the term's scalars is zero or beyond binary64, c, the m1
    ratio and ``exp(kappa*b)`` in turn at every level), the row multiplied
    by the m2 ratios when M2 = 1; then the downward terms and the taps,
    whose constants are ``m_k * exp(-kappa*k)`` (the ratio vectors when
    M2 = 1); and the level yields ``u = W / M2``.  A real vector multiplies
    or divides each part of a complex cell on its own.  The log ratio of
    row offset a at level t is ``np.exp`` of the array of the differences
    ``logs1[t - a] - logs1[t]``, t >= n, and a term's scalars one product
    of that array, as the kernel takes them.  q, the term coefficients and
    the taps are binary64 scalars, as the kernel takes them.  A base with
    fewer rows than the levels read is zero-padded first, with +0.0 rows of
    its dtype.  Each cell gets the same operations in the same order as in
    the kernel, so the levels must agree bit for bit.
    """
    width, levels = max(widths), len(widths)
    base = np.vstack([base, np.zeros((max(levels - n - len(base), 0),
                                      base.shape[1]), dtype=base.dtype)])
    logs1 = logs1.tolist()  # Python floats for the differences per level
    exp1 = {a: np.concatenate((np.zeros(n), np.exp(np.array(
                [logs1[t - a] - logs1[t] for t in range(n, levels)]))))
            for a in {n, *(a for a, _, _ in terms)}}
    col = np.arange(width + 1)
    with np.errstate(all="ignore"):
        ls = logs2[: width + 1] - logs2[0]
        kappa = math.ceil(float(np.max(ls[1:] / col[1:])) * 2.0 ** 32) \
            / 2.0 ** 32 if width and ls.any() else 0.0
        g = np.minimum(ls - kappa * col, 0.0)
    r2 = None
    if not g.min() >= -kernel.D2_MAX * math.log(2.0):
        kappa, g = 0.0, np.zeros(width + 1)
        r2 = ratios(logs2, {b for _, b, _ in terms} | {-k for k, _ in taps}
                    | ({shift} - {0}), width)
    m2 = np.exp(g)

    def planes(op, x, v):
        """``op(x, v)``, a complex x part by part."""
        if x.dtype.kind != "c":
            return op(x, v)
        return _complex(op(x.real, v), op(x.imag, v))

    scalars = (q, *(c for _, _, c in terms), *(m for _, m in taps))
    grid = np.zeros((len(widths), width + 1), dtype=complex if any(
        isinstance(c, complex) for c in scalars) else base.dtype)
    base = planes(np.multiply, base[:, : width + 1],
                  m2[: min(base.shape[1], width + 1)])
    with np.errstate(over="ignore", invalid="ignore"):
        scale = q * exp1[n]

        def update(src, a, b, c):
            p = math.exp(kappa * b)
            s = c * exp1[a][n:] * p
            ok = ((0 < np.abs(s)) & (np.abs(s) < math.inf)).all()
            return (src, a, b, c, [0.0] * n + s.tolist() if ok else None,
                    p, None if r2 is None else r2[b])

        up = [update(grid, a, b, c) for a, b, c in terms if b >= 0]
        down = [update(base, n, shift, q)] if shift else []
        down += [update(grid, a, b, c) for a, b, c in terms if b < 0]
        kt = [(k, [m * math.exp(-kappa * k)] * (width + 1) if r2 is None
               else (m * r2[-k]).tolist()) for k, m in taps]

        def term(src, t, a, b, c, s, p, rb, lo, w):
            y = src[t - a, lo + b: w + 1 + b]
            if s is None:
                y = c * y
                y *= exp1[a][t]
                if rb is None:
                    y *= p
            else:
                y = s[t] * y
            if rb is not None:
                y *= rb[lo: w + 1]
            return y

        for t, w in enumerate(widths):
            row = grid[t, : w + 1]
            if t >= n:
                if not shift:
                    row[:] = base[t - n, : w + 1] * scale[t]
                for src, a, b, c, s, p, rb in up:
                    row += term(src, t, a, b, c, s, p, rb, 0, w)
                if down:
                    x = np.zeros(w + 1, dtype=grid.dtype)
                    for src, a, b, c, s, p, rb in down:
                        if -b > w:
                            continue
                        x[-b:] += term(src, t, a, b, c, s, p, rb, -b, w)
                    if kt:
                        xs = x.tolist()
                        for i in range(1, w + 1):
                            v = xs[i]
                            for k, r in kt:
                                if k > i:
                                    break
                                v -= r[i] * xs[i - k]
                            xs[i] = v
                        x[:] = xs
                    row += x
            yield planes(np.divide, row, m2[: w + 1])


def _complex(re, im):
    """The complex array of the parts re and im, set part by part."""
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def expand_taps(terms, taps, order: int) -> list:
    """``terms`` with the taps of ``kernel.recurrence_float`` expanded: each
    term (a, b, c) with b < 0 becomes the terms ``(a, b - r, c * h_r)`` for
    r = 0..order, where ``h`` is the Python ``complex`` power series of
    ``1 / (1 + sum m_k w**k)`` over the ``taps`` [(k, m_k)]."""
    h = [1.0 + 0j]
    for r in range(1, order + 1):
        h.append(-sum(m * h[r - k] for k, m in taps if k <= r))
    return ([(a, b, c) for a, b, c in terms if b >= 0]
            + [(a, b - r, c * hr) for a, b, c in terms if b < 0
               for r, hr in enumerate(h)])


def laurent_tail(rem, den, order: int):
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
    # den_w[k] = den[B - k] vanishes for k > B: O(order * B) work
    den_w = [(k, den[B - k]) for k in range(min(B, order), 0, -1)
             if den[B - k]]
    h = [zero] * (order + 1)
    for t in range(order + 1):
        acc = num_w[t]
        for k, dk in den_w:
            if k <= t and h[t - k]:
                acc = acc - h[t - k] * dk
        h[t] = acc / den[B] if acc else zero
    return h[1:]


def laurent_terms(P, top, width: int) -> list:
    """Terms (a, b, c) of the pseudo-mode recursion
    ``U[t] = G[t-n] + sum c * U[t-a][i+b]``: each ``-A_{n-a}/A_n`` expanded
    at zeta = infinity, exactly, into a polynomial part and an inverse-power
    tail of ``width`` terms (a ascending, then the polynomial part, then the
    tail by ascending power)."""
    terms = []
    for a in range(1, P.n + 1):
        num = [RationalComplex.coerce(c) for c in P.coeff_polys[P.n - a]]
        if not any(num):
            continue
        quo, rem = _divmod(num, top)
        terms += [(a, b, -c) for b, c in enumerate(quo) if c]
        terms += [(a, -r, -h)
                  for r, h in enumerate(laurent_tail(rem, top, width), 1) if h]
    return terms


def wide_width(P, out_shape) -> int:
    """``N2 + N1 * max_b``, max_b the largest z-order of P: every level as
    wide as the widest any chain of up-shifts can need."""
    N1, N2 = out_shape
    return N2 + N1 * max(len(row) - 1 for row in P.coeff_polys if row)


def laurent_solve(prob) -> list:
    """Rows of the exact pseudo-mode solution of ``prob`` by the Laurent-tail
    route, cell by cell in Gaussian rationals.

    An f rhs is first turned into g by ``G_{i+deg} = (F_i - sum_{b<deg} p_b
    G_{i+b}) / p_deg`` in normalized coordinates, with G zero below column
    deg P0; the recursion of :func:`laurent_terms` then runs on every level
    up to :func:`wide_width`, reads below column 0 being zero, and the
    output window is divided by the moment values of ``eval_fraction``.
    """
    P, (N1, N2) = prob.operator, prob.out_shape
    width = wide_width(P, prob.out_shape)
    n = P.n
    top = [RationalComplex.coerce(c) for c in P.p0()]
    deg = len(top) - 1
    w1 = [eval_fraction(prob.m1, j) for j in range(N1 + 1)]
    w2 = [eval_fraction(prob.m2, i) for i in range(width + 1)]
    zero = RationalComplex(0)
    G = []
    for j, row in enumerate(prob.rhs.coeffs[: max(N1 - n, -1) + 1]):
        F = [c * w1[j] * w2[i] for i, c in enumerate(row[: width + 1])]
        if prob.rhs_is_g:
            G.append(F)
            continue
        g = [zero] * (width + 1)
        for i in range(width + 1 - deg):
            acc = F[i] - sum((top[b] * g[i + b] for b in range(deg)), zero)
            g[i + deg] = acc / top[deg]
        G.append(g)
    terms = laurent_terms(P, top, width)
    U = []
    for t in range(N1 + 1):
        if t < n:
            U.append([zero] * (width + 1))
            continue
        # columns a term reads beyond the width are never output
        U.append([G[t - n][i] + sum(
            (c * U[t - a][i + b] for a, b, c in terms
             if 0 <= i + b <= width and U[t - a][i + b]), zero)
            for i in range(width + 1)])
    return [[U[t][i] / (w1[t] * w2[i]) for i in range(N2 + 1)]
            for t in range(N1 + 1)]


def edge_roots_numpy(edge_coeffs) -> list:
    """``(root, multiplicity)`` of an edge polynomial (coefficients low to
    high), every square-free part solved by ``np.roots``."""
    out = []
    for mult, part in _squarefree_parts(list(edge_coeffs)):
        if _deg(part) == 0:
            continue
        arr = np.array([complex(c) for c in reversed(part)])
        out += [(complex(r), mult) for r in np.roots(arr)]
    return out


# -- the branch data at infinity, against the roots of P(., zeta) -------------


def lambda_coeffs_at(P, zeta0: complex) -> list:
    """Coefficients, high lambda power first, of ``P(., zeta0)`` for the
    CharPoly P, each zeta-polynomial by Horner's rule in Python complex."""
    vals = []
    for row in P.coeff_polys[::-1]:
        acc = 0j
        for c in reversed(row):
            acc = acc * zeta0 + complex(c)
        vals.append(acc)
    return vals


class BranchValidation(NamedTuple):
    """One branch: its largest relative root deviation per radius (None
    where no root landed), and whether those deviations do not grow."""

    q: Fraction
    deviations: tuple
    monotone: bool


class ValidationReport(NamedTuple):
    """The branches' checks along one ray, and how many roots matched no
    leading term."""

    branches: tuple
    unassigned: int

    @property
    def consistent(self) -> bool:
        return self.unassigned == 0 and all(b.monotone for b in self.branches)


def validate_numeric(P, branches, radii, ray_angle: float = 0.0
                     ) -> ValidationReport:
    """Check the branch data of ``charroots.branches_at_infinity`` against
    the roots of ``P(., R*e^{i*ray_angle})`` that ``np.roots`` finds.

    At each radius R, ascending, every root is assigned to the (branch,
    leading term) minimizing ``|lambda / zeta0**q - lambda0|``, or left
    unassigned when that is above 0.5, and the per-branch maximum relative
    deviation is recorded.  Deviations should not grow with R (10% jitter
    near machine precision is tolerated).
    """
    radii = sorted(float(R) for R in radii)
    per_branch = [[None] * len(radii) for _ in branches]
    unassigned = 0
    for ridx, R in enumerate(radii):
        zeta0 = R * cmath.exp(1j * ray_angle)
        roots = np.roots(np.array(lambda_coeffs_at(P, zeta0), dtype=complex))
        powers = {b.q: zeta0 ** float(b.q) for b in branches}
        for lam in roots:
            best = None
            for bidx, br in enumerate(branches):
                scaled = complex(lam) / powers[br.q]
                for lam0, _ in br.leading_terms:
                    dev = abs(scaled - lam0)
                    if best is None or dev < best[0]:
                        best = (dev, bidx, abs(lam0))
            if best is None or best[0] > 0.5:
                unassigned += 1
                continue
            rel = best[0] / best[2]
            cur = per_branch[best[1]][ridx]
            per_branch[best[1]][ridx] = rel if cur is None else max(cur, rel)
    reports = []
    for br, devs in zip(branches, per_branch):
        seq = [d for d in devs if d is not None]
        monotone = all(later <= earlier * 1.1 + 1e-12
                       for earlier, later in zip(seq, seq[1:]))
        reports.append(BranchValidation(br.q, tuple(devs), monotone))
    return ValidationReport(tuple(reports), unassigned)


# -- the moment Borel transforms and moment derivatives, one cell at a time --


def _scale_cell(c: complex, logv: float, invert: bool) -> complex:
    """``c`` divided (multiplied, ``invert``) by ``exp(logv)``, split as
    ``mantissa * 2**e2``, each part through ``math.ldexp``."""
    e2 = math.floor(logv / math.log(2.0))
    mant = math.exp(logv - e2 * math.log(2.0))
    if invert:
        return complex(math.ldexp(c.real * mant, e2),
                       math.ldexp(c.imag * mant, e2))
    return complex(math.ldexp(c.real / mant, -e2),
                   math.ldexp(c.imag / mant, -e2))


def _scale_1d(coeffs, m, exact, invert):
    out = []
    for j, c in enumerate(coeffs):
        sv = scaled_eval(m, j)
        if exact:
            out.append(c * sv.rational if invert else c / sv.rational)
        else:
            out.append(_scale_cell(c, sv.log, invert))
    return out


def borel_cells(m, s, axis=None, invert=False):
    """``routes.borel`` (``inv_borel`` with ``invert``) one cell at a time:
    each coefficient is divided (multiplied) by its moment value, an exact
    ``Fraction`` in exact mode and the scaled form of its logarithm in
    float mode."""
    if isinstance(s, Series1):
        out = _scale_1d(s.coeffs, m, s.exact, invert)
        return Series1(out, s.axis, s.exact)
    if axis not in ("t", "z"):
        raise DomainError("Series2 transforms need axis 't' or 'z'")
    J, I = s.valid
    if axis == "t":
        rows = []
        for j in range(J + 1):
            sv = scaled_eval(m, j)
            row = s.coeffs[j][: I + 1]
            if s.exact:
                rows.append([c * sv.rational if invert else c / sv.rational
                             for c in row])
            else:
                rows.append([_scale_cell(c, sv.log, invert) for c in row])
    else:
        rows = [_scale_1d(s.coeffs[j][: I + 1], m, s.exact, invert)
                for j in range(J + 1)]
    return Series2(rows, s.exact)


def _shift_1d(coeffs, m, exact, times, up):
    n = len(coeffs) - 1
    if up and times > n:
        raise WindowError(f"differentiating {times} times leaves no "
                          f"valid coefficients (truncation {n})")
    src = range(times, n + 1) if up else range(n - times + 1)
    dst = range(n - times + 1) if up else range(times, n + 1)
    if exact:
        w = [scaled_eval(m, j).rational for j in range(n + 1)]
        moved = [coeffs[x] * w[x] / w[y] for x, y in zip(src, dst)]
    else:
        logs = log_table(m, n)
        moved = [coeffs[x] * math.exp(logs[x] - logs[y])
                 for x, y in zip(src, dst)]
    if up:
        return moved
    zero = RationalComplex(0) if exact else 0j
    return [zero] * min(times, n + 1) + moved


def moment_shift_cells(m, s, axis=None, times=1, up=True):
    """``routes.moment_diff`` (``moment_antidiff`` when not ``up``) one cell
    at a time: each output cell is its source cell times the ratio of their
    moment values, a ``Fraction`` quotient in exact mode and in float mode a
    Python ``complex`` times ``math.exp`` of the difference of their logs;
    along t the columns are shifted one by one."""
    if times < 0:
        raise DomainError("times must be >= 0")
    if isinstance(s, Series1):
        out = _shift_1d(list(s.coeffs), m, s.exact, times, up)
        return Series1(out, s.axis, s.exact)
    if axis not in ("t", "z"):
        raise DomainError("Series2 transforms need axis 't' or 'z'")
    J, I = s.valid
    if axis == "t":
        cells = s.coeffs
        cols = [[cells[j][i] for j in range(J + 1)] for i in range(I + 1)]
        new_cols = [_shift_1d(col, m, s.exact, times, up) for col in cols]
        rows = [[new_cols[i][j] for i in range(I + 1)]
                for j in range(len(new_cols[0]))]
    else:
        rows = [_shift_1d(list(s.coeffs[j][: I + 1]), m, s.exact, times, up)
                for j in range(J + 1)]
    return Series2(rows, s.exact)


def residual_cells(prob, u: Series2, window) -> tuple:
    """``(max_abs, scale)`` of the exact residual ``P u - f`` on ``window``,
    one Gaussian rational per cell: a side is ``sum p_ab c[j+a][i+b]
    m1(j+a)/m1(j) m2(i+b)/m2(i)`` with the moment values of
    ``eval_fraction``, f is ``P0(dz) g`` for a g rhs, and each cell is
    measured by its L1 modulus ``|re| + |im|``; scale is the larger of the
    two sides' largest cell."""
    J, I = window
    P, n = prob.operator, prob.operator.n
    w1 = [eval_fraction(prob.m1, j) for j in range(J + n + 1)]
    w2 = [eval_fraction(prob.m2, i)
          for i in range(I + max(map(len, P.coeff_polys)))]

    def apply(table, rows):
        return [[sum((RationalComplex.coerce(p) * rows[j + a][i + b]
                      * (w1[j + a] / w1[j]) * (w2[i + b] / w2[i])
                      for (a, b), p in table.items()), RationalComplex(0))
                 for i in range(I + 1)] for j in range(J + 1)]

    lhs = apply(P.support(), u.coeffs)
    if prob.rhs_is_g:
        f = apply({(0, b): c for b, c in enumerate(P.p0()) if c},
                  prob.rhs.coeffs)
    else:
        f = [list(row[: I + 1]) for row in prob.rhs.coeffs[: J + 1]]

    def l1(c):
        return abs(c.re) + abs(c.im)

    pairs = [(x, y) for lrow, frow in zip(lhs, f) for x, y in zip(lrow, frow)]
    return (max(l1(x - y) for x, y in pairs),
            max(max(l1(x), l1(y)) for x, y in pairs))


def residual_float_whole(prob, u: Series2, window) -> ResidualReport:
    """The ``ResidualReport`` of ``solver.residual`` in float arithmetic,
    computed on the whole window at once, as the residual ran before it
    walked row blocks: four ``kernel.shift_float`` calls of whole grids (u
    and the rhs by their tables scaled by ``2**e``, and their moduli by the
    absolute coefficients), one whole difference, and the second pass with
    e lowered by the largest cell's binary exponent when the first is not
    finite while every cell is.  Each cell gets the operations of the row
    blocks, so the reports must agree by ``repr``."""
    J, I = window
    P = prob.operator
    support = P.support()
    p0_table = ({(0, b): c for b, c in enumerate(P.p0()) if c}
                if prob.rhs_is_g else {(0, 0): 1})
    e = -max(x.numerator.bit_length() - x.denominator.bit_length()
             for c in support.values() for x in (c.re, c.im) if x)
    logs1, logs2 = prob.log_tables
    offsets = [*support, *p0_table]
    r1 = ratios(logs1, {a for a, _ in offsets if a}, J, "m1")
    r2 = ratios(logs2, {b for _, b in offsets if b}, I, "m2")

    def sides(s: Series2, table, rows: int):
        items = [(k, kernel.binary64(p * Fraction(2) ** e))
                 for k, p in table.items()]
        abs_items = [(k, abs(p)) for k, p in items]
        return (kernel.shift_float(s.grid, items, r1, r2, rows, I),
                kernel.shift_float(kernel.modulus(s.grid), abs_items, r1,
                                   r2, rows, I))

    for retry in (False, True):
        lhs, abs_lhs = sides(u, support, J)
        f, abs_f = sides(prob.rhs, p0_table, min(J, prob.rhs.valid[0]))
        diff = lhs.astype(np.result_type(lhs, f), copy=False)
        with np.errstate(invalid="ignore", over="ignore"):
            diff[: len(f)] -= f
            max_abs = float(np.max(kernel.modulus(diff)))
            abs_own = float(np.ldexp(max_abs, -e))
        scale = float(np.maximum(np.max(abs_lhs), np.max(abs_f)))
        finite = math.isfinite(max_abs) and math.isfinite(scale)
        if finite or retry:
            break
        with np.errstate(over="ignore"):
            top = max(float(np.max(kernel.modulus(s.grid)))
                      for s in (u, prob.rhs))
        if not 0.0 < top < math.inf:
            break
        e -= math.frexp(top)[1]
    if not finite:
        rel = math.nan
    else:
        rel = max_abs / scale if scale > 0.0 else max_abs
    return ResidualReport(abs_own, (J, I), max_abs == 0.0, rel)


# -- binary64 readers of exact series, one RationalComplex per cell -----------


def csv_cells(s: Series2) -> str:
    """``Series2.to_csv`` formatted one cell at a time by an f-string: an
    exact cell as ``complex()`` of its RationalComplex, that is
    ``float(Fraction)`` per part, a float cell from the real and imaginary
    planes of the grid; OverflowError when an exact part leaves binary64."""
    J, I = s.valid
    if s.exact:
        rows = [[complex(c) for c in row[: I + 1]] for row in s.coeffs[: J + 1]]
        planes = [([c.real for c in row], [c.imag for c in row])
                  for row in rows]
    else:
        cells = s.grid[: J + 1, : I + 1]
        planes = zip(cells.real.tolist(), cells.imag.tolist())
    lines = ["j,i,re,im"]
    for j, (re, im) in enumerate(planes):
        lines += [f"{j},{i},{x:.17g},{y:.17g}"
                  for i, (x, y) in enumerate(zip(re, im))]
    return "\n".join(lines) + "\n"


def exact_grid_cells(s: Series2):
    """The float grid of an exact series, ``complex()`` of each cell of
    ``coeffs``; OverflowError when a part leaves binary64."""
    return np.array(s.coeffs, dtype=complex)


def exact_gevrey_fit_cells(u: Series2) -> GevreyFit:
    """``series.gevrey_fit`` of an exact series with the modulus of each cell
    taken as ``abs()`` of its RationalComplex; a level with a part outside
    binary64 raises EvaluationError naming it.  The rows are summed as the
    fit sums them, by one ``np.add.reduce`` over the C-contiguous terms, so
    that the two agree bit for bit and the per-cell moduli stay the
    subject of the comparison."""
    J, I = u.valid
    j_lo = math.ceil(FIT_J_MIN_FRAC * J)
    moduli = []
    for j, row in enumerate(u.coeffs[j_lo:], j_lo):
        try:
            moduli.append([abs(v) for v in row])
        except OverflowError:
            raise EvaluationError(
                f"exact coefficients of t-level {j} are outside the binary64 "
                f"range of the Gevrey fit; lower --n1 below {j} (verify "
                f"checks the exact solution without fitting it)") from None
    moduli = np.array(moduli, dtype=float).reshape(-1, I + 1)
    weights = np.array([FIT_RADIUS ** i for i in range(I + 1)], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.add.reduce(np.ascontiguousarray(moduli * weights), axis=1)
    pts = [(j, math.log(a)) for j, a in enumerate(sums.tolist(), j_lo)
           if a > 0.0 and math.isfinite(a)]
    if len(pts) < FIT_MIN_POINTS:
        raise EstimationError(
            f"need at least {FIT_MIN_POINTS} nonzero levels in [{j_lo}, {J}], "
            f"got {len(pts)}")
    js = np.array([p[0] for p in pts], dtype=float)
    ys = np.array([p[1] for p in pts], dtype=float)
    design = np.column_stack([np.ones_like(js), js,
                              [math.lgamma(1.0 + j) for j in js]])
    beta, _, _, _ = np.linalg.lstsq(design, ys, rcond=None)
    resid = ys - design @ beta
    dof = max(len(pts) - 3, 1)
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * np.linalg.inv(design.T @ design)
    return GevreyFit(float(beta[2]), float(math.sqrt(max(cov[2, 2], 0.0))),
                     (j_lo, J), FIT_RADIUS)
