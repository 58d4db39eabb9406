"""Library routes that no mpde command runs, kept with the tests.

The rule: a definition stays in ``src/mpde`` only when an mpde command
runs it, when an open ROADMAP item needs it in the package, or when
``perfbench`` reads it.  ``tests/test_package_surface.py`` traces every
command on a corpus and holds the package to the rule.  Everything else
that the tests still use lives here:

* ``Series1``, the moment Borel transforms and moment derivatives, and
  ``apply_operator``, which applies a constant-coefficient moment operator
  with the shift kernel as the residual does;
* ``g_from_f``, the division ``P0(dz) g = f`` alone, on the taps that
  ``solver.formal_solve`` runs for an f rhs;
* single values of a moment function (``eval_at``, ``eval_fraction``, both
  read from ``moments.scaled_eval``), the single-factor kernel and the
  Mittag-Leffler style kernel series;
* ``required_sectors`` and ``operator_to_text``.

These routes call mpde; they are checked, not trusted.  The oracles of
``tests/oracles.py`` and ``tests/brute_force.py`` read only ``Series1`` and
``eval_fraction`` from here, and ``eval_fraction`` goes through
``scaled_eval``, which neither the solver nor the shift kernel calls.
numpy is imported where a float route needs it, so that importing this
module, as ``tests/helpers.py`` does, loads no numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpde import kernel, moments
from mpde.charroots import CharPoly, monomial
from mpde.errors import (DomainError, EvaluationError, PreconditionError,
                         WindowError)
from mpde.exact import RationalComplex, as_fraction, fmt_fraction, quotient
from mpde.moments import MomentFunction, log_gamma, scaled_eval
from mpde.record import record
from mpde.series import Series2
from mpde.solver import _taps, normalize_table, operator_window
from mpde.summability import Angle, _level_sectors, levels

# -- one-axis series, moment Borel transforms and moment derivatives ---------


@record
class Series1:
    """Truncated series ``sum_j c_j x**(j/kappa)`` on one axis."""

    coeffs: tuple
    kappa: int = 1
    axis: str = "x"
    exact: bool = False

    def __post_init__(self):
        if self.kappa < 1:
            raise DomainError("kappa must be a positive integer")
        coerce = RationalComplex.coerce if self.exact else complex
        object.__setattr__(self, "coeffs", tuple(map(coerce, self.coeffs)))
        if not self.coeffs:
            raise DomainError("a series needs at least the constant coefficient")

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    def eval_at(self, x) -> complex:
        """Horner sum of the truncated series at the point x**(1/kappa)."""
        base = complex(x) ** (1.0 / self.kappa) if self.kappa > 1 else complex(x)
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * base + complex(c)
        return acc


def borel(m: MomentFunction, s, axis: str | None = None):
    """Coefficient-wise division by m(j/kappa) along the chosen axis."""
    return _transform(m, s, axis, 0, False, True)


def inv_borel(m: MomentFunction, s, axis: str | None = None):
    """Exact inverse of :func:`borel`: multiplication by m(j/kappa)."""
    return _transform(m, s, axis, 0, True, False)


def moment_diff(m: MomentFunction, s, axis: str | None = None, times: int = 1):
    """Moment differentiation: shift of normalized coefficients.

    In normalized coordinates ``u_j = c_j * m(j/kappa)`` the output is
    ``u'_j = u_{j+times}``; the truncation shrinks by ``times``.
    """
    if times < 0:
        raise DomainError("times must be >= 0")
    return _transform(m, s, axis, times, True, True)


def moment_antidiff(m: MomentFunction, s, axis: str | None = None,
                    times: int = 1):
    """Moment integration: normalized coefficients shift down, zero-padded."""
    if times < 0:
        raise DomainError("times must be >= 0")
    return _transform(m, s, axis, -times, True, True)


def _reindex(seq, delta: int, n_out: int, fill) -> list:
    """``seq[k + delta]`` for k <= n_out, ``fill`` where k + delta < 0."""
    lo = min(max(-delta, 0), n_out + 1)
    return [fill] * lo + list(seq[lo + delta: n_out + 1 + delta])


def _transform(m, s, axis, delta: int, num: bool, den: bool):
    """Output index k along ``axis`` reads input index k + delta (zero
    below index 0), times ``A(k + delta) / B(k)``: A is m if ``num``, B is
    m if ``den``, else 1.  A Series1 runs as a one-row Series2 along z.

    Exact mode re-indexes the lanes and sets divisor k
    to ``div[k + delta] * B(k) / A(k + delta)`` by :func:`exact.quotient`,
    an int where it is integral.  Float mode scales the grid planes of the
    Borel pair by the parts of :func:`moments.split_log`, raising
    OverflowError where ``math.ldexp`` would, and multiplies a shift by
    ``exp(log m(k + delta) - log m(k))`` as Python's ``complex`` multiply
    does, overflow giving inf.
    """
    if isinstance(s, Series1):
        row = Series2([s.coeffs], 1, s.kappa, s.exact)
        out = _transform(m, row, "z", delta, num, den)
        return Series1(out.coeffs[0], s.kappa, s.axis, s.exact)
    if axis not in ("t", "z"):
        raise DomainError("Series2 transforms need axis 't' or 'z'")
    J, I = s.valid
    n, kappa = (J, s.kappa1) if axis == "t" else (I, s.kappa2)
    if delta > n:
        raise WindowError(f"differentiating {delta} times leaves no "
                          f"valid coefficients (truncation {n})")
    n_out = n - max(delta, 0)
    if s.exact:
        w = moments.fraction_table(m, kappa, n)
        lanes = s.lanes
        divs = [1 if k + delta < 0 else
                quotient(d * (w[k] if den else 1), w[k + delta] if num else 1)
                for k, d in enumerate(_reindex(
                    lanes.row_div if axis == "t" else lanes.col_div,
                    delta, n_out, 1))]
        re, im = (
            None if lane is None
            else _reindex(lane, delta, n_out, [0] * (I + 1)) if axis == "t"
            else [_reindex(row, delta, n_out, 0) for row in lane]
            for lane in (lanes.re, lanes.im))
        out = (kernel.RawLanes(re, im, divs, lanes.col_div) if axis == "t"
               else kernel.RawLanes(re, im, lanes.row_div, divs))
        return Series2(out, s.kappa1, s.kappa2, True)
    import numpy as np

    cells = s.grid
    if axis == "z":
        cells = cells.T  # the transform runs along axis 0
    lo = min(max(-delta, 0), n_out + 1)
    src = cells[lo + delta: n_out + 1 + delta]
    logs = moments.log_table(m, kappa, n)
    # ``grid`` is row-major in (t, z), so a Series2 keeps it; ``out`` is its
    # view with ``axis`` first, as ``cells`` is
    grid = np.zeros((n_out + 1, cells.shape[1]) if axis == "t"
                    else (cells.shape[1], n_out + 1), dtype=complex)
    out = grid if axis == "t" else grid.T
    if num and den:
        r = kernel.ratios(logs, {delta}, n_out)[delta][lo:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            out.real[lo:] = src.real * r - src.imag * 0.0
            out.imag[lo:] = src.real * 0.0 + src.imag * r
    else:
        mant, e2 = (np.array(v)[:, None]
                    for v in zip(*map(moments.split_log, logs.tolist())))
        for plane, part in ((out.real, src.real), (out.imag, src.imag)):
            with np.errstate(over="ignore"):
                scaled = part * mant if num else part / mant
                plane[:] = np.ldexp(scaled, e2 if num else -e2)
            if not np.isfinite(plane[np.isfinite(scaled)]).all():
                raise OverflowError("math range error")
    return Series2(kernel.read_only(grid), s.kappa1, s.kappa2, False)


def apply_operator(table, m1: MomentFunction, m2: MomentFunction,
                   u: Series2) -> Series2:
    """Apply ``sum p_ab * dt^a dz^b`` (moment derivatives) to a Series2.

    On normalized coefficients this is the shift
    ``V_{j,i} = sum p_ab U_{j+a,i+b}``, run on :mod:`mpde.kernel` with the
    coefficients as given: :func:`kernel.shift` on the lanes of u and the
    exact moment tables, or :func:`kernel.shift_float` on the grid and the
    ratios of moment values taken from their logarithms, applying a real
    coefficient as a Python float so that a float64 grid stays float64.
    The output window shrinks by the maximal orders in the support.
    """
    J_out, I_out = operator_window(table, u.valid)
    J, I = u.valid
    if u.exact:
        out = kernel.shift(u.lanes, table,
                           moments.fraction_table(m1, u.kappa1, J),
                           moments.fraction_table(m2, u.kappa2, I),
                           J_out, I_out)
        return Series2(out, u.kappa1, u.kappa2, True)
    items = normalize_table(table)
    r1 = kernel.ratios(moments.log_table(m1, u.kappa1, J),
                       {a for (a, _), _ in items}, J_out)
    r2 = kernel.ratios(moments.log_table(m2, u.kappa2, I),
                       {b for (_, b), _ in items}, I_out)
    out = kernel.shift_float(u.grid, items, r1, r2, J_out, I_out)
    return Series2(kernel.read_only(out), u.kappa1, u.kappa2, False)


# -- the division P0(dz) g = f -------------------------------------------------


def g_from_f(p0_coeffs, m2: MomentFunction, f: Series2) -> Series2:
    """Solve ``P0(dz) g = f`` for g with the free z-coefficients set to zero.

    With ``P0 = sum p_b zeta**b`` of degree B and ``G_i = g_i m2(i/kappa2)``
    that is ``G_i + sum m_k G_{i-k} = F_{i-B} / p_B``: the taps that
    :func:`formal_solve` runs, here alone, with the rows as levels and unit
    moments along t.  g is valid B columns past f.
    """
    top = [RationalComplex.coerce(c) for c in p0_coeffs]
    while top and not top[-1]:
        top.pop()
    if not top:
        raise PreconditionError("P0 must not be identically zero")
    B = len(top) - 1
    J, I = f.valid
    q, taps, widths = 1 / top[B], _taps(top), [I + B] * (J + 1)
    if f.exact:
        v = kernel.recurrence(f.lanes, q, [], 0, widths, [1] * (J + 1),
                              moments.fraction_table(m2, f.kappa2, I + B),
                              taps, -B)
        return Series2(v, f.kappa1, f.kappa2, True)
    import numpy as np

    levels = kernel.recurrence_float(
        f.grid, q, [], 0, widths, np.zeros(J + 1),
        moments.log_table(m2, f.kappa2, I + B), taps, -B)
    return Series2(kernel.read_only(np.array(list(levels))), f.kappa1,
                   f.kappa2, False)


# -- single moment values and the kernel series --------------------------------


def eval_at(m: MomentFunction, u) -> float:
    """m(u) as a positive float (inf when outside double range)."""
    try:
        return float(scaled_eval(m, as_fraction(u)).rational)
    except OverflowError:
        return math.inf


def eval_fraction(m: MomentFunction, u) -> Fraction:
    """m(u) as an exact Fraction (exact Gamma values where possible,
    otherwise the dyadic rational of the scaled double evaluation)."""
    return scaled_eval(m, as_fraction(u)).rational


def kernel_e(a, b, k, x: float) -> float:
    """Single-factor kernel ``a*k*x**(b*k)*exp(-x**k)`` for x > 0."""
    if x <= 0:
        raise DomainError(f"kernel_e requires x > 0, got {x}")
    a, b, k = float(a), float(b), float(k)
    return a * k * x ** (b * k) * math.exp(-(x ** k))


def _neumaier_add(acc, comp, term):
    # compensated (Neumaier) accumulation on one float lane
    s = acc + term
    if abs(acc) >= abs(term):
        comp += (acc - s) + term
    else:
        comp += (term - s) + acc
    return s, comp


class _CompensatedComplex:
    """Neumaier-compensated complex accumulator."""

    def __init__(self):
        self.re = 0.0
        self.im = 0.0
        self.cre = 0.0
        self.cim = 0.0

    def add(self, z: complex):
        self.re, self.cre = _neumaier_add(self.re, self.cre, z.real)
        self.im, self.cim = _neumaier_add(self.im, self.cim, z.imag)

    def value(self) -> complex:
        return complex(self.re + self.cre, self.im + self.cim)


def _sum_gamma_series(first_term, first_j, ratio_fn, tol, max_terms, what):
    """Sum ``term_j`` from ``first_j`` with term_{j+1} = term_j * ratio_fn(j).

    Compensated summation; stops when the geometric tail bound drops below
    ``tol`` relative to max(1, |partial sum|).  Returns (value, terms_used,
    max_abs_term, tail_bound).
    """
    acc = _CompensatedComplex()
    term = first_term
    max_abs = 0.0
    j = first_j
    for used in range(1, max_terms + 1):
        acc.add(term)
        max_abs = max(max_abs, abs(term))
        ratio = ratio_fn(j)
        nxt = term * ratio
        scale = max(1.0, abs(acc.value()))
        if abs(ratio) < 0.5 and abs(nxt) <= 0.5 * tol * scale:
            tail = abs(nxt) / (1.0 - abs(ratio))
            return acc.value(), used, max_abs, tail
        term = nxt
        j += 1
    raise EvaluationError(
        f"{what} did not converge within {max_terms} terms", residual=abs(term)
    )


# the series sums refuse |x| above this bound
_RADIUS = 20.0


def mittag_leffler_info(s, x: complex, tol: float = 1e-12,
                        max_terms: int = 10000):
    """Mittag-Leffler sum ``sum_j x**j / Gamma(1 + s*j)`` with diagnostics.

    Returns ``(value, terms_used, max_abs_term, tail_bound)``.  The rounding
    error is bounded by roughly ``max_abs_term * terms_used * eps`` on top of
    ``tail_bound`` (compensated summation keeps accumulation error at the
    level of individual term rounding).
    """
    s = as_fraction(s)
    if s <= 0:
        raise DomainError("mittag_leffler requires s > 0")
    if tol <= 0:
        raise DomainError("tol must be positive")
    x = complex(x)
    if abs(x) > _RADIUS:
        raise DomainError(f"|x| = {abs(x)} exceeds the series radius bound {_RADIUS}")
    sf = float(s)

    def ratio(j):
        return x * math.exp(log_gamma(1.0 + sf * j) - log_gamma(1.0 + sf * (j + 1)))

    return _sum_gamma_series(1.0 + 0.0j, 0, ratio, tol, max_terms, "mittag_leffler")


def mittag_leffler(s, x: complex, tol: float = 1e-12,
                   max_terms: int = 10000) -> complex:
    return mittag_leffler_info(s, x, tol, max_terms)[0]


def _kernel_series_args(s, beta: int, x, tol: float) -> tuple:
    """``(as_fraction(s), complex(x))`` once s > 0, beta >= 1, tol > 0 and
    ``|x| <= _RADIUS`` are checked, as both kernel series sums need."""
    s = as_fraction(s)
    if s <= 0 or beta < 1:
        raise DomainError("e_s_beta requires s > 0 and beta >= 1")
    if tol <= 0:
        raise DomainError("tol must be positive")
    x = complex(x)
    if abs(x) > _RADIUS:
        raise DomainError(f"|x| = {abs(x)} exceeds the series radius bound {_RADIUS}")
    return s, x


def e_s_beta(s, beta: int, x: complex, tol: float = 1e-12,
             max_terms: int = 10000) -> complex:
    """Kernel series ``sum_{j>=beta} C(j-1, beta-1) x**j / Gamma(1+s*j)``."""
    s, x = _kernel_series_args(s, beta, x, tol)
    if x == 0:
        return 0.0 + 0.0j
    sf = float(s)
    first = x ** beta * math.exp(-log_gamma(1.0 + sf * beta))

    def ratio(j):
        # C(j, beta-1) / C(j-1, beta-1) = j / (j - beta + 1)
        return x * (j / (j - beta + 1)) * math.exp(
            log_gamma(1.0 + sf * j) - log_gamma(1.0 + sf * (j + 1))
        )

    value, _, _, _ = _sum_gamma_series(first, beta, ratio, tol, max_terms, "e_s_beta")
    return value


def e_s_beta_via_derivative(s, beta: int, x: complex, tol: float = 1e-12,
                            max_terms: int = 10000) -> complex:
    """Alternate evaluation through the termwise-derivative identity.

    Differentiates the series of ``(E_s(x) - 1)/x`` termwise beta-1 times and
    multiplies by ``x**beta / (beta-1)!``; agrees with :func:`e_s_beta` up to
    the summation tolerance.
    """
    s, x = _kernel_series_args(s, beta, x, tol)
    if x == 0:
        return 0.0 + 0.0j
    sf = float(s)
    # term_n = (n)! / (n-beta+1)! * x**(n-beta+1) / Gamma(1+s*(n+1)), n >= beta-1
    first = math.factorial(beta - 1) * math.exp(-log_gamma(1.0 + sf * beta))

    def ratio(n):
        return x * ((n + 1) / (n - beta + 2)) * math.exp(
            log_gamma(1.0 + sf * (n + 1)) - log_gamma(1.0 + sf * (n + 2))
        )

    series, _, _, _ = _sum_gamma_series(first, beta - 1, ratio, tol, max_terms,
                                        "e_s_beta (derivative form)")
    return series * x ** beta / math.factorial(beta - 1)


# -- sector requirements ------------------------------------------------------


def required_sectors(branches, d, s1, s2, st1=0, st2=0) -> list:
    """Sectors the Borel-transformed inhomogeneity must extend to.

    Every level K of a qualifying branch requires its t-sector in direction
    d and the branch's z-sectors (see :func:`_level_sectors`); there are
    none when no level exists.
    """
    st1 = as_fraction(st1)
    d_angle = d if isinstance(d, Angle) else Angle.from_radians(float(d))
    out = []
    for spec in levels(branches, s1, s2, st1, st2).levels:
        out += _level_sectors(branches[spec.branch_index - 1],
                              spec.branch_index, d_angle, spec.K, st1)
    return out


# -- printing an operator ------------------------------------------------------


def operator_to_text(P: CharPoly) -> str:
    """Printable form; reparsing reproduces the coefficient table exactly."""
    parts = []
    for a in range(P.n, -1, -1):
        row = P.coeff_polys[a]
        for b in range(len(row) - 1, -1, -1):
            c = row[b]
            if not c:
                continue
            mono = [monomial(a, b)] if a or b else []
            if not c.im:
                neg, coeff_txt = c.re < 0, fmt_fraction(abs(c.re))
                body = "*".join(([coeff_txt] if (coeff_txt != "1" or not mono)
                                 else []) + mono)
                parts.append(("-" if neg else "+", body))
            elif not c.re:
                coeff_txt = f"{fmt_fraction(abs(c.im))}i"
                body = "*".join([coeff_txt] + mono)
                parts.append(("-" if c.im < 0 else "+", body))
            else:
                inner = str(c).replace("-", "- ").replace("+", " + ")
                body = "*".join([f"({inner})"] + mono)
                parts.append(("+", body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out
