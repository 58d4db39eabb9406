"""Truncated formal power series in one and two variables with ramification.

Coefficients are stored raw (plain monomial coefficients).  The moment
operators act as shifts on normalized coordinates ``u_j = c_j * m(j/kappa)``.

Two coefficient fields are supported: Python ``complex`` (float mode) and
:class:`~mpde.exact.RationalComplex` (exact mode).  Float mode works on raw
coefficients through ratios of moment values taken from their logarithms,
so that grids far beyond the double overflow threshold stay finite.  Exact
mode multiplies by the moment values once on input, shifts and divides once
per output coefficient.  :func:`apply_operator` runs both modes on the shift
kernel of :mod:`mpde.kernel`.  Exact moment values are exact rationals (true
factorials where available, dyadic rationals of the scaled double evaluation
otherwise), so algebraic identities such as Borel round trips and solver
residuals hold bit for bit.

Operators never zero-pad: output grids are sliced to the window on which the
result is trustworthy, and ``valid`` records that window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernel, moments
from .errors import DomainError, EstimationError, WindowError
from .exact import RationalComplex
from .moments import MomentFunction


def _coerce(value, exact: bool):
    if exact:
        return RationalComplex.coerce(value)
    if isinstance(value, RationalComplex):
        return complex(value)
    return complex(value)


def _div_scaled(c: complex, sv: moments.ScaledValue) -> complex:
    return complex(math.ldexp(c.real / sv.mantissa, -sv.exp2),
                   math.ldexp(c.imag / sv.mantissa, -sv.exp2))


def _mul_scaled(c: complex, sv: moments.ScaledValue) -> complex:
    return complex(math.ldexp(c.real * sv.mantissa, sv.exp2),
                   math.ldexp(c.imag * sv.mantissa, sv.exp2))


@dataclass(frozen=True)
class Series1:
    """Truncated series ``sum_j c_j x**(j/kappa)`` on one axis."""

    coeffs: tuple
    kappa: int = 1
    axis: str = "x"
    exact: bool = False

    def __post_init__(self):
        if self.kappa < 1:
            raise DomainError("kappa must be a positive integer")
        object.__setattr__(self, "coeffs",
                           tuple(_coerce(c, self.exact) for c in self.coeffs))
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


@dataclass(frozen=True)
class Series2:
    """Truncated series ``sum c_{j,i} t**(j/kappa1) z**(i/kappa2)``.

    ``valid`` marks the rectangle of trustworthy indices (J, I); it can be
    smaller than the grid for user-supplied data and is shrunk by operators.
    """

    coeffs: tuple
    kappa1: int = 1
    kappa2: int = 1
    exact: bool = False
    valid: tuple | None = None

    def __post_init__(self):
        if self.kappa1 < 1 or self.kappa2 < 1:
            raise DomainError("kappa1, kappa2 must be positive integers")
        rows = tuple(tuple(_coerce(c, self.exact) for c in row)
                     for row in self.coeffs)
        if not rows or not rows[0]:
            raise DomainError("empty coefficient grid")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DomainError("ragged coefficient grid")
        object.__setattr__(self, "coeffs", rows)
        valid = self.valid if self.valid is not None else (len(rows) - 1, width - 1)
        valid = (min(valid[0], len(rows) - 1), min(valid[1], width - 1))
        if valid[0] < 0 or valid[1] < 0:
            raise WindowError("valid window is empty")
        object.__setattr__(self, "valid", valid)

    @property
    def shape(self) -> tuple:
        return (len(self.coeffs) - 1, len(self.coeffs[0]) - 1)

    @classmethod
    def zeros(cls, n1: int, n2: int, exact: bool = False, **kw) -> "Series2":
        zero = RationalComplex(0) if exact else 0j
        rows = [[zero] * (n2 + 1) for _ in range(n1 + 1)]
        return cls(rows, exact=exact, **kw)

    @classmethod
    def from_entries(cls, entries, n1: int, n2: int, exact: bool = False,
                     **kw) -> "Series2":
        """Build from an iterable of (j, i, value) triples; the rest is 0."""
        zero = RationalComplex(0) if exact else 0j
        rows = [[zero] * (n2 + 1) for _ in range(n1 + 1)]
        for j, i, v in entries:
            if 0 <= j <= n1 and 0 <= i <= n2:
                rows[j][i] = _coerce(v, exact)
        return cls(rows, exact=exact, **kw)

    @classmethod
    def from_t_coeffs(cls, seq, exact: bool = False, **kw) -> "Series2":
        """One-column grid: c_{j,0} from ``seq``, everything else absent."""
        return cls([[v] for v in seq], exact=exact, **kw)

    def windowed(self) -> "Series2":
        """Slice the grid down to the valid window."""
        J, I = self.valid
        if (J, I) == self.shape:
            return self
        rows = [row[: I + 1] for row in self.coeffs[: J + 1]]
        return Series2(rows, self.kappa1, self.kappa2, self.exact)

    def row_values(self, z, up_to: int | None = None):
        """Evaluate each t-level at the point z (within the valid window)."""
        J, I = self.valid
        if up_to is not None:
            J = min(J, up_to)
        zc = complex(z)
        out = []
        for j in range(J + 1):
            acc = 0j
            row = self.coeffs[j]
            for i in range(I, -1, -1):
                acc = acc * zc + complex(row[i])
            out.append(acc)
        return out

    def to_csv(self) -> str:
        """Coefficient dump: header ``j,i,re,im``, row-major, 17 sig digits."""
        J, I = self.valid
        lines = ["j,i,re,im"]
        for j in range(J + 1):
            for i in range(I + 1):
                c = complex(self.coeffs[j][i])
                lines.append(f"{j},{i},{c.real:.17g},{c.imag:.17g}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GevreyFit:
    """Empirical coefficient-growth exponent against log Gamma(1+j)."""

    s_hat: float
    stderr: float
    j_range: tuple
    radius: float


# -- moment Borel transforms and moment differentiation ----------------------


def _scale_1d(coeffs, m, kappa, exact, invert):
    out = []
    for j, c in enumerate(coeffs):
        sv = moments.scaled_eval(m, Fraction(j, kappa))
        if exact:
            f = sv.to_fraction()
            out.append(c * f if invert else c / f)
        else:
            out.append(_mul_scaled(c, sv) if invert else _div_scaled(c, sv))
    return out


def borel(m: MomentFunction, s, axis: str | None = None):
    """Coefficient-wise division by m(j/kappa) along the chosen axis."""
    return _borel_impl(m, s, axis, invert=False)


def inv_borel(m: MomentFunction, s, axis: str | None = None):
    """Exact inverse of :func:`borel`: multiplication by m(j/kappa)."""
    return _borel_impl(m, s, axis, invert=True)


def _borel_impl(m, s, axis, invert):
    if isinstance(s, Series1):
        out = _scale_1d(s.coeffs, m, s.kappa, s.exact, invert)
        return Series1(out, s.kappa, s.axis, s.exact)
    if axis not in ("t", "z"):
        raise DomainError("Series2 transforms need axis 't' or 'z'")
    J, I = s.valid
    if axis == "t":
        rows = []
        for j in range(J + 1):
            sv = moments.scaled_eval(m, Fraction(j, s.kappa1))
            if s.exact:
                f = sv.to_fraction()
                rows.append([c * f if invert else c / f
                             for c in s.coeffs[j][: I + 1]])
            else:
                rows.append([_mul_scaled(c, sv) if invert else _div_scaled(c, sv)
                             for c in s.coeffs[j][: I + 1]])
    else:
        svs = [moments.scaled_eval(m, Fraction(i, s.kappa2)) for i in range(I + 1)]
        fs = [sv.to_fraction() for sv in svs] if s.exact else None
        rows = []
        for j in range(J + 1):
            row = s.coeffs[j]
            if s.exact:
                rows.append([row[i] * fs[i] if invert else row[i] / fs[i]
                             for i in range(I + 1)])
            else:
                rows.append([_mul_scaled(row[i], svs[i]) if invert
                             else _div_scaled(row[i], svs[i])
                             for i in range(I + 1)])
    return Series2(rows, s.kappa1, s.kappa2, s.exact)


def moment_diff(m: MomentFunction, s, axis: str | None = None, times: int = 1):
    """Moment differentiation: shift of normalized coefficients.

    In normalized coordinates ``u_j = c_j * m(j/kappa)`` the output is
    ``u'_j = u_{j+times}``; the truncation shrinks by ``times``.
    """
    if times < 0:
        raise DomainError("times must be >= 0")
    return _shift_impl(m, s, axis, times, up=True)


def moment_antidiff(m: MomentFunction, s, axis: str | None = None,
                    times: int = 1):
    """Moment integration: normalized coefficients shift down, zero-padded."""
    if times < 0:
        raise DomainError("times must be >= 0")
    return _shift_impl(m, s, axis, times, up=False)


def _shift_1d(coeffs, m, kappa, exact, times, up):
    n = len(coeffs) - 1
    if up and times > n:
        raise WindowError(f"differentiating {times} times leaves no "
                          f"valid coefficients (truncation {n})")
    src = range(times, n + 1) if up else range(n - times + 1)
    dst = range(n - times + 1) if up else range(times, n + 1)
    if exact:
        # normalized coefficients c_j * m(j) shift; divide once on output
        w = moments.fraction_table(m, kappa, n)
        moved = [coeffs[x] * w[x] / w[y] for x, y in zip(src, dst)]
    else:
        logs = moments.log_table(m, kappa, n)
        moved = [coeffs[x] * math.exp(logs[x] - logs[y])
                 for x, y in zip(src, dst)]
    if up:
        return moved
    zero = RationalComplex(0) if exact else 0j
    return [zero] * min(times, n + 1) + moved


def _shift_impl(m, s, axis, times, up):
    if isinstance(s, Series1):
        out = _shift_1d(list(s.coeffs), m, s.kappa, s.exact, times, up)
        return Series1(out, s.kappa, s.axis, s.exact)
    if axis not in ("t", "z"):
        raise DomainError("Series2 transforms need axis 't' or 'z'")
    J, I = s.valid
    if axis == "t":
        cols = [[s.coeffs[j][i] for j in range(J + 1)] for i in range(I + 1)]
        new_cols = [_shift_1d(col, m, s.kappa1, s.exact, times, up)
                    for col in cols]
        rows = [[new_cols[i][j] for i in range(I + 1)]
                for j in range(len(new_cols[0]))]
    else:
        rows = [_shift_1d(list(s.coeffs[j][: I + 1]), m, s.kappa2, s.exact,
                          times, up)
                for j in range(J + 1)]
    return Series2(rows, s.kappa1, s.kappa2, s.exact)


# -- constant-coefficient moment differential operators ----------------------


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


def apply_operator(table, m1: MomentFunction, m2: MomentFunction,
                   u: Series2) -> Series2:
    """Apply ``sum p_ab * dt^a dz^b`` (moment derivatives) to a Series2.

    On normalized coefficients this is the shift
    ``V_{j,i} = sum p_ab U_{j+a,i+b}``, run on :mod:`mpde.kernel`.  Exact
    mode normalizes u once, runs the shift on integers and divides by the
    moment values once per output cell; float mode works on raw coefficients
    through ratios of moment values taken from their logarithms.  The
    output window shrinks by the maximal orders in the support.
    """
    J_out, I_out = operator_window(table, u.valid)
    J, I = u.valid
    if u.exact:
        w1 = moments.fraction_table(m1, u.kappa1, J)
        w2 = moments.fraction_table(m2, u.kappa2, I)
        U = kernel.normalize(u.coeffs, w1, w2, J, I)
        V = kernel.shift(U, table, J_out, I_out)
        rows = kernel.denormalize(V.re, V.im, [V.den] * (J_out + 1), w1, w2,
                                  J_out, I_out)
        return Series2(rows, u.kappa1, u.kappa2, True)
    items = [(k, complex(p)) for k, p in normalize_table(table)]
    out = kernel.shift_float(np.array(u.coeffs, dtype=complex), items,
                             moments.log_table(m1, u.kappa1, J),
                             moments.log_table(m2, u.kappa2, I), J_out, I_out)
    return Series2(out.tolist(), u.kappa1, u.kappa2, False)


# -- empirical Gevrey order ---------------------------------------------------


def gevrey_fit(u: Series2, axis: str = "t", radius: float = 0.1,
               j_min_frac: float = 0.5, min_points: int = 8) -> GevreyFit:
    """Least-squares growth exponent of weighted row sums.

    Forms ``a_j = sum_i |c_{j,i}| * radius**i`` and fits ``log a_j`` against
    the basis ``{1, j, log Gamma(1+j)}`` over the upper part of the valid
    j-range; the coefficient of ``log Gamma(1+j)`` estimates the Gevrey
    order.  The weighted l1 row sum stands in for the sup norm on a z-disc
    of radius ``radius``.
    """
    if axis not in ("t", "z"):
        raise DomainError("axis must be 't' or 'z'")
    J, I = u.valid
    if axis == "z":
        J, I = I, J

    def row_sum(j):
        if axis == "t":
            vals = (u.coeffs[j][i] for i in range(I + 1))
        else:
            vals = (u.coeffs[i][j] for i in range(I + 1))
        return math.fsum(abs(v) * radius ** i for i, v in enumerate(vals))

    j_lo = max(0, math.ceil(j_min_frac * J))
    pts = []
    for j in range(j_lo, J + 1):
        a = row_sum(j)
        if a > 0.0 and math.isfinite(a):
            pts.append((j, math.log(a)))
    if len(pts) < min_points:
        raise EstimationError(
            f"need at least {min_points} nonzero levels in [{j_lo}, {J}], "
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
                     (j_lo, J), radius)
