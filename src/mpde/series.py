"""Truncated formal power series in two variables with ramification, and
their empirical Gevrey order.

Coefficients are stored raw (plain monomial coefficients).  Two coefficient
fields are supported: Python ``complex`` (float mode), kept as a numpy
grid, and :class:`~mpde.exact.RationalComplex` (exact mode), kept as
integer lanes with row and column divisors.  The moment operators act as
shifts on normalized coordinates ``u_j = c_j * m(j/kappa)``; the solver
runs them on the shift kernel (:mod:`mpde.kernel`), which leaves the exact
moment values in the divisors of the lanes.  The kernel's one decoder
divides them out when ``coeffs``, ``grid``, the CSV or the Gevrey fit reads
the lanes.

The solver slices every output grid to the cells that the truncation
determines, so a series is trustworthy on its whole grid and every reader
reads all of it.
"""

from __future__ import annotations

import math

from . import kernel
from .errors import DomainError, EstimationError, EvaluationError
from .exact import RationalComplex
from .record import record


def _rows(coeffs, coerce) -> tuple:
    """Rows of ``coeffs`` coerced cell by cell; neither empty nor ragged."""
    rows = tuple(tuple(map(coerce, row)) for row in coeffs)
    if not rows or not rows[0]:
        raise DomainError("empty coefficient grid")
    if any(len(r) != len(rows[0]) for r in rows):
        raise DomainError("ragged coefficient grid")
    return rows


class Series2:
    """Truncated series ``sum c_{j,i} t**(j/kappa1) z**(i/kappa2)``.

    A series stores one grid: a read-only 2-D numpy array (:attr:`grid`)
    in float mode, float64 for real data and complex128 otherwise, and
    :class:`~mpde.kernel.RawLanes` (:attr:`lanes`) in exact mode.  It is
    given as such an array (kept when it is float64 or complex128,
    read-only and owns its memory, as the grids mpde builds are; copied
    once otherwise, to complex128 from a complex or object array and to
    float64 from any other), as lanes, or as rows, coerced cell by cell to
    the coefficient type and converted once.  ``coeffs``,
    the grid as tuple rows of Python ``complex`` (signs of zero kept) or
    ``RationalComplex``, is built on first use.  The whole grid is valid:
    ``valid`` is its last index pair (J, I), one less than its row and
    column counts.  Series are immutable and compare equal when their
    ``coeffs``, ramifications and arithmetic are equal.
    """

    def __init__(self, coeffs, kappa1: int = 1, kappa2: int = 1,
                 exact: bool = False):
        if kappa1 < 1 or kappa2 < 1:
            raise DomainError("kappa1, kappa2 must be positive integers")
        if exact:
            if not isinstance(coeffs, kernel.RawLanes):
                rows = _rows(coeffs, RationalComplex.coerce)
                coeffs = kernel.lanes_of_table(
                    {(j, i): c for j, row in enumerate(rows)
                     for i, c in enumerate(row) if c},
                    len(rows) - 1, len(rows[0]) - 1)
            n_rows, width = len(coeffs.re), len(coeffs.col_div)
            if len(coeffs.row_div) != n_rows or any(
                    len(r) != width for r in [*coeffs.re, *(coeffs.im or ())]):
                raise DomainError("ragged coefficient lanes")
        else:
            import numpy as np

            if not isinstance(coeffs, np.ndarray):
                coeffs = np.array(_rows(coeffs, complex), dtype=complex)
            elif (coeffs.dtype not in (float, complex)
                  or coeffs.flags.writeable or not coeffs.flags.owndata):
                coeffs = np.array(coeffs, dtype=complex if
                                  coeffs.dtype.kind in "cO" else float)
            if coeffs.ndim != 2:
                raise DomainError("a coefficient array must be 2-D")
            coeffs.flags.writeable = False
            n_rows, width = coeffs.shape
        if not n_rows or not width:
            raise DomainError("empty coefficient grid")
        for name, value in (("_data", coeffs), ("_coeffs", None),
                            ("kappa1", kappa1), ("kappa2", kappa2),
                            ("exact", exact),
                            ("valid", (n_rows - 1, width - 1))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"Series2 is immutable; cannot set {name!r}")

    @property
    def coeffs(self) -> tuple:
        """Rows of the grid as tuples of the coefficient type."""
        if self._coeffs is None:
            # the rows of a complex array's tolist() are Python complex; a
            # float64 one converts with +0.0 imaginary parts
            rows = (kernel.denormalize(self._data) if self.exact else
                    tuple(map(tuple, self._data.astype(complex).tolist())))
            object.__setattr__(self, "_coeffs", rows)
        return self._coeffs

    @property
    def grid(self):
        """The grid as a read-only 2-D numpy array.  A float series gives
        the array it keeps: float64 for real data (every imaginary part
        +0.0), complex128 otherwise.  An exact one gives complex128, every
        cell of its lanes rounded part by part
        (:func:`kernel.binary64_rows`), which raises OverflowError for a
        part beyond binary64."""
        if not self.exact:
            return self._data
        import numpy as np

        J, I = self.valid
        return kernel.read_only(np.array(
            [list(map(complex, *parts)) for parts in
             kernel.binary64_rows(self._data, range(J + 1), I)]))

    @property
    def lanes(self) -> kernel.RawLanes:
        """The exact grid as integer lanes with row and column divisors
        (exact series only; do not modify)."""
        if not self.exact:
            raise DomainError("only exact series have integer lanes")
        return self._data

    def _key(self) -> tuple:
        return (self.coeffs, self.kappa1, self.kappa2, self.exact)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"Series2(coeffs={self.coeffs!r}, kappa1={self.kappa1!r}, "
                f"kappa2={self.kappa2!r}, exact={self.exact!r})")

    @classmethod
    def from_entries(cls, entries, n1: int, n2: int, exact: bool = False,
                     **kw) -> "Series2":
        """The (n1, n2) grid of the (j, i, value) triples ``entries``, every
        other cell zero.  Entries outside the grid are dropped, and a
        repeated (j, i) keeps its last value.  Exact values are coerced to
        ``RationalComplex`` and become lanes over their common denominator
        (:func:`kernel.lanes_of_table`); float values are written, signs of
        zero kept, into a read-only numpy array, float64 when every value's
        imaginary part is +0.0 and complex128 otherwise.  Only the entries
        are converted, never the zero cells."""
        if n1 < 0 or n2 < 0:
            raise DomainError("empty coefficient grid")
        table = {(j, i): v for j, i, v in entries
                 if 0 <= j <= n1 and 0 <= i <= n2}
        if exact:
            return cls(kernel.lanes_of_table(
                {k: RationalComplex.coerce(v) for k, v in table.items()},
                n1, n2), exact=True, **kw)
        import numpy as np

        values = list(map(kernel.binary64, table.values()))
        real = not any(isinstance(v, complex) for v in values)
        grid = np.zeros((n1 + 1, n2 + 1), dtype=float if real else complex)
        for (j, i), v in zip(table, values):
            grid[j, i] = v
        return cls(kernel.read_only(grid), **kw)

    def row_values(self, z):
        """Evaluate each t-level at the point z, reading the whole grid
        (an exact one decoded as :attr:`grid` decodes it).

        One Horner sweep over the columns for all rows at once, with
        Python's complex multiply written out on real and imaginary planes,
        so each value rounds as a per-row loop in ``complex`` would.
        """
        import numpy as np

        J, I = self.valid
        zc = complex(z)
        zr, zi = zc.real, zc.imag
        cells = self.grid
        re, im = np.zeros(J + 1), np.zeros(J + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(I, -1, -1):
                c = cells[:, i]
                re, im = re * zr - im * zi + c.real, re * zi + im * zr + c.imag
        out = np.empty(J + 1, dtype=complex)
        out.real, out.imag = re, im
        return out.tolist()

    def to_csv(self) -> str:
        """Coefficient dump: header ``j,i,re,im``, row-major, 17 sig digits.

        Exact cells are rounded part by part (:func:`kernel.binary64_rows`);
        one beyond the binary64 range raises EvaluationError.  Float cells
        are formatted from the real and imaginary planes of :attr:`grid`.
        Real lanes and float64 grids write every imaginary part as ``0``.
        Each row is one ``%`` of its cells into the column templates joined
        by the row index.
        """
        J, I = self.valid
        if self.exact:
            rows = kernel.binary64_rows(self.lanes, range(J + 1), I)
            real = self.lanes.im is None
        else:
            cells = self.grid
            real = cells.dtype == float
            rows = (zip(cells.tolist()) if real else
                    zip(cells.real.tolist(), cells.imag.tolist()))
        # real lanes and float64 grids: every imaginary part is 0
        im = "0" if real else "%.17g"
        columns = [f",{i},%.17g,{im}\n" for i in range(I + 1)]
        lines = ["j,i,re,im\n"]
        try:
            for j, parts in enumerate(rows):
                cells = parts[0]
                if len(parts) == 2:
                    cells = [0.0] * (2 * I + 2)
                    cells[::2], cells[1::2] = parts
                js = str(j)
                lines.append((js + js.join(columns)) % tuple(cells))
        except kernel.CellOverflow as exc:
            raise EvaluationError(
                f"{exc} of the CSV; lower --n1 (verify checks the exact "
                f"solution without writing it)") from None
        return "".join(lines)


@record
class GevreyFit:
    """Empirical coefficient-growth exponent against log Gamma(1+j)."""

    s_hat: float
    stderr: float
    j_range: tuple
    radius: float


# -- empirical Gevrey order ---------------------------------------------------


FIT_RADIUS = 0.1


def gevrey_fit(u: Series2, axis: str = "t", j_min_frac: float = 0.5,
               min_points: int = 8) -> GevreyFit:
    """Least-squares growth exponent of weighted row sums.

    Forms ``a_j = sum_i |c_{j,i}| * FIT_RADIUS**i`` and fits ``log a_j``
    against the basis ``{1, j, log Gamma(1+j)}`` over the upper part of the
    valid j-range; the coefficient of ``log Gamma(1+j)`` estimates the
    Gevrey order.  The weighted l1 row sum stands in for the sup norm on a
    z-disc of radius ``FIT_RADIUS``.  An exact cell whose real or imaginary
    part lies outside the binary64 range raises EvaluationError naming its
    level.
    """
    import numpy as np

    if axis not in ("t", "z"):
        raise DomainError("axis must be 't' or 'z'")
    J, I = u.valid
    if axis == "z":
        J, I = I, J
    j_lo = max(0, math.ceil(j_min_frac * J))
    if u.exact:
        lanes = u.lanes
        if axis == "z":  # the levels are the columns
            re, im = (None if lane is None else list(zip(*lane))
                      for lane in (lanes.re, lanes.im))
            lanes = kernel.RawLanes(re, im, lanes.col_div, lanes.row_div)
        try:
            # hypot(x) of a real cell is hypot(x, 0.0), as abs() takes it
            moduli = [[math.hypot(*c) for c in zip(*parts)] for parts in
                      kernel.binary64_rows(lanes, range(j_lo, J + 1), I)]
        except kernel.CellOverflow as exc:
            flag = "--n1" if axis == "t" else "--n2"
            raise EvaluationError(
                f"exact coefficients of {axis}-level {exc.j} are outside the "
                f"binary64 range of the Gevrey fit; lower {flag} below "
                f"{exc.j} (verify checks the exact solution without fitting "
                f"it)") from None
        moduli = np.array(moduli, dtype=float).reshape(-1, I + 1)
    else:
        cells = (u.grid if axis == "t" else u.grid.T)[j_lo:]
        moduli = kernel.modulus(cells)
    weights = np.array([FIT_RADIUS ** i for i in range(I + 1)], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = (moduli * weights).tolist()
    pts = []
    for j, row in enumerate(terms, j_lo):
        a = math.fsum(row)
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
                     (j_lo, J), FIT_RADIUS)
