"""Problem files and analysis orchestration.

A problem file is a JSON object with the fields

* ``operator``   - operator expression, e.g. ``"dt - dz^2"``
* ``m1``, ``m2`` - moment expressions, e.g. ``"Gamma(1)"``
* ``rhs``        - ``{"kind": "coeffs" | "rational", "payload": ...}``
* ``rhs_role``   - ``"g"`` (default) or ``"f"``
* ``rhs_gevrey`` - declared Gevrey orders ``[st1, st2]`` as rational strings
* ``truncation`` - requested output window ``[N1, N2]``
* ``directions`` - list of real directions (radians)
* ``mode``       - ``"direct"`` or ``"pseudo"``
* ``arithmetic`` - ``"float"`` or ``"exact"``

Unknown keys are rejected, and so are JSON booleans where a truncation or a
direction is expected.  Coefficient payloads are lists of
``[j, i, re, im]`` quadruples (``num`` and ``den`` of a ``rational``
payload object): j, i non-negative integers; re, im and the ``rhs_gevrey``
entries finite non-boolean numbers or rational strings such as ``"1/2"``.

A ``rational`` rhs is expanded on the solver grid by power-series division:
fraction-free on Gaussian integers in exact mode, row by row into the
integer lanes of an exact ``Series2``, and in float mode over the live rows
only, one anti-diagonal at a time on numpy planes or, for a single live row,
cell by cell, rounding as Python ``complex`` arithmetic does.
An exact ``coeffs`` rhs becomes lanes over one common denominator.  Grids
above ``MAX_GRID_CELLS`` are rejected before they are allocated.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from fractions import Fraction
from functools import cached_property
from pathlib import Path

from . import kernel, newton
from .charroots import CharPoly, branches_at_infinity
from .errors import EvaluationError, ParseError, PreconditionError
from .exact import RationalComplex, as_fraction, fmt_fraction
from .moments import MomentFunction
from .parsing import parse_moment, parse_operator
from .record import record
from .series import Series2, gevrey_fit
from .solver import (CauchyProblem, formal_solve, level_widths, residual,
                     theoretical_orders, z_order)
from .summability import classify, levels as summability_levels, \
    singular_direction_probe

SCHEMA_VERSION = 1

_KNOWN_KEYS = {"operator", "m1", "m2", "rhs", "rhs_role", "rhs_gevrey",
               "truncation", "directions", "mode", "arithmetic"}


@record
class ProblemFile:
    """A problem file as loaded and validated, before parsing."""

    operator: str
    m1: str
    m2: str
    rhs: dict
    rhs_role: str = "g"
    rhs_gevrey: tuple = (Fraction(0), Fraction(0))
    truncation: tuple = (20, 40)
    directions: tuple = (0.0,)
    mode: str = "direct"
    arithmetic: str = "float"


def load_problem(source) -> ProblemFile:
    """Load and validate a problem file (path, JSON text, or dict)."""
    if isinstance(source, (str, Path)) and not str(source).lstrip().startswith("{"):
        try:
            data = json.loads(Path(source).read_text())
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON in {source}: {exc}")
    elif isinstance(source, str):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid problem JSON: {exc}")
    else:
        data = dict(source)
    unknown = set(data) - _KNOWN_KEYS
    if unknown:
        raise ParseError(f"unknown problem keys: {sorted(unknown)}")
    for required in ("operator", "m1", "m2", "rhs"):
        if required not in data:
            raise ParseError(f"problem file is missing {required!r}")
    rhs = data["rhs"]
    if not isinstance(rhs, dict) or rhs.get("kind") not in ("coeffs", "rational"):
        raise ParseError('rhs must be {"kind": "coeffs"|"rational", "payload": ...}')
    if "payload" not in rhs:
        raise ParseError("rhs is missing its payload")
    payload = rhs["payload"]
    if rhs["kind"] == "coeffs":
        _entries(payload, "rhs")
    elif not isinstance(payload, dict):
        raise ParseError('a rational rhs payload is an object '
                         '{"num": [...], "den": [...]}')
    else:
        for key in ("num", "den"):
            _entries(payload.get(key, []), f"rhs {key}")
    role = data.get("rhs_role", "g")
    if role not in ("g", "f"):
        raise ParseError('rhs_role must be "g" or "f"')
    gevrey = data.get("rhs_gevrey", ["0", "0"])
    if not isinstance(gevrey, (list, tuple)) or len(gevrey) != 2:
        raise ParseError("rhs_gevrey must be a pair of rationals")
    try:
        gevrey = tuple(map(_rational, gevrey))
    except ParseError as exc:
        raise ParseError(f"rhs_gevrey entry {exc}") from None
    trunc = data.get("truncation", [20, 40])
    if (not isinstance(trunc, (list, tuple)) or len(trunc) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool)
                       and v >= 0 for v in trunc)):
        raise ParseError("truncation must be a pair of non-negative integers")
    dirs = data.get("directions", [0.0])
    # JSON reads NaN, Infinity and 1e309; a finite real converts to float
    if not isinstance(dirs, (list, tuple)) or not dirs or not all(
            isinstance(d, (int, float)) and not isinstance(d, bool)
            and abs(d) <= sys.float_info.max for d in dirs):
        raise ParseError(f"directions must be a non-empty list of finite "
                         f"reals, got {json.dumps(dirs, default=str)}")
    mode = data.get("mode", "direct")
    if mode not in ("direct", "pseudo"):
        raise ParseError('mode must be "direct" or "pseudo"')
    arithmetic = data.get("arithmetic", "float")
    if arithmetic not in ("float", "exact"):
        raise ParseError('arithmetic must be "float" or "exact"')
    return ProblemFile(data["operator"], data["m1"], data["m2"], rhs, role,
                       gevrey, tuple(trunc), tuple(float(d) for d in dirs),
                       mode, arithmetic)


def _rational(value) -> Fraction:
    """``value`` as a Fraction: a finite number that is not a boolean, or a
    rational string with a nonzero denominator; else ParseError."""
    if not isinstance(value, bool):
        try:
            return as_fraction(value)
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            pass
    raise ParseError(f"{json.dumps(value, default=str)} is not a finite "
                     f"number or a rational string with a nonzero denominator")


def _entries(quads, where: str) -> list:
    """``(j, i, re, im)`` of the coefficient list ``quads``, with re and im
    as Fractions; every entry must be ``[j, i, re, im]`` with non-negative
    integer indices and :func:`_rational` values, else ParseError."""
    if not isinstance(quads, (list, tuple)):
        raise ParseError(f"{where} coefficients must be a list of "
                         f"[j, i, re, im] entries")
    out = []
    for quad in quads:
        if not isinstance(quad, (list, tuple)) or len(quad) != 4:
            fault = " is not [j, i, re, im]"
        elif not all(type(k) is int and k >= 0 for k in quad[:2]):
            fault = ": indices must be non-negative integers"
        else:
            try:
                out.append((*quad[:2], _rational(quad[2]), _rational(quad[3])))
                continue
            except ParseError as exc:
                fault = f": value {exc}"
        raise ParseError(f"{where} entry {json.dumps(quad, default=str)}"
                         f"{fault}")
    return out


# -- right-hand side expansion ---------------------------------------------------


def _quads_to_table(quads, exact: bool, where: str = "rhs") -> dict:
    """{(j, i): value} of the entries, repeated ones summed; a float entry
    beyond binary64 raises EvaluationError naming it."""
    table = {}
    zero = RationalComplex(0) if exact else 0j
    for quad, (j, i, re, im) in zip(quads, _entries(quads, where)):
        try:
            val = RationalComplex(re, im) if exact else complex(re, im)
        except OverflowError:
            raise EvaluationError(
                f"{where} entry {json.dumps(quad, default=str)} is beyond "
                f"the binary64 range of float arithmetic; use --arithmetic "
                f"exact") from None
        table[(j, i)] = table.get((j, i), zero) + val
    return table


def expand_rhs(rhs_spec: dict, n1: int, n2: int, exact: bool) -> Series2:
    """Materialize the rhs on the (n1, n2) grid.

    ``coeffs`` payloads are finite polynomials and are zero-padded; the
    ``rational`` kind expands num/den by bivariate power-series division,
    exact in rational mode.
    """
    kind = rhs_spec["kind"]
    payload = rhs_spec["payload"]
    if kind == "coeffs":
        table = _quads_to_table(payload, exact)
        if exact:
            return Series2(kernel.lanes_of_table(table, n1, n2), exact=True)
        return Series2.from_entries(((j, i, v) for (j, i), v in table.items()),
                                    n1, n2, exact=exact)
    num = _quads_to_table(payload.get("num", []), exact, "rhs num")
    den = _quads_to_table(payload.get("den", []), exact, "rhs den")
    d00 = den.get((0, 0))
    if not d00:
        raise PreconditionError(
            "rational rhs needs a denominator with nonzero constant term")
    quotient = _quotient_exact if exact else _quotient_float
    return Series2(quotient(num, den, n1, n2), exact=exact)


def _quotient_exact(num: dict, den: dict, n1: int, n2: int) -> kernel.RawLanes:
    """Lanes of the power series num/den, fraction-free, row by row.

    Both tables are scaled to Gaussian integers N and Q.  With q = Q_00 the
    cells ``R_{j,i} = q**(j+i+1) * (num/den)_{j,i}`` obey the integer
    recursion ``R_{j,i} = q**(j+i) N_{j,i} - sum Q_ab q**(a+b-1) R_{j-a,i-b}``
    over (a, b) != (0, 0).  Row j starts from its N terms; each term with
    a >= 1 subtracts a shifted earlier row (:func:`kernel.axpy`), and the
    terms with a = 0 then run along the row as taps (:func:`kernel.run_taps`).
    A row whose start is zero stays zero.  The lanes divide row j by
    ``q**(j+1)`` and column i by ``q**i``; for complex q by ``|q|**(2j+2)``
    and ``|q|**(2i)``, with the numerators multiplied by
    ``conj(q)**(j+i+1)``.
    """
    d = kernel.common_denominator(list(num.values()) + list(den.values()))
    N = {k: kernel.gaussian_int(v, d) for k, v in num.items()}
    Q = {k: kernel.gaussian_int(v, d) for k, v in den.items()}
    qr, qi = Q[(0, 0)]
    powers = [(1, 0)]  # q**k
    for _ in range(n1 + n2 + 1):
        pr, pi = powers[-1]
        powers.append((pr * qr - pi * qi, pr * qi + pi * qr))

    def mul(x, y):
        return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    is_complex = any(v[1] for v in (*N.values(), *Q.values()))
    # a term beyond the grid reaches no cell (and no power of q); a term in
    # t is kept negated, as -Q_ab q**(a+b-1), and the taps are Q_0b q**(b-1)
    terms = [(a, b, mul(v, powers[a + b - 1]))
             for (a, b), v in sorted(Q.items())
             if (a, b) != (0, 0) and a <= n1 and b <= n2]
    down = [(a, b, (-x, -y)) for a, b, (x, y) in terms if a]
    taps = [(b, k) for a, b, k in terms if not a]
    starts = {}
    for (j, i), v in N.items():
        if j <= n1 and i <= n2:
            starts.setdefault(j, []).append((i, mul(v, powers[j + i])))
    R_re, R_im = [], [] if is_complex else None
    for j in range(n1 + 1):
        acc_re = [0] * (n2 + 1)
        acc_im = [0] * (n2 + 1) if is_complex else None
        for i, (x, y) in starts.get(j, ()):
            acc_re[i] = x
            if is_complex:
                acc_im[i] = y
        for a, b, k in down:
            if a <= j:
                kernel.axpy(acc_re, acc_im, k, R_re[j - a],
                            R_im[j - a] if is_complex else None, -b)
        if taps and (any(acc_re) or (is_complex and any(acc_im))):
            kernel.run_taps(acc_re, acc_im, taps)
        R_re.append(acc_re)
        if is_complex:
            R_im.append(acc_im)
    if not qi:
        return kernel.RawLanes(R_re, R_im,
                               [powers[j + 1][0] for j in range(n1 + 1)],
                               [powers[i][0] for i in range(n2 + 1)])
    # R / q**k = R * conj(q)**k / |q|**(2k)
    norm = qr * qr + qi * qi
    out_re, out_im = [], []
    for j in range(n1 + 1):
        row = [mul((x, y), (pr, -pi)) if x or y else (0, 0)
               for x, y, (pr, pi) in zip(R_re[j], R_im[j], powers[j + 1:])]
        out_re.append([x for x, _ in row])
        out_im.append([y for _, y in row])
    return kernel.RawLanes(out_re, out_im,
                           [norm ** (j + 1) for j in range(n1 + 1)],
                           [norm ** i for i in range(n2 + 1)])


def _quotient_float(num: dict, den: dict, n1: int, n2: int):
    """Complex numpy grid of the power series num/den in binary64, over its
    live rows only.

    Cell ``(j, i)`` is ``(N_ji - sum Q_ab R_{j-a,i-b}) / Q_00`` over the
    sorted terms (a, b) != (0, 0) that fit in the grid, rounded as Python
    ``complex`` arithmetic rounds it, signs of zero included.  The live band
    of rows runs from the first row with a numerator entry in the grid to
    the last row, or, when den has no term in t (so rows are independent),
    to the last numerator row.  Every other cell is ``0j / Q_00``, and the
    grid is filled with that before the band is written over it: an
    accumulator is never -0.0 (it starts from a table value or +0.0 and
    only subtracts), so a cell that no entry reaches ends as ``+0j / Q_00``,
    and a term that reads a dead cell subtracts a signed zero and changes
    nothing, so the band skips it as it skips reads below row 0.  That needs
    finite den terms (``v * 0`` is NaN for an infinite one, possible when
    repeated entries add up past binary64); otherwise the band is the grid.

    A band of one row meets only den's terms in z, and runs cell by cell in
    Python ``complex``.  A band of several rows runs by anti-diagonals
    (:func:`_diagonal_sweep`).  Real data (every imaginary part of num and
    den is +0.0, as ``_quads_to_table`` makes it) runs on the real plane
    alone.  While that plane stays finite, every cell's imaginary part is
    the zero ``0.0 / Q_00`` of the fill, and the signed zeros that the
    imaginary parts add to a real accumulator change nothing, by the
    argument above: the real part is ``(N_ji - sum Re(Q_ab) R_{j-a,i-b}) /
    Re(Q_00)``.  A non-finite cell spreads NaN into the imaginary parts, so
    the sweep then reruns on both planes.
    """
    import numpy as np

    q = den[(0, 0)]
    terms = [(a, b, v) for (a, b), v in sorted(den.items())
             if (a, b) != (0, 0) and a <= n1 and b <= n2]
    out = np.full((n1 + 1, n2 + 1), 0j / q)
    rows = [j for j, i in num if j <= n1 and i <= n2]
    if not all(cmath.isfinite(v) for _, _, v in terms):
        lo, hi = 0, n1
    elif not rows:
        return kernel.read_only(out)
    else:
        lo = min(rows)
        hi = n1 if any(a for a, _, _ in terms) else max(rows)
    if lo == hi:
        along = [(b, v) for a, b, v in terms if not a]
        row = [num.get((lo, i), 0j) for i in range(n2 + 1)]
        for i, acc in enumerate(row):
            for b, v in along:
                if b <= i:
                    acc = acc - v * row[i - b]
            row[i] = acc / q
        out[lo] = row
        return kernel.read_only(out)
    shape = (hi - lo + 1, n2 + 1)
    if not any(v.imag for v in (*num.values(), *den.values())):
        (re,) = _diagonal_sweep(num, terms, q, lo, shape, real=True)
        if np.isfinite(re).all():
            out.real[lo: hi + 1] = re.reshape(shape)
            return kernel.read_only(out)
    re, im = _diagonal_sweep(num, terms, q, lo, shape, real=False)
    out.real[lo: hi + 1], out.imag[lo: hi + 1] = (re.reshape(shape),
                                                  im.reshape(shape))
    return kernel.read_only(out)


def _diagonal_sweep(num, terms, q, first: int, shape, real: bool) -> list:
    """Flat planes ``[re]`` (real data) or ``[re, im]`` of num/den over the
    band of ``shape`` that starts at grid row ``first``, for
    :func:`_quotient_float`; ``q`` is the constant term of den, and a term
    that reads a row below the band is skipped.

    Anti-diagonal ``s = j + i`` depends only on earlier ones and runs as
    one numpy vector: on the flat C-contiguous grid it is the strided view
    ``flat[s + lo*n2 : s + hi*n2 + 1 : n2]`` over the rows lo..hi, and so is
    each source diagonal.  The arithmetic is CPython's complex multiply and
    its ``c_quot`` division written out on real and imaginary planes (numpy's
    complex ``/`` multiplies by a reciprocal, and its complex ``*`` may be
    fused with FMA).
    """
    import numpy as np

    n1, n2 = shape[0] - 1, shape[1] - 1
    planes = [np.zeros(shape[0] * shape[1]) for _ in range(1 if real else 2)]
    for (j, i), v in num.items():
        if first <= j <= first + n1 and i <= n2:
            planes[0][(j - first) * (n2 + 1) + i] = v.real
            if not real:
                planes[1][(j - first) * (n2 + 1) + i] = v.imag
    # CPython's c_quot by q; its branch depends on q alone
    first = abs(q.real) >= abs(q.imag)
    if first:
        ratio = q.imag / q.real
        denom = q.real + q.imag * ratio
    else:
        ratio = q.real / q.imag
        denom = q.real * ratio + q.imag
    step = max(n2, 1)  # a one-column grid has one cell per diagonal
    # overflow becomes inf or NaN, as in Python complex arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(n1 + n2 + 1):
            lo, hi = max(0, s - n2), min(n1, s)
            diag = slice(s + lo * n2, s + hi * n2 + 1, step)
            acc = [p[diag] for p in planes]  # views into the planes
            for a, b, v in terms:
                jl, jh = max(lo, a), min(hi, s - b)
                if jl > jh:
                    continue
                t = s - a - b
                src = slice(t + (jl - a) * n2, t + (jh - a) * n2 + 1, step)
                dst = slice(jl - lo, jh - lo + 1)
                yr = planes[0][src]
                if real:
                    acc[0][dst] -= v.real * yr
                else:
                    yi = planes[1][src]
                    acc[0][dst] -= v.real * yr - v.imag * yi
                    acc[1][dst] -= v.real * yi + v.imag * yr
            if real:
                acc[0] /= q.real
            elif first:
                ar, ai = acc
                acc[0][:], acc[1][:] = ((ar + ai * ratio) / denom,
                                        (ai - ar * ratio) / denom)
            else:
                ar, ai = acc
                acc[0][:], acc[1][:] = ((ar * ratio + ai) / denom,
                                        (ai * ratio - ar) / denom)
    return planes


# -- assembled problem -------------------------------------------------------------


@record
class ParsedProblem:
    """A problem file with its operator and moment functions parsed."""

    pf: ProblemFile
    operator: CharPoly
    m1: MomentFunction
    m2: MomentFunction

    @property
    def s1(self) -> Fraction:
        return self.m1.order

    @property
    def s2(self) -> Fraction:
        return self.m2.order

    @cached_property
    def branches(self) -> tuple:
        return tuple(branches_at_infinity(self.operator))


def parse_problem(pf: ProblemFile) -> ParsedProblem:
    """Parse the operator and the moment functions of a problem file."""
    return ParsedProblem(pf, parse_operator(pf.operator), parse_moment(pf.m1),
                         parse_moment(pf.m2))


def _truncation(pf: ProblemFile, n1, n2) -> tuple:
    """``(N1, N2)``: the overrides where set, else the problem file's; a
    negative override raises PreconditionError before anything is built."""
    for name, value in (("--n1", n1), ("--n2", n2)):
        if value is not None and value < 0:
            raise PreconditionError(f"truncation override {name} {value} "
                                    f"is negative")
    return (pf.truncation[0] if n1 is None else n1,
            pf.truncation[1] if n2 is None else n2)


# Largest rhs grid ``(N1+1) * (w[0] + 1)`` that ``assemble`` expands, w the
# solver's ``level_widths``, for either ``rhs_role``.  A float grid costs
# about 56 bytes a cell (16 in numpy, 40 as a Python complex in its row),
# exact cells several times more, and a solve holds a few grids at once; the
# cap stops a mistyped truncation before it allocates, at about 10x the
# largest grid of the benchmark ladders (heat (200, 100), 100,701 cells).
MAX_GRID_CELLS = 1_000_000


def assemble(pp: ParsedProblem, n1: int | None = None, n2: int | None = None,
             arithmetic: str | None = None) -> CauchyProblem:
    """Expand the rhs to the widest solver level of ``(n1, n2)``.

    Unset truncation and arithmetic come from the problem file.  A grid
    above ``MAX_GRID_CELLS`` is rejected before anything is allocated.
    """
    pf = pp.pf
    P = pp.operator
    N1, N2 = _truncation(pf, n1, n2)
    exact = (arithmetic or pf.arithmetic) == "exact"
    n2_internal = level_widths(P, (N1, N2))[0]
    cells = (N1 + 1) * (n2_internal + 1)
    if cells > MAX_GRID_CELLS:
        raise PreconditionError(
            f"the solver grid of truncation ({N1}, {N2}) has {cells} cells "
            f"({N1 + 1} x {n2_internal + 1}), above the cap of "
            f"{MAX_GRID_CELLS}; lower --n1 or --n2")
    rhs = expand_rhs(pf.rhs, N1, n2_internal, exact)
    return CauchyProblem(P, pp.m1, pp.m2, rhs, (N1, N2),
                         rhs_is_g=pf.rhs_role == "g",
                         rhs_gevrey=pf.rhs_gevrey, mode=pf.mode)


# -- reports ------------------------------------------------------------------------


def _angle_json(angle):
    return {"dir": angle.radians,
            "dir_pi": fmt_fraction(angle.pi_multiple)
            if angle.pi_multiple is not None else None}


def _summability_json(report) -> dict:
    sectors = []
    for s in report.sectors:
        entry = {"var": s.variable, **_angle_json(s.direction),
                 "growth": float(s.growth),
                 "growth_exact": fmt_fraction(s.growth),
                 "branch": list(s.branch)}
        if s.variable == "t":
            entry["disc_replaceable"] = s.disc_replaceable
        sectors.append(entry)
    return {
        "case": report.case,
        "levels": [{"K": fmt_fraction(l.K), "q": fmt_fraction(l.q)}
                   for l in report.levels],
        "tilde_K": fmt_fraction(report.tilde_K)
        if report.tilde_K is not None else None,
        "iff": report.iff,
        "disc_replacement": any(
            s.variable == "t" and s.disc_replaceable for s in report.sectors),
        "sectors": sectors,
        "hypotheses": [{"name": h.name, "holds": h.holds, "detail": h.detail}
                       for h in report.hypotheses],
        "admissible": report.admissible,
        "margins": list(report.margins) if report.margins is not None else None,
        "directions": list(report.directions)
        if report.directions is not None else None,
        "g_requirements": list(report.g_requirements),
        "notes": list(report.notes),
    }


def analyze_problem(pf: ProblemFile, n1: int | None = None,
                    n2: int | None = None) -> dict:
    """Full analysis report: branches, polygon, orders, summability."""
    pp = parse_problem(pf)
    P, s1, s2, branches = pp.operator, pp.s1, pp.s2, pp.branches
    st1, st2 = pf.rhs_gevrey
    report = {
        "schema_version": SCHEMA_VERSION,
        "operator": pf.operator,
        "moments": {"m1": pf.m1, "m2": pf.m2,
                    "s1": fmt_fraction(s1), "s2": fmt_fraction(s2)},
        "rhs_gevrey": [fmt_fraction(st1), fmt_fraction(st2)],
        "branches": [
            {"q": fmt_fraction(b.q), "kappa": b.kappa,
             "leading": [{"re": complex(l).real + 0.0,
                          "im": complex(l).imag + 0.0,
                          "mult": m} for l, m in b.leading_terms],
             "resolved": b.resolved}
            for b in branches
        ],
    }
    if s1 > 0 and s2 > 0:
        polygon = newton.build(P.support(), s1, s2)
        p0_degree = len(P.p0()) - 1
        cc = newton.cross_check(polygon, branches, s1, s2, p0_degree)
        report["newton"] = {
            "vertices": [[fmt_fraction(x), fmt_fraction(y)]
                         for x, y in polygon.vertices],
            "slopes": [fmt_fraction(k) for k in newton.slopes(polygon)],
            "p0_degree": p0_degree,
            "consistent": cc.ok,
        }
    else:
        report["newton"] = None
    orders = theoretical_orders(branches, s1, s2, st1, st2)
    report["gevrey"] = {
        "per_branch": [{"q": fmt_fraction(b.q), "Q": fmt_fraction(b.gevrey_t)}
                       for b in orders.per_branch],
        "t_order": fmt_fraction(orders.t_order),
        "z_order": fmt_fraction(orders.z_order),
    }
    report["summability"] = _summability_json(
        classify(branches, s1, s2, st1, st2, list(pf.directions)))
    return report


def _solve_checked(pf: ProblemFile, n1, n2, arithmetic):
    """assemble -> formal_solve -> residual; returns (solution, report).

    A truncation below the operator orders leaves the residual no window to
    compare on; it is rejected before anything is solved.
    """
    pp = parse_problem(pf)
    N1, N2 = _truncation(pf, n1, n2)
    n, max_b = pp.operator.n, z_order(pp.operator)
    if N1 < n or N2 < max_b:
        raise PreconditionError(
            f"truncation ({N1}, {N2}) is below the operator orders "
            f"({n}, {max_b}); the residual needs N1 >= {n} and N2 >= {max_b}")
    prob = assemble(pp, N1, N2, arithmetic)
    u = formal_solve(prob)
    return u, residual(prob, u)


def solve_problem(pf: ProblemFile, n1: int | None = None,
                  n2: int | None = None, arithmetic: str | None = None):
    """Solve and return (solution series, sidecar dict)."""
    u, res = _solve_checked(pf, n1, n2, arithmetic)
    sidecar = {
        "valid_window": [u.valid[0], u.valid[1]],
        "mode": pf.mode,
        "arithmetic": arithmetic or pf.arithmetic,
        "residual": res.relative,
        "residual_abs": res.max_abs,
        "residual_exact_zero": res.exact_zero,
    }
    return u, sidecar


def verify_problem(pf: ProblemFile, tol: float = 1e-8,
                   n1: int | None = None, n2: int | None = None,
                   arithmetic: str | None = None) -> dict:
    """Residual report of the solve; ``passed`` when the relative residual
    is at most ``tol``, which must be finite (checked before solving)."""
    if not math.isfinite(tol):
        raise PreconditionError(f"tolerance {tol!r} is not a finite number")
    _, res = _solve_checked(pf, n1, n2, arithmetic)
    return {
        "residual": res.relative,
        "residual_abs": res.max_abs,
        "residual_exact_zero": res.exact_zero,
        "window": list(res.window),
        "tol": tol,
        "passed": res.relative <= tol,
    }


def probe_problem(pf: ProblemFile, n1: int | None = None,
                  n2: int | None = None, arithmetic: str | None = None,
                  z_eval: complex = 0.0) -> dict:
    """Empirical Gevrey fit plus singular-direction probes per level."""
    pp = parse_problem(pf)
    u = formal_solve(assemble(pp, n1, n2, arithmetic))
    st1, st2 = pf.rhs_gevrey
    orders = theoretical_orders(pp.branches, pp.s1, pp.s2, st1, st2)
    fit = gevrey_fit(u)
    lres = summability_levels(pp.branches, pp.s1, pp.s2, st1, st2)
    probes = []
    for spec in lres.levels:
        try:
            pr = singular_direction_probe(u, spec.K, z_eval=z_eval)
            probes.append({"K": fmt_fraction(spec.K), "status": pr.status,
                           "directions": list(pr.directions),
                           "radius": pr.radius, "detail": pr.detail})
        except PreconditionError as exc:
            probes.append({"K": fmt_fraction(spec.K), "status": "skipped",
                           "directions": [], "radius": None,
                           "detail": str(exc)})
    return {
        "gevrey_fit": {"s_hat": fit.s_hat, "stderr": fit.stderr,
                       "j_range": list(fit.j_range), "radius": fit.radius},
        "theoretical_t_order": fmt_fraction(orders.t_order),
        "probes": probes,
    }


def newton_problem(pf: ProblemFile):
    """Polygon of the operator at the moment orders; returns (svg, csv)."""
    pp = parse_problem(pf)
    polygon = newton.build(pp.operator.support(), pp.s1, pp.s2)
    return newton.to_svg(polygon), newton.vertices_csv(polygon)
