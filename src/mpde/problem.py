"""Problem files and analysis orchestration.

A problem file is a JSON object with the fields

* ``operator``   - operator expression, e.g. ``"dt - dz^2"``
* ``m1``, ``m2`` - moment expressions, e.g. ``"Gamma(1)"``
* ``rhs``        - ``{"kind": "coeffs" | "rational", "payload": ...}``
* ``rhs_role``   - ``"g"`` (default) or ``"f"``
* ``rhs_gevrey`` - declared Gevrey orders ``[st1, st2]`` as rational strings
* ``truncation`` - requested output window ``[N1, N2]``
* ``directions`` - list of real directions (radians)
* ``mode``       - ``"direct"`` (a constant top lambda coefficient, which
  :func:`assemble` checks) or ``"pseudo"`` (any top)
* ``arithmetic`` - ``"float"`` or ``"exact"``

Unknown keys are rejected, in the problem, in its ``rhs`` object and in a
``rational`` payload, and so are JSON booleans where a truncation or a
direction is expected.  Coefficient payloads are lists of
``[j, i, re, im]`` quadruples (``num`` and ``den`` of a ``rational``
payload object): j, i non-negative integers; re, im and the ``rhs_gevrey``
entries finite non-boolean numbers or rational strings such as ``"1/2"``.

A loaded :class:`ProblemFile` holds its rhs as parsed at load
(:func:`parse_rhs`), and parses its operator, into one
:class:`~mpde.charroots.CharPoly` of Gaussian rationals, and both moment
expressions once; :func:`assemble` and every report read these parses.

A ``rational`` rhs num/den is expanded on the solver grid by the solver's
own recursion (:func:`mpde.kernel.recurrence` and ``recurrence_float``):
``den * R = num`` is a pseudo-mode solve with unit moments and num as an f
rhs, run over the live rows only.  A float problem that sums or divides
its entries past binary64 fails naming them.  Every rhs grid, the
numerator band of the division included, comes from
:meth:`Series2.from_entries`; :func:`assemble` expands it on the t-rows
it can be nonzero on only, and the solve reads the rows past them as
zero.  Grids above ``MAX_GRID_CELLS`` are rejected
before they, or the solver's level widths, are allocated, and exact solves
whose moment values would pass ``MAX_EXACT_BYTES`` before the rhs is built.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from fractions import Fraction
from functools import cached_property
from pathlib import Path

from . import kernel, moments, newton
from .charroots import branches_at_infinity
from .errors import ParseError, PreconditionError
from .exact import RationalComplex, as_rational, fmt_fraction
from .parsing import parse_moment, parse_operator
from .record import record
from .series import FIT_MIN_POINTS, LEAST_FIT_TRUNCATION, Series2, gevrey_fit
from .solver import (CauchyProblem, _recursion_terms, formal_solve,
                     level_widths, residual, rounded_recursion,
                     theoretical_orders)
from .summability import classify, levels as summability_levels, \
    singular_direction_probe

SCHEMA_VERSION = 1

_ZERO = RationalComplex(0)

_KNOWN_KEYS = {"operator", "m1", "m2", "rhs", "rhs_role", "rhs_gevrey",
               "truncation", "directions", "mode", "arithmetic"}


@record
class ProblemFile:
    """A problem file as loaded and validated.  ``rhs`` is the rhs as
    :func:`parse_rhs` parsed it at load; the expressions are parsed once,
    when :attr:`parsed` is first read."""

    operator: str
    m1: str
    m2: str
    rhs: tuple
    rhs_role: str = "g"
    rhs_gevrey: tuple = (0, 0)
    truncation: tuple = (20, 40)
    directions: tuple = (0.0,)
    mode: str = "direct"
    arithmetic: str = "float"

    @cached_property
    def parsed(self) -> tuple:
        """``(CharPoly, m1, m2)``: the operator and both moment functions,
        parsed together on first use."""
        return (parse_operator(self.operator), parse_moment(self.m1),
                parse_moment(self.m2))


def load_problem(source) -> ProblemFile:
    """Load and validate a problem file (path, JSON text, or dict).

    A string whose first non-blank character is ``{`` or ``[`` is JSON text;
    any other string is a path.  A path that cannot be read, text that is
    not one JSON object and an invalid field are each a ParseError.
    """
    if isinstance(source, str) and source.lstrip()[:1] in ("{", "["):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid problem JSON: {exc}")
    elif isinstance(source, (str, Path)):
        try:
            data = json.loads(Path(source).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON in {source}: {exc}")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{source} is not UTF-8 text: {exc}") from None
        except OSError as exc:
            raise ParseError(f"cannot read the problem file {source}: "
                             f"{exc.strerror or exc}") from None
    else:
        data = dict(source)
    if not isinstance(data, dict):
        raise ParseError(f"a problem file holds one JSON object, got "
                         f"{json.dumps(data)[:40]}")
    _no_unknown_keys(data, _KNOWN_KEYS, "problem")
    for required in ("operator", "m1", "m2", "rhs"):
        if required not in data:
            raise ParseError(f"problem file is missing {required!r}")
    for text in ("operator", "m1", "m2"):
        if not isinstance(data[text], str):
            raise ParseError(f"{text} must be a string, got "
                             f"{json.dumps(data[text], default=str)[:40]}")
    rhs = parse_rhs(data["rhs"])
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


def _rational(value) -> int | Fraction:
    """``value`` as an exact rational, an int where it is integral and a
    Fraction otherwise: a finite number that is not a boolean, or a rational
    string with a nonzero denominator; else ParseError."""
    if not isinstance(value, bool):
        try:
            return as_rational(value)
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            pass
    raise ParseError(f"{json.dumps(value, default=str)} is not a finite "
                     f"number or a rational string with a nonzero denominator")


def _no_unknown_keys(obj: dict, known, what: str) -> None:
    unknown = set(obj) - known
    if unknown:
        raise ParseError(f"unknown {what} keys: {sorted(unknown)}")


def parse_rhs(spec) -> tuple:
    """``(num, den)``: the entries of the rhs object ``spec``, each a tuple
    ``(j, i, re, im, quad)`` with re and im exact rationals and quad the
    entry as written, as a tuple, which the float overflow messages quote.  A
    ``coeffs`` payload is num and den is None.  A malformed rhs, an unknown
    key in it or in a ``rational`` payload, and a malformed entry are each
    a ParseError."""
    if not isinstance(spec, dict) or spec.get("kind") not in ("coeffs", "rational"):
        raise ParseError('rhs must be {"kind": "coeffs"|"rational", "payload": ...}')
    if "payload" not in spec:
        raise ParseError("rhs is missing its payload")
    _no_unknown_keys(spec, {"kind", "payload"}, "rhs")
    payload = spec["payload"]
    if spec["kind"] == "coeffs":
        return _entries(payload, "rhs"), None
    if not isinstance(payload, dict):
        raise ParseError('a rational rhs payload is an object '
                         '{"num": [...], "den": [...]}')
    _no_unknown_keys(payload, {"num", "den"}, "rational rhs payload")
    return (_entries(payload.get("num", []), "rhs num"),
            _entries(payload.get("den", []), "rhs den"))


def _entries(quads, where: str) -> tuple:
    """``(j, i, re, im, quad)`` of each entry ``quad`` of the coefficient
    list ``quads``; every entry must be ``[j, i, re, im]`` with non-negative
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
                out.append((*quad[:2], _rational(quad[2]),
                            _rational(quad[3]), tuple(quad)))
                continue
            except ParseError as exc:
                fault = f": value {exc}"
        raise ParseError(f"{where} entry {json.dumps(quad, default=str)}"
                         f"{fault}")
    return tuple(out)


# -- right-hand side expansion ---------------------------------------------------


def _table(entries, exact: bool, where: str) -> dict:
    """{(j, i): value} of the parsed ``entries``, repeated ones summed in
    order; a float entry, or a float sum of repeated ones, beyond binary64
    raises EvaluationError naming it."""
    table = {}
    zero = _ZERO if exact else 0j
    for j, i, re, im, quad in entries:
        try:
            val = RationalComplex(re, im) if exact else complex(re, im)
        except OverflowError:
            raise kernel.beyond_binary64(
                f"{where} entry {json.dumps(quad, default=str)} is") from None
        table[(j, i)] = total = table.get((j, i), zero) + val
        if not (exact or cmath.isfinite(total)):
            raise kernel.beyond_binary64(
                f"{where} entries at [{j}, {i}] add up")
    return table


def expand_rhs(rhs: tuple, n1: int, n2: int, exact: bool) -> Series2:
    """Materialize the parsed rhs ``(num, den)`` of :func:`parse_rhs` on
    the (n1, n2) grid.

    A ``coeffs`` rhs (den None) is a finite polynomial, zero-padded; a
    ``rational`` one expands num/den as a power series on the solver's
    recursion (:func:`_divide`), exact in rational mode.
    """
    num, den = rhs
    table = _table(num, exact, "rhs" if den is None else "rhs num")
    if den is not None:
        den = _table(den, exact, "rhs den")
        if not den.get((0, 0)):
            raise PreconditionError(
                "rational rhs needs a denominator with nonzero constant term")
        table = {k: v for k, v in table.items() if k[0] <= n1 and k[1] <= n2}
        if table:  # else num/den is zero on the grid
            return Series2(_divide(table, den, n1, n2, exact), exact=exact)
    return Series2.from_entries(((j, i, v) for (j, i), v in table.items()),
                                n1, n2, exact)


def _divide(num: dict, den: dict, n1: int, n2: int, exact: bool):
    """Raw lanes (exact) or read-only numpy grid (float) of the power
    series ``R = num/den`` on the (n1, n2) grid, num nonzero there.

    With ``zeta = 1/z``, B the largest z-power and n the largest t-power of
    den's nonzero terms in the grid, ``den * R = num`` is the recursion that
    :func:`formal_solve` runs in pseudo mode for the operator whose
    ``lambda**(n-a)`` coefficient is ``sum_b d_ab zeta**(B-b)``, with unit
    moments and num as an f rhs: its level ``n + j`` is row j of R, B
    columns up.  Only the live band of rows runs, from the first row with a
    numerator entry in the grid to the last row or, when den has no term in
    t (n = 0, so rows are independent), to the last numerator row; every
    other cell is zero; the kernel gets the band and unit moment tables,
    so that its float levels are z-normalized with kappa = 0 and M2 = 1,
    the raw coefficients themselves.
    Float mode divides den's float table exactly, and
    :func:`mpde.solver.rounded_recursion` rounds the recursion's
    coefficients once, for the kernel, so that one beyond binary64 raises
    EvaluationError naming its den term.
    The float grid is float64 when num and den are real, complex128
    otherwise, and holds the kernel's levels on every column, unchecked:
    its non-finite cells may lie where the solver, which checks its own
    output window, never reads.
    """
    den = {k: RationalComplex.coerce(v) for k, v in den.items()
           if v and k[0] <= n1 and k[1] <= n2}
    n, B = max(a for a, _ in den), max(b for _, b in den)
    rows = [[_ZERO] * (B + 1) for _ in range(n + 1)]
    for (a, b), v in den.items():
        rows[n - a][B - b] = v
    terms, taps = _recursion_terms(rows, rows[n])
    q = 1 / rows[n][B]
    if not exact:
        q, terms, taps = rounded_recursion(
            q, terms, taps, "1 over rhs den term [0, 0]",
            lambda a, b: f"rhs den term [{a}, {-b}] over term [0, 0]")
    lo = min(j for j, _ in num)
    hi = n1 if n else max(j for j, _ in num)
    band = Series2.from_entries(((j - lo, i, v) for (j, i), v in num.items()),
                                hi - lo, n2, exact)
    widths = [B + n2] * (n + hi - lo + 1)
    if exact:
        w1, w2 = [1] * len(widths), [1] * (B + n2 + 1)
        v = kernel.recurrence(kernel.rescale(band.lanes, w1, w2, hi - lo, n2),
                              q, terms, n, widths, w1, w2, taps, -B)

        def grid_rows(lane):
            return ([[0] * (n2 + 1) for _ in range(lo)]
                    + [row[B:] for row in lane[n:]]
                    + [[0] * (n2 + 1) for _ in range(n1 - hi)])
        return kernel.RawLanes(
            grid_rows(v.re), None if v.im is None else grid_rows(v.im),
            [1] * lo + v.row_div[n:] + [1] * (n1 - hi), v.col_div[B:])
    import numpy as np

    levels = kernel.recurrence_float(band.grid, q, terms, n, widths,
                                     np.zeros(len(widths)),
                                     np.zeros(B + n2 + 1), taps, -B)
    # R from level n, B columns up
    out = np.zeros((n1 + 1, n2 + 1), dtype=levels.dtype)
    out[lo: hi + 1] = levels[n:, B:]
    return kernel.read_only(out)


# -- assembled problem -------------------------------------------------------------


def _truncation(pf: ProblemFile, n1, n2) -> tuple:
    """``(N1, N2)``: the overrides where set, else the problem file's; a
    negative override raises PreconditionError before anything is built."""
    for name, value in (("--n1", n1), ("--n2", n2)):
        if value is not None and value < 0:
            raise PreconditionError(f"truncation override {name} {value} "
                                    f"is negative")
    return (pf.truncation[0] if n1 is None else n1,
            pf.truncation[1] if n2 is None else n2)


def _arithmetic(pf: ProblemFile, arithmetic) -> str:
    """The arithmetic override, else the file's; PreconditionError if bad."""
    if arithmetic not in (None, "float", "exact"):
        raise PreconditionError(f'arithmetic must be "float" or "exact", '
                                f'got {arithmetic!r}')
    return arithmetic or pf.arithmetic


# Largest rhs grid ``(N1+1) * (w[0] + 1)`` that ``assemble`` expands, w the
# solver's ``level_widths``, for either ``rhs_role``.  A float solve holds
# the rhs grid (16 bytes a complex cell in numpy) and its copy scaled by M2,
# the output window, a ring of about n + 8 levels and one residual block of
# 64 KiB: by tracemalloc, transport's (400, 400) verify peaks at 1.77 MiB,
# its window 1.23 MiB of it.  Reading the window's rows as Python complex
# (``Series2.coeffs``) adds about 48 bytes a cell, and exact cells cost
# several times more.  The cap stops a mistyped truncation before it
# allocates, at about 10x the largest grid of the benchmark ladders (heat
# (200, 100), 100,701 cells).  Exact moment values grow with the
# truncation, so they have their own cap.
MAX_GRID_CELLS = 1_000_000

# Most bytes of moment values that ``assemble`` admits in an exact solve
# (``_check_exact_bytes``): a float solve at the cap holds about 100 MB by
# the model above, three complex grids of 16 MB in numpy and its window's
# Python rows, and an exact one may spend about twice as much.
MAX_EXACT_BYTES = 2 ** 28


def assemble(pf: ProblemFile, n1: int | None = None, n2: int | None = None,
             arithmetic: str | None = None) -> CauchyProblem:
    """Expand the rhs to the widest solver level of ``(n1, n2)``, on the
    t-rows it can be nonzero on (:func:`_rhs_rows`): the problem has
    ``rhs_zero_past`` set, so the solver and the residual read the rows
    past them, up to N1, as zero.

    Unset truncation and arithmetic come from the problem file
    (:func:`_arithmetic`).  A ``"direct"`` file whose top lambda
    coefficient is not a constant is rejected first.  Before anything is
    allocated, a grid above ``MAX_GRID_CELLS`` is rejected, its lower bound
    ``(N1+1) * (N2+1)`` before the level widths, which the rhs and the
    solver share, are built; so is a moment whose largest Gamma argument,
    or the log-Gamma of that argument, is beyond binary64, in both
    arithmetics, and an exact solve whose moment values the widths show to
    take more than ``MAX_EXACT_BYTES``.
    """
    P, m1, m2 = pf.parsed
    N1, N2 = _truncation(pf, n1, n2)
    exact = _arithmetic(pf, arithmetic) == "exact"
    if pf.mode == "direct" and P.B > 0:
        raise PreconditionError(
            "direct mode requires a constant top lambda coefficient; "
            "use pseudo mode")
    _check_cells(N1, N2, N2, "at least ")
    widths = level_widths(P, (N1, N2))
    _check_cells(N1, N2, widths[0], "")
    # arguments grow with the index: the last of a table is the largest,
    # and so is its log-Gamma, which is below 745 for arguments below 1.5
    for name, m, k in (("m1", m1, N1 + P.n), ("m2", m2, widths[0] + P.max_b)):
        for _, _, A, B, D in moments.argument_lines(m):
            if A + k * B >= D * moments.INF_EDGE:
                raise PreconditionError(
                    f"the Gamma argument b + j/k of {name} at index {k} is "
                    f"beyond the binary64 range; lower --n1 or --n2")
            # the Lanczos body overflows first, at arguments near 2.556e305,
            # where math.lgamma does near 2.560e305
            if not math.isfinite(moments.log_gamma((A + k * B) / D)):
                raise PreconditionError(
                    f"the log-Gamma of the argument b + j/k of {name} at "
                    f"index {k} is beyond the binary64 range; lower --n1 or "
                    f"--n2")
    if exact:
        _check_exact_bytes(P, m1, m2, N1, N2, widths[0])
    rhs = expand_rhs(pf.rhs, _rhs_rows(pf.rhs, N1), widths[0], exact)
    prob = CauchyProblem(P, m1, m2, rhs, (N1, N2),
                         rhs_is_g=pf.rhs_role == "g", rhs_zero_past=True)
    vars(prob)["widths"] = widths  # the cached_property's own slot
    return prob


def _rhs_rows(rhs: tuple, N1: int) -> int:
    """Last t-row, at most N1, that the parsed rhs ``(num, den)`` can be
    nonzero on: a ``coeffs`` rhs's last entry row; a ``rational`` one's
    last num row when den has no term in t, so that the rows of num/den
    are independent; N1 otherwise."""
    num, den = rhs
    if den is not None and any(j for j, *_ in den):
        return N1
    return min(max((j for j, *_ in num), default=0), N1)


def _check_cells(N1: int, N2: int, width: int, bound: str) -> None:
    """PreconditionError when ``(N1+1) * (width+1)`` cells, the solver grid
    of (N1, N2) or, ``bound`` "at least ", a lower bound of it, top the cap."""
    cells = (N1 + 1) * (width + 1)
    if cells > MAX_GRID_CELLS:
        raise PreconditionError(
            f"the solver grid of truncation ({N1}, {N2}) has {bound}{cells} "
            f"cells ({N1 + 1} x {width + 1}), above the cap of "
            f"{MAX_GRID_CELLS}; lower --n1 or --n2")


def _check_exact_bytes(P, m1, m2, N1: int, N2: int, width: int) -> None:
    """PreconditionError when the moment values of an exact solve, sized
    by :func:`moments.log_sizes`, pass ``MAX_EXACT_BYTES``: the tables of
    ``CauchyProblem.fraction_tables``, and a grid of lanes, the normalized
    rhs, whose cell (t, i), t <= N1, i <= width, carries m1(t) * m2(i)."""
    b1 = moments.log_sizes(m1, N1 + P.n)
    b2 = moments.log_sizes(m2, width + P.max_b)
    lanes = (width + 1) * sum(b1[: N1 + 1]) + (N1 + 1) * sum(b2[: width + 1])
    nbytes = (sum(b1) + sum(b2) + lanes) / math.log(256)
    if nbytes > MAX_EXACT_BYTES:
        raise PreconditionError(
            f"an exact solve of truncation ({N1}, {N2}) needs about "
            f"{nbytes / 2**20:,.0f} MiB of moment values, above the budget of "
            f"{MAX_EXACT_BYTES >> 20} MiB; lower --n1 or --n2, or use "
            f"--arithmetic float")


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


def analyze_problem(pf: ProblemFile) -> dict:
    """Full analysis report: branches, polygon, orders, summability."""
    P, m1, m2 = pf.parsed
    s1, s2, branches = m1.order, m2.order, branches_at_infinity(P)
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
        cc = newton.cross_check(polygon, branches, s1, s2, P.B)
        report["newton"] = {
            "vertices": [[fmt_fraction(x), fmt_fraction(y)]
                         for x, y in polygon.vertices],
            "slopes": [fmt_fraction(k) for k in newton.slopes(polygon)],
            "p0_degree": P.B,
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
    P = pf.parsed[0]
    N1, N2 = _truncation(pf, n1, n2)
    n, max_b = P.n, P.max_b
    if N1 < n or N2 < max_b:
        raise PreconditionError(
            f"truncation ({N1}, {N2}) is below the operator orders "
            f"({n}, {max_b}); the residual needs N1 >= {n} and N2 >= {max_b}")
    prob = assemble(pf, N1, N2, arithmetic)
    u = formal_solve(prob)
    return u, residual(prob, u)


def _residual_fields(res) -> dict:
    """The residual fields of the solve sidecar and the verify report; a
    NaN or infinite value is null, which strict JSON parsers accept."""
    fields = {"residual": res.relative, "residual_abs": res.max_abs}
    return {"residual_exact_zero": res.exact_zero,
            **{k: x if math.isfinite(x) else None for k, x in fields.items()}}


def solve_problem(pf: ProblemFile, n1: int | None = None,
                  n2: int | None = None, arithmetic: str | None = None):
    """Solve and return (solution series, sidecar dict)."""
    u, res = _solve_checked(pf, n1, n2, arithmetic)
    sidecar = {
        "valid_window": [u.valid[0], u.valid[1]],
        "mode": pf.mode,
        "arithmetic": _arithmetic(pf, arithmetic),
        **_residual_fields(res),
    }
    return u, sidecar


def verify_problem(pf: ProblemFile, tol: float = 1e-8,
                   n1: int | None = None, n2: int | None = None,
                   arithmetic: str | None = None) -> dict:
    """Residual report of the solve; ``passed`` when the relative residual
    is at most ``tol``, which must be finite and not negative (checked
    before solving)."""
    if not math.isfinite(tol):
        raise PreconditionError(f"tolerance {tol!r} is not a finite number")
    if tol < 0:
        raise PreconditionError(f"tolerance {tol!r} is negative")
    _, res = _solve_checked(pf, n1, n2, arithmetic)
    return {
        **_residual_fields(res),
        "window": list(res.window),
        "tol": tol,
        "passed": res.relative <= tol,
    }


def probe_problem(pf: ProblemFile, n1: int | None = None,
                  n2: int | None = None, arithmetic: str | None = None
                  ) -> dict:
    """Empirical Gevrey fit plus singular-direction probes per level; a
    t-truncation too short for the fit, and branch data that cannot be
    built, are rejected before the solve."""
    P, m1, m2 = pf.parsed
    N1, N2 = _truncation(pf, n1, n2)
    if N1 < LEAST_FIT_TRUNCATION:
        raise PreconditionError(
            f"probe needs --n1 >= {LEAST_FIT_TRUNCATION}, so that its Gevrey fit has "
            f"{FIT_MIN_POINTS} t-levels to read; got N1 = {N1}")
    branches, s1, s2 = branches_at_infinity(P), m1.order, m2.order
    st1, st2 = pf.rhs_gevrey
    orders = theoretical_orders(branches, s1, s2, st1, st2)
    lres = summability_levels(branches, s1, s2, st1, st2)
    u = formal_solve(assemble(pf, N1, N2, arithmetic))
    fit = gevrey_fit(u)
    probes = []
    for spec in lres.levels:
        try:
            pr = singular_direction_probe(u, spec.K)
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
    P, m1, m2 = pf.parsed
    polygon = newton.build(P.support(), m1.order, m2.order)
    return newton.to_svg(polygon), newton.vertices_csv(polygon)
