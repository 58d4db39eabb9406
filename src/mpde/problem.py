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
``[j, i, re, im]`` quadruples; re/im may be JSON numbers or rational
strings such as ``"1/2"``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path

from . import kernel, newton
from .charroots import CharPoly, branches_at_infinity
from .errors import ParseError, PreconditionError
from .exact import QC_ZERO, RationalComplex, as_fraction, fmt_fraction
from .moments import MomentFunction
from .parsing import parse_moment, parse_operator
from .series import Series2, gevrey_fit
from .solver import (CauchyProblem, formal_solve, inflated_window, residual,
                     theoretical_orders, z_order)
from .summability import classify, levels as summability_levels, \
    singular_direction_probe

SCHEMA_VERSION = 1

_KNOWN_KEYS = {"operator", "m1", "m2", "rhs", "rhs_role", "rhs_gevrey",
               "truncation", "directions", "mode", "arithmetic"}


@dataclass(frozen=True)
class ProblemFile:
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
    role = data.get("rhs_role", "g")
    if role not in ("g", "f"):
        raise ParseError('rhs_role must be "g" or "f"')
    gevrey = data.get("rhs_gevrey", ["0", "0"])
    if not isinstance(gevrey, (list, tuple)) or len(gevrey) != 2:
        raise ParseError("rhs_gevrey must be a pair of rationals")
    try:
        gevrey = (as_fraction(gevrey[0]), as_fraction(gevrey[1]))
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad rhs_gevrey: {exc}")
    trunc = data.get("truncation", [20, 40])
    if (not isinstance(trunc, (list, tuple)) or len(trunc) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool)
                       and v >= 0 for v in trunc)):
        raise ParseError("truncation must be a pair of non-negative integers")
    dirs = data.get("directions", [0.0])
    if not isinstance(dirs, (list, tuple)) or not dirs \
            or not all(isinstance(d, (int, float)) and not isinstance(d, bool)
                       for d in dirs):
        raise ParseError("directions must be a non-empty list of reals")
    mode = data.get("mode", "direct")
    if mode not in ("direct", "pseudo"):
        raise ParseError('mode must be "direct" or "pseudo"')
    arithmetic = data.get("arithmetic", "float")
    if arithmetic not in ("float", "exact"):
        raise ParseError('arithmetic must be "float" or "exact"')
    return ProblemFile(data["operator"], data["m1"], data["m2"], rhs, role,
                       gevrey, tuple(trunc), tuple(float(d) for d in dirs),
                       mode, arithmetic)


# -- right-hand side expansion ---------------------------------------------------


def _entry_value(re, im, exact: bool):
    if exact:
        return RationalComplex(as_fraction(re), as_fraction(im))
    return complex(float(as_fraction(re)), float(as_fraction(im)))


def _quads_to_table(quads, exact: bool) -> dict:
    table = {}
    for quad in quads:
        if len(quad) != 4:
            raise ParseError(f"coefficient entries are [j, i, re, im], got {quad}")
        j, i = int(quad[0]), int(quad[1])
        if j < 0 or i < 0:
            raise ParseError("coefficient indices must be non-negative")
        val = _entry_value(quad[2], quad[3], exact)
        table[(j, i)] = table.get((j, i), _entry_value(0, 0, exact)) + val
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
        return Series2.from_entries(((j, i, v) for (j, i), v in table.items()),
                                    n1, n2, exact=exact)
    num = _quads_to_table(payload.get("num", []), exact)
    den = _quads_to_table(payload.get("den", []), exact)
    d00 = den.get((0, 0))
    if not d00:
        raise PreconditionError(
            "rational rhs needs a denominator with nonzero constant term")
    if exact:
        return Series2(_quotient_exact(num, den, n1, n2), exact=True)
    zero = _entry_value(0, 0, exact)
    rows = [[zero] * (n2 + 1) for _ in range(n1 + 1)]
    den_items = [(k, v) for k, v in sorted(den.items()) if k != (0, 0)]
    for j in range(n1 + 1):
        for i in range(n2 + 1):
            acc = num.get((j, i), zero)
            for (a, b), dv in den_items:
                if a <= j and b <= i:
                    acc = acc - dv * rows[j - a][i - b]
            rows[j][i] = acc / d00
    return Series2(rows, exact=exact)


def _quotient_exact(num: dict, den: dict, n1: int, n2: int) -> list:
    """Rows of the power series num/den, fraction-free.

    Both tables are scaled to Gaussian integers N and Q.  With q = Q_00 the
    cells ``R_{j,i} = q**(j+i+1) * (num/den)_{j,i}`` obey the integer
    recursion ``R_{j,i} = q**(j+i) N_{j,i} - sum Q_ab q**(a+b-1) R_{j-a,i-b}``
    over (a, b) != (0, 0); each cell is divided by its power of q once.
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

    terms = [(a, b, mul(v, powers[a + b - 1]))
             for (a, b), v in sorted(Q.items()) if (a, b) != (0, 0)]
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
            if acc == (0, 0):
                row.append(QC_ZERO)
                continue
            pr, pi = powers[j + i + 1]
            if pi:  # R / p = R * conj(p) / |p|**2
                (re, im), div = mul(acc, (pr, -pi)), pr * pr + pi * pi
            else:
                (re, im), div = acc, pr
            row.append(RationalComplex(Fraction(re, div), Fraction(im, div)))
        rows.append(row)
    return rows


# -- assembled problem -------------------------------------------------------------


@dataclass(frozen=True)
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
    """``(N1, N2)``: the overrides where set, else the problem file's."""
    return (pf.truncation[0] if n1 is None else n1,
            pf.truncation[1] if n2 is None else n2)


def assemble(pp: ParsedProblem, n1: int | None = None, n2: int | None = None,
             arithmetic: str | None = None) -> CauchyProblem:
    """Expand the rhs to the inflated solver window of ``(n1, n2)``.

    Unset truncation and arithmetic come from the problem file.
    """
    pf = pp.pf
    P = pp.operator
    N1, N2 = _truncation(pf, n1, n2)
    exact = (arithmetic or pf.arithmetic) == "exact"
    n2_internal = inflated_window(P, (N1, N2))
    if pf.rhs_role == "f":
        # g reconstruction consumes deg P0 columns
        n2_internal += len(P.p0()) - 1
    rhs = expand_rhs(pf.rhs, max(N1, 0), n2_internal, exact)
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
