"""Differential property tests: independent routes through mpde must agree.

Operators are drawn with a constant top coefficient ``p_n`` at (n, 0),
orders n <= 3 in t and <= 3 in z, Gaussian-rational coefficients, Gamma(1)
or Gamma(1/2)/Gamma(3/2) moments, small grids, and both rhs roles; for
pseudo mode also with a top coefficient ``A_n(zeta)`` of degree 0, 1 or 2,
a monomial or not.
Rational right-hand sides are drawn with real or complex entries, a
constant denominator term in {1, 2, 3, -1, 1/2, 3+i, 1-3i, -2i} (and -2,
-3/2, -2+i for the exact expansion), further denominator terms in t, in
z and mixed, and numerators anywhere, on one row, above row 0 or empty.
Exact series built from integer lanes (solver, operator and rhs outputs)
are checked against the series built from their ``coeffs`` rows, with
right-hand sides scaled towards the ends of the binary64 range.
Edge polynomials are drawn as Gaussian-rational products of linear factors,
roots on the positive real axis included.  The moment Borel transforms and
moment derivatives are drawn on Series1 and Series2 (both axes, windows
smaller than the grid), seven moment functions and one that is undefined at
0, each factor's k multiplied by 1-3, and ``times`` up to past the
truncation, with float data scaled by 1, 1e+-300, 1e-310 and 1e-323, signed
zeros and a few non-finite parts.  A Gaussian rational hashes as the int, Fraction, float
or complex number it equals, and computes as the pair of Fractions of its
parts, drawn from ints, Fractions, floats and complex numbers.  Exact
solves are scaling covariant: ``u(c t, c' z)`` solves the problem scaled
by small Gaussian-rational ``c, c'``, on the draws and on the shipped
problems.
"""

import cmath
import dataclasses
import json
import math
import operator
import re
import sys
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import brute_force
import outputs
from helpers import LOG_ULPS, larger_k, log_magnitude, transposed
from oracles import (borel_cells, csv_cells, edge_roots_numpy,
                     exact_gevrey_fit_cells, exact_grid_cells, laurent_solve,
                     laurent_terms, moment_shift_cells, rational_rhs_exact,
                     rational_rhs_float, rational_rhs_sizes, residual_cells,
                     wide_width)
from routes import (Series1, apply_operator, borel, eval_at, g_from_f,
                    inv_borel, moment_antidiff, moment_diff, operator_to_text,
                    operator_window, row_values)

from mpde import kernel
from mpde.charroots import CharPoly, _edge_roots
from mpde.errors import EvaluationError, WindowError
from mpde.exact import RationalComplex
from mpde.moments import (MOMENT_ONE, MomentFactor, MomentFunction,
                          fraction_table, log_gamma, log_rational, log_table,
                          scaled_eval)
from mpde.parsing import parse_moment
from mpde.problem import (_table, assemble, expand_rhs, load_problem,
                          parse_rhs, probe_problem, solve_problem,
                          verify_problem)
from mpde.series import Series2, gevrey_fit
from mpde.solver import CauchyProblem, formal_solve, level_widths, residual

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])

MOMENTS = ((parse_moment("Gamma(1)"), parse_moment("Gamma(1)")),
           (parse_moment("Gamma(1/2)"), parse_moment("Gamma(3/2)")))

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
gaussians = st.tuples(fractions, st.one_of(st.just(Fraction(0)), fractions))
nonzero_gaussians = gaussians.filter(lambda x: x[0] or x[1])


@dataclasses.dataclass
class Case:
    table: dict   # (a, b) -> Gaussian pair
    m1: object
    m2: object
    rhs: dict     # (j, i) -> Gaussian pair
    shape: tuple  # rows and columns of the rhs grid
    out: tuple    # (N1, N2)
    rhs_is_g: bool

    def problem(self, exact=True, scale=1.0) -> CauchyProblem:
        P = CharPoly.from_table({k: RationalComplex(*v)
                                 for k, v in self.table.items()})
        if exact:
            entries = [(j, i, RationalComplex(*v)) for (j, i), v in self.rhs.items()]
        else:
            entries = [(j, i, complex(RationalComplex(*v)) * scale)
                       for (j, i), v in self.rhs.items()]
        rhs = Series2.from_entries(entries, *self.shape, exact=exact)
        return CauchyProblem(P, self.m1, self.m2, rhs, self.out,
                             rhs_is_g=self.rhs_is_g)

    def oracle(self, magnitude=False):
        return brute_force.solve(self.table, self.m1, self.m2, self.rhs,
                                 *self.out, rhs_is_g=self.rhs_is_g,
                                 magnitude=magnitude)


@st.composite
def cases(draw):
    n = draw(st.integers(1, 3))
    table = {(n, 0): draw(nonzero_gaussians)}
    table.update(draw(st.dictionaries(
        st.tuples(st.integers(0, n - 1), st.integers(0, 3)),
        nonzero_gaussians, min_size=1, max_size=4)))
    m1, m2 = draw(st.sampled_from(MOMENTS))
    n1, n2 = draw(st.integers(0, 5)), draw(st.integers(0, 4))
    max_b = max(b for _, b in table)
    shape = (max(n1 - n, 0), n2 + n1 * max_b)
    rhs = draw(st.dictionaries(
        st.tuples(st.integers(0, shape[0]), st.integers(0, shape[1])),
        nonzero_gaussians, max_size=6))
    return Case(table, m1, m2, rhs, shape, (n1, n2), draw(st.booleans()))


@SETTINGS
@given(cases())
def test_exact_solve_matches_brute_force(case):
    u = formal_solve(case.problem())
    want = case.oracle()
    got = [[(c.re, c.im) for c in row] for row in u.coeffs]
    assert got == want


@SETTINGS
@given(cases())
def test_exact_residual_is_identically_zero(case):
    prob = case.problem()
    try:
        rep = residual(prob, formal_solve(prob))
    except WindowError:
        assume(False)  # truncation below the operator order
    assert rep.exact_zero and rep.max_abs == 0.0 and rep.relative == 0.0


def _solve_or_error(prob):
    try:
        return formal_solve(prob)
    except EvaluationError as exc:
        return str(exc)


def _declared(case: Case, mode: str, arithmetic: str):
    """CSV text and sidecar of solving ``case`` as a problem file that
    declares ``mode``, or the message of the error it raises; the
    truncation is raised to the operator orders, which the residual needs."""
    P = case.problem().operator
    m1, m2 = (("Gamma(1)", "Gamma(1)"), ("Gamma(1/2)", "Gamma(3/2)"))[
        MOMENTS.index((case.m1, case.m2))]
    payload = [[j, i, str(re), str(im)]
               for (j, i), (re, im) in case.rhs.items()]
    pf = load_problem({
        "operator": operator_to_text(P), "m1": m1, "m2": m2,
        "rhs": {"kind": "coeffs", "payload": payload},
        "rhs_role": "g" if case.rhs_is_g else "f",
        "truncation": [max(case.out[0], P.n), max(case.out[1], P.max_b)],
        "mode": mode})
    try:
        u, sidecar = solve_problem(pf, arithmetic=arithmetic)
    except Exception as exc:  # the same failure in both declarations
        return f"{type(exc).__name__}: {exc}"
    return u.to_csv(), sidecar


@SETTINGS
@given(cases())
def test_direct_and_pseudo_modes_agree_bit_for_bit(case):
    # the declared mode is not read past assemble: files that differ only in
    # it, with a constant top coefficient, write the same CSV bytes and the
    # same residual fields, or fail alike, in both arithmetics
    for arithmetic in ("exact", "float"):
        direct, pseudo = (_declared(case, mode, arithmetic)
                          for mode in ("direct", "pseudo"))
        if isinstance(direct, str):
            assert direct == pseudo
            continue
        assert direct[0] == pseudo[0]
        assert ({**direct[1], "mode": "pseudo"} == pseudo[1]
                and direct[1]["mode"] == "direct")


@SETTINGS
@given(cases())
def test_float_matches_exact_or_raises(case):
    """Float error is measured against the term-magnitude bound of each cell
    (the recursion run on moduli, see brute_force.solve), the scale of the
    rounding error, not against the possibly cancelled value itself."""
    exact = formal_solve(case.problem())
    try:
        approx = formal_solve(case.problem(exact=False))
    except EvaluationError:
        return
    bound = case.oracle(magnitude=True)
    for j, row in enumerate(approx.coeffs):
        for i, c in enumerate(row):
            err = abs(c - complex(exact.coeffs[j][i]))
            assert err <= 1e-9 * float(bound[j][i][0])


@st.composite
def pseudo_cases(draw):
    """Operators whose top coefficient ``A_n(zeta)`` has degree 0, 1 or 2,
    a monomial ``c * zeta**deg`` among them."""
    n = draw(st.integers(1, 2))
    deg = draw(st.integers(0, 2))
    monomial = draw(st.booleans())
    table = {(n, b): v for b in range(deg)
             if not monomial and ((v := draw(gaussians))[0] or v[1])}
    table[(n, deg)] = draw(nonzero_gaussians)
    table.update(draw(st.dictionaries(
        st.tuples(st.integers(0, n - 1), st.integers(0, 3)),
        nonzero_gaussians, min_size=1, max_size=4)))
    m1, m2 = draw(st.sampled_from(MOMENTS))
    n1, n2 = draw(st.integers(0, 6)), draw(st.integers(0, 4))
    max_b = max(b for _, b in table)
    shape = (max(n1 - n, 0), n2 + n1 * max_b)
    rhs = draw(st.dictionaries(
        st.tuples(st.integers(0, shape[0]), st.integers(0, shape[1])),
        nonzero_gaussians, max_size=6))
    return Case(table, m1, m2, rhs, shape, (n1, n2), draw(st.booleans()))


def _at_truncation(case: Case, out) -> Case:
    """``case`` at the truncation ``out``, its rhs grid sized as ``cases``
    sizes it."""
    n = max(a for a, _ in case.table)
    max_b = max(b for _, b in case.table)
    return dataclasses.replace(case, out=out, shape=(
        max(out[0] - n, 0), out[1] + out[0] * max_b))


@SETTINGS
@given(st.one_of(cases(), pseudo_cases()), st.booleans(), st.booleans(),
       st.integers(-1, 2), st.integers(-2, 2))
# (1+dz)*dt - 1, whose top has the largest z-degree: a u two columns wider
# reads rhs columns past those the recursion reads, in both roles
@example(Case({(1, 0): (1, 0), (1, 1): (1, 0), (0, 0): (-1, 0)}, *MOMENTS[1],
              {(0, 0): (1, 0), (1, 2): (Fraction(1, 2), 1)}, (0, 0), (3, 2),
              True), True, False, 0, 2)
@example(Case({(1, 0): (1, 0), (1, 1): (1, 0), (0, 0): (-1, 0)}, *MOMENTS[1],
              {(0, 0): (1, 0), (1, 2): (Fraction(1, 2), 1)}, (0, 0), (3, 2),
              True), False, False, 0, 2)
def test_exact_residual_equals_the_per_cell_oracle(case, rhs_is_g,
                                                   at_orders, d1, d2):
    """The exact residual, whose rhs side is the normalized rhs the solve
    shares, reports the ``max_abs``, ``exact_zero`` and ``relative`` of
    ``oracles.residual_cells``, one Gaussian rational per cell, on the
    window of u's and the rhs's valid windows less the operator orders: in
    both rhs roles, at the drawn truncation or at the operator orders, for
    the solve's own u, for a u solved at a truncation (d1, d2) away, which
    may read rhs cells the recursion does not, and for twice the solve's
    u, whose residual is the rhs side."""
    n = max(a for a, _ in case.table)
    max_b = max(b for _, b in case.table)
    N1, N2 = (n, max_b) if at_orders else (max(case.out[0], n),
                                           max(case.out[1], max_b))
    case = _at_truncation(dataclasses.replace(case, rhs_is_g=rhs_is_g),
                          (N1, N2))
    other = _at_truncation(case, (max(N1 + d1, n), max(N2 + d2, max_b)))
    prob = case.problem()
    P = prob.operator
    B = P.B if rhs_is_g else 0
    u = formal_solve(prob)
    doubled = Series2([[c * 2 for c in row] for row in u.coeffs], exact=True)
    for u in (u, formal_solve(other.problem()), doubled):
        rep = residual(prob, u)
        (J_u, I_u), (J_g, I_g) = u.valid, prob.rhs.valid
        assert rep.window == (min(J_u - P.n, J_g), min(I_u - P.max_b, I_g - B))
        max_abs, scale = residual_cells(prob, u, rep.window)
        try:
            want = float(max_abs)
        except OverflowError:
            want = math.inf
        assert (rep.max_abs, rep.exact_zero) == (want, max_abs == 0)
        assert rep.relative == (float(max_abs / scale) if scale
                                else float(max_abs != 0))


def _rebuilt(prob: CauchyProblem, **changes) -> CauchyProblem:
    """A new CauchyProblem of ``prob``'s fields, with ``changes``."""
    fields = {name: getattr(prob, name)
              for name in CauchyProblem.__match_args__}
    return CauchyProblem(**{**fields, **changes})


def _solve_and_residual(prob) -> tuple:
    """What a solve of ``prob`` gives: the float grid's dtype and bytes, or
    the exact lanes, and the repr of the residual report (NaN and signs of
    zero included); or the message of the error either raises."""
    try:
        u = formal_solve(prob)
    except EvaluationError as exc:
        return str(exc)
    got = u.lanes if u.exact else (u.grid.dtype, u.grid.tobytes())
    try:
        return got, repr(residual(prob, u))
    except (EvaluationError, WindowError) as exc:
        return got, str(exc)


# -dt - dz^2 with an f rhs on row 0: the base's scale 1/(-1) makes the
# levels past the rhs rows start from -0.0, as a zero row of the base did,
# and subtracting +0.0 keeps it
NEGATIVE_TOP_F = Case({(1, 0): (Fraction(-1), Fraction(0)),
                       (0, 2): (Fraction(-1), Fraction(0))}, *MOMENTS[0],
                      {(0, 0): (Fraction(1), Fraction(0))}, (5, 17), (6, 5),
                      False)
# (2+dz)*dt - dz^2 with an f rhs on row 0: f enters shifted down by B = 1,
# so the levels past the rhs rows read the base downward
POLYNOMIAL_TOP_F = Case({(1, 0): (Fraction(2), Fraction(0)),
                         (1, 1): (Fraction(1), Fraction(0)),
                         (0, 2): (Fraction(-1), Fraction(0))},
                        *MOMENTS[1], {(0, 0): (Fraction(1), Fraction(0)),
                                      (0, 3): (Fraction(1, 2), Fraction(0))},
                        (5, 17), (6, 5), False)


@SETTINGS
@given(st.one_of(cases(), pseudo_cases()), st.booleans(), st.integers(0, 6))
@example(NEGATIVE_TOP_F, False, 0)
@example(POLYNOMIAL_TOP_F, False, 0)
def test_a_rhs_zero_past_its_rows_solves_as_the_zero_padded_rhs(
        case, rhs_is_g, extra):
    """A rhs stored up to row ``cut``, at or past its last entry row, with
    ``rhs_zero_past``, gives the solve and the residual, bit for bit, of
    the same rhs zero-padded to the N1 rows of the truncation with the
    default field, in both arithmetics and both rhs roles."""
    case = dataclasses.replace(case, rhs_is_g=rhs_is_g)
    n1, width = case.out[0], case.shape[1]
    cut = min(max((j for j, _ in case.rhs), default=0) + extra, n1)
    for exact in (True, False):
        probs = [dataclasses.replace(case, shape=(rows, width)).problem(exact)
                 for rows in (cut, n1)]
        short = _rebuilt(probs[0], rhs_zero_past=True)
        assert short.rhs.valid[0] == cut and probs[1].rhs.valid[0] == n1
        assert short.rhs_window == probs[1].rhs_window
        assert _solve_and_residual(short) == _solve_and_residual(probs[1])


@st.composite
def assembled_rhs(draw):
    """A problem file of a ``cases`` or ``pseudo_cases`` operator whose rhs
    is a drawn ``rational`` one (a den with or without terms in t) or a
    ``coeffs`` one, with its truncation."""
    case = draw(st.one_of(cases(), pseudo_cases()))
    if draw(st.booleans()):
        spec, _, _ = draw(st.sampled_from(RHS_KINDS).flatmap(
            lambda kind: rational_rhs(*kind)))
    else:
        spec = {"kind": "coeffs", "payload": [
            [j, i, str(re), str(im)] for (j, i), (re, im) in draw(
                st.dictionaries(st.tuples(st.integers(0, 7),
                                          st.integers(0, 6)),
                                nonzero_gaussians, max_size=4)).items()]}
    m1, m2 = (("Gamma(1)", "Gamma(1)"), ("Gamma(1/2)", "Gamma(3/2)"))[
        MOMENTS.index((case.m1, case.m2))]
    return {"operator": operator_to_text(case.problem().operator),
            "m1": m1, "m2": m2, "rhs": spec,
            "rhs_role": draw(st.sampled_from(["g", "f"])),
            "truncation": list(case.out), "mode": "pseudo"}


@SETTINGS
@given(assembled_rhs())
# a den with a term in t: every row up to N1 is stored
@example({"operator": "dt - dz^2", "m1": "Gamma(1)", "m2": "Gamma(1)",
          "rhs": {"kind": "rational", "payload": {
              "num": [[0, 0, "1", "0"]],
              "den": [[0, 0, "1", "0"], [1, 0, "-1/2", "0"]]}},
          "rhs_role": "g", "truncation": [4, 3], "mode": "pseudo"})
def test_assembled_rhs_stops_at_its_data_rows(problem):
    """``assemble`` stores a ``coeffs`` rhs up to its last entry row, a
    ``rational`` one up to its last num row when den has no term in t and
    up to N1 otherwise (all at most N1), and solves as the rhs that
    ``expand_rhs`` gives on all N1 rows, with the default field."""
    pf = load_problem(problem)
    n1, n2 = pf.truncation
    num, den = pf.rhs
    if den is not None and any(j for j, *_ in den):
        rows = n1
    else:
        rows = min(max((j for j, *_ in num), default=0), n1)
    for arithmetic in ("exact", "float"):
        try:
            short = assemble(pf, arithmetic=arithmetic)
        except EvaluationError as exc:  # an rhs entry beyond binary64
            with pytest.raises(EvaluationError, match=re.escape(str(exc))):
                expand_rhs(pf.rhs, n1, level_widths(
                    pf.parsed[0], (n1, n2))[0], arithmetic == "exact")
            continue
        assert short.rhs_zero_past and short.rhs.valid[0] == rows
        full = _rebuilt(short, rhs=expand_rhs(
            pf.rhs, n1, short.widths[0], arithmetic == "exact"),
            rhs_zero_past=False)
        assert _solve_and_residual(short) == _solve_and_residual(full)


def pseudo_term_magnitude(prob) -> list:
    """Each output cell's term magnitude in pseudo mode: the Laurent-tail
    recursion of ``oracles.laurent_terms`` (after ``P0(dz) g = f`` for an f
    rhs) run on moduli, every subtraction an addition, in normalized
    coordinates."""
    n, (N1, N2) = prob.operator.n, prob.out_shape
    width = wide_width(prob.operator, prob.out_shape)
    top = [RationalComplex.coerce(c) for c in prob.operator.p0()]
    J, I = prob.rhs.valid
    w1 = [eval_at(prob.m1, j) for j in range(N1 + 1)]
    w2 = [eval_at(prob.m2, i) for i in range(I + len(top))]
    G = [[abs(complex(c)) * w2[i] for i, c in enumerate(row[: I + 1])]
         for row in prob.rhs.coeffs[: J + 1]]
    if not prob.rhs_is_g:
        deg, p = len(top) - 1, [abs(complex(c)) for c in top]
        for row in G:
            row[:] = [0.0] * deg + row
            for i in range(I + 1):
                row[i + deg] = (row[i + deg] + sum(p[b] * row[i + b]
                                                   for b in range(deg))) / p[deg]
    terms = [(a, b, abs(complex(c)))
             for a, b, c in laurent_terms(prob.operator, top, width)]
    M = []
    for t in range(N1 + 1):
        row = [0.0] * (width + 1)
        if t >= n:
            for i in range(width + 1):
                row[i] = G[t - n][i] * w1[t - n] + sum(
                    c * M[t - a][i + b] for a, b, c in terms
                    if 0 <= i + b <= width)
        M.append(row)
    return [[M[t][i] / (w1[t] * w2[i]) for i in range(N2 + 1)]
            for t in range(N1 + 1)]


@SETTINGS
@given(pseudo_cases())
def test_exact_pseudo_solve_matches_laurent_route(case):
    """Dividing by the top coefficient once, with its taps run along z,
    gives the coefficients of the Laurent-tail route bit for bit."""
    prob = case.problem()
    u = formal_solve(prob)
    assert [list(row) for row in u.coeffs] == laurent_solve(prob)
    assert u.valid == prob.out_shape


@SETTINGS
@given(pseudo_cases())
def test_pseudo_mode_float_matches_exact_or_raises(case):
    """Pseudo mode with a polynomial top coefficient runs its taps cell by
    cell along z; the error is bounded as in
    test_float_matches_exact_or_raises, by the term magnitude of each cell."""
    prob = case.problem()
    exact = formal_solve(prob)
    try:
        approx = formal_solve(case.problem(exact=False))
    except EvaluationError:
        return
    bound = pseudo_term_magnitude(prob)
    for j, row in enumerate(approx.coeffs):
        for i, c in enumerate(row):
            err = abs(c - complex(exact.coeffs[j][i]))
            assert err <= 1e-9 * bound[j][i]


# the bound README "Arithmetic modes" states for float cells against exact
# arithmetic, as a multiple of each cell's term magnitude
FLOAT_BOUND = 1e-10


@SETTINGS
@given(st.one_of(cases(), pseudo_cases()), st.booleans())
def test_float_cells_on_z_normalized_levels_agree_with_exact(case, real):
    """The float recursion runs on z-normalized levels; with a constant or
    polynomial top, both rhs roles and real or complex coefficients, each
    float cell lies within FLOAT_BOUND times its term magnitude of the exact
    cell, or the solve raises."""
    if real:
        case = _real(case)
    prob = case.problem()
    exact = formal_solve(prob)
    try:
        approx = formal_solve(case.problem(exact=False))
    except EvaluationError:
        return
    assert (approx.grid.dtype == float) == (real or not any(
        v[1] for v in [*case.table.values(), *case.rhs.values()]))
    bound = pseudo_term_magnitude(prob)
    for j, row in enumerate(approx.coeffs):
        for i, c in enumerate(row):
            err = abs(c - complex(exact.coeffs[j][i]))
            assert err <= FLOAT_BOUND * bound[j][i]


def _real(case: Case) -> Case:
    """The case with each Gaussian value made real: its real part, or its
    imaginary part where the real part is zero."""
    def real(values):
        return {k: (v[0] or v[1], Fraction(0)) for k, v in values.items()}
    return dataclasses.replace(case, table=real(case.table),
                               rhs=real(case.rhs))


def check_real_and_complex_routes_agree(case, scale):
    """A real problem runs on float64 grids; its rhs times i runs on
    complex128 grids, with the same numbers on the imaginary plane, zeros
    on the real one, the same residual, or the same overflow."""
    assume(case.rhs)
    rotated = dataclasses.replace(
        case, rhs={k: (Fraction(0), re) for k, (re, _) in case.rhs.items()})
    probs = [c.problem(exact=False, scale=scale)
             for c in (case, rotated)]
    assert probs[0].rhs.grid.dtype == float
    assert probs[1].rhs.grid.dtype == complex
    real, imag = map(_solve_or_error, probs)
    if isinstance(real, str):
        assert real == imag
        return
    assert real.grid.dtype == float and imag.grid.dtype == complex
    assert np.array_equal(imag.grid.imag, real.grid, equal_nan=True)
    assert not imag.grid.real.any()
    reports = []
    for prob, u in zip(probs, (real, imag)):
        try:
            reports.append(repr(residual(prob, u)))
        except WindowError as exc:  # truncation below the operator order
            reports.append(str(exc))
    assert reports[0] == reports[1]


@SETTINGS
@given(cases(), st.sampled_from([1.0, 1e300]))
def test_real_and_complex_float_routes_agree(case, scale):
    check_real_and_complex_routes_agree(_real(case), scale)


@SETTINGS
@given(pseudo_cases(), st.sampled_from([1.0, 1e300]))
def test_real_and_complex_float_routes_agree_in_pseudo_mode(case, scale):
    check_real_and_complex_routes_agree(_real(case), scale)


REPROS = {name: problem for name, problem, _ in outputs.REPROS}


def _shipped(name: str) -> dict:
    """A shipped problem file, pseudo and gamma, the two problems built on
    heat.json, or a repro of the output-diff corpus."""
    if name in REPROS:
        return json.loads(json.dumps(REPROS[name]))
    data = json.loads((resources.files("mpde") / "problems"
                       / f"{'heat' if name in ('pseudo', 'gamma') else name}"
                         ".json").read_text())
    if name == "pseudo":
        data.update(operator="(2+dz)*dt - dz^2", rhs_role="f", mode="pseudo")
    elif name == "gamma":
        data.update(m1="Gamma(1/2)", m2="Gamma(3/2)")
    return data


# the shipped problems at their truncation, benchmark rungs, some of which
# overflow binary64 (heat at level 105, twofactor at 64, gamma at 52), and
# a rhs den with a term in t
@pytest.mark.parametrize("name,n1,n2", [
    ("heat", None, None), ("transport", None, None),
    ("twofactor", None, None), ("heat", 200, 100), ("transport", 200, 200),
    ("twofactor", 80, 60), ("gamma", 100, 60), ("pseudo", 40, 40),
    ("pseudo", 20, 40), ("gamma", 20, 40), ("t-dependent-den", 30, 30)])
def test_real_and_complex_float_routes_agree_on_shipped_problems(name, n1,
                                                                  n2):
    real = _shipped(name)
    rotated = json.loads(json.dumps(real))
    payload = rotated["rhs"]["payload"]
    payload["num"] = [[j, i, str(-Fraction(im)), re]
                      for j, i, re, im in payload["num"]]
    out = []
    for data in (real, rotated):
        try:
            out.append(solve_problem(load_problem(data), n1, n2, "float"))
        except EvaluationError as exc:
            out.append(str(exc))
    if isinstance(out[0], str):
        assert "overflow at t-level" in out[0] and out[0] == out[1]
        return
    (u, real_sidecar), (v, imag_sidecar) = out
    assert u.grid.dtype == float and v.grid.dtype == complex
    assert np.array_equal(v.grid.imag, u.grid, equal_nan=True)
    assert not v.grid.real.any()
    assert json.dumps(real_sidecar) == json.dumps(imag_sidecar)
    # float verify passes, and the probes of both routes fit alike
    assert verify_problem(load_problem(real), 1e-8, n1, n2, "float")["passed"]
    fits = [probe_problem(load_problem(data), n1, n2, "float")["gevrey_fit"]
            for data in (real, rotated)]
    assert fits[0] == fits[1]


@SETTINGS
@given(st.one_of(cases(), pseudo_cases()))
def test_level_widths_are_tight(case):
    """``w[N1] = N2``; every other level is N2 wide or exactly as wide as a
    later level reads through one up-shifting term of the Laurent route,
    and at least as wide as each of them reads; the widths never exceed
    the wide bound ``N2 + N1 * max_b``."""
    prob = case.problem()
    P, (N1, N2) = prob.operator, prob.out_shape
    top = [RationalComplex.coerce(c) for c in P.p0()]
    ups = {(a, b) for a, b, _ in laurent_terms(P, top, 0) if b >= 0}
    w = level_widths(P, (N1, N2))
    assert len(w) == N1 + 1 and w[N1] == N2
    for t in range(N1):
        reads = [w[t + a] + b for a, b in ups if t + a <= N1]
        assert w[t] >= N2 and all(w[t] >= r for r in reads)
        assert w[t] == N2 or w[t] in reads
    assert w[0] <= wide_width(P, (N1, N2))


@SETTINGS
@given(st.one_of(cases(), pseudo_cases()), st.integers(0, 6),
       st.integers(0, 8))
def test_residual_window_is_that_of_the_operator_tables(case, J, I):
    """The residual's window, read from the operator's orders, is the
    smaller of the windows that ``routes.operator_window`` leaves after the
    support on u and after the P0 table on g (the identity on f), in both
    rhs roles and arithmetics, for a u of any window: a window below the
    operator orders raises the same WindowError on both routes."""
    for rhs_is_g in (True, False):
        for exact in (True, False):
            prob = dataclasses.replace(case, rhs_is_g=rhs_is_g).problem(exact)
            u = Series2.from_entries((), J, I, exact)
            P = prob.operator
            p0_table = ({(0, b): c for b, c in enumerate(P.p0()) if c}
                        if rhs_is_g else {(0, 0): 1})
            try:
                want = tuple(map(min, operator_window(P.support(), u.valid),
                                 operator_window(p0_table, prob.rhs.valid)))
            except WindowError as exc:
                with pytest.raises(WindowError, match=re.escape(str(exc))):
                    residual(prob, u)
            else:
                assert residual(prob, u).window == want


def _power(c: RationalComplex, k: int) -> RationalComplex:
    out = RationalComplex(1)
    for _ in range(abs(k)):
        out = out * c
    return out if k >= 0 else 1 / out


def _scaled(u: Series2, c, cp) -> tuple:
    """``u_ji c^j c'^i``: the coefficients of ``u(c t, c' z)``."""
    return tuple(tuple(x * _power(c, j) * _power(cp, i)
                       for i, x in enumerate(row))
                 for j, row in enumerate(u.coeffs))


def check_scaling_covariance(case: Case, c, cp) -> None:
    """Moment derivatives are homogeneous, so ``u(c t, c' z)`` solves the
    problem whose ``p_ab`` are scaled by ``c^(n-a) c'^(-b)`` and whose rhs
    entries (j, i) by ``c^(n+j) c'^i``, in either role: an exact solve of
    that problem gives ``u_ji c^j c'^i`` in every cell."""
    c, cp = RationalComplex(*c), RationalComplex(*cp)
    n = max(a for a, _ in case.table)

    def pairs(table, scale):
        return {k: ((x := RationalComplex(*v) * scale(*k)).re, x.im)
                for k, v in table.items()}
    scaled = dataclasses.replace(
        case, table=pairs(case.table,
                          lambda a, b: _power(c, n - a) * _power(cp, -b)),
        rhs=pairs(case.rhs, lambda j, i: _power(c, n + j) * _power(cp, i)))
    u = formal_solve(case.problem())
    v = formal_solve(scaled.problem())
    assert v.valid == u.valid
    assert v.coeffs == _scaled(u, c, cp)


@settings(SETTINGS, max_examples=300)
@given(cases(), nonzero_gaussians, nonzero_gaussians)
def test_exact_solve_is_scaling_covariant(case, c, cp):
    check_scaling_covariance(case, c, cp)


@settings(SETTINGS, max_examples=200)
@given(pseudo_cases(), nonzero_gaussians, nonzero_gaussians)
def test_exact_pseudo_solve_is_scaling_covariant(case, c, cp):
    """The same with a polynomial top coefficient, whose taps scale too."""
    check_scaling_covariance(case, c, cp)


# (c, c') per shipped problem, complex and real, on or off the unit circle
SHIPPED_SCALES = {
    "heat": (RationalComplex(Fraction(1, 2), Fraction(1, 3)),
             RationalComplex(2, -1)),
    "twofactor": (RationalComplex(0, 1),
                  RationalComplex(Fraction(3, 5), Fraction(4, 5))),
    "transport": (RationalComplex(-2), RationalComplex(1, 1)),
}


@pytest.mark.parametrize("name", sorted(SHIPPED_SCALES))
def test_shipped_problems_are_scaling_covariant(name):
    """A shipped problem rewritten for ``u(c t, c' z)``, through its problem
    file: operator text, num entries scaled by ``c^(n+j) c'^i`` and den
    entries by ``c^j c'^i``, strings that :func:`parse_rhs` reads."""
    c, cp = SHIPPED_SCALES[name]
    data = json.loads((resources.files("mpde") / "problems"
                       / f"{name}.json").read_text())
    P = load_problem(data).parsed[0]
    table = {(a, b): x * _power(c, P.n - a) * _power(cp, -b)
             for a, row in enumerate(P.coeff_polys)
             for b, x in enumerate(row) if x}
    scaled = dict(data, operator=operator_to_text(CharPoly.from_table(table)))

    def entries(quads, shift):
        out = []
        for j, i, re, im in quads:
            x = (RationalComplex(Fraction(re), Fraction(im))
                 * _power(c, shift + j) * _power(cp, i))
            out.append([j, i, str(x.re), str(x.im)])
        return out
    payload = data["rhs"]["payload"]
    scaled["rhs"] = {"kind": "rational",
                     "payload": {"num": entries(payload["num"], P.n),
                                 "den": entries(payload["den"], 0)}}
    u, _ = solve_problem(load_problem(data), arithmetic="exact")
    v, sidecar = solve_problem(load_problem(scaled), arithmetic="exact")
    assert sidecar["residual_exact_zero"]
    assert v.valid == u.valid
    assert v.coeffs == _scaled(u, c, cp)


# fixed before it was measured: float cells of the two rhs routes differ by
# at most this share of their row's largest cell
ROUTE_TOL = 1e-10

# P0 = 3 zeta**3 + 2 zeta + i, with Gamma(1/2), Gamma(3/2) moments
ROUTE_CASE = Case(
    table={(1, 0): (Fraction(0), Fraction(1)),
           (1, 1): (Fraction(2), Fraction(0)),
           (1, 3): (Fraction(3), Fraction(0)),
           (0, 2): (Fraction(-1), Fraction(0))},
    m1=MOMENTS[1][0], m2=MOMENTS[1][1],
    rhs={(0, 0): (Fraction(1), Fraction(0)),
         (1, 2): (Fraction(1, 3), Fraction(2)),
         (3, 15): (Fraction(-1), Fraction(1, 2))},
    shape=(3, 15), out=(4, 3), rhs_is_g=False)


@SETTINGS
@given(st.one_of(cases(), pseudo_cases()))
@example(ROUTE_CASE)
def test_f_rhs_solve_matches_solve_of_g_from_f(case):
    """The solver divides an f rhs by P0 with its own taps; solving with the
    g that g_from_f makes of f must give the same solution: equal exact
    coefficients, and float cells within ROUTE_TOL of their row's largest
    cell.  The draws include complex and non-monic P0, polynomial P0 and
    Gamma(3/2) moments."""
    P = CharPoly.from_table({k: RationalComplex(*v)
                             for k, v in case.table.items()})
    for exact in (True, False):
        f = case.problem(exact=exact).rhs
        try:
            via_f, via_g = (
                formal_solve(CauchyProblem(P, case.m1, case.m2, rhs,
                                           case.out, rhs_is_g=is_g))
                for rhs, is_g in ((f, False),
                                  (g_from_f(P.p0(), case.m2, f), True)))
        except EvaluationError:
            continue  # a float route overflowed inside the window
        if exact:
            assert via_f.coeffs == via_g.coeffs
            continue
        for a, b in zip(via_f.grid, via_g.grid):
            top = max(np.abs(a).max(), np.abs(b).max())
            assert np.abs(a - b).max() <= ROUTE_TOL * top


@SETTINGS
@given(cases(), st.integers(0, 330),
       st.sampled_from([math.nan, math.inf, complex(math.inf, math.nan)]))
def test_verify_never_passes_on_nonfinite_data(case, exponent, bad):
    prob = case.problem(exact=False, scale=float(f"1e{exponent}"))
    try:
        u = formal_solve(prob)
        rep = residual(prob, u)
    except EvaluationError:
        return  # overflow reported as a numeric failure
    except WindowError:
        assume(False)
    if rep.relative <= 1e-8:
        assert all(cmath.isfinite(c) for row in u.coeffs for c in row)
    # a non-finite coefficient that enters the residual window never passes
    n = max(a for a, _ in case.table)
    rows = [list(row) for row in u.coeffs]
    rows[n][0] = complex(bad)
    rep = residual(prob, Series2(rows))
    assert not rep.relative <= 1e-8


@pytest.mark.parametrize("moments", MOMENTS)
def test_brute_force_oracle_reproduces_heat_closed_form(moments):
    # the oracle itself, against u_{j,0} = (2j-2)!/j! of dt - dz^2 with
    # g = 1/(1-z) under Gamma(1) moments (and a smoke run for Gamma(1/2))
    table = {(1, 0): (Fraction(1), Fraction(0)),
             (0, 2): (Fraction(-1), Fraction(0))}
    rhs = {(0, i): (Fraction(1), Fraction(0)) for i in range(13)}
    rows = brute_force.solve(table, *moments, rhs, 6, 0)
    if moments[0] == parse_moment("Gamma(1)"):
        assert [r[0][0] for r in rows[1:]] == [
            Fraction(math.factorial(2 * j - 2), math.factorial(j))
            for j in range(1, 7)]
    assert all(r[0][1] == 0 for r in rows)


# (constant denominator term, complex entries); 1 - 3i and -2i take the
# second branch of CPython's complex division
REAL_D00 = (("1", "0"), ("2", "0"), ("3", "0"), ("-1", "0"), ("1/2", "0"))
RHS_KINDS = ([(d00, False) for d00 in REAL_D00]
             + [(d00, True) for d00 in REAL_D00 + (("3", "1"), ("1", "-3"),
                                                   ("0", "-2"))])
RHS_IDS = [f"{'complex' if c else 'real'}-d00={re},{im}"
           for (re, im), c in RHS_KINDS]


@st.composite
def rational_rhs(draw, d00, is_complex, huge=True):
    """A ``rational`` rhs spec with constant denominator term ``d00`` and a
    grid (n1, n2), n1 <= 6, n2 <= 8.

    With ``huge``, denominator terms may be scaled by 1e150 so that later
    cells overflow binary64.  The numerator lies anywhere in rows 0-4; or
    on one row under a denominator without terms in t, on a grid up to
    n2 = 40; or in rows 1-4 under a denominator with a term in t, so that
    dead rows lie below the live band; or it is empty.
    """
    scale = draw(st.sampled_from((1, 10 ** 150) if huge else (1,)))
    layout = draw(st.sampled_from(("anywhere", "one row", "above row 0",
                                   "empty")))

    def entry(j, i, value, factor=1):
        re, im = value if is_complex else (value[0], Fraction(0))
        return [j, i, str(re * factor), str(im * factor)]

    t_order = 0 if layout == "one row" else 3
    den_terms = draw(st.dictionaries(
        st.tuples(st.integers(0, t_order), st.integers(0, 3)).filter(any),
        nonzero_gaussians, max_size=4))
    if layout == "above row 0" and not any(a for a, _ in den_terms):
        den_terms[draw(st.tuples(st.integers(1, 3), st.integers(0, 3)))] = \
            draw(nonzero_gaussians)
    rows = {"anywhere": st.integers(0, 4), "above row 0": st.integers(1, 4),
            "one row": st.just(draw(st.integers(0, 4)))}
    num = {} if layout == "empty" else draw(st.dictionaries(
        st.tuples(rows[layout], st.integers(0, 4)), gaussians, max_size=4))
    payload = {
        "num": [entry(j, i, v) for (j, i), v in num.items()],
        "den": [[0, 0, *d00]] + [entry(a, b, v, scale)
                                  for (a, b), v in den_terms.items()]}
    n1 = draw(st.integers(0, 6))
    n2 = draw(st.integers(0, 40 if layout == "one row" else 8))
    return {"kind": "rational", "payload": payload}, n1, n2


def _same_bits(x: complex, y: complex) -> bool:
    """Equal parts with equal signs of zero; NaN matches NaN."""
    return all((math.isnan(p) and math.isnan(q))
               or (p == q and math.copysign(1.0, p) == math.copysign(1.0, q))
               for p, q in ((x.real, y.real), (x.imag, y.imag)))


def check_float_rhs(payload: dict, n1: int, n2: int) -> None:
    """The float expansion of num/den has the non-finite cells of the
    per-cell oracle, and every other cell within 1e-13 of its term
    magnitude of it."""
    got = expand_rhs(parse_rhs({"kind": "rational", "payload": payload}),
                     n1, n2, exact=False).coeffs
    want = rational_rhs_float(payload, n1, n2)
    size = rational_rhs_sizes(payload, n1, n2)
    assert all(type(c) is complex for row in got for c in row)
    for j, (grow, wrow, srow) in enumerate(zip(got, want, size)):
        for i, (g, w, bound) in enumerate(zip(grow, wrow, srow)):
            assert cmath.isfinite(g) == cmath.isfinite(w), (j, i, g, w)
            if cmath.isfinite(w):
                assert abs(g - w) <= 1e-13 * bound, (j, i, g, w, bound)


@pytest.mark.parametrize("d00,is_complex", RHS_KINDS, ids=RHS_IDS)
@SETTINGS
@given(data=st.data())
def test_float_rational_rhs_matches_per_cell_oracle(d00, is_complex, data):
    spec, n1, n2 = data.draw(rational_rhs(d00, is_complex))
    check_float_rhs(spec["payload"], n1, n2)


# num on rows 1 and 2, den (3+i) - (1-i/2) z + (1/3-2i) z^3 in z alone
PURE_Z_RHS = {"kind": "rational", "payload": {
    "num": [[1, 0, "1", "-1/2"], [2, 2, "2", "0"]],
    "den": [[0, 0, "3", "1"], [0, 1, "-1", "1/2"], [0, 3, "1/3", "-2"]]}}


@SETTINGS
@given(drawn=st.sampled_from(RHS_KINDS).flatmap(
    lambda kind: rational_rhs(*kind, huge=False)))
@example(drawn=(PURE_Z_RHS, 3, 9))
def test_rational_rhs_of_both_arithmetics_matches_per_cell_oracles(drawn):
    """The recursion with B taps and no level term (a den without terms in
    t, B >= 2 and a complex constant term in the example) against both
    per-cell divisions."""
    spec, n1, n2 = drawn
    payload = spec["payload"]
    check_float_rhs(payload, n1, n2)
    num, den = (_table(entries, True, "rhs") for entries in parse_rhs(spec))
    assert expand_rhs(parse_rhs(spec), n1, n2, exact=True).coeffs == tuple(
        map(tuple, rational_rhs_exact(num, den, n1, n2)))


ONE_OVER_ONE_MINUS_Z = {"kind": "rational", "payload": {
    "num": [[0, 0, "1", "0"]], "den": [[0, 0, "1", "0"], [0, 1, "-1", "0"]]}}


# the rhs grids of the benchmark's float-ladder rungs, heat (200, 100) to
# pseudo (40, 40), all on the shipped 1/(1-z)
@pytest.mark.parametrize("n1,n2", [(200, 500), (200, 400), (40, 260),
                                   (80, 460), (160, 860), (100, 260),
                                   (40, 121)])
def test_float_rhs_of_shipped_problems_matches_per_cell_oracle(n1, n2):
    got = expand_rhs(parse_rhs(ONE_OVER_ONE_MINUS_Z), n1, n2, exact=False).grid
    want = rational_rhs_float(ONE_OVER_ONE_MINUS_Z["payload"], n1, n2)
    assert got.dtype == float  # a real rhs: no imaginary plane
    assert (np.asarray(got, dtype=complex).tobytes()
            == np.array(want, dtype=complex).tobytes())


@pytest.mark.parametrize("payload,n1,n2", [
    (ONE_OVER_ONE_MINUS_Z["payload"], 30, 50),
    # num on row 2 only, den 1 - (1+i) z - z^3 without terms in t
    ({"num": [[2, 0, "1", "0"], [2, 3, "-1/2", "2"]],
      "den": [[0, 0, "3", "1"], [0, 1, "-1", "-1"], [0, 3, "-1", "0"]]},
     6, 20),
    # num on the last row under a den with a term in t: rows below are dead
    ({"num": [[4, 1, "1", "0"], [5, 0, "2", "0"]],
      "den": [[0, 0, "-2", "0"], [1, 0, "-1", "0"], [0, 2, "1/3", "0"]]},
     4, 9),
])
def test_one_row_band_runs_without_the_diagonal_sweep(payload, n1, n2):
    # a live band of one row runs one level of the recursion
    check_float_rhs(payload, n1, n2)


@pytest.mark.parametrize("t_term", [[], [[1, 0, "-1", "0"]]])
def test_float_rhs_with_an_infinite_den_term_raises(t_term):
    # two entries at (0, 1) add up to inf: float arithmetic names them and
    # advises exact arithmetic
    payload = {"num": [[2, 0, "1", "0"]],
               "den": [[0, 0, "1", "0"], [0, 1, "1e308", "0"],
                       [0, 1, "1e308", "0"], *t_term]}
    with pytest.raises(EvaluationError, match=re.escape(
            "rhs den entries at [0, 1] add up beyond the binary64 range of "
            "float arithmetic; use --arithmetic exact")):
        expand_rhs(parse_rhs({"kind": "rational", "payload": payload}),
                   4, 3, exact=False)


@pytest.mark.parametrize("d00,is_complex", RHS_KINDS, ids=RHS_IDS)
@SETTINGS
@given(data=st.data())
def test_float_rational_rhs_matches_exact(d00, is_complex, data):
    """Error bounded by 1e-13 of the cell's term magnitude, the division
    recursion run on moduli."""
    spec, n1, n2 = data.draw(rational_rhs(d00, is_complex, huge=False))
    approx = expand_rhs(parse_rhs(spec), n1, n2, exact=False).coeffs
    exact = expand_rhs(parse_rhs(spec), n1, n2, exact=True).coeffs
    tables = {}
    for key, quads in spec["payload"].items():
        table = tables.setdefault(key, {})
        for j, i, re, im in quads:
            table[(j, i)] = table.get((j, i), 0) + RationalComplex(re, im)
    num, den = tables.get("num", {}), tables["den"]
    size = [[0.0] * (n2 + 1) for _ in range(n1 + 1)]
    for j in range(n1 + 1):
        for i in range(n2 + 1):
            acc = abs(complex(num.get((j, i), 0)))
            for (a, b), v in den.items():
                if (a, b) != (0, 0) and a <= j and b <= i:
                    acc += abs(complex(v)) * size[j - a][i - b]
            size[j][i] = acc / abs(complex(den[(0, 0)]))
            err = abs(approx[j][i] - complex(exact[j][i]))
            assert err <= 1e-13 * size[j][i]


EXACT_D00 = (("1", "0"), ("-1", "0"), ("-2", "0"), ("1/2", "0"), ("-3/2", "0"))
EXACT_KINDS = ([(d00, False) for d00 in EXACT_D00]
               + [(d00, True) for d00 in (("1", "0"), ("-2", "0"), ("3", "1"),
                                          ("1", "-3"), ("0", "-2"),
                                          ("-2", "1"))])
EXACT_IDS = [f"{'complex' if c else 'real'}-d00={re},{im}"
             for (re, im), c in EXACT_KINDS]


@pytest.mark.parametrize("d00,is_complex", EXACT_KINDS, ids=EXACT_IDS)
@SETTINGS
@given(data=st.data())
def test_exact_rational_rhs_matches_per_cell_oracle(d00, is_complex, data):
    """The row-by-row expansion on integer lanes against the per-cell
    division, with and without pure-z denominator terms."""
    spec, n1, n2 = data.draw(rational_rhs(d00, is_complex))
    payload = spec["payload"]
    if not data.draw(st.booleans(), label="keep pure-z terms"):
        payload["den"] = [q for q in payload["den"] if q[0] or not q[1]]
    num, den = (_table(entries, True, "rhs") for entries in parse_rhs(spec))
    got = expand_rhs(parse_rhs(spec), n1, n2, exact=True)
    check_lanes_series(got)
    assert got.coeffs == tuple(map(tuple, rational_rhs_exact(num, den, n1, n2)))


# every pair of signs of zero, plus numbers of each kind the callers pass
CELL_VALUES = st.one_of(
    st.sampled_from([0, 0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0),
                     complex(-0.0, -0.0)]),
    st.integers(-9, 9), fractions,
    st.complex_numbers(max_magnitude=1e300, allow_nan=False,
                       allow_infinity=False))
# (j, i) up to past the largest grid drawn, below 0 for Series2.from_entries
ENTRY_AT = (st.integers(-1, 6), st.integers(-1, 7))


@SETTINGS
@given(st.integers(0, 4), st.integers(0, 5),
       st.lists(st.tuples(*ENTRY_AT, CELL_VALUES), max_size=12),
       st.booleans())
@example(1, 1, [(0, 0, -0.0), (1, 1, complex(0.0, -0.0)), (2, 0, 5),
                (0, 1, 1), (0, 1, Fraction(1, 3)), (-1, 0, 7)], False)
def test_from_entries_matches_a_per_cell_build(n1, n2, entries, exact):
    """The one rhs grid builder equals rows built cell by cell: entries
    outside the grid dropped, the last value of a repeated (j, i) kept,
    float signs of zero kept bit for bit."""
    coerce = RationalComplex.coerce if exact else complex
    rows = [[coerce(0)] * (n2 + 1) for _ in range(n1 + 1)]
    for j, i, v in entries:
        if 0 <= j <= n1 and 0 <= i <= n2:
            rows[j][i] = coerce(v)
    got = Series2.from_entries(entries, n1, n2, exact=exact)
    if exact:
        assert got.coeffs == tuple(map(tuple, rows))
    else:
        assert (np.asarray(got.grid, dtype=complex).tobytes()
                == np.array(rows, dtype=complex).tobytes())
        assert not got.grid.flags.writeable


JSON_VALUES = st.one_of(
    st.integers(-5, 5), st.floats(-1e300, 1e300), fractions.map(str),
    st.sampled_from(["-0", "0.25", "-1e-5", "1/3"]))


@SETTINGS
@given(st.integers(0, 4), st.integers(0, 5),
       st.lists(st.tuples(*(st.integers(0, k) for k in (6, 7)), JSON_VALUES,
                          JSON_VALUES).map(list), max_size=12))
@example(1, 1, [[0, 0, 1, -0.0], [0, 0, 1e17, "-0"], [0, 0, -1e17, 0],
                [1, 0, -0.0, -0.0], [2, 1, 1, 1]])
def test_coeffs_rhs_matches_a_per_cell_sum(n1, n2, payload):
    """A ``coeffs`` rhs sums repeated entries in file order from zero, so
    ``1 + 1e17 - 1e17`` is 0 and a ``-0.0`` entry gives +0, and drops
    entries outside the grid, in both arithmetics."""
    rows = [[0j] * (n2 + 1) for _ in range(n1 + 1)]
    exact_rows = [[RationalComplex(0)] * (n2 + 1) for _ in range(n1 + 1)]
    for j, i, re, im in payload:
        if j <= n1 and i <= n2:
            re, im = Fraction(re), Fraction(im)
            rows[j][i] = rows[j][i] + complex(float(re), float(im))
            exact_rows[j][i] = exact_rows[j][i] + RationalComplex(re, im)
    rhs = parse_rhs({"kind": "coeffs", "payload": payload})
    got = expand_rhs(rhs, n1, n2, exact=False).grid
    assert (np.asarray(got, dtype=complex).tobytes()
            == np.array(rows, dtype=complex).tobytes())
    exact = expand_rhs(rhs, n1, n2, exact=True).coeffs
    assert exact == tuple(map(tuple, exact_rows))


def check_lanes_series(s: Series2):
    """A series built from integer lanes equals the series built from its
    ``coeffs`` rows: equality, hash, CSV text (or the out-of-range error)
    and float grid."""
    assert s._coeffs is None  # built from lanes; coeffs not read yet
    try:
        csv = s.to_csv()
    except EvaluationError:
        csv = None
    rows = Series2(s.coeffs, exact=True)
    assert s == rows and hash(s) == hash(rows)
    try:
        want = csv_cells(rows)
    except OverflowError:
        want = None
    assert csv == want
    if want is not None:
        assert rows.to_csv() == want
        assert s.grid.tobytes() == rows.grid.tobytes()


# the rhs scaled so that cells reach 2**+-1022, overflow binary64 or
# round to subnormals
SCALES = (Fraction(1), Fraction(2) ** 1000, Fraction(2) ** 1022,
          Fraction(1, 2 ** 1000), Fraction(1, 2 ** 1070))


@SETTINGS
@given(cases(), st.sampled_from(SCALES))
def test_lanes_backed_series_equal_their_rows(case, scale):
    """formal_solve, apply_operator, g_from_f and a ``coeffs`` rhs give
    lanes-backed series; each equals the series built from its rows, and the
    residual reads the same from both."""
    assume(case.rhs)
    payload = [[j, i, str(re * scale), str(im * scale)]
               for (j, i), (re, im) in case.rhs.items()]
    rhs = expand_rhs(parse_rhs({"kind": "coeffs", "payload": payload}),
                     *case.shape, exact=True)
    base = case.problem()
    prob = CauchyProblem(base.operator, base.m1, base.m2, rhs, base.out_shape,
                         base.rhs_is_g)
    try:
        u = formal_solve(prob)
    except WindowError:
        assume(False)
    check_lanes_series(u)
    check_lanes_series(rhs)
    try:
        report = residual(prob, u)
    except WindowError:
        pass  # the truncation is below the operator orders
    else:
        assert report == residual(
            prob, Series2(u.coeffs, exact=True))
    table = {k: RationalComplex(*v) for k, v in case.table.items()}
    for s in (rhs, u):
        try:
            check_lanes_series(apply_operator(table, prob.m1, prob.m2, s))
        except WindowError:
            pass  # the operator orders exceed the window
    p0 = [table.get((0, b), 0) for b in range(4)]
    if any(p0):
        check_lanes_series(g_from_f(p0, prob.m2, rhs))


@st.composite
def raw_lanes_series(draw):
    """An exact Series2 stored as RawLanes: real or complex lanes, zero rows,
    negative and Fraction divisors, and cells past 2**1024 or subnormal; on
    up to 21 t-levels and 17 z-levels, so that a series or its transpose
    may have the 15 levels a Gevrey fit needs, and with numerators near
    2**1000 in only some series, so that some of those fits read no cell
    beyond binary64."""
    n1 = draw(st.one_of(st.integers(0, 13), st.integers(14, 20)))
    n2 = draw(st.one_of(st.integers(0, 5), st.integers(14, 16)))
    shifts = draw(st.sampled_from([[0], [0, 0, 0, 0, 0, 1000, 1010]]))
    numerator = st.builds(lambda m, k: m << k, st.integers(-2 ** 20, 2 ** 20),
                          st.sampled_from(shifts))
    cells = st.lists(numerator, min_size=n2 + 1, max_size=n2 + 1)
    row = st.one_of(cells, cells, cells, st.just([0] * (n2 + 1)))
    lane = st.lists(row, min_size=n1 + 1, max_size=n1 + 1)
    positive = st.builds(Fraction, st.integers(1, 9), st.integers(1, 4))

    def divisors(n, exponents):
        return draw(st.lists(st.builds(
            lambda sign, q, e: sign * q * Fraction(2) ** e,
            st.sampled_from([1, -1]), positive, st.sampled_from(exponents)),
            min_size=n, max_size=n))

    lanes = kernel.RawLanes(draw(lane), draw(st.one_of(st.none(), lane)),
                            divisors(n1 + 1, [0, 0, 0, -30, 30, 1060]),
                            divisors(n2 + 1, [0, 0, -5, 5]))
    return Series2(lanes, exact=True)


def _repr_or_error(fn, *args, **kw):
    """``repr`` of the result (bit-exact for floats), or the type and message
    of the exception."""
    try:
        return repr(fn(*args, **kw))
    except Exception as exc:  # noqa: BLE001 - the type and text are compared
        return type(exc), str(exc)


@settings(SETTINGS, max_examples=150)
@given(raw_lanes_series(), st.sampled_from([0.0, 0.5, -0.7 + 0.2j]))
def test_exact_binary64_readers_match_per_cell_oracle(s, z):
    """``grid``, ``row_values``, ``gevrey_fit`` (of the series and of its
    transpose) and ``to_csv`` of a lanes-backed series equal their per-cell
    forms, which round each RationalComplex of ``coeffs``: bit for bit, or
    the same error.  A series
    built from rows equals the one built from its lanes or its array."""
    # a fresh series: hypothesis may have read ``s.coeffs`` for its report
    check_lanes_series(Series2(s.lanes, exact=True))
    rows = Series2(s.coeffs, exact=True)
    assert rows == s and hash(rows) == hash(s)
    for v in (s, transposed(s)):
        assert _repr_or_error(gevrey_fit, v) == \
            _repr_or_error(exact_gevrey_fit_cells, v)
    try:
        csv = csv_cells(s)
    except OverflowError:
        j, i, part = next((j, i, p) for j, row in enumerate(s.coeffs)
                          for i, c in enumerate(row)
                          for p in (c.re, c.im) if _leaves_binary64(p))
        with pytest.raises(EvaluationError) as err:
            s.to_csv()
        m = re.search(rf"exact coefficient \({j}, {i}\) is about "
                      rf"2\^([0-9.]+), outside the binary64 range of the CSV",
                      str(err.value))
        exact_log2 = (math.log2(abs(part.numerator))
                      - math.log2(part.denominator))
        assert m and abs(float(m[1]) - exact_log2) <= 0.06
    else:
        assert s.to_csv() == csv == rows.to_csv()
    # grid and row_values decode every cell: both raise when one leaves
    # binary64
    try:
        want = exact_grid_cells(s)
    except OverflowError:
        with pytest.raises(OverflowError):
            row_values(s, z)
        with pytest.raises(OverflowError):
            s.grid
        return
    assert all(map(_same_bits, row_values(s, z),
                    row_values(Series2(want), z)))
    assert s.grid.tobytes() == want.tobytes()
    assert s.grid.dtype == complex and not s.grid.flags.writeable
    from_array = Series2(want)
    from_rows = Series2(want.tolist())
    assert from_array == from_rows and hash(from_array) == hash(from_rows)
    assert from_rows.grid.tobytes() == want.tobytes()
    assert all(_same_bits(x, y) for a, b in zip(from_array.coeffs,
                                                from_rows.coeffs)
               for x, y in zip(a, b))


def _leaves_binary64(q: Fraction) -> bool:
    try:
        float(q)
    except OverflowError:
        return True
    return False


positive_reals = st.builds(lambda x: (x, Fraction(0)),
                           st.builds(Fraction, st.integers(1, 6),
                                     st.integers(1, 4)))


@SETTINGS
@given(st.lists(st.tuples(st.one_of(positive_reals, nonzero_gaussians),
                          st.integers(1, 3)),
                min_size=1, max_size=3,
                unique_by=(lambda r: r[0], lambda r: r[1])),
       nonzero_gaussians)
def test_linear_edge_roots_match_numpy(roots, lead):
    """Each root has its own multiplicity, so every square-free part is
    linear and its exact root must equal numpy's.  ``==`` ignores the sign
    of a zero part: on the positive real axis ``np.roots`` returns 1-0j
    where the exact route returns 1+0j, and neither
    ``summability._arg_pi_multiple`` nor the ``+ 0.0`` of
    ``problem.analyze_problem`` sees that sign."""
    poly = [RationalComplex(*lead)]
    for root, mult in roots:
        for _ in range(mult):
            # times (w - root), coefficients low to high
            poly = ([-RationalComplex(*root) * poly[0]]
                    + [poly[k - 1] - RationalComplex(*root) * poly[k]
                       for k in range(1, len(poly))] + [poly[-1]])
    got = _edge_roots(poly, Fraction(1))
    assert got == edge_roots_numpy(poly)
    assert sorted(m for _, m in got) == sorted(m for _, m in roots)
    assert all(type(r) is complex for r, _ in got)


TRANSFORM_MOMENTS = tuple(parse_moment(m) for m in (
    "Gamma(0)", "Gamma(1)", "Gamma(1/2)", "Gamma(3)", "Gamma(-1)",
    "Gamma(1)*Gamma(1/2)/Gamma(2)", "3/2*Gamma(1/3+u/2)"))

# each transform and its per-cell oracle, called as (m, s, axis, times)
TRANSFORMS = {
    "borel": (lambda m, s, axis, _: borel(m, s, axis),
              lambda m, s, axis, _: borel_cells(m, s, axis)),
    "inv_borel": (lambda m, s, axis, _: inv_borel(m, s, axis),
                  lambda m, s, axis, _: borel_cells(m, s, axis, invert=True)),
    "moment_diff": (moment_diff,
                    lambda m, s, axis, k: moment_shift_cells(m, s, axis, k)),
    "moment_antidiff": (moment_antidiff,
                        lambda m, s, axis, k: moment_shift_cells(
                            m, s, axis, k, up=False)),
}


@st.composite
def transform_cases(draw):
    """(transform name, m, series, axis, times)."""
    exact = draw(st.booleans())
    if exact:
        cell = st.builds(RationalComplex, fractions,
                         st.one_of(st.just(0), fractions))
    else:
        scale = draw(st.sampled_from([1.0, 1e300, 1e-300, 1e-310, 1e-323]))
        finite = st.integers(-16, 16).map(lambda k: k / 8 * scale)
        special = st.sampled_from([0.0, -0.0] * 4
                                  + [math.inf, -math.inf, math.nan])
        part = st.one_of(finite, finite, special)
        cell = st.builds(complex, part, part)
    # kappa multiplies each factor's k of m along the axis
    if draw(st.booleans()):
        n = draw(st.integers(0, 8))
        s = Series1(draw(st.lists(cell, min_size=n + 1, max_size=n + 1)),
                    exact=exact)
        kappa, axis = draw(st.integers(1, 3)), None
    else:
        n1, n2 = draw(st.integers(0, 6)), draw(st.integers(0, 6))
        rows = draw(st.lists(st.lists(cell, min_size=n2 + 1,
                                      max_size=n2 + 1),
                             min_size=n1 + 1, max_size=n1 + 1))
        s = Series2(rows, exact=exact)
        kappas = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        axis = draw(st.sampled_from(["t", "z", "t", "z", "x"]))
        kappa = kappas[axis == "z"]
    m = larger_k(draw(st.sampled_from(TRANSFORM_MOMENTS)), kappa)
    times = draw(st.one_of(st.integers(0, 3), st.integers(-1, 10)))
    return draw(st.sampled_from(sorted(TRANSFORMS))), m, s, axis, times


def _outcome(fn, *args):
    """``(coefficient rows, None)`` of a transform, or ``(None, type)`` of
    the exception it raises."""
    try:
        out = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return None, type(exc)
    rows = out.coeffs if isinstance(out, Series2) else (out.coeffs,)
    return rows, None


@settings(SETTINGS, max_examples=400)
@given(transform_cases())
def test_transforms_match_per_cell_oracle(case):
    """Exact coefficients equal the oracle's, all RationalComplex; float
    coefficients equal its bits, signs of zero included; a failure is the
    same exception type on both sides."""
    name, m, s, axis, times = case
    fast, cells = TRANSFORMS[name]
    got, got_exc = _outcome(fast, m, s, axis, times)
    want, want_exc = _outcome(cells, m, s, axis, times)
    assert got_exc is want_exc
    if got is None:
        return
    assert [len(row) for row in got] == [len(row) for row in want]
    if s.exact:
        assert got == want
        assert all(type(c) is RationalComplex for row in got for c in row)
    else:
        assert all(type(c) is complex for row in got for c in row)
        assert all(_same_bits(x, y) for g, w in zip(got, want)
                   for x, y in zip(g, w))


@pytest.mark.parametrize("name,m,values,raises", [
    # m(j) grows past 1e8 from j = 4 on: a finite part leaves binary64
    ("inv_borel", "Gamma(3)", [1e300] * 6, OverflowError),
    ("borel", "Gamma(-3)", [complex(1, 1e300)] * 6, OverflowError),
    # an infinite part stays infinite, as math.ldexp(inf) does
    ("inv_borel", "Gamma(3)", [complex(math.inf, 1.0), 2.0], None),
    # subnormal results round once, in ldexp
    ("borel", "Gamma(3)", [complex(1e-310, -3e-308)] * 8, None),
    # a shift product that underflows to zero takes the sign of Python's
    # complex multiply, -0.0 - (-1.0 * 0.0) = +0.0, where a fused
    # multiply-add keeps -0.0
    ("moment_antidiff", "Gamma(1)", [complex(-5e-324, -1.0)] * 4, None),
    # the shifts overflow to inf (and inf * 0.0 to NaN) without a warning
    ("moment_diff", "Gamma(3)",
     [1e300, complex(1e308, -0.0), complex(math.inf, 1.0)] + [1.0] * 6, None),
    ("moment_antidiff", "Gamma(-3)",
     [1e300, complex(-1e308, 0.0), complex(1.0, -math.inf)] + [1.0] * 6,
     None),
])
def test_transform_range_edges(name, m, values, raises):
    fast, cells = TRANSFORMS[name]
    m = parse_moment(m)
    for s in (Series1(values), Series2([values, values[::-1]])):
        for axis in ("t", "z"):
            got, got_exc = _outcome(fast, m, s, axis, 1)
            want, want_exc = _outcome(cells, m, s, axis, 1)
            assert got_exc is want_exc
            if s.__class__ is Series1 or axis == "z":
                assert got_exc is raises
            if got is not None:
                assert all(_same_bits(x, y) for g, w in zip(got, want)
                           for x, y in zip(g, w))


@SETTINGS
@given(cases(), st.integers(0, 3), st.booleans())
def test_moment_diff_is_apply_operator_of_one_derivative(case, k, exact):
    """``moment_diff`` along t is the operator dt^k with m2 = 1, along z the
    operator dz^k with m1 = 1, in both arithmetics."""
    rows = [[RationalComplex(*case.rhs.get((j, i), (0, 0)))
             for i in range(case.shape[1] + 1)]
            for j in range(case.shape[0] + 1)]
    if not exact:
        rows = [[complex(c) for c in row] for row in rows]
    u = Series2(rows, exact=exact)
    for axis, m, table, m1, m2 in (
            ("t", case.m1, {(k, 0): 1}, case.m1, MOMENT_ONE),
            ("z", case.m2, {(0, k): 1}, MOMENT_ONE, case.m2)):
        try:
            want = apply_operator(table, m1, m2, u)
        except WindowError:
            with pytest.raises(WindowError):
                moment_diff(m, u, axis, k)
            continue
        assert moment_diff(m, u, axis, k) == want


# -- moment logs and ratios against the scalar route ---------------------------

# Fixed before measuring.  numpy's and math's exp are each within about an
# ulp of the true value, so a ratio may differ from math.exp of the same
# difference by RATIO_ULPS ulps of itself; a log-table entry may differ
# from the scalar sum by helpers.LOG_ULPS ulps of the magnitudes that the
# sum adds (helpers.log_magnitude).
RATIO_ULPS = 2

# an offset denominator of 3**34 > 2**53 takes log_table's per-entry
# integer division
gamma_factors = st.builds(
    MomentFactor, st.builds(Fraction, st.integers(1, 30), st.integers(1, 10)),
    st.builds(Fraction, st.integers(1, 12),
              st.one_of(st.integers(1, 6), st.just(3 ** 34))),
    st.builds(Fraction, st.integers(1, 12), st.integers(1, 4)),
    st.sampled_from([1, -1]))


@settings(SETTINGS, max_examples=100)
@given(st.lists(gamma_factors, min_size=1, max_size=3), st.integers(1, 3),
       st.integers(0, 300),
       st.sets(st.integers(-6, 6), min_size=1, max_size=4))
def test_log_table_and_ratios_match_the_scalar_route(factors, kappa, n,
                                                     offsets):
    """``log_table`` of m with each k multiplied by kappa against
    ``log_rational`` and ``log_gamma`` of m at j/kappa per entry and
    factor, and ``kernel.ratios`` against ``math.exp`` of the same
    differences, within the ulp bounds above; a ratio that ``math.exp``
    cannot hold makes ``ratios`` raise EvaluationError."""
    m = MomentFunction(tuple(factors))
    logs = log_table(larger_k(m, kappa), n)
    listed = logs.tolist()
    for j, got in enumerate(listed):
        u = Fraction(j, kappa)
        want = 0.0
        for f in m.factors:
            want += f.sign * (log_rational(f.scale)
                              + log_gamma(float(f.offset + u / f.ram)))
        assert abs(got - want) <= LOG_ULPS * math.ulp(log_magnitude(m, u))
    width = n - 6
    assume(width >= 0)
    try:
        wants = {b: [math.exp(listed[i + b] - listed[i]) if i + b >= 0
                     else 0.0 for i in range(width + 1)] for b in offsets}
    except OverflowError:
        with pytest.raises(EvaluationError, match="beyond the binary64"):
            kernel.ratios(logs, offsets, width)
        return
    for b, r in kernel.ratios(logs, offsets, width).items():
        for got, want in zip(r.tolist(), wants[b]):
            assert abs(got - want) <= RATIO_ULPS * math.ulp(want)


# -- exact kernel shortcuts against their cellwise forms -----------------------

FOLD_KS = st.one_of(st.sampled_from([1, -1]), st.integers(-10 ** 30, 10 ** 30))


@SETTINGS
@given(st.integers(0, 12), st.lists(
    st.tuples(FOLD_KS, st.integers(-16, 6), st.integers(0, 3)), max_size=5),
    st.data())
@example(0, [], None)
@example(5, [(3, -9, 0), (1, 2, 1)], None)  # -b past n: the first term is zero
def test_fold_is_the_cellwise_sum_of_its_terms(n, shapes, data):
    """``kernel._fold`` of the terms (k, src, b) is the cell-by-cell sum
    ``sum k * src[i + b]`` over i < n, reads below index 0 zero: whatever k
    (1, -1 or any other int), b (below 0, -b past n) and source length (at
    least ``n + b``, or longer), and n zeros for no terms."""
    terms = []
    for k, b, extra in shapes:
        size = max(n + b, 0) + extra
        src = (list(range(3, 3 + size)) if data is None else
               data.draw(st.lists(st.integers(), min_size=size,
                                  max_size=size)))
        terms.append((k, src, b))
    want = [sum(k * src[i + b] for k, src, b in terms if i + b >= 0)
            for i in range(n)]
    got = kernel._fold(terms, n)
    assert got == want and all(type(x) is int for x in got)


moment_factors = st.builds(
    MomentFactor, st.builds(Fraction, st.integers(1, 30), st.integers(1, 10)),
    # integer, half-integer and third offsets
    st.builds(Fraction, st.integers(1, 12), st.sampled_from([1, 2, 3])),
    st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3),
                     Fraction(2, 3)]),
    st.sampled_from([1, -1]))


@SETTINGS
@given(st.lists(moment_factors, max_size=4), st.sampled_from([1, 2, 3]),
       st.integers(-1, 60))
@example([MomentFactor(1, 1, 2, 1)], 1, 40)  # 1*Gamma(1+u/2)
@example([MomentFactor(1, 1, 1, 1)] * 2 + [MomentFactor(1, 1, 1, -1)], 1, 30)
@example([MomentFactor(1, 1, 1, -1)], 2, 10)  # only an inverse factor
def test_fraction_table_is_scaled_eval_per_entry(factors, kappa, n):
    """``fraction_table`` of m with each k multiplied by kappa is
    ``scaled_eval(m, j/kappa).rational`` for j = 0..n, an int exactly where
    it is integral, on products of factors with integer, half-integer and
    mixed Gamma arguments, inverse factors among them."""
    m = MomentFunction(tuple(factors))
    mk = larger_k(m, kappa)
    want = [scaled_eval(m, Fraction(j, kappa)).rational for j in range(n + 1)]
    got = fraction_table(mk, n)
    assert got == want
    assert [type(x) for x in got] == [
        int if w.denominator == 1 else Fraction for w in want]


@settings(SETTINGS, max_examples=100)
@given(cases(), st.lists(gamma_factors, min_size=1, max_size=2),
       st.lists(gamma_factors, min_size=1, max_size=2),
       st.sampled_from([2, 3]), st.sampled_from([2, 3]))
def test_ramified_moments_are_gamma_factors_with_larger_k(case, f1, f2,
                                                          kappa1, kappa2):
    """README's recipe for a series in ``t**(1/kappa1)`` and
    ``z**(1/kappa2)``: multiply each Gamma factor's k by kappa and read the
    series at index j.  The moment tables that a solve of the drawn problem
    reads, both axes, are then the scalar route's ``m(j/kappa)``: exact
    values equal, logs within the ulp bound of helpers.LOG_ULPS."""
    assume(case.rhs)
    axes = ((MomentFunction(tuple(f1)), kappa1),
            (MomentFunction(tuple(f2)), kappa2))
    prob = dataclasses.replace(case, m1=larger_k(*axes[0]),
                               m2=larger_k(*axes[1])).problem()
    for (m, kappa), values, logs in zip(axes, prob.fraction_tables,
                                        prob.log_tables):
        us = [Fraction(j, kappa) for j in range(len(values))]
        assert values == [scaled_eval(m, u).rational for u in us]
        for got, u in zip(logs.tolist(), us):
            bound = LOG_ULPS * math.ulp(log_magnitude(m, u))
            assert abs(got - scaled_eval(m, u).log) <= bound


def _overflows(q) -> bool:
    """Whether ``float(q)`` of the Fraction q overflows binary64."""
    try:
        float(q)
    except OverflowError:
        return True
    return False


DIVISORS = st.one_of(
    st.integers(1, 10 ** 6), st.integers(-10 ** 6, -1),
    st.builds(Fraction, st.integers(1, 10 ** 6), st.integers(2, 10 ** 6)),
    st.builds(Fraction, st.integers(-10 ** 6, -1), st.integers(2, 10 ** 6)))


@SETTINGS
@given(st.integers(0, 4), st.integers(0, 5), st.booleans(), st.booleans(),
       st.data())
def test_binary64_rows_is_float_of_fraction_per_cell(n_rows, n_cols,
                                                     is_complex, unit, data):
    """``kernel.binary64_rows`` rounds each part as ``float(Fraction)`` of
    ``x / (row_div * col_div)`` does, signed zeros too, on lanes whose
    numerators are all 1 (int divisors) and on lanes with Fraction
    divisors; the first part beyond binary64, in row-major order, raises
    CellOverflow on its row.  ``kernel.denormalize`` gives the same cells
    as Gaussian rationals."""
    ints = st.one_of(st.integers(), st.integers(-3, 3),
                     st.integers(2 ** 1020, 2 ** 1100),
                     st.integers(-2 ** 1100, -2 ** 1020))
    divs = st.integers(1, 10 ** 6) if unit else DIVISORS
    lanes = [data.draw(st.lists(st.lists(ints, min_size=n_cols + 1,
                                         max_size=n_cols + 1),
                                min_size=n_rows + 1, max_size=n_rows + 1))
             for _ in range(1 + is_complex)]
    row_div = data.draw(st.lists(divs, min_size=n_rows + 1,
                                 max_size=n_rows + 1))
    col_div = data.draw(st.lists(divs, min_size=n_cols + 1,
                                 max_size=n_cols + 1))
    grid = kernel.RawLanes(lanes[0], lanes[1] if is_complex else None,
                           row_div, col_div)
    cells = [[[Fraction(lane[j][i]) / (row_div[j] * col_div[i])
               for i in range(n_cols + 1)] for lane in lanes]
             for j in range(n_rows + 1)]
    got = kernel.binary64_rows(grid, range(n_rows + 1), n_cols)
    for j, parts in enumerate(cells):
        try:
            want = [[float(q).hex() for q in part] for part in parts]
        except OverflowError:
            with pytest.raises(kernel.CellOverflow) as err:
                next(got)
            i = next(i for i in range(n_cols + 1)
                     if any(map(_overflows, (part[i] for part in parts))))
            assert err.value.j == j
            assert str(err.value).startswith(f"exact coefficient ({j}, {i}) ")
            break
        assert [[x.hex() for x in part] for part in next(got)] == want
    exact = kernel.denormalize(grid)
    assert [[(c.re, c.im) for c in row] for row in exact] == [
        [(re, im) for re, im in zip(parts[0], parts[1] if is_complex
                                    else [0] * (n_cols + 1))]
        for parts in cells]


NUMBERS = st.one_of(
    st.integers(), st.integers(-2, 2),
    st.builds(Fraction, st.integers(), st.integers(1, 10 ** 30)),
    st.floats(allow_nan=False, allow_infinity=False),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.builds(complex, st.integers(-3, 3), st.integers(-3, 3)))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(NUMBERS)
@example(-1)
@example(-1j)
@example(complex(2.0 ** 62, 2.0 ** 62))
@example(complex(-1000004, 1))  # parts combine to -1, which hashes as -2
def test_exact_values_hash_as_the_numbers_they_equal(x):
    """A RationalComplex hashes as the int, Fraction, float or complex it
    equals, so that equal values, and records holding them, make one set
    element."""
    value = RationalComplex.coerce(x)
    assert value == x
    assert hash(value) == hash(x)
    heat = CharPoly(((1,), (0, 0, -1)))
    assert heat == CharPoly.from_table({(0, 0): 1, (1, 2): -1})
    assert len({heat, CharPoly.from_table({(0, 0): 1, (1, 2): -1})}) == 1



def _fraction_pair(x) -> tuple:
    """The number x as a (Fraction, Fraction) pair of its parts."""
    if isinstance(x, complex):
        return Fraction(x.real), Fraction(x.imag)
    return Fraction(x), Fraction(0)


def _pair_ops(x, y) -> dict:
    """``+ - * /`` of x and y on (Fraction, Fraction) pairs, the quotient
    None for a zero divisor."""
    (a, b), (c, d) = x, y
    denom = c * c + d * d
    return {operator.add: (a + c, b + d), operator.sub: (a - c, b - d),
            operator.mul: (a * c - b * d, a * d + b * c),
            operator.truediv: ((a * c + b * d) / denom,
                               (b * c - a * d) / denom) if denom else None}


def _pair_hash(a, b) -> int:
    """CPython's complex hash over the hashes of the parts a and b."""
    width = 1 << sys.hash_info.width
    h = (hash(a) + sys.hash_info.imag * hash(b)) % width
    h = h - width if h >= width // 2 else h
    return -2 if h == -1 else h


def _pair_str(a, b) -> str:
    if not b:
        return str(a)
    if not a:
        return f"{b}i"
    return f"{a}{'+' if b > 0 else '-'}{abs(b)}i"


def _complex_or_overflow(fn):
    try:
        return fn()
    except OverflowError:
        return OverflowError


def _assert_equals_pair(z, pair):
    """z holds the parts of ``pair``, each an int exactly when it is
    integral, and reads as the pair does: hash, bool, complex() and str."""
    for part, want in zip((z.re, z.im), pair):
        assert part == want
        assert type(part) is (int if want.denominator == 1 else Fraction)
    assert hash(z) == _pair_hash(*pair)
    assert bool(z) == bool(pair[0] or pair[1])
    assert _complex_or_overflow(lambda: complex(z)) == _complex_or_overflow(
        lambda: complex(float(pair[0]), float(pair[1])))
    assert str(z) == _pair_str(*pair)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(NUMBERS, NUMBERS)
@example(1, 2)  # 1/2 is a Fraction
@example(6, 3)  # 6/3 is the int 2
@example(3 + 4j, 1 + 2j)  # (11 - 2i)/5
@example(complex(5, -7), -1)
@example(7, 2)  # a quotient of two int parts, never the float 3.5
@example(Fraction(1, 2), Fraction(1, 2))  # integral sums become ints
def test_gaussian_rationals_compute_as_fraction_pairs(x, y):
    """Every operation of a RationalComplex equals the same operation on
    (Fraction, Fraction) pairs, with either operand a plain number, and
    holds each part as an int exactly when it is integral."""
    zx, zy = RationalComplex.coerce(x), RationalComplex.coerce(y)
    px, py = _fraction_pair(x), _fraction_pair(y)
    _assert_equals_pair(zx, px)
    _assert_equals_pair(-zx, (-px[0], -px[1]))
    for fn, want in _pair_ops(px, py).items():
        for args in ((zx, zy), (zx, y), (x, zy)):
            if want is None:
                with pytest.raises(ZeroDivisionError):
                    fn(*args)
            else:
                _assert_equals_pair(fn(*args), want)
    assert (zx == zy) == (px == py) and (zx == y) == (px == py)
