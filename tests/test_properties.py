"""Differential property tests: independent routes through mpde must agree.

Operators are drawn with a constant top coefficient ``p_n`` at (n, 0),
orders n <= 3 in t and <= 3 in z, Gaussian-rational coefficients, Gamma(1)
or Gamma(1/2)/Gamma(3/2) moments, small grids, and both rhs roles.
"""

import cmath
import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import brute_force

from mpde.charroots import CharPoly
from mpde.errors import EvaluationError, WindowError
from mpde.exact import RationalComplex
from mpde.parsing import parse_moment
from mpde.series import Series2
from mpde.solver import CauchyProblem, formal_solve, residual

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

    def problem(self, exact=True, mode="direct", scale=1.0) -> CauchyProblem:
        P = CharPoly.from_table({k: RationalComplex(*v)
                                 for k, v in self.table.items()})
        if exact:
            entries = [(j, i, RationalComplex(*v)) for (j, i), v in self.rhs.items()]
        else:
            entries = [(j, i, complex(RationalComplex(*v)) * scale)
                       for (j, i), v in self.rhs.items()]
        rhs = Series2.from_entries(entries, *self.shape, exact=exact)
        return CauchyProblem(P, self.m1, self.m2, rhs, self.out,
                             rhs_is_g=self.rhs_is_g, mode=mode)

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
@given(cases(), st.sampled_from(["direct", "pseudo"]))
def test_exact_residual_is_identically_zero(case, mode):
    prob = case.problem(mode=mode)
    try:
        rep = residual(prob, formal_solve(prob))
    except WindowError:
        assume(False)  # truncation below the operator order
    assert rep.exact_zero and rep.max_abs == 0.0 and rep.relative == 0.0


@SETTINGS
@given(cases())
def test_direct_and_pseudo_modes_agree_bit_for_bit(case):
    direct = formal_solve(case.problem(mode="direct"))
    pseudo = formal_solve(case.problem(mode="pseudo"))
    assert direct.coeffs == pseudo.coeffs


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
