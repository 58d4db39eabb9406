import itertools
import json
import math
import random
import sys
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

import outputs
from helpers import geometric_g, larger_k, random_series2
from oracles import laurent_tail, recurrence_float_levels, residual_cells
from routes import (apply_operator, borel, g_from_f, inv_borel, moment_antidiff,
                    moment_diff)

from mpde import kernel, moments, problem as problem_mod, solver
from mpde.charroots import CharPoly, branches_at_infinity
from mpde.errors import EvaluationError, PreconditionError
from mpde.exact import RationalComplex
from mpde.moments import gamma_s
from mpde.series import Series2, gevrey_fit
from mpde.parsing import parse_operator
from mpde.problem import (assemble, load_problem, solve_problem,
                          verify_problem)
from mpde.solver import (CauchyProblem, _recursion_terms, formal_solve,
                         level_widths, residual, rounded_recursion,
                         theoretical_orders)

G1 = gamma_s(1)

HEAT = CharPoly.from_table({(1, 0): 1, (0, 2): -1})
TRANSPORT = CharPoly.from_table({(1, 0): 1, (0, 1): -1})
TWOFACTOR = CharPoly.from_table({(2, 0): 1, (1, 2): -1, (1, 3): -1, (0, 5): 1})


def heat_problem(n1, n2, exact=True, **kw):
    g = geometric_g(n1, n2 + 2 * n1, exact=exact)
    return CauchyProblem(HEAT, G1, G1, g, (n1, n2), **kw)


def brute_force_heat(n1, n2):
    """Independent exact recursion with true factorial normalization."""
    width = n2 + 2 * n1 + 1
    U = [[Fraction(0)] * width for _ in range(n1 + 1)]
    for j in range(n1):
        G = [Fraction(math.factorial(i)) if j == 0 else Fraction(0)
             for i in range(width)]
        for i in range(width - 2 * (j + 1)):
            U[j + 1][i] = G[i] + U[j][i + 2]
    return [[U[j][i] / (math.factorial(j) * math.factorial(i))
             for i in range(n2 + 1)] for j in range(n1 + 1)]


def test_heat_formal_solution_matches_brute_force():
    n1, n2 = 10, 12
    u = formal_solve(heat_problem(n1, n2))
    oracle = brute_force_heat(n1, n2)
    for j in range(n1 + 1):
        for i in range(n2 + 1):
            assert u.coeffs[j][i].re == oracle[j][i]
            assert u.coeffs[j][i].im == 0
    # frozen closed-form spot values at z^0
    assert [u.coeffs[j][0].re for j in range(1, 5)] == [1, 1, 4, 30]
    for j in range(1, n1 + 1):
        for i in range(n2 + 1):
            expect = Fraction(math.factorial(i + 2 * j - 2),
                              math.factorial(j) * math.factorial(i))
            assert u.coeffs[j][i].re == expect


def test_zero_rhs_gives_zero_solution():
    g = Series2.from_entries((), 6, 20, exact=True)
    u = formal_solve(CauchyProblem(HEAT, G1, G1, g, (6, 8)))
    assert all(not c for row in u.coeffs for c in row)


def test_transport_solution_convergent():
    n1, n2 = 40, 60
    g = geometric_g(n1, n2 + n1)
    u = formal_solve(CauchyProblem(TRANSPORT, G1, G1, g, (n1, n2)))
    assert abs(gevrey_fit(u).s_hat) <= 0.1


def test_residual_exact_zero_on_corpus():
    for P, maxb in ((HEAT, 2), (TRANSPORT, 1), (TWOFACTOR, 5)):
        n1, n2 = 8, 12
        g = geometric_g(n1, n2 + maxb * n1, exact=True)
        prob = CauchyProblem(P, G1, G1, g, (n1, n2))
        rep = residual(prob, formal_solve(prob))
        assert rep.exact_zero and rep.max_abs == 0.0


def test_residual_float_random_polynomial_rhs():
    rng = random.Random(41)
    for _ in range(8):
        n = rng.randint(1, 3)
        table = {(n, 0): Fraction(rng.choice([1, 2, -2]))}
        for _ in range(rng.randint(1, 5)):
            table[(rng.randint(0, n - 1), rng.randint(0, 3))] = Fraction(
                rng.randint(-3, 3))
        table = {k: v for k, v in table.items() if v}
        P = CharPoly.from_table(table)
        maxb = max(b for _, b in table)
        n1, n2 = 10, 8
        g = random_series2(rng, n1, n2 + maxb * n1)
        prob = CauchyProblem(P, G1, G1, g, (n1, n2))
        rep = residual(prob, formal_solve(prob))
        assert rep.relative < 1e-10


def test_residual_detects_perturbation():
    prob = heat_problem(6, 8)
    u = formal_solve(prob)
    rows = [list(r) for r in u.coeffs]
    rows[3][2] = rows[3][2] + RationalComplex(Fraction(1, 1000))
    perturbed = Series2(rows, exact=True)
    rep = residual(prob, perturbed)
    assert rep.max_abs > 0 and not rep.exact_zero


def test_residual_float_propagates_nonfinite():
    # max() skips NaN; the residual must not
    prob = heat_problem(6, 8, exact=False)
    u = formal_solve(prob)
    for bad in (math.nan, math.inf):
        rows = [list(r) for r in u.coeffs]
        rows[3][2] = complex(bad, 0.0)
        rep = residual(prob, Series2(rows))
        assert math.isnan(rep.relative) and not rep.exact_zero
        assert not rep.relative <= 1e-8


def test_float_solve_raises_on_overflow_in_window():
    # raw float coefficients of twofactor leave binary64 at t-level 64;
    # overflow in the columns past N2 alone (N1 = 60) is not an error
    n1, n2 = 70, 60
    g = geometric_g(n1, n2 + 5 * n1)
    with pytest.raises(EvaluationError, match="t-level 64"):
        formal_solve(CauchyProblem(TWOFACTOR, G1, G1, g, (n1, n2)))
    g = geometric_g(60, n2 + 5 * 60)
    prob = CauchyProblem(TWOFACTOR, G1, G1, g, (60, n2))
    assert residual(prob, formal_solve(prob)).relative < 1e-10


REPROS = {name: problem for name, problem, _ in outputs.REPROS}


def _shipped(name, **changes):
    """A shipped problem file, or a repro of the output-diff corpus, with
    ``changes``, loaded."""
    pf = (json.loads(json.dumps(REPROS[name])) if name in REPROS else
          json.loads((resources.files("mpde") / "problems" / f"{name}.json")
                     .read_text()))
    pf.update(changes)
    return load_problem(json.dumps(pf))


def _float_problem(name, n1, n2, **changes):
    """A shipped problem file, with ``changes``, assembled in float mode."""
    return assemble(_shipped(name, truncation=[n1, n2], arithmetic="float",
                             **changes))


def _first_nonfinite_level(prob):
    """The first level whose output window holds a non-finite cell, in the
    level-by-level form of the float recursion, or None."""
    P = prob.operator
    top = P.p0()
    q, shift = (1, 0) if prob.rhs_is_g else (1 / top[P.B], -P.B)
    terms, taps = _recursion_terms(P.coeff_polys, top)
    q, terms, taps = rounded_recursion(q, terms, taps, "q", lambda a, b: "c")
    levels = recurrence_float_levels(prob.rhs.grid, q, terms, P.n,
                                     prob.widths, *prob.log_tables, taps,
                                     shift)
    N2 = prob.out_shape[1]
    return next((t for t, level in enumerate(levels)
                 if not np.isfinite(level[: N2 + 1]).all()), None)


GAMMA = dict(m1="Gamma(1/2)", m2="Gamma(3/2)")


@pytest.mark.parametrize("name,changes", [
    ("heat", {}), ("twofactor", {}), ("heat", GAMMA),
    ("heat", {"operator": "(1+1i)*dt - dz^2"}),
    ("heat", {"operator": "(2+dz)*dt - dz^2", "rhs_role": "f",
              "mode": "pseudo"})])
def test_float_solution_grid_is_read_only_contiguous_and_owned(name,
                                                               changes):
    # formal_solve copies the output window out of the recursion's grid of
    # levels once: a Series2 keeps that array as it is
    u = formal_solve(_float_problem(name, 20, 30, **changes))
    grid = u.grid
    assert grid.shape == (21, 31)
    assert not grid.flags.writeable
    assert grid.flags.c_contiguous and grid.flags.owndata


def test_decaying_float_cells_below_the_raised_range_bottom_lose_bits():
    # heat with g = 1/(1 - z/8) at (2, 400): u decays like 8**-i, and the
    # float levels hold u * M2, M2(i) = m2(i)/m2(0) * exp(-kappa*i) down to
    # 2**-D2, D2 = 211.6 bits for the 405 columns of i! here (README): a
    # cell whose |u| * M2(i) is a normal double keeps the float accuracy,
    # and some cells that are normal doubles read zero, their scaled values
    # below the subnormal range, where raw levels would hold them
    den = [[0, 0, "1", "0"], [0, 1, "-1/8", "0"]]
    pf = _shipped("heat", truncation=[2, 400],
                  rhs={"kind": "rational", "payload": {
                      "num": [[0, 0, "1", "0"]], "den": den}})
    prob = assemble(pf, arithmetic="float")
    exact = np.array([[complex(c).real for c in row] for row in formal_solve(
        assemble(pf, arithmetic="exact")).coeffs])
    got = formal_solve(prob).grid
    kappa, m2 = kernel._z_scale(prob.log_tables[1], max(prob.widths))
    d2 = -math.log2(m2.min())
    assert 211 < d2 < 212 and max(prob.widths) == 404
    scaled = np.abs(exact) * m2[: 401]
    kept = scaled >= 2.0 ** -1022
    assert kept.sum() == 600
    assert np.all(np.abs(got - exact)[kept] <= 1e-12 * np.abs(exact)[kept])
    lost = (np.abs(exact) >= 2.0 ** -1022) & (got == 0.0)
    assert lost.sum() > 20 and not (lost & kept).any()


@pytest.mark.parametrize("name,n1,n2,changes,where", [
    ("twofactor", 80, 60, {}, "first of a block"),
    ("heat", 100, 60, GAMMA, "inside a block"),
    ("heat", 107, 100, {}, "inside the last, partial block"),
    ("heat", 52, 60, GAMMA, "at N1")])
def test_float_solve_names_the_first_nonfinite_level(monkeypatch, name, n1,
                                                     n2, changes, where):
    # the kernel checks the window of 8 levels at a time and at N1, and
    # still names the first level that the level-by-level recursion finds
    # non-finite, having computed at most 7 levels past it: the rows its
    # np.isfinite checks see, one block after another (calls made by any
    # other function of the solve are not counted)
    prob = _float_problem(name, n1, n2, **changes)
    level = _first_nonfinite_level(prob)
    assert {"first of a block": level is not None and level % 8 == 0,
            "inside a block": level is not None and 0 < level % 8 < 7
            and level // 8 < n1 // 8,
            "inside the last, partial block": level is not None
            and level // 8 == n1 // 8 and n1 % 8 != 7 and level < n1,
            "at N1": level == n1}[where]
    isfinite, checked = np.isfinite, []
    kernel_code = kernel.recurrence_float.__code__

    def counted(block):
        if sys._getframe(1).f_code is kernel_code:
            checked.append(len(block))
        return isfinite(block)

    monkeypatch.setattr(np, "isfinite", counted)
    with pytest.raises(EvaluationError) as exc:
        formal_solve(prob)
    assert str(exc.value).startswith(
        f"float coefficients overflow at t-level {level} (of {n1}) inside "
        f"the requested window; lower the t-truncation (--n1) below {level},")
    assert level < sum(checked) <= level + 8


@pytest.mark.parametrize("operator,rhs_is_g,shape", [
    ("dt - dz^2", True, (6, 8)),
    ("(dt - dz^2)*(dt - dz^3)", True, (8, 10)),
    ("(2+1i*dz)*dt - (1+2i)*dz^2", False, (7, 6)),
    ("(2+3*dz)*dt - dz^2", True, (7, 6))])
@pytest.mark.parametrize("complex_rhs", [False, True])
def test_exact_residual_matches_the_per_cell_report(operator, rhs_is_g, shape,
                                                    complex_rhs):
    # the exact solution, whose rows equal the rhs rows, and the solution
    # with one cell changed, whose rows differ from a level on
    P = parse_operator(operator)
    rng = random.Random(19)
    n1, n2 = shape
    g = random_series2(rng, n1, level_widths(P, shape)[0], exact=True)
    if not complex_rhs:
        g = Series2([[RationalComplex(c.re) for c in row] for row in g.coeffs],
                    exact=True)
    prob = CauchyProblem(P, G1, gamma_s(Fraction(3, 2)), g, shape,
                         rhs_is_g=rhs_is_g)
    u = formal_solve(prob)
    rows = [list(row) for row in u.coeffs]
    rows[P.n + 1][2] += RationalComplex(Fraction(1, 3), Fraction(-2, 7))
    for v in (u, Series2(rows, exact=True)):
        rep = residual(prob, v)
        max_abs, scale = residual_cells(prob, v, rep.window)
        assert rep.max_abs == float(max_abs)
        assert rep.relative == float(max_abs / scale)
        assert rep.exact_zero == (max_abs == 0) == (v is u)


@pytest.mark.parametrize("name,changes", [
    ("heat", {}), ("transport", {}), ("twofactor", {}),
    ("heat", {"operator": "(2+dz)*dt - dz^2", "rhs_role": "f",
              "mode": "pseudo"}),
    ("multi-tap-pseudo-f", {}), ("t-dependent-den", {})])
def test_exact_zero_residual_is_reported_before_any_size(monkeypatch, name,
                                                         changes):
    # equal sides return a zero residual at once: the weighted maxima of
    # the differences and the sizes run only for a residual that is not
    # zero; the sides' lanes are compared over one divisor, also where
    # their row divisors differ (multi-tap-pseudo-f's lhs divisor is a
    # 47-digit integer, its rhs's 1)
    def sized(*args):
        raise AssertionError("an exactly zero residual was sized")

    monkeypatch.setattr(solver, "_max_weighted", sized)
    report = verify_problem(_shipped(name, arithmetic="exact", **changes))
    assert report["residual"] == report["residual_abs"] == 0.0
    assert report["residual_exact_zero"] and report["passed"]


def test_solution_linearity_exact():
    n1, n2 = 6, 8
    rng = random.Random(42)
    width = n2 + 2 * n1
    g1 = random_series2(rng, n1, width, exact=True)
    g2 = random_series2(rng, n1, width, exact=True)
    c = RationalComplex(Fraction(2, 3), Fraction(-1, 4))
    comb_rows = [[a + c * b for a, b in zip(r1, r2)]
                 for r1, r2 in zip(g1.coeffs, g2.coeffs)]
    out = []
    for g in (g1, g2, Series2(comb_rows, exact=True)):
        out.append(formal_solve(CauchyProblem(HEAT, G1, G1, g, (n1, n2))))
    u1, u2, u12 = out
    for j in range(n1 + 1):
        for i in range(n2 + 1):
            assert u12.coeffs[j][i] == u1.coeffs[j][i] + c * u2.coeffs[j][i]


def test_determinism_under_support_permutation():
    items = [((2, 0), 1), ((1, 2), -1), ((1, 3), -1), ((0, 5), 1)]
    rng = random.Random(43)
    outputs = []
    for _ in range(3):
        rng.shuffle(items)
        P = CharPoly.from_table(dict(items))
        g = geometric_g(6, 6 + 5 * 6)
        u = formal_solve(CauchyProblem(P, G1, G1, g, (6, 6)))
        outputs.append(u.coeffs)
    assert outputs[0] == outputs[1] == outputs[2]


def test_g_from_f_examples():
    f = Series2.from_entries([(0, 2, 1)], 2, 8, exact=True)
    # P0 = 1: g is f
    assert g_from_f([1], G1, f).coeffs == f.coeffs
    # P0 = zeta with constant f: g = z
    const = Series2.from_entries([(0, 0, 1)], 0, 4, exact=True)
    g = g_from_f([0, 1], G1, const)
    vals = [c.re for c in g.coeffs[0]]
    assert vals[1] == 1 and all(v == 0 for i, v in enumerate(vals) if i != 1)
    # P0 = zeta^2 + 1 applied back to g recovers f = z^2
    g2 = g_from_f([1, 0, 1], G1, f)
    back = apply_operator({(0, 0): 1, (0, 2): 1}, G1, G1, g2)
    J, I = back.valid
    for j in range(J + 1):
        for i in range(I + 1):
            want = RationalComplex(1) if (j, i) == (0, 2) else RationalComplex(0)
            assert back.coeffs[j][i] == want
    # float against exact, with complex and non-monic P0, a zero tap and a
    # zero trailing entry; g is valid B = deg P0 columns beyond f
    fe = random_series2(random.Random(61), 3, 9, exact=True)
    ff = Series2([[complex(c) for c in row] for row in fe.coeffs])
    for p0 in ([1], [0, 1], [1, 0, 1], [1j, 2, 0, 3], [2, Fraction(-1, 3), 0],
               [1, Fraction(1, 2), 2 - 1j]):
        B = max(b for b, c in enumerate(p0) if c)
        for m2 in (G1, gamma_s(Fraction(3, 2))):
            ge, gf = g_from_f(p0, m2, fe), g_from_f(p0, m2, ff)
            assert ge.valid == gf.valid == (3, 9 + B)
            for want, got in zip(ge.coeffs, gf.coeffs):
                want = [complex(c) for c in want]
                top = max(map(abs, want))
                err = max(abs(x - y) for x, y in zip(want, got))
                assert err <= 1e-14 * top


@pytest.mark.parametrize("operator,shape,slope,cells", [
    ("dt - dz^2", (60, 60), 2, 7_200),
    ("dt - dz", (200, 200), 1, 60_100),
    ("(dt - dz^2)*(dt - dz^3)", (60, 60), 3, 8_732),
    ("(dt - dz^2)*(dt - dz^3)", (160, 60), 3, 47_382),
    ("(2+dz)*dt - dz^2", (40, 40), 1, 2_420),
    ("(2+3*dz)*dt^2 - dz", (30, 10), 0, 319)])
def test_level_widths_grow_by_the_largest_up_shift_per_level(
        operator, shape, slope, cells):
    # twofactor shifts up by 3 per level through dz^3*dt and by 5 per two
    # levels through dz^5, so 3 columns a level where max_b = 5; pseudo's
    # dz^2 over 2+dz shifts up by 1; a quotient of degree 0 adds nothing
    P = parse_operator(operator)
    N1, N2 = shape
    w = level_widths(P, shape)
    assert w == [N2 + slope * (N1 - t) for t in range(N1 + 1)]
    # the cells the recursion computes, levels t >= n
    assert sum(x + 1 for x in w[P.n:]) == cells


@pytest.mark.parametrize("exact", [True, False])
def test_f_rhs_needs_b_columns_fewer_than_the_inflated_window(exact):
    # B = deg P0 = 3 and deg A_0 = 2 < B: no term shifts z up, so every
    # level is N2 wide and f is read up to column N2 - B
    P = CharPoly.from_table({(1, 0): 1j, (1, 1): 2, (1, 3): 3, (0, 2): -1})
    n1, n2 = 4, 5
    assert level_widths(P, (n1, n2)) == [n2] * (n1 + 1)
    width = n2 - 3
    rng = random.Random(62)
    f = random_series2(rng, n1 - 1, width, exact=exact)
    prob = CauchyProblem(P, G1, G1, f, (n1, n2), rhs_is_g=False)
    rep = residual(prob, formal_solve(prob))
    assert rep.exact_zero if exact else rep.relative < 1e-12
    short = Series2([row[:-1] for row in f.coeffs], exact=exact)
    with pytest.raises(PreconditionError,
                       match=rf"insufficient rhs data: need window "
                             rf"\({n1 - 1}, {width}\), rhs provides "
                             rf"\({n1 - 1}, {width - 1}\)"):
        formal_solve(CauchyProblem(P, G1, G1, short, (n1, n2),
                                   rhs_is_g=False))


def test_rhs_as_f_direct_mode():
    # rhs_role f with constant P0 = 2: solving scales g = f/2
    P = CharPoly.from_table({(1, 0): 2, (0, 2): -1})
    n1, n2 = 6, 8
    f = geometric_g(n1, n2 + 2 * n1, exact=True)
    prob = CauchyProblem(P, G1, G1, f, (n1, n2), rhs_is_g=False)
    u = formal_solve(prob)
    rep = residual(prob, u)
    assert rep.exact_zero


def test_insufficient_rhs_data():
    g = geometric_g(3, 10, exact=True)
    with pytest.raises(PreconditionError):
        formal_solve(CauchyProblem(HEAT, G1, G1, g, (8, 30)))


@pytest.mark.parametrize("exact", [True, False])
def test_a_short_rhs_is_zero_past_its_rows_only_when_declared(exact):
    # 1/(1-z) on row 0 alone: by default the rows the solve needs past it
    # are missing, and with rhs_zero_past they read as zero, which solves
    # and checks as the rhs zero-padded to N1 rows
    n1, n2 = 8, 30
    short, padded = (geometric_g(rows, n2 + 2 * n1, exact) for rows in (0, n1))
    with pytest.raises(PreconditionError, match=r"insufficient rhs data: "
                       r"need window \(7, 46\), rhs provides \(0, 46\)"):
        formal_solve(CauchyProblem(HEAT, G1, G1, short, (n1, n2)))
    prob = CauchyProblem(HEAT, G1, G1, short, (n1, n2), rhs_zero_past=True)
    full = CauchyProblem(HEAT, G1, G1, padded, (n1, n2))
    assert prob.rhs_window == full.rhs_window == (n1, n2 + 2 * n1)
    u = formal_solve(prob)
    assert u == formal_solve(full)
    assert repr(residual(prob, u)) == repr(residual(full, u))


T_DEN = {"kind": "rational", "payload": {
    "num": [[0, 0, "1", "0"]],
    "den": [[0, 0, "1", "0"], [0, 1, "-1", "0"], [1, 0, "-1/2", "0"]]}}
COEFFS = {"kind": "coeffs", "payload": [[0, 0, "1", "0"], [3, 1, "2", "0"],
                                        [250, 0, "1", "0"]]}


@pytest.mark.parametrize("rhs,rows", [(None, 0), (T_DEN, 200), (COEFFS, 200)])
@pytest.mark.parametrize("arithmetic", ["float", "exact"])
def test_assemble_stores_the_rhs_on_its_data_rows(rhs, rows, arithmetic):
    # heat at (200, 100) in float, at its file truncation in exact: the
    # shipped t-free 1/(1-z) on its one row, a den with a term in t on all
    # N1 + 1 rows, and a coeffs rhs up to its last entry row, at most N1;
    # the grid is as wide as the widest level
    pf = _shipped("heat", **({"rhs": rhs} if rhs else {}))
    n1, n2 = (200, 100) if arithmetic == "float" else pf.truncation
    prob = assemble(pf, n1, n2, arithmetic)
    assert prob.rhs_zero_past and prob.rhs.exact == (arithmetic == "exact")
    assert prob.rhs.valid == (min(rows, n1), prob.widths[0])
    assert prob.rhs_window == (n1, prob.widths[0])


def test_direct_mode_rejects_nonconstant_top(monkeypatch):
    # a file that declares "direct" for a polynomial top coefficient is
    # refused by assemble before the level widths or the rhs are built; the
    # same file declared "pseudo" solves, and so does the CauchyProblem
    heat = json.loads((resources.files("mpde") / "problems" / "heat.json")
                      .read_text())
    heat.update(operator="(1+dz^2)*dt - dz - dz^3")

    def refuse(*args):
        raise AssertionError("built after the mode check")

    with monkeypatch.context() as patch:
        for name in ("level_widths", "expand_rhs"):
            patch.setattr(problem_mod, name, refuse)
        with pytest.raises(PreconditionError, match="^direct mode requires "
                           "a constant top lambda coefficient; use pseudo "
                           "mode$"):
            assemble(load_problem(heat), 4, 6, "exact")
    prob = assemble(load_problem(dict(heat, mode="pseudo")), 4, 6, "exact")
    assert residual(prob, formal_solve(prob)).exact_zero


def test_pseudo_mode_matches_reduced_transport():
    # (dz^2 + 1)(dt - dz): the expansion of the quotient is exactly zeta
    P = CharPoly.from_table({(1, 0): 1, (1, 2): 1, (0, 1): -1, (0, 3): -1})
    n1, n2 = 10, 12
    g = geometric_g(n1, n2 + 3 * n1)
    prob = CauchyProblem(P, G1, G1, g, (n1, n2))
    u = formal_solve(prob)
    rep = residual(prob, u)
    assert rep.relative < 1e-8
    gt = geometric_g(n1, n2 + n1)
    ut = formal_solve(CauchyProblem(TRANSPORT, G1, G1, gt, (n1, n2)))
    for j in range(n1 + 1):
        for i in range(n2 + 1):
            d = abs(complex(u.coeffs[j][i]) - complex(ut.coeffs[j][i]))
            assert d <= 1e-9 * max(1.0, abs(complex(ut.coeffs[j][i])))


def test_pseudo_mode_agrees_with_direct_for_constant_top():
    # the declared mode is not read past assemble: a shipped problem, whose
    # top is constant, solves to the same CSV bytes and residual in both
    # declarations, and its sidecar differs only in "mode", in both
    # arithmetics
    for name, arithmetic in itertools.product(
            ("heat", "transport", "twofactor"), ("exact", "float")):
        data = json.loads((resources.files("mpde") / "problems"
                           / f"{name}.json").read_text())
        (u, direct), (v, pseudo) = (
            solve_problem(load_problem(dict(data, mode=mode)), 12, 10,
                          arithmetic) for mode in ("direct", "pseudo"))
        assert u.to_csv() == v.to_csv()
        assert (direct.pop("mode"), pseudo.pop("mode")) == ("direct",
                                                            "pseudo")
        assert json.dumps(direct) == json.dumps(pseudo)


def test_pseudo_mode_exact_residual():
    P = CharPoly.from_table({(1, 0): 1, (1, 2): 1, (0, 1): -1, (0, 3): -1})
    n1, n2 = 8, 10
    rng = random.Random(44)
    g = random_series2(rng, n1, n2 + 3 * n1, exact=True)
    prob = CauchyProblem(P, G1, G1, g, (n1, n2))
    rep = residual(prob, formal_solve(prob))
    assert rep.exact_zero


def test_pseudo_mode_with_rhs_f_and_nontrivial_tail():
    # P0 = zeta + 2 gives a genuinely infinite expansion of the quotient
    P = CharPoly.from_table({(1, 0): 2, (1, 1): 1, (0, 2): -1})
    n1, n2 = 8, 10
    rng = random.Random(45)
    f = random_series2(rng, n1, n2 + 2 * n1 + 1, exact=True)
    prob = CauchyProblem(P, G1, G1, f, (n1, n2), rhs_is_g=False)
    rep = residual(prob, formal_solve(prob))
    assert rep.exact_zero


@pytest.mark.parametrize("table", [
    {(1, 0): 2, (1, 1): 1, (0, 2): -1},   # polynomial part plus tail
    {(1, 0): 2, (1, 1): 1, (0, 0): -1},   # tail only: full-width levels
    {(1, 0): 2, (1, 1): 3, (0, 2): -1},   # P0 leading coefficient 3
])
def test_pseudo_mode_float_tail_matches_exact(table):
    P = CharPoly.from_table(table)
    n1, n2 = 6, 8
    rng = random.Random(46)
    f = random_series2(rng, n1, n2 + 2 * n1 + 1, exact=True)
    f_float = Series2([[complex(c) for c in row] for row in f.coeffs])
    exact, approx = (formal_solve(CauchyProblem(P, G1, G1, rhs, (n1, n2),
                                                rhs_is_g=False))
                     for rhs in (f, f_float))
    for j in range(n1 + 1):
        for i in range(n2 + 1):
            want = complex(exact.coeffs[j][i])
            assert abs(approx.coeffs[j][i] - want) <= 1e-10 * max(1.0, abs(want))


@pytest.mark.parametrize("den", [[1, -3, 2], [2, 0, 0, 1], [5]])
def test_laurent_tail_solves_the_division(den):
    # rem/den = sum_r h_r zeta**-r: in w = 1/zeta, den_w * h = rem_w
    den = [RationalComplex(c) for c in den]
    rem = [RationalComplex(Fraction(1, 2), -1),
           RationalComplex(3)][:len(den) - 1]
    B, order = len(den) - 1, 12
    h = [RationalComplex(0)] + laurent_tail(rem, den, order)
    for t in range(order + 1):
        lhs = sum((den[B - k] * h[t - k] for k in range(min(B, t) + 1)),
                  RationalComplex(0))
        assert lhs == (rem[B - t] if 0 <= B - t < len(rem) else 0)


def test_laurent_tail_of_a_monomial_top_divides_at_most_its_degree(
        monkeypatch):
    # rem / (c * zeta**B) has at most B nonzero coefficients; the zero ones
    # need no division, however long the expansion
    divisions = []
    divide = RationalComplex.__truediv__

    def counting(self, other):
        divisions.append(other)
        return divide(self, other)

    monkeypatch.setattr(RationalComplex, "__truediv__", counting)
    B, order = 3, 5000
    den = [RationalComplex(0)] * B + [RationalComplex(Fraction(2, 3), 1)]
    rem = [RationalComplex(1), RationalComplex(0), RationalComplex(-5, 2)]
    h = laurent_tail(rem, den, order)
    assert len(divisions) == 2  # the nonzero coefficients of rem
    assert len(h) == order
    assert [r for r, c in enumerate(h, 1) if c] == [1, 3]
    assert h[0] == rem[2] / den[B] and h[2] == rem[0] / den[B]


def test_non_monic_pseudo_lanes_stay_near_the_reduced_size():
    # P0 = 2 + 3 zeta: the taps' denominator 3 sits in the column divisors,
    # so the lanes hold no power of 3 that grows with the internal width;
    # the reduced raw coefficients need 420 bits at (40, 40)
    P = parse_operator("(2+3*dz)*dt - dz^2")
    n1, n2 = 40, 40
    f = geometric_g(n1, n2 + 2 * n1 + 1, exact=True)
    u = formal_solve(CauchyProblem(P, G1, G1, f, (n1, n2), rhs_is_g=False))
    reduced = max(x.bit_length() for row in u.coeffs for c in row
                  for q in (c.re, c.im) for x in (q.numerator, q.denominator))
    lanes = u.lanes
    lane_bits = max(abs(x).bit_length() for lane in (lanes.re, lanes.im)
                    if lane is not None for row in lane for x in row)
    assert reduced == 420
    assert lane_bits <= 2 * reduced


@pytest.mark.parametrize("operator", ["(2+dz)*dt - dz^2",
                                      "(2+3*dz)*dt - dz^2"])
def test_pseudo_mode_axpy_calls_follow_the_terms(operator, monkeypatch):
    # each t-level runs two passes of the fused row builder, the terms that
    # shift down and then the row; they receive the three recursion terms
    # (zeta^0, zeta^1 and one remainder term), each an axpy
    # acc + k * src[i + b] on the level below, plus the base and the tap
    # sum; the taps run along z between the passes, so no count depends on
    # the internal level widths
    passes, solved = [], []
    fold, recurrence = kernel._fold, kernel.recurrence
    monkeypatch.setattr(kernel, "_fold", lambda terms, n:
                        passes.append(terms) or fold(terms, n))
    monkeypatch.setattr(kernel, "recurrence", lambda *args:
                        solved.append(recurrence(*args)) or solved[-1])
    n1, n2 = 80, 80
    g = geometric_g(n1, n2 + 2 * n1, exact=True)
    u = formal_solve(CauchyProblem(parse_operator(operator), G1, G1, g,
                                   (n1, n2)))
    (v,) = solved
    level = {id(row): t for t, row in enumerate(v.re)}
    reads = [(level[id(src)], b) for terms in passes for _, src, b in terms
             if id(src) in level]
    assert len(passes) == 2 * n1
    assert sum(map(len, passes)) == 5 * n1
    assert len(reads) == 3 * n1
    assert sorted(t for t, _ in reads) == [t for t in range(n1)
                                           for _ in range(3)]
    assert sorted(set(b for _, b in reads)) == [-1, 0, 1]
    assert u.valid == (n1, n2)


@pytest.mark.parametrize("P,terms", [
    (HEAT, [(1, 2, 1)]), (TWOFACTOR, [(2, 5, -1), (1, 2, 1), (1, 3, 1)])],
    ids=["heat", "twofactor"])
def test_recursion_terms_of_a_constant_top_multiply_no_zero(P, terms,
                                                            monkeypatch):
    # a zero coefficient of A_{n-a} gives no quotient term and updates
    # nothing, so no multiplication reads it
    assert any(not c for row in P.coeff_polys for c in row)
    zeros = []
    mul = RationalComplex.__mul__

    def counting_mul(self, other):
        if not self or not other:
            zeros.append((self, other))
        return mul(self, other)
    monkeypatch.setattr(RationalComplex, "__mul__", counting_mul)
    top = [RationalComplex.coerce(c) for c in P.p0()]
    assert _recursion_terms(P.coeff_polys, top) == (terms, [])
    assert zeros == []


@pytest.mark.parametrize("exact", [True, False])
def test_moment_tables_are_built_once_per_problem(exact, monkeypatch):
    # g_from_f, formal_solve and the residual slice the problem's tables;
    # with m1 == m2 one table serves both axes
    calls = []
    for name in ("fraction_table", "log_table"):
        build = getattr(moments, name)
        monkeypatch.setattr(moments, name,
                            lambda *a, build=build, name=name:
                            calls.append(name) or build(*a))
    P = CharPoly.from_table({(1, 0): 1, (1, 1): 2, (0, 3): -1, (0, 0): 1})
    rng = random.Random(54)
    f = random_series2(rng, 6, 8 + 3 * 6 + 1, exact=exact)
    for m1, tables in ((gamma_s(Fraction(1, 2)), 2), (G1, 1)):
        calls.clear()
        prob = CauchyProblem(P, m1, G1, f, (6, 8), rhs_is_g=False)
        rep = residual(prob, formal_solve(prob))
        assert calls == tables * ["fraction_table" if exact else "log_table"]
        assert rep.relative <= (0 if exact else 1e-12)


@pytest.mark.parametrize("changes", [
    {}, {"operator": "(2+dz)*dt - dz^2", "rhs_role": "f", "mode": "pseudo"},
    {"operator": "(2+dz)*dt - dz^2", "mode": "pseudo"}],
    ids=["heat", "pseudo-f", "pseudo-g"])
def test_exact_solve_normalizes_its_rhs_once(changes, monkeypatch):
    # the recursion and the residual read one normalized rhs, which the
    # residual shifts by its P0 table (by 1 for an f rhs)
    heat = json.loads((resources.files("mpde") / "problems" / "heat.json")
                      .read_text())
    data = dict(heat, truncation=[12, 16], **changes)
    probs, rescaled = [], []
    assemble, rescale = problem_mod.assemble, kernel.rescale
    monkeypatch.setattr(problem_mod, "assemble", lambda *args:
                        probs.append(assemble(*args)) or probs[-1])
    monkeypatch.setattr(kernel, "rescale", lambda grid, *args:
                        rescaled.append(grid) or rescale(grid, *args))
    _, sidecar = problem_mod.solve_problem(problem_mod.load_problem(data),
                                           arithmetic="exact")
    (prob,) = probs
    assert sum(grid is prob.rhs.lanes for grid in rescaled) == 1
    assert sidecar["residual_exact_zero"]


@pytest.mark.parametrize("m", [G1, gamma_s(Fraction(3, 2))])
@pytest.mark.parametrize("kappa", [1, 2])
def test_shared_moment_table_equals_two_separate_ones(m, kappa):
    # kappa multiplies each factor's k
    m = larger_k(m, kappa)
    P = CharPoly.from_table({(2, 0): 1, (1, 2): -1, (0, 1): 3})
    for n1, n2 in ((10, 3), (3, 10), (0, 0)):
        f = Series2([[1.0] * (n2 + 2 * n1 + 1)] * (n1 + 1))
        prob = CauchyProblem(P, m, m, f, (n1, n2))
        n_rows, n_cols = (len(t) - 1 for t in prob.log_tables)
        assert n_rows == n1 + 2 and n_cols == n2 + 2 * n1 + 2
        logs = prob.log_tables
        for got, n in zip(logs, (n_rows, n_cols)):
            assert [x.hex() for x in got.tolist()] == \
                [x.hex() for x in moments.log_table(m, n).tolist()]
        assert prob.fraction_tables == (moments.fraction_table(m, n_rows),
                                        moments.fraction_table(m, n_cols))


def test_integral_moment_values_are_int_divisors():
    # Gamma(1) values are factorials: the problem's tables hold them as
    # ints, and so every divisor of the solution's lanes is an int
    prob = heat_problem(12, 10)
    lanes = formal_solve(prob).lanes
    assert all(type(w) is int for table in prob.fraction_tables
               for w in table)
    assert all(type(d) is int for d in [*lanes.row_div, *lanes.col_div])
    # Gamma(1 + j/2) is an integer at even j only: the other values stay
    # Fractions, and the tables still equal the exact moment values
    m = gamma_s(Fraction(1, 2))
    prob = CauchyProblem(HEAT, m, m, geometric_g(12, 34, exact=True),
                         (12, 10))
    types = set()
    for got in prob.fraction_tables:
        want = moments.fraction_table(m, len(got) - 1)
        assert got == want
        assert [type(w) for w in got] == [
            int if w.denominator == 1 else Fraction for w in want]
        types.update(map(type, got))
    assert types == {int, Fraction}


@pytest.mark.parametrize("m", [G1, gamma_s(Fraction(1, 2))],
                         ids=["Gamma(1)", "Gamma(1/2)"])
def test_transforms_of_int_divisors_equal_fraction_divisors(m):
    # the transforms divide a series' divisors by the moment values of
    # moments.fraction_table, ints where they are integral; a solution
    # whose divisors are ints gives the same series as one with the same
    # cells over Fraction divisors; an int divided by an int with ``/``
    # would give a float, which rounds the divisors past 2**53 that z up
    # to 24 reaches (24! > 2**79)
    prob = CauchyProblem(TWOFACTOR, G1, G1,
                         geometric_g(8, 24 + 3 * 8, exact=True), (8, 24))
    u = formal_solve(prob)
    lanes = u.lanes
    assert all(type(d) is int for d in [*lanes.row_div, *lanes.col_div])
    v = Series2(kernel.RawLanes(lanes.re, lanes.im,
                                list(map(Fraction, lanes.row_div)),
                                list(map(Fraction, lanes.col_div))), True)
    assert v == u
    outputs = []
    for axis in ("t", "z"):
        for transform in (borel, inv_borel, moment_diff, moment_antidiff):
            outputs += [transform(m, u, axis), transform(m, v, axis)]
            assert outputs[-2] == outputs[-1]
    table = {(1, 0): 1, (0, 2): RationalComplex(Fraction(-1, 3), 2)}
    for m1, m2 in ((m, G1), (G1, m)):
        outputs += [apply_operator(table, m1, m2, u),
                    apply_operator(table, m1, m2, v)]
        assert outputs[-2] == outputs[-1]
    outputs += [g_from_f([2, 1], m, u), g_from_f([2, 1], m, v)]
    assert outputs[-2] == outputs[-1]
    if m == G1:
        # the values of Gamma(1) are factorials: every output of the
        # solution, whose divisors are ints, holds its divisors as ints
        for out in outputs[::2]:
            assert all(type(d) is int
                       for d in [*out.lanes.row_div, *out.lanes.col_div])


def test_float_solve_restores_the_numpy_error_state():
    # the float recursion ignores overflow from its first level to its last;
    # the caller's state comes back after a solve that overflows (the
    # EvaluationError leaves the recursion suspended) and after one that
    # succeeds, in direct and pseudo mode
    import numpy as np

    pseudo = CharPoly.from_table({(1, 0): 2, (1, 1): 1, (0, 2): -1})
    cases = [(heat_problem(200, 100, exact=False), True),
             (heat_problem(20, 10, exact=False), False),
             (CauchyProblem(pseudo, G1, G1, geometric_g(12, 40), (12, 10),
                            rhs_is_g=False), False)]
    with np.errstate(all="raise"):
        state = np.geterr()
        for prob, overflows in cases:
            if overflows:
                # exc holds the traceback, so the recursion stays suspended
                # unless formal_solve closed it
                with pytest.raises(EvaluationError) as exc:
                    formal_solve(prob)
                assert np.geterr() == state, exc.value
            else:
                residual(prob, formal_solve(prob))
                assert np.geterr() == state
        g_from_f([2, 1], G1, geometric_g(8, 8))
        assert np.geterr() == state


def test_theoretical_orders():
    heat_br = branches_at_infinity(HEAT)
    rep = theoretical_orders(heat_br, 1, 1, 0, 0)
    assert rep.t_order == 1 and rep.per_branch[0].gevrey_t == 1
    tr = theoretical_orders(branches_at_infinity(TRANSPORT), 1, 1, 0, 0)
    assert tr.t_order == 0
    rep2 = theoretical_orders(heat_br, 1, 1, 2, 0)
    assert rep2.t_order == 2  # max(2*1 - 1, 2)
    # reports the declared z-order
    rep3 = theoretical_orders(branches_at_infinity(TWOFACTOR), 1, 1, 0,
                              Fraction(1, 2))
    assert rep3.t_order == Fraction(7, 2) and rep3.z_order == Fraction(1, 2)
    # pole order -1 clips at zero in the positive part
    neg = branches_at_infinity(CharPoly.from_table({(1, 1): 1, (0, 0): -1}))
    rep4 = theoretical_orders(neg, 1, 1, 0, 0)
    assert rep4.per_branch[0].gevrey_t == 0  # max(0*(1+0) - 1, 0)

