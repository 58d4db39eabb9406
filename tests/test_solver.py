import math
import random
from fractions import Fraction

import pytest

from helpers import random_series2

from mpde.charroots import CharPoly, branches_at_infinity
from mpde.errors import EvaluationError, PreconditionError
from mpde.exact import RationalComplex
from mpde.moments import gamma_s
from mpde.series import Series2, apply_operator, gevrey_fit
from mpde.solver import (CauchyProblem, formal_solve, g_from_f, residual,
                         theoretical_orders)

G1 = gamma_s(1)

HEAT = CharPoly.from_table({(1, 0): 1, (0, 2): -1})
TRANSPORT = CharPoly.from_table({(1, 0): 1, (0, 1): -1})
TWOFACTOR = CharPoly.from_table({(2, 0): 1, (1, 2): -1, (1, 3): -1, (0, 5): 1})


def geometric_g(n1, n2, exact=False, t_coeffs=None):
    """g = (sum_j t_coeffs[j] t^j) / (1 - z); default is 1/(1-z)."""
    one = 1 if exact else 1.0
    zero = 0 if exact else 0.0
    rows = []
    for j in range(n1 + 1):
        w = t_coeffs[j] if t_coeffs else (one if j == 0 else zero)
        rows.append([w * one] * (n2 + 1))
    return Series2(rows, exact=exact)


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
    g = Series2.zeros(6, 20, exact=True)
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
    # overflow in the inflated columns alone (N1 = 60) is not an error
    n1, n2 = 70, 60
    g = geometric_g(n1, n2 + 5 * n1)
    with pytest.raises(EvaluationError, match="t-level 64"):
        formal_solve(CauchyProblem(TWOFACTOR, G1, G1, g, (n1, n2)))
    g = geometric_g(60, n2 + 5 * 60)
    prob = CauchyProblem(TWOFACTOR, G1, G1, g, (60, n2))
    assert residual(prob, formal_solve(prob)).relative < 1e-10


def test_residual_rejects_mismatched_ramification():
    prob = heat_problem(4, 4)
    u = formal_solve(prob)
    with pytest.raises(PreconditionError):
        residual(prob, Series2(u.coeffs, kappa1=2, exact=True))


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


def test_direct_mode_rejects_nonconstant_top():
    P = CharPoly.from_table({(1, 0): 1, (1, 2): 1, (0, 1): -1, (0, 3): -1})
    g = geometric_g(4, 40)
    with pytest.raises(PreconditionError):
        formal_solve(CauchyProblem(P, G1, G1, g, (4, 6), mode="direct"))


def test_pseudo_mode_matches_reduced_transport():
    # (dz^2 + 1)(dt - dz): the expansion of the quotient is exactly zeta
    P = CharPoly.from_table({(1, 0): 1, (1, 2): 1, (0, 1): -1, (0, 3): -1})
    n1, n2 = 10, 12
    g = geometric_g(n1, n2 + 3 * n1)
    prob = CauchyProblem(P, G1, G1, g, (n1, n2), mode="pseudo")
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
    # with a constant top coefficient the expansion is a plain polynomial,
    # so both modes produce the same exact coefficients
    n1, n2 = 8, 10
    g = geometric_g(n1, n2 + 2 * n1, exact=True)
    u_direct = formal_solve(CauchyProblem(HEAT, G1, G1, g, (n1, n2)))
    u_pseudo = formal_solve(CauchyProblem(HEAT, G1, G1, g, (n1, n2),
                                          mode="pseudo"))
    assert u_direct.coeffs == u_pseudo.coeffs


def test_pseudo_mode_exact_residual():
    P = CharPoly.from_table({(1, 0): 1, (1, 2): 1, (0, 1): -1, (0, 3): -1})
    n1, n2 = 8, 10
    rng = random.Random(44)
    g = random_series2(rng, n1, n2 + 3 * n1, exact=True)
    prob = CauchyProblem(P, G1, G1, g, (n1, n2), mode="pseudo")
    rep = residual(prob, formal_solve(prob))
    assert rep.exact_zero


def test_pseudo_mode_with_rhs_f_and_nontrivial_tail():
    # P0 = zeta + 2 gives a genuinely infinite expansion of the quotient
    P = CharPoly.from_table({(1, 0): 2, (1, 1): 1, (0, 2): -1})
    n1, n2 = 8, 10
    rng = random.Random(45)
    f = random_series2(rng, n1, n2 + 2 * n1 + 1, exact=True)
    prob = CauchyProblem(P, G1, G1, f, (n1, n2), mode="pseudo",
                         rhs_is_g=False)
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
                                                mode="pseudo", rhs_is_g=False))
                     for rhs in (f, f_float))
    for j in range(n1 + 1):
        for i in range(n2 + 1):
            want = complex(exact.coeffs[j][i])
            assert abs(approx.coeffs[j][i] - want) <= 1e-10 * max(1.0, abs(want))


def test_theoretical_orders():
    heat_br = branches_at_infinity(HEAT)
    rep = theoretical_orders(heat_br, 1, 1, 0, 0)
    assert rep.t_order == 1 and rep.per_branch[0].gevrey_t == 1
    tr = theoretical_orders(branches_at_infinity(TRANSPORT), 1, 1, 0, 0)
    assert tr.t_order == 0
    rep2 = theoretical_orders(heat_br, 1, 1, 2, 0)
    assert rep2.t_order == 2  # max(2*1 - 1, 2)
    # accepts the operator itself and reports the z-order
    rep3 = theoretical_orders(TWOFACTOR, 1, 1, 0, Fraction(1, 2))
    assert rep3.t_order == Fraction(7, 2) and rep3.z_order == Fraction(1, 2)
    # pole order -1 clips at zero in the positive part
    neg = branches_at_infinity(CharPoly.from_table({(1, 1): 1, (0, 0): -1}))
    rep4 = theoretical_orders(neg, 1, 1, 0, 0)
    assert rep4.per_branch[0].gevrey_t == 0  # max(0*(1+0) - 1, 0)


def test_gevrey_agreement_benchmarks():
    n1, n2 = 40, 60
    q3 = CharPoly.from_table({(1, 0): 1, (0, 3): -1})
    cases = [
        (HEAT, 2, (0, 0), None),
        (q3, 3, (0, 0), None),
        (TRANSPORT, 1, (0, 0), None),
        (HEAT, 2, (2, 0), [math.gamma(1 + 2 * j) for j in range(n1 + 1)]),
    ]
    for P, maxb, (st1, st2), t_coeffs in cases:
        g = geometric_g(n1, n2 + maxb * n1, t_coeffs=t_coeffs)
        prob = CauchyProblem(P, G1, G1, g, (n1, n2),
                             rhs_gevrey=(st1, st2))
        u = formal_solve(prob)
        fit = gevrey_fit(u)
        orders = theoretical_orders(branches_at_infinity(P), 1, 1, st1, st2)
        assert abs(fit.s_hat - float(orders.t_order)) <= 0.15
