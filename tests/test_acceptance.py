"""Acceptance suite: one test per criterion, in order, with the stated
tolerances and runtime budgets.  Each test prints a single PASS line when its
assertions hold (pytest aborts the test before the print otherwise)."""

import math
import random
import time
from fractions import Fraction
from importlib import resources

import pytest

from helpers import (from_t_coeffs, geometric_g, random_factor_product,
                     random_series1, table_mul)
from oracles import frac_integral_quadrature, mellin_check
from routes import (Series1, borel, e_s_beta, e_s_beta_via_derivative, eval_at,
                    eval_fraction, inv_borel, moment_antidiff, moment_diff)

from mpde import newton
from mpde.charroots import CharPoly, branches_at_infinity, validate_numeric
from mpde.moments import MomentFactor, MomentFunction, gamma_s
from mpde.problem import analyze_problem, load_problem
from mpde.series import gevrey_fit
from mpde.solver import (CauchyProblem, formal_solve, residual,
                         theoretical_orders)
from mpde.summability import admissible, singular_direction_probe

G1 = gamma_s(1)
PROBLEMS = resources.files("mpde") / "problems"


def _passed(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def test_acceptance_01_heat_pipeline():
    t0 = time.monotonic()
    pf = load_problem(str(PROBLEMS / "heat.json"))
    report = analyze_problem(pf)
    assert report["gevrey"]["t_order"] == "1"
    summ = report["summability"]
    assert summ["case"] == "simple_sum_I"
    assert [l["K"] for l in summ["levels"]] == ["1"]
    assert summ["disc_replacement"] is True
    z_secs = [s for s in summ["sectors"] if s["var"] == "z"]
    assert sorted(s["dir_pi"] for s in z_secs) == ["0", "1"]
    assert all(s["growth_exact"] == "2" for s in z_secs)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _passed(1, f"heat analyze: Q=1, K=1, z-dirs {{0, pi}}, growth 2, "
               f"simple_sum_I with disc replacement ({elapsed:.3f}s)")


def test_acceptance_02_solver_exactness():
    t0 = time.monotonic()
    n1, n2 = 20, 60
    cases = [
        ("heat", {(1, 0): 1, (0, 2): -1}, 2),
        ("transport", {(1, 0): 1, (0, 1): -1}, 1),
        ("two-factor", {(2, 0): 1, (1, 2): -1, (1, 3): -1, (0, 5): 1}, 5),
    ]
    for name, table, maxb in cases:
        P = CharPoly.from_table(table)
        g = geometric_g(n1, n2 + maxb * n1, exact=True)
        prob = CauchyProblem(P, G1, G1, g, (n1, n2))
        rep = residual(prob, formal_solve(prob))
        assert rep.exact_zero and rep.max_abs == 0.0, name
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _passed(2, f"residual identically 0 in exact mode for heat/transport/"
               f"two-factor at N1=20, N2=60 ({elapsed:.2f}s)")


def test_acceptance_03_gevrey_empirical_vs_theoretical():
    t0 = time.monotonic()
    n1, n2 = 40, 60
    q3 = CharPoly.from_table({(1, 0): 1, (0, 3): -1})
    heat = CharPoly.from_table({(1, 0): 1, (0, 2): -1})
    transport = CharPoly.from_table({(1, 0): 1, (0, 1): -1})
    cases = [
        (heat, 2, (0, 0), None),
        (q3, 3, (0, 0), None),
        (transport, 1, (0, 0), None),
        (heat, 2, (2, 0), [math.gamma(1 + 2 * j) for j in range(n1 + 1)]),
    ]
    worst = 0.0
    for P, maxb, (st1, st2), t_coeffs in cases:
        g = geometric_g(n1, n2 + maxb * n1, t_coeffs=t_coeffs)
        prob = CauchyProblem(P, G1, G1, g, (n1, n2))
        fit = gevrey_fit(formal_solve(prob))
        orders = theoretical_orders(branches_at_infinity(P), 1, 1, st1, st2)
        err = abs(fit.s_hat - float(orders.t_order))
        worst = max(worst, err)
        assert err <= 0.15, (P.support(), fit.s_hat, orders.t_order)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _passed(3, f"four benchmark fits within 0.15 of max Q "
               f"(worst {worst:.3f}, {elapsed:.2f}s)")


def test_acceptance_04_newton_branch_consistency():
    rng = random.Random(101)
    for trial in range(20):
        table, factors = random_factor_product(rng, rng.randint(1, 5))
        P = CharPoly.from_table(table)
        branches = branches_at_infinity(P)
        polygon = newton.build(table, 1, 1)
        report = newton.cross_check(polygon, branches, 1, 1)
        assert report.ok, (factors, report.details)
        expected = {Fraction(1, p - 1) for _, p in factors if p > 1}
        assert set(newton.slopes(polygon)) == expected
        # translation by (deg P0 * s2, 0) under multiplication by random P0
        k = rng.randint(0, 4)
        p0 = {(0, d): Fraction(rng.randint(-3, 3)) for d in range(k)}
        p0[(0, k)] = Fraction(rng.choice([1, 2, -2]))
        shifted = newton.build(table_mul(p0, table), 1, 1)
        assert shifted.vertices == tuple((x + k, y)
                                         for x, y in polygon.vertices)
    _passed(4, "20 random factor products: slopes = {1/(q-1)}, vertex "
               "formula and translation hold exactly")


def test_acceptance_05_branch_extraction():
    P = CharPoly.from_table({(2, 0): 1, (0, 3): -1})
    branches = branches_at_infinity(P)
    assert len(branches) == 1
    b = branches[0]
    assert b.q == Fraction(3, 2) and b.kappa == 2
    lams = sorted(complex(l).real for l, _ in b.leading_terms)
    assert abs(lams[0] + 1) < 1e-10 and abs(lams[1] - 1) < 1e-10
    rep = validate_numeric(P, branches, [1e4])
    assert rep.branches[0].deviations[0] < 1e-6
    P2 = CharPoly.from_table({(2, 0): 1, (0, 3): -1, (0, 1): -1})
    rep2 = validate_numeric(P2, branches_at_infinity(P2), [1e2, 1e4])
    d_small, d_big = rep2.branches[0].deviations
    assert d_big < d_small and rep2.consistent
    _passed(5, f"lambda^2 - zeta^3: q=3/2 with +-1, deviation "
               f"{rep.branches[0].deviations[0]:.2e} at 1e4; perturbed "
               f"deviations shrink {d_small:.2e} -> {d_big:.2e}")


def test_acceptance_06_moment_core_identities():
    for (a, b, k) in ((1, 1, 1), (1, 1, 2), (2, 1, 1)):
        m = MomentFunction((MomentFactor(a, b, k, 1),))
        for u in (0, 1, 2, 3, 4):
            direct = eval_at(m, u)
            assert abs(mellin_check(a, b, k, u) - direct) / direct < 1e-8
    for s in (Fraction(1, 2), Fraction(1), Fraction(2)):
        pos, neg = gamma_s(s), gamma_s(-s)
        for n in range(0, 101):
            prod = float(eval_fraction(pos, n) * eval_fraction(neg, n))
            assert abs(prod - 1.0) <= 1e-10
    for s in (Fraction(1, 2), Fraction(1)):
        for beta in (1, 2, 3):
            for x in (2.0, -2.0, 1.0, -0.5, 1 + 1j, -1 + 0.5j):
                va = e_s_beta(s, beta, x, tol=1e-14)
                vb = e_s_beta_via_derivative(s, beta, x, tol=1e-14)
                assert abs(va - vb) <= 1e-10 * max(1.0, abs(va))
    _passed(6, "Mellin quadrature 1e-8, Gamma_s round trip 1e-10, "
               "kernel dual formulas 1e-10")


def test_acceptance_07_series_algebra():
    rng = random.Random(102)
    ghalf = gamma_s(Fraction(1, 2))
    mix = G1 * ghalf
    for m in (G1, ghalf, gamma_s(2), mix):
        s = random_series1(rng, 50, exact=True)
        assert inv_borel(m, borel(m, s)).coeffs == s.coeffs
    checked = 0
    for _ in range(100):
        m = rng.choice([G1, ghalf, gamma_s(2)])
        mp = rng.choice([G1, ghalf, mix])
        s = random_series1(rng, 30)
        lhs = borel(mp, moment_diff(m, s))
        rhs = moment_diff(m * mp, borel(mp, s))
        scale = max(max(abs(c) for c in lhs.coeffs), 1.0)
        assert all(abs(x - y) <= 1e-12 * scale
                   for x, y in zip(lhs.coeffs, rhs.coeffs))
        checked += 1
    assert checked == 100
    _passed(7, "Borel round trips bit-exact; 100 commutation instances "
               "within 1e-12")


def test_acceptance_08_fractional_integral_identity():
    rng = random.Random(103)
    worst = 0.0
    for s in (Fraction(1, 2), Fraction(1)):
        for k in (1, 2, 3):
            deg = rng.randint(1, 4)
            coeffs = [rng.uniform(-2, 2) for _ in range(deg + 1)]
            coeffs[-1] = coeffs[-1] or 1.0
            phi = Series1(coeffs)
            padded = Series1(coeffs + [0.0] * k)
            anti = moment_antidiff(gamma_s(s), padded, times=k)
            for x in (0.3, 0.8):
                quad = frac_integral_quadrature(phi, s, k, x)
                coef = sum(complex(c) * x ** j
                           for j, c in enumerate(anti.coeffs))
                rel = abs(quad - coef) / max(abs(coef), 1e-30)
                worst = max(worst, rel)
                assert rel <= 1e-6, (s, k, x)
    _passed(8, f"quadrature vs coefficient route within 1e-6 "
               f"(worst {worst:.2e})")


def test_acceptance_09_multidirection_admissibility():
    ok, margins = admissible([0.0, 0.5], [2, 1])
    assert ok and margins[0] == pytest.approx(math.pi / 4 - 0.5, abs=1e-15)
    bad, margins2 = admissible([0.0, 1.0], [2, 1])
    assert not bad and margins2[0] == pytest.approx(math.pi / 4 - 1.0,
                                                    abs=1e-15)
    _passed(9, "levels (2,1): directions (0,0.5) admissible, (0,1.0) not, "
               "margins exact")


def test_acceptance_10_singular_direction_probe():
    u = from_t_coeffs([math.factorial(j) for j in range(41)])
    res = singular_direction_probe(u, 1)
    assert res.status == "ok" and abs(res.directions[0]) <= 0.05
    u2 = from_t_coeffs([(-1) ** j * math.factorial(j)
                                for j in range(41)])
    res2 = singular_direction_probe(u2, 1)
    assert res2.status == "ok"
    assert abs(res2.directions[0] - math.pi) <= 0.05
    _passed(10, f"probe directions {res.directions[0]:.4f} ~ 0 and "
                f"{res2.directions[0]:.4f} ~ pi from 40 coefficients")
