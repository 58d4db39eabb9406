import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from oracles import mellin_check
from routes import (e_s_beta, e_s_beta_via_derivative, eval_at, eval_fraction,
                    kernel_e, mittag_leffler, mittag_leffler_info)

from mpde.errors import DomainError, EvaluationError
from mpde.moments import (MOMENT_ONE, MomentFactor, MomentFunction,
                          fraction_table, gamma_s, log_gamma, log_rational,
                          log_table, scaled_eval)
from mpde.parsing import parse_moment


def test_log_gamma_accuracy_against_libm():
    # documented accuracy: >= 12 significant digits on [1, 500]
    xs = [1.0 + 499.0 * k / 400.0 for k in range(401)] + [1.0, 1.5, 2.0, 500.0]
    for x in xs:
        ref = math.lgamma(x)
        assert abs(log_gamma(x) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_eval_gamma_values():
    assert eval_at(gamma_s(1), 3) == pytest.approx(6.0, rel=1e-12)
    assert eval_at(gamma_s(Fraction(1, 2)), 2) == pytest.approx(1.0, rel=1e-12)
    assert eval_at(gamma_s(-1), 2) == pytest.approx(0.5, rel=1e-12)
    m = MomentFunction((MomentFactor(2, 1, 2, 1),))  # 2*Gamma(1+u/2)
    assert eval_at(m, 4) == pytest.approx(4.0, rel=1e-12)


def test_eval_domain_errors():
    with pytest.raises(DomainError):
        eval_at(gamma_s(1), -1)
    bad = MomentFunction((MomentFactor(1, -2, 1, 1),))
    with pytest.raises(DomainError):
        eval_at(bad, 1)  # b + u/k = -1


def test_eval_positive_and_exact_factorials():
    m = gamma_s(1)
    for n in range(0, 30):
        assert eval_at(m, n) > 0
    assert eval_fraction(m, 5) == Fraction(math.factorial(5))
    assert eval_fraction(gamma_s(2), 3) == Fraction(math.factorial(6))


def test_order_examples():
    assert gamma_s(1).order == 1
    prod = gamma_s(1) * gamma_s(Fraction(1, 2))
    assert prod.order == Fraction(3, 2)
    quot = gamma_s(1) / gamma_s(1)
    assert quot.order == 0
    assert (gamma_s(2) / gamma_s(1)).order == 1
    assert MomentFunction(()).order == 0 and eval_at(MomentFunction(()), 7) == 1.0


def test_combine_pointwise():
    g1 = gamma_s(1)
    prod = g1 * g1
    assert eval_at(prod, 2) == pytest.approx(4.0, rel=1e-12)  # 2! * 2!
    quot = g1 / g1
    for u in (0, 1, Fraction(7, 3), 10):
        assert eval_at(quot, u) == pytest.approx(1.0, rel=1e-12)


def test_kernel_e_values():
    assert kernel_e(1, 1, 1, 1.0) == pytest.approx(math.exp(-1), rel=1e-14)
    assert kernel_e(1, 1, 2, 1.0) == pytest.approx(2 * math.exp(-1), rel=1e-14)
    assert kernel_e(2, 1, 1, 2.0) == pytest.approx(4 * math.exp(-2), rel=1e-14)
    with pytest.raises(DomainError):
        kernel_e(1, 1, 1, 0.0)


def test_mittag_leffler_values():
    assert mittag_leffler(1, 1.0) == pytest.approx(math.e, rel=1e-11)
    assert mittag_leffler(Fraction(1, 2), 0.0) == 1.0
    # oracle: direct summation of 1/Gamma(1+2j) equals cosh(sqrt(x)) at x=1
    direct = sum(1.0 / math.gamma(1 + 2 * j) for j in range(40))
    assert direct == pytest.approx(math.cosh(1.0), rel=1e-13)
    assert mittag_leffler(2, 1.0) == pytest.approx(direct, rel=1e-11)


def test_mittag_leffler_guards():
    with pytest.raises(DomainError):
        mittag_leffler(1, 25.0)  # outside the default radius bound
    with pytest.raises(EvaluationError):
        mittag_leffler(1, 10.0, tol=1e-30, max_terms=5)


def test_e_s_beta_values():
    assert e_s_beta(1, 1, 1.0) == pytest.approx(math.e - 1, rel=1e-11)
    # brute force Sum_{j>=2} (j-1)/j! at x=1 equals x e^x - e^x + 1 = 1
    brute = sum((j - 1) / math.factorial(j) for j in range(2, 60))
    assert brute == pytest.approx(1.0, rel=1e-13)
    assert e_s_beta(1, 2, 1.0) == pytest.approx(brute, rel=1e-11)
    assert e_s_beta(Fraction(1, 2), 3, 0.0) == 0.0


def test_e_s_beta_dual_formula_agreement():
    pts = [2.0, -2.0, 1.0, -0.5, 0.3 + 0.4j, -1.0 + 1.0j, 2j]
    for s in (Fraction(1, 2), Fraction(1)):
        for beta in (1, 2, 3):
            for x in pts:
                a = e_s_beta(s, beta, x, tol=1e-14)
                b = e_s_beta_via_derivative(s, beta, x, tol=1e-14)
                assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


@pytest.mark.parametrize("evaluate", [e_s_beta, e_s_beta_via_derivative])
@pytest.mark.parametrize("tol", [-1.0, 0.0, -1e-300])
def test_e_s_beta_refuses_a_tolerance_that_is_not_positive(evaluate, tol):
    # refused at once, as mittag_leffler does, not after max_terms terms
    with pytest.raises(DomainError, match="tol must be positive"):
        evaluate(1, 1, 1.0, tol=tol)


@pytest.mark.parametrize("evaluate", [e_s_beta, e_s_beta_via_derivative])
@pytest.mark.parametrize("x", [25.0, -20.5, 15 + 15j])
def test_e_s_beta_refuses_x_outside_the_radius_bound(evaluate, x):
    with pytest.raises(DomainError, match="exceeds the series radius bound"):
        evaluate(1, 1, x)


def test_mellin_examples():
    assert mellin_check(1, 1, 1, 3) == pytest.approx(6.0, rel=1e-9)
    assert mellin_check(1, 1, 2, 2) == pytest.approx(1.0, rel=1e-9)
    assert mellin_check(2, 1, 1, 0) == pytest.approx(2.0, rel=1e-9)  # a*Gamma(1)


def test_mellin_identity_grid():
    for (a, b, k) in ((1, 1, 1), (1, 1, 2), (2, 1, 1)):
        m = MomentFunction((MomentFactor(a, b, k, 1),))
        for u in (0, 1, 2, 3, 4):
            direct = eval_at(m, u)
            quad = mellin_check(a, b, k, u)
            assert abs(quad - direct) / direct < 1e-8


def test_gamma_s_round_trip():
    # the product is formed on the exact scaled values: Gamma_2(n) itself
    # overflows binary64 beyond n ~ 85
    for s in (Fraction(1, 2), Fraction(1), Fraction(2)):
        pos, neg = gamma_s(s), gamma_s(-s)
        for n in range(0, 101):
            prod = float(eval_fraction(pos, n) * eval_fraction(neg, n))
            assert abs(prod - 1.0) <= 1e-10


def test_growth_comparable_to_gamma_s():
    # m of order 1/2 grows like Gamma_{1/2} up to geometric factors
    m = MomentFunction((MomentFactor(2, Fraction(5, 4), 2, 1),))
    assert m.order == Fraction(1, 2)
    ref = gamma_s(Fraction(1, 2))
    seq = [(math.log(eval_at(m, n)) - math.log(eval_at(ref, n))) / n
           for n in range(1, 101)]
    assert max(abs(v) for v in seq) <= 50
    tail = seq[-10:]
    assert max(tail) - min(tail) < 0.1


def test_mittag_leffler_exponential_decay_s1():
    for r in range(1, 11):
        val = mittag_leffler(1, -float(r), tol=1e-14)
        assert abs(val - math.exp(-r)) <= 1e-6 * math.exp(-r)
        assert abs(val) <= math.exp(-r) * (1 + 1e-6)


def test_mittag_leffler_decay_along_negative_axis_s_half():
    # |E_{1/2}| decreasing for x on arg = pi, |x| in [1, 5]; the compensated
    # double-precision sums are checked against 30-digit reference values
    # within the documented bound max_term * terms * eps + tail.
    mpmath.mp.dps = 30
    prev = None
    for r in (1.0, 2.0, 3.0, 4.0, 5.0):
        val, terms, max_term, tail = mittag_leffler_info(
            Fraction(1, 2), -r, tol=1e-15)
        ref = complex(mpmath.nsum(
            lambda j: mpmath.mpf(-r) ** j / mpmath.gamma(1 + j / 2),
            [0, mpmath.inf]))
        bound = max_term * terms * 2.3e-16 + tail
        assert abs(val - ref) <= bound + 1e-15
        mag = abs(ref)
        if prev is not None:
            assert mag < prev
        prev = mag


def test_scaled_eval_beyond_double_range():
    big = eval_fraction(gamma_s(1), 400)
    assert big == Fraction(math.factorial(400))
    frac_val = eval_fraction(gamma_s(Fraction(1, 2)), 401)
    assert frac_val > 0
    assert math.isinf(eval_at(gamma_s(2), 400))  # honest overflow to inf


LOG_TABLE_MOMENTS = {
    "Gamma(1)": gamma_s(1),
    "Gamma(1/2)": gamma_s(Fraction(1, 2)),
    "Gamma(3/2)": gamma_s(Fraction(3, 2)),
    "Gamma(1)*Gamma(1/2)/Gamma(2)":
        gamma_s(1) * gamma_s(Fraction(1, 2)) / gamma_s(2),
    "1/Gamma(2)": MOMENT_ONE / gamma_s(2),
    "3/7*Gamma(2/3+u/5)/(2*Gamma(1/3+u/7))": MomentFunction((
        MomentFactor(Fraction(3, 7), Fraction(2, 3), 5, 1),
        MomentFactor(2, Fraction(1, 3), 7, -1))),
    # Gamma arguments below 0.5, which shift up first: j <= 1 for kappa = 1,
    # j <= 2 for kappa = 2
    "Gamma(1/100+u/3)/Gamma(1/7+u/2)": MomentFunction((
        MomentFactor(1, Fraction(1, 100), 3, 1),
        MomentFactor(1, Fraction(1, 7), 2, -1))),
}


@pytest.mark.parametrize("kappa", [1, 2])
@pytest.mark.parametrize("name", sorted(LOG_TABLE_MOMENTS))
def test_log_table_matches_scaled_eval_bit_for_bit(name, kappa):
    # the whole-array evaluation against the scalar one, over a table
    # longer than any the benchmark ladders build (twofactor (160, 60)
    # reads up to index 545)
    m = LOG_TABLE_MOMENTS[name]
    want = [scaled_eval(m, Fraction(j, kappa)).log for j in range(901)]
    got = log_table(m, kappa, 900)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]


def test_log_table_of_short_and_empty_windows():
    m = LOG_TABLE_MOMENTS["Gamma(1/100+u/3)/Gamma(1/7+u/2)"]
    assert log_table(m, 1, -1).shape == (0,)
    assert log_table(m, 1, 0).tolist() == [scaled_eval(m, Fraction(0)).log]
    assert log_table(MOMENT_ONE, 3, 4).tolist() == [0.0] * 5


@pytest.mark.parametrize("offset,kappa", [(-2, 1), (0, 1), (1, -1), (-2, -1),
                                          (Fraction(1, 3), -2)])
def test_log_table_domain_error_matches_scaled_eval(offset, kappa):
    # Gamma(offset + u): at u = 0 the argument is -2 or 0; kappa = -1 makes
    # u = j/kappa negative from j = 1 on
    m = gamma_s(1) * MomentFunction((MomentFactor(1, offset, 1, 1),))
    with pytest.raises(DomainError) as want:
        for j in range(6):
            scaled_eval(m, Fraction(j, kappa))
    with pytest.raises(DomainError) as got:
        log_table(m, kappa, 5)
    assert str(got.value) == str(want.value)


FRACTION_TABLE_MOMENTS = {
    **{name: parse_moment(name) for name in (
        "Gamma(1)", "Gamma(1/2)", "Gamma(3/2)", "Gamma(2)",
        "Gamma(1)*Gamma(1/2)/Gamma(2)", "Gamma(1/3)*Gamma(2)")},
    "3/7*Gamma(1+u/2)/(2*Gamma(1/3+u))": MomentFunction((
        MomentFactor(Fraction(3, 7), 1, 2, 1),
        MomentFactor(2, Fraction(1, 3), 1, -1))),
}


@pytest.mark.parametrize("kappa", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(FRACTION_TABLE_MOMENTS))
def test_fraction_table_matches_scaled_eval(name, kappa):
    m = FRACTION_TABLE_MOMENTS[name]
    want = [scaled_eval(m, Fraction(j, kappa)).rational for j in range(301)]
    got = fraction_table(m, kappa, 300)
    # an int exactly where the value is integral, a Fraction elsewhere
    assert [type(x) for x in got] == [
        int if w.denominator == 1 else Fraction for w in want]
    assert got == want


@pytest.mark.parametrize("offset,kappa", [(-2, 1), (0, 1), (1, -1)])
def test_fraction_table_domain_error_matches_scaled_eval(offset, kappa):
    m = gamma_s(1) * MomentFunction((MomentFactor(1, offset, 1, 1),))
    with pytest.raises(DomainError) as want:
        for j in range(6):
            scaled_eval(m, Fraction(j, kappa))
    with pytest.raises(DomainError) as got:
        fraction_table(m, kappa, 5)
    assert str(got.value) == str(want.value)


BIG = 10 ** 400


@pytest.mark.parametrize("q", [Fraction(1), Fraction(3, 7),
                               Fraction(10) ** 300, Fraction(1, 10 ** 300),
                               Fraction(2) ** -1022, Fraction(2) ** 1023])
def test_log_rational_inside_binary64_is_math_log(q):
    assert log_rational(q).hex() == math.log(q).hex()


@pytest.mark.parametrize("q,want", [
    (Fraction(BIG), 400 * mpmath.log(10)),
    (Fraction(1, BIG), -400 * mpmath.log(10)),
    (Fraction(3 * BIG, 7),
     mpmath.log(3) - mpmath.log(7) + 400 * mpmath.log(10)),
    (Fraction(2) ** -1074, -1074 * mpmath.log(2)),  # subnormal
    (Fraction(2) ** -1100, -1100 * mpmath.log(2)),  # rounds to 0.0
])
def test_log_rational_outside_binary64_takes_the_integer_logs(q, want):
    # math.log(q) fails here: float(q) overflows, or underflows to a value
    # whose log is off or undefined
    assert abs(log_rational(q) - float(want)) <= 1e-15 * abs(float(want))


@pytest.mark.parametrize("arg", ["1/2+u/1", "1+u/1"])
def test_moment_scales_outside_binary64_evaluate(arg):
    # the scale's log enters every table; the values themselves underflow
    # to 0.0 or overflow to inf as floats
    tiny = parse_moment(f"1/{BIG}*Gamma({arg})")
    huge = parse_moment(f"{BIG}*Gamma({arg})")
    one = parse_moment(f"1*Gamma({arg})")
    assert eval_at(tiny, 0) == 0.0 and eval_at(huge, 0) == math.inf
    for m, scale in ((tiny, Fraction(1, BIG)), (huge, Fraction(BIG))):
        shift = log_rational(scale)
        assert np.allclose(log_table(m, 1, 5) - log_table(one, 1, 5), shift,
                           rtol=1e-15, atol=0)
        values = fraction_table(m, 1, 5)
        assert values == [eval_fraction(m, j) for j in range(6)]
        if arg == "1+u/1":  # integer Gamma arguments: exact factorials
            assert values == [scale * math.factorial(j) for j in range(6)]
