import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from helpers import LOG_ULPS, larger_k, log_magnitude
from oracles import mellin_check
from routes import eval_at, eval_fraction

from mpde.errors import DomainError, ParseError
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
    # b + u/k = -1 at u = 1: the factor itself is refused
    with pytest.raises(DomainError, match="offset b must be positive"):
        MomentFactor(1, -2, 1, 1)


@pytest.mark.parametrize("value,exact", [(0.5, Fraction(1, 2)),
                                         ("3/2", Fraction(3, 2)),
                                         (2.0, 2), (True, 1)])
def test_a_factor_reads_a_float_or_a_string_as_its_exact_value(value,
                                                                exact):
    """Ints and Fractions are kept as given; other numbers and strings
    convert to the exact value they denote, so the factor and its checks
    see the same value either way."""
    for field in range(3):
        args = [1, 1, 1]
        args[field] = value
        want = [1, 1, 1]
        want[field] = exact
        assert MomentFactor(*args) == MomentFactor(*want)
    assert gamma_s(value) == gamma_s(exact)
    negative = "-" + value if isinstance(value, str) else -value
    with pytest.raises(DomainError, match="offset b must be positive"):
        MomentFactor(1, negative, 1)


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
    # Gamma arguments below 0.5, which shift up first: j <= 1 for k as
    # written, j <= 2 for each k doubled
    "Gamma(1/100+u/3)/Gamma(1/7+u/2)": MomentFunction((
        MomentFactor(1, Fraction(1, 100), 3, 1),
        MomentFactor(1, Fraction(1, 7), 2, -1))),
}


@pytest.mark.parametrize("kappa", [1, 2])
@pytest.mark.parametrize("name", sorted(LOG_TABLE_MOMENTS))
def test_log_table_matches_scaled_eval_bit_for_bit(name, kappa):
    # the whole-array evaluation against the scalar one, over a table
    # longer than any the benchmark ladders build (twofactor (160, 60)
    # reads up to index 545); numpy's log need not equal math.log in the
    # last bit on every host, so an entry is held to the ulp bound
    # helpers.LOG_ULPS of test_log_table_and_ratios_match_the_scalar_route.
    # The table of m with each k multiplied by kappa is m at j/kappa.
    m = LOG_TABLE_MOMENTS[name]
    want = [scaled_eval(m, Fraction(j, kappa)).log for j in range(901)]
    got = log_table(larger_k(m, kappa), 900)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    for j, (g, w) in enumerate(zip(got.tolist(), want)):
        bound = LOG_ULPS * math.ulp(log_magnitude(m, Fraction(j, kappa)))
        assert abs(g - w) <= bound, j


def test_log_table_of_short_and_empty_windows():
    m = LOG_TABLE_MOMENTS["Gamma(1/100+u/3)/Gamma(1/7+u/2)"]
    assert log_table(m, -1).shape == (0,)
    assert log_table(m, 0).tolist() == [scaled_eval(m, Fraction(0)).log]
    assert log_table(MOMENT_ONE, 4).tolist() == [0.0] * 5


@pytest.mark.parametrize("offset,kappa", [(-2, 1), (0, 1)])
def test_log_table_domain_error_matches_scaled_eval(offset, kappa):
    # Gamma(offset + u): at u = 0 the argument is -2 or 0.  Neither
    # log_table nor scaled_eval meets it: MomentFactor refuses the factor,
    # naming its offset, for both
    with pytest.raises(DomainError, match=re.escape(
            f"factor offset b must be positive, got {offset}")):
        MomentFactor(1, offset, kappa, 1)


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
    # the table of m with each k multiplied by kappa is m at j/kappa
    m = FRACTION_TABLE_MOMENTS[name]
    want = [scaled_eval(m, Fraction(j, kappa)).rational for j in range(301)]
    got = fraction_table(larger_k(m, kappa), 300)
    # an int exactly where the value is integral, a Fraction elsewhere
    assert [type(x) for x in got] == [
        int if w.denominator == 1 else Fraction for w in want]
    assert got == want


@pytest.mark.parametrize("offset,kappa", [(-2, 1), (0, 1)])
def test_fraction_table_domain_error_matches_scaled_eval(offset, kappa):
    # the same factor in a problem file's moment: a parse error with the
    # factor's text and its position, before any table
    text = f"Gamma(1)*1*Gamma({offset}+u/{kappa})"
    with pytest.raises(ParseError, match=re.escape(
            f"factor offset b must be positive, got {offset} (at position "
            f"{len(text)})")):
        parse_moment(text)


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
        assert np.allclose(log_table(m, 5) - log_table(one, 5), shift,
                           rtol=1e-15, atol=0)
        values = fraction_table(m, 5)
        assert values == [eval_fraction(m, j) for j in range(6)]
        if arg == "1+u/1":  # integer Gamma arguments: exact factorials
            assert values == [scale * math.factorial(j) for j in range(6)]
