import random
from fractions import Fraction

import pytest

from routes import operator_to_text

from mpde.errors import ParseError, PreconditionError
from mpde.exact import RationalComplex
from mpde.parsing import parse_moment, parse_operator, parse_operator_table


def test_parse_heat():
    P = parse_operator("dt - dz^2")
    assert P.n == 1
    assert P.support() == {(1, 0): RationalComplex(1),
                           (0, 2): RationalComplex(-1)}


def test_parse_product_expansion():
    P = parse_operator("(dt - dz^2)*(dt - dz^3)")
    assert P.support() == {(2, 0): RationalComplex(1),
                           (1, 2): RationalComplex(-1),
                           (1, 3): RationalComplex(-1),
                           (0, 5): RationalComplex(1)}


def test_parse_numbers():
    table = parse_operator_table("1/2*dt + 2.5*dz - 3i*dt*dz")
    assert table[(1, 0)] == RationalComplex(Fraction(1, 2))
    assert table[(0, 1)] == RationalComplex(Fraction(5, 2))
    assert table[(1, 1)] == RationalComplex(0, -3)


def test_parsed_parts_are_ints_where_integral():
    heat = parse_operator("dt - 2*dz^2")
    assert all(type(p) is int for row in heat.coeff_polys for c in row
               for p in (c.re, c.im))
    half = parse_operator("dt - 1/2*dz").support()[(0, 1)]
    assert half == Fraction(-1, 2) and type(half.re) is Fraction
    assert type(half.im) is int


def test_parse_lambda_degree_zero_rejected():
    with pytest.raises(PreconditionError):
        parse_operator("dz^2")


def test_parse_syntax_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_operator("dt + + dz")
    assert err.value.position is not None
    with pytest.raises(ParseError):
        parse_operator("dt * (dz")
    with pytest.raises(ParseError):
        parse_operator("dt @ dz")
    with pytest.raises(ParseError):
        parse_operator("dt - dt")  # cancels to zero


def test_parse_table_adds_signed_terms_and_keeps_no_zero_entry():
    assert parse_operator_table("dt - dz + dt - 3*dz - dz*(-2)") == {
        (1, 0): RationalComplex(2), (0, 1): RationalComplex(-2)}
    # a term that cancels and comes back is counted once
    assert parse_operator_table("dz - dt - dz + 2*dt + dz - (dt - dz)") == {
        (0, 1): RationalComplex(2)}
    # a lone zero term is as zero as a cancelled or multiplied one
    for text in ("0", "-0", "(0)", "0i", "0/3", "dt - dt", "0*dt + 0"):
        with pytest.raises(ParseError, match="identically zero"):
            parse_operator_table(text)


def test_operator_round_trip():
    rng = random.Random(61)
    samples = [
        "dt - dz^2",
        "(dt - dz^2)*(dt - dz^3)",
        "2*dt^2*dz - 1/2*dz^3 + 3i*dt",
        "-dt + dz",
        "(1/2 + 2i)*dt*dz",
    ]
    for _ in range(15):
        terms = []
        for _ in range(rng.randint(1, 5)):
            c = rng.randint(1, 9)
            a, b = rng.randint(0, 3), rng.randint(0, 3)
            terms.append(f"{c}*dt^{max(a,1)}*dz^{max(b,1)}")
        samples.append(" + ".join(terms))
    for text in samples:
        P = parse_operator(text)
        rt = operator_to_text(P)
        assert parse_operator(rt).support() == P.support(), (text, rt)


def test_parse_moment_examples():
    assert parse_moment("Gamma(1)").order == 1
    assert parse_moment("Gamma(1)*Gamma(1/2)").order == Fraction(3, 2)
    assert parse_moment("Gamma(-1)").order == -1
    assert parse_moment("Gamma(2)/Gamma(1)").order == 1
    m = parse_moment("2*Gamma(1+u/2)")
    assert m.order == Fraction(1, 2)
    assert len(m.factors) == 1 and m.factors[0].scale == 2


def test_parse_moment_errors():
    with pytest.raises(ParseError):
        parse_moment("1*Gamma(1+u/-2)")  # k <= 0
    with pytest.raises(ParseError):
        parse_moment("Gamma(1) * ")
    with pytest.raises(ParseError):
        parse_moment("Gam(1)")
    with pytest.raises(ParseError):
        parse_moment("Gamma(1) Gamma(2)")


@pytest.mark.parametrize("text,position", [("Gamma(1)/Gamma(1+u/1)", 16),
                                           ("Gamma( 1/2 + u/2)", 11)])
def test_parse_moment_gamma_of_b_plus_u_without_its_scale(text, position):
    # Gamma(s) takes no u: a '+' after s is the a*Gamma(b+u/k) form without
    # its scale a, reported at the '+'
    with pytest.raises(ParseError) as err:
        parse_moment(text)
    assert err.value.position == position
    assert str(err.value) == ("Gamma(b+u/k) needs its scale a, as in "
                              f"'1*Gamma(1+u/1)' (at position {position})")
    assert parse_moment("Gamma(1)/1*Gamma(1+u/1)").order == 0


def test_parse_moment_whitespace_tolerant():
    m = parse_moment("  Gamma( 1 ) * 3*Gamma( 2 + u/ 3 ) / Gamma( 1/2 )  ")
    assert m.order == Fraction(1) + Fraction(1, 3) - Fraction(1, 2)
