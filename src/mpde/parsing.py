"""Recursive-descent parsers for operator and moment-function expressions.

Operator grammar (constant coefficients, exact rational/complex numbers)::

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := number | 'dt' ['^' uint] | 'dz' ['^' uint] | '(' expr ')'

Numbers are decimals or rationals ``p/q`` with an optional trailing ``i``.
``dt`` and ``dz`` denote the moment derivatives along t and z; which moment
functions they carry is decided by the problem file, not the expression.

Moment grammar::

    mexpr := mfac (('*' | '/') mfac)*
    mfac  := 'Gamma(' s ')' | a '*Gamma(' b '+u/' k ')'

with rational s, a, b, k, checked by :class:`~mpde.moments.MomentFactor`.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .charroots import CharPoly
from .errors import DomainError, ParseError, PreconditionError
from .exact import QC_ONE, RationalComplex
from .moments import MomentFactor, MomentFunction, gamma_s

_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?(?:/\d+(?:\.\d+)?)?")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def take(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str):
        if not self.take(literal):
            raise ParseError(f"expected {literal!r}", self.pos)

    def number(self) -> int | Fraction | None:
        """The unsigned number at the cursor: an int for an integer
        literal, else a Fraction; None when there is none."""
        self.skip_ws()
        mt = _NUMBER_RE.match(self.text, self.pos)
        if not mt:
            return None
        self.pos = mt.end()
        body = mt.group(0)
        if "/" in body:
            num, den = body.split("/")
            return Fraction(num) / Fraction(den)
        return Fraction(body) if "." in body else int(body)

    def uint(self) -> int:
        self.skip_ws()
        mt = re.compile(r"\d+").match(self.text, self.pos)
        if not mt:
            raise ParseError("expected an unsigned integer exponent", self.pos)
        self.pos = mt.end()
        return int(mt.group(0))

    def signed_number(self) -> int | Fraction:
        self.skip_ws()
        sign = 1
        if self.take("-"):
            sign = -1
        elif self.take("+"):
            pass
        value = self.number()
        if value is None:
            raise ParseError("expected a rational number", self.pos)
        return sign * value

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


# -- operator expressions -----------------------------------------------------


def _table_mul(t1, t2):
    out = {}
    for (a1, b1), v1 in t1.items():
        for (a2, b2), v2 in t2.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, RationalComplex(0)) + v1 * v2
    return {k: v for k, v in out.items() if v}


def _parse_expr(sc: _Scanner):
    table = {}  # every signed term adds into it; zeros go at the end
    # leading sign is accepted as a convenience
    negative = sc.take("-")
    if not negative:
        sc.take("+")
    while True:
        for key, val in _parse_term(sc).items():
            val = -val if negative else val
            table[key] = table[key] + val if key in table else val
        if sc.take("+"):
            negative = False
        elif sc.take("-"):
            negative = True
        else:
            return {k: v for k, v in table.items() if v}


def _parse_term(sc: _Scanner):
    table = _parse_factor(sc)
    while sc.take("*"):
        table = _table_mul(table, _parse_factor(sc))
    return table


def _parse_factor(sc: _Scanner):
    if sc.take("("):
        inner = _parse_expr(sc)
        sc.expect(")")
        return inner
    if sc.take("dt"):
        power = sc.uint() if sc.take("^") else 1
        return {(power, 0): QC_ONE}
    if sc.take("dz"):
        power = sc.uint() if sc.take("^") else 1
        return {(0, power): QC_ONE}
    value = sc.number()
    if value is None:
        raise ParseError("expected a number, dt, dz or a parenthesized "
                         "subexpression", sc.pos)
    if sc.take("i"):
        return {(0, 0): RationalComplex(0, value)}
    return {(0, 0): RationalComplex(value)}


def parse_operator_table(text: str) -> dict:
    """Parse to the expanded coefficient table {(a, b): RationalComplex}."""
    sc = _Scanner(text)
    table = _parse_expr(sc)
    if not sc.done():
        raise ParseError(f"unexpected input {sc.text[sc.pos:]!r}", sc.pos)
    if not table:
        raise ParseError("operator expression is identically zero")
    return table


def parse_operator(text: str) -> CharPoly:
    table = parse_operator_table(text)
    n = max(a for a, _ in table)
    if n == 0:
        raise PreconditionError(
            "operator has lambda-degree 0: no dt appears")
    return CharPoly.from_table(table)


# -- moment expressions ---------------------------------------------------------


def _parse_moment_factor(sc: _Scanner) -> MomentFunction:
    if sc.take("Gamma"):
        sc.expect("(")
        s = sc.signed_number()
        sc.skip_ws()
        if sc.text.startswith("+", sc.pos):
            raise ParseError("Gamma(b+u/k) needs its scale a, as in "
                             "'1*Gamma(1+u/1)'", sc.pos)
        sc.expect(")")
        return gamma_s(s)
    a = sc.number()
    if a is None:
        raise ParseError("expected 'Gamma(s)' or 'a*Gamma(b+u/k)'", sc.pos)
    sc.expect("*")
    sc.expect("Gamma")
    sc.expect("(")
    b = sc.signed_number()
    sc.expect("+")
    sc.expect("u")
    sc.expect("/")
    k = sc.signed_number()
    sc.expect(")")
    return MomentFunction((MomentFactor(a, b, k, 1),))


def parse_moment(text: str) -> MomentFunction:
    sc = _Scanner(text)
    try:
        m = _parse_moment_factor(sc)
        while True:
            if sc.take("*"):
                m = m * _parse_moment_factor(sc)
            elif sc.take("/"):
                m = m / _parse_moment_factor(sc)
            else:
                break
    except DomainError as exc:
        raise ParseError(str(exc), sc.pos) from None
    if not sc.done():
        raise ParseError(f"unexpected input {sc.text[sc.pos:]!r}", sc.pos)
    return m
