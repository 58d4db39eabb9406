"""Exact complex-rational arithmetic for the exact computation mode.

Coefficients in exact mode are Gaussian rationals: a real and an imaginary
part, each an exact rational held as an ``int`` where it is integral and as
a :class:`fractions.Fraction` otherwise, the rule that exact moment values
follow too.  Parts are added, subtracted and multiplied as they are; an
integral result of Fraction parts becomes an int again, and every quotient
goes through :func:`quotient`, since ``/`` on two ints gives a float.
:class:`RationalComplex` supports the field operations needed by the series
and solver code and converts losslessly from Python ints, Fractions, floats
and complex numbers (binary floats are themselves exact rationals).
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from numbers import Rational

_HASH_HALF = 1 << (sys.hash_info.width - 1)


def as_fraction(value) -> Fraction:
    """Convert ``value`` to an exact Fraction.

    Accepts Rational, float (exact binary value) and strings such as
    ``"3/2"``, ``"-1"`` or ``"0.25"``.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Rational):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def as_rational(value):
    """``value`` as an exact rational: an int where it is integral, else a
    Fraction.  Accepts what :func:`as_fraction` accepts; a signed string
    of ASCII digits is read by ``int`` alone, to the value Fraction gives."""
    if type(value) is int:
        return value
    if type(value) is str and value.lstrip("+-").isdigit() and value.isascii():
        return int(value)
    q = as_fraction(value)
    return q.numerator if q.denominator == 1 else q


def quotient(w, d):
    """The exact quotient ``w / d`` of ints or Fractions: an int when it is
    integral, else a Fraction; the one rule by which exact values divide."""
    if type(w) is not int or type(d) is not int:
        w, d = w.numerator * d.denominator, w.denominator * d.numerator
    return w // d if not w % d else Fraction(w, d)


def fmt_fraction(q: Fraction) -> str:
    """Render a Fraction compactly: ``3/2``, ``-1``, ``0``."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _made(re, im) -> "RationalComplex":
    """A RationalComplex of int or Fraction parts, integral Fractions turned
    into ints, built without :func:`as_rational`."""
    z = object.__new__(RationalComplex)
    _SET_RE(z, re if type(re) is int or re.denominator != 1 else re.numerator)
    _SET_IM(z, im if type(im) is int or im.denominator != 1 else im.numerator)
    return z


class RationalComplex:
    """A complex number with exact rational real and imaginary parts, each
    an int where it is integral and a Fraction otherwise."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        _SET_RE(self, as_rational(re))
        _SET_IM(self, as_rational(im))

    def __setattr__(self, name, value):
        raise AttributeError("RationalComplex is immutable")

    @classmethod
    def coerce(cls, value) -> "RationalComplex":
        if isinstance(value, RationalComplex):
            return value
        if isinstance(value, complex):
            return cls(value.real, value.imag)
        return cls(value)

    # -- field operations -------------------------------------------------

    def _pair(self, other):
        if isinstance(other, RationalComplex):
            return other.re, other.im
        if isinstance(other, complex):
            return as_rational(other.real), as_rational(other.imag)
        if isinstance(other, (int, float, Fraction)):
            return as_rational(other), 0
        return None

    def __add__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        return _made(self.re + pair[0], self.im + pair[1])

    __radd__ = __add__

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        return _made(self.re - pair[0], self.im - pair[1])

    def __rsub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        return _made(pair[0] - self.re, pair[1] - self.im)

    def __mul__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, pair[0], pair[1]
        return _made(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        c, d = pair
        if not d:  # a real divisor divides each part once
            if not c:
                raise ZeroDivisionError("division by zero RationalComplex")
            return _made(quotient(self.re, c), quotient(self.im, c))
        denom = c * c + d * d
        a, b = self.re, self.im
        return _made(quotient(a * c + b * d, denom),
                     quotient(b * c - a * d, denom))

    def __rtruediv__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        return _made(*pair) / self

    def __neg__(self):
        return _made(-self.re, -self.im)

    def __pos__(self):
        return self

    def __eq__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        return self.re == pair[0] and self.im == pair[1]

    def __hash__(self):
        # CPython's complex hash of these parts, signed in width bits (hash()
        # turns -1 into -2), so that a value hashes as the number it equals
        return (hash(self.re) + sys.hash_info.imag * hash(self.im)
                + _HASH_HALF) % (2 * _HASH_HALF) - _HASH_HALF

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    # -- conversions -------------------------------------------------------

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __abs__(self):
        return math.hypot(float(self.re), float(self.im))

    def __repr__(self):
        return f"RationalComplex({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return fmt_fraction(self.re)
        if not self.re:
            return f"{fmt_fraction(self.im)}i"
        sign = "+" if self.im > 0 else "-"
        return f"{fmt_fraction(self.re)}{sign}{fmt_fraction(abs(self.im))}i"


_SET_RE = RationalComplex.re.__set__
_SET_IM = RationalComplex.im.__set__


QC_ONE = RationalComplex(1)
