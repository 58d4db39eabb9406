"""Exact complex-rational arithmetic for the exact computation mode.

Coefficients in exact mode are Gaussian rationals: pairs of
:class:`fractions.Fraction` for the real and imaginary part.  The class
supports the field operations needed by the series and solver code and
converts losslessly from Python ints, Fractions, floats and complex numbers
(binary floats are themselves exact rationals).
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


def fmt_fraction(q: Fraction) -> str:
    """Render a Fraction compactly: ``3/2``, ``-1``, ``0``."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class RationalComplex:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", as_fraction(re))
        object.__setattr__(self, "im", as_fraction(im))

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
            return as_fraction(other.real), as_fraction(other.imag)
        if isinstance(other, (int, float, Fraction)):
            return as_fraction(other), Fraction(0)
        return None

    def __add__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        return RationalComplex(self.re + pair[0], self.im + pair[1])

    __radd__ = __add__

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        return RationalComplex(self.re - pair[0], self.im - pair[1])

    def __rsub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        return RationalComplex(pair[0] - self.re, pair[1] - self.im)

    def __mul__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, pair[0], pair[1]
        return RationalComplex(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        c, d = pair
        if not d and c:  # a real divisor divides each part once
            return RationalComplex(self.re / c, self.im / c)
        denom = c * c + d * d
        if denom == 0:
            raise ZeroDivisionError("division by zero RationalComplex")
        a, b = self.re, self.im
        return RationalComplex((a * c + b * d) / denom, (b * c - a * d) / denom)

    def __rtruediv__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        return RationalComplex(pair[0], pair[1]) / self

    def __neg__(self):
        return RationalComplex(-self.re, -self.im)

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


QC_ONE = RationalComplex(1)
