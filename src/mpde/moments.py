"""Moment functions built from signed products of ``a*Gamma(b + u/k)`` factors.

A moment function here is a finite product/quotient of Gamma factors.  Each
factor ``(a, b, k, sign)`` denotes ``(a * Gamma(b + u/k)) ** sign`` with
``a``, ``b`` and ``k`` positive ints or Fractions and ``sign`` +1 or -1,
checked once, when the factor is built.  The growth order of the whole
function is the exact rational ``sum(sign / k)``.  The solver takes moment
values at the integer indices j of a series in ``t**j``; a series in a root
``t**(1/r)`` is the same problem with each factor's k multiplied by r.

The classical scales are obtained through :func:`gamma_s`:

* ``gamma_s(s)`` with ``s > 0``  ->  ``Gamma(1 + s*u)``
* ``gamma_s(0)``                 ->  the constant 1 (empty product)
* ``gamma_s(s)`` with ``s < 0``  ->  ``1 / Gamma(1 - s*u)``

Evaluation goes through a Lanczos log-gamma (better than 1e-12 relative
on [1, 500] against the C library, in the test suite).  The cached
:func:`scaled_eval` gives one value as its logarithm and an exact rational,
so that it exists far beyond the binary64 overflow threshold; no command
calls it.  The solver and the residual read whole tables instead, outside
that cache: exact mode the same exact values (:func:`fraction_table`), ints
where they are integral and Fractions otherwise; float mode logarithms only
(:func:`log_table`), summed factor by factor as :func:`scaled_eval` sums
them.  :func:`split_log` turns a logarithm into a binary64 mantissa and a
power of two.

There is one Lanczos body, written in ``+ - * /`` and a ``log`` passed in:
:func:`log_gamma` runs it on one float with ``math.log``, :func:`log_table`
once per factor on the numpy array of the factor's Gamma arguments with
numpy's ``log``, which on some hosts differs from ``math.log`` in the last
bit, and so may a table entry from the scalar value.  The scalar paths,
:func:`fraction_table` among them, never import numpy.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import DomainError
from .exact import as_rational, quotient
from .record import record

_LN2 = math.log(2.0)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

# Lanczos approximation, g = 7 with 9 coefficients (Godfrey's set).
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for real x > 0 via the Lanczos series."""
    return _lanczos(*_shift_up(x), math.log)


def _shift_up(x: float) -> tuple:
    """``(shift, y)`` with ``log Gamma(x) = shift + log Gamma(y)``, y >= 0.5.

    For x < 0.5 the recurrence log G(x) = log G(x+1) - log x keeps the
    Lanczos series on its well-conditioned range.
    """
    shift = 0.0
    while x < 0.5:
        shift -= math.log(x)
        x += 1.0
    return shift, x


def _lanczos(shift, x, log):
    """``shift + log Gamma(x)`` for x >= 0.5, x a float or a numpy array.

    The one Lanczos body: only ``+ - * /``, which round alike on floats and
    on numpy arrays, and ``log``: ``math.log`` of a float, or numpy's
    ``log`` of an array.
    """
    z = x - 1.0
    acc = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        acc = acc + _LANCZOS_COEFFS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return shift + _HALF_LOG_TWO_PI + (z + 0.5) * log(t) - t + log(acc)


def log_rational(q) -> float:
    """Natural log of the positive rational q.  Inside the normal binary64
    range it is ``math.log(q)``, the log of ``float(q)``; outside it, where
    ``float(q)`` would overflow or lose its precision to underflow, it is
    the log of q's integer numerator less the log of its denominator, which
    ``math.log`` takes of ints of any size."""
    try:
        x = float(q)
    except OverflowError:
        x = math.inf
    if sys.float_info.min <= x < math.inf:
        return math.log(x)
    return math.log(q.numerator) - math.log(q.denominator)


INF_EDGE = 2 ** 1024 - 2 ** 970  # rounds to infinity: the top double + ulp/2


@record
class MomentFactor:
    """One Gamma factor ``(a * Gamma(b + u/k)) ** sign``, a, b and k ints or
    Fractions, kept as given (other numbers and strings convert by
    :func:`mpde.exact.as_rational`), checked once: a DomainError names a
    parameter that is not positive, a b that rounds to 0.0 and a k whose
    1/k rounds to infinity in binary64, so that every Gamma argument
    ``b + j/k`` is positive."""

    scale: int | Fraction
    offset: int | Fraction
    ram: int | Fraction
    sign: int = 1

    def __post_init__(self):
        for name in ("scale", "offset", "ram"):
            if type(getattr(self, name)) not in (int, Fraction):
                object.__setattr__(self, name,
                                   as_rational(getattr(self, name)))
        a, b, k = self.scale, self.offset, self.ram
        for name, value in (("scale a", a), ("offset b", b),
                            ("parameter k", k)):
            if value.numerator <= 0:  # denominators are positive
                raise DomainError(f"factor {name} must be positive, "
                                  f"got {value}")
        if b.numerator << 1075 <= b.denominator:
            raise DomainError("factor offset b is at most 2^-1075, which "
                              "rounds to 0.0 in binary64")
        if k.denominator >= k.numerator * INF_EDGE:
            raise DomainError("factor parameter k is so small that 1/k is "
                              "beyond the binary64 range")
        if self.sign not in (1, -1):
            raise DomainError("factor sign must be +1 or -1")


@record
class MomentFunction:
    """Finite signed product of Gamma factors; the empty product is 1."""

    factors: tuple[MomentFactor, ...] = ()

    @property
    def order(self) -> Fraction:
        """Exact rational growth order sum(sign / k)."""
        return sum((Fraction(f.sign) / f.ram for f in self.factors), Fraction(0))

    def __mul__(self, other: "MomentFunction") -> "MomentFunction":
        """Pointwise product: the factor lists concatenate."""
        return MomentFunction(self.factors + other.factors)

    def __truediv__(self, other: "MomentFunction") -> "MomentFunction":
        """Pointwise quotient: ``other``'s factors flip sign and append."""
        return MomentFunction(self.factors + tuple(
            MomentFactor(f.scale, f.offset, f.ram, -f.sign)
            for f in other.factors))


MOMENT_ONE = MomentFunction(())


def gamma_s(s) -> MomentFunction:
    """The standard moment function of order ``s``, an exact rational as
    :func:`mpde.exact.as_rational` reads it."""
    s = as_rational(s)
    if s == 0:
        return MOMENT_ONE
    return MomentFunction((MomentFactor(1, 1, quotient(1, abs(s)),
                                        1 if s > 0 else -1),))


# -- evaluation ------------------------------------------------------------


@record
class ScaledValue:
    """m(u) as log value plus an exact rational representative.

    ``rational`` is built factor by factor: a Gamma factor at an integer
    argument contributes its true value (a scaled factorial), anything else
    the dyadic rational of its rounded double evaluation.  Inverse factors
    divide exactly, so quotient moment functions evaluate to the exact
    reciprocals of their numerators; this is what makes Borel round trips
    and solver residuals bit-exact in rational mode.
    """

    log: float
    rational: Fraction


def split_log(logv: float) -> tuple:
    """``(mantissa, e2)`` with ``exp(logv) = mantissa * 2**e2``: e2 is
    ``floor(logv / log 2)`` and the mantissa, about in [1, 2), is ``exp`` of
    the rest, so a value far outside binary64 splits into finite parts."""
    e2 = math.floor(logv / _LN2)
    return math.exp(logv - e2 * _LN2), e2


def _dyadic_from_log(logv: float) -> tuple:
    """``(num, den)``, unreduced ints, of the dyadic rational ``mantissa *
    2**e2`` of :func:`split_log`, the exact value taken for ``exp(logv)``."""
    mant, e2 = split_log(logv)
    p, q = mant.as_integer_ratio()
    return (p << e2, q) if e2 >= 0 else (p, q << -e2)


# kept for perfbench's cache metric; it can move when ROADMAP item 6 drops it
@lru_cache(maxsize=None)
def scaled_eval(m: MomentFunction, u: Fraction) -> ScaledValue:
    """m(u) for a rational u >= 0 in overflow-safe scaled form (cached)."""
    if u < 0:
        raise DomainError(f"moment functions are evaluated for u >= 0, got {u}")
    logv = 0.0
    value = Fraction(1)
    for f in m.factors:
        arg = f.offset + quotient(u, f.ram)
        base_log = log_rational(f.scale) + log_gamma(float(arg))
        logv += f.sign * base_log
        if arg.denominator == 1:
            base_val = f.scale * math.factorial(arg.numerator - 1)
        else:
            base_val = Fraction(*_dyadic_from_log(base_log))
        value = value * base_val if f.sign == 1 else value / base_val
    return ScaledValue(logv, value)


def argument_lines(m: MomentFunction) -> list:
    """Per factor of m, ``(sign, scale, A, B, D)``: the Gamma argument of
    ``m(j)`` is ``b + j/k = (A + j*B) / D``, A, B and D positive ints, so
    it grows with j."""
    return [(f.sign, f.scale, f.offset.numerator * f.ram.numerator,
             f.offset.denominator * f.ram.denominator,
             f.offset.denominator * f.ram.numerator) for f in m.factors]


def _factor_values(scale: int | Fraction, A: int, B: int, D: int,
                   n: int) -> tuple:
    """``(nums, dens)``: per j = 0..n the numerator and the denominator,
    unreduced, of ``scale * Gamma((A + j*B) / D)`` as :func:`scaled_eval`
    takes it.

    An integer argument k gives ``scale * (k-1)!`` from a running product
    (arguments grow with j), any other argument ``x / D`` the dyadic
    rational of ``log(scale) + log_gamma(x / D)`` (:func:`_dyadic_from_log`),
    the log of the scale taken once."""
    sn, sd = scale.numerator, scale.denominator
    log_scale = log_rational(scale)
    k, fact = 1, 1  # fact = (k-1)!
    nums, dens = [], []
    for x in range(A, A + n * B + 1, B):
        if x % D:
            p, q = _dyadic_from_log(log_scale + log_gamma(x / D))
        else:
            while k < x // D:
                fact *= k
                k += 1
            p, q = sn * fact, sd
        nums.append(p)
        dens.append(q)
    return nums, dens


def fraction_table(m: MomentFunction, n: int) -> list:
    """Exact values ``m(j)`` for j = 0..n.

    The values of ``scaled_eval(m, j).rational``, but outside its cache.
    Each factor is built over the whole range (:func:`_factor_values`), a
    running factorial at integer Gamma arguments and a dyadic rational
    elsewhere.  The first factor starts the product and each further one
    multiplies it cell by cell, on integers, numerators and denominators
    apart.  Each entry is divided once (:func:`mpde.exact.quotient`),
    unless every denominator is 1: an int where integral, such as a
    factorial of Gamma(1), else a Fraction.  No factor gives ones.
    """
    factors = []
    for sign, scale, A, B, D in argument_lines(m):
        bn, bd = _factor_values(scale, A, B, D, n)
        factors.append((bn, bd) if sign == 1 else (bd, bn))
    if not factors:
        return [1] * (n + 1)
    (nums, dens), *rest = factors
    for bn, bd in rest:
        nums, dens = list(map(mul, nums, bn)), list(map(mul, dens, bd))
    if dens.count(1) == len(dens):
        return nums
    return list(map(quotient, nums, dens))


def log_sizes(m: MomentFunction, n: int) -> list:
    """Per j = 0..n, ``log 2`` times the bits of ``m(j)`` as
    :func:`fraction_table` builds it, by ``math.lgamma``: its factors stay
    apart until the last division, so each adds its ``|log|``, and 53 bits
    more off an integer argument (a dyadic rational).  ``assemble`` has
    checked that every argument is a double."""
    logs = [0.0] * (n + 1)
    for _, scale, A, B, D in argument_lines(m):
        c = log_rational(scale)
        logs = [s + abs(c + math.lgamma(x / D)) + (x % D and 53 * _LN2)
                for s, x in zip(logs, range(A, A + n * B + 1, B))]
    return logs


def log_table(m: MomentFunction, n: int):
    """Natural logs of ``m(j)`` for j = 0..n, as a numpy float array.

    The logs of ``scaled_eval(m, j)``, summed factor by factor in the
    same order, but without the exact values (factorials, dyadic
    rationals) and outside its cache.

    Each factor runs the Lanczos body of :func:`log_gamma` once on the
    array of its Gamma arguments ``(A + j*B) / D``.  When A, B, ``A + n*B``
    and D lie below 2**53 in magnitude, the numerators and D are exact in
    binary64, and one array division rounds each argument as the integer
    quotient does; otherwise each argument is the integer quotient,
    which rounds as ``float(Fraction)``.  Arguments below 0.5 go through the
    scalar shift loop of :func:`log_gamma` first.  numpy's ``+ - * /``
    round correctly, as Python's float operations do; the two logarithms of
    the body are numpy's ``log`` of the array, which may differ from
    ``math.log`` in the last bit on hosts where numpy vectorizes it, so an
    entry may differ from the scalar evaluation by a few units in the last
    place of the body's largest term.
    """
    import numpy as np

    logs = np.zeros(n + 1)
    for sign, scale, A, B, D in argument_lines(m):
        if max(A, B, A + n * B, D) < 2 ** 53:
            x = (np.arange(n + 1, dtype=np.int64) * B + A) / D
        else:
            x = np.array([(A + j * B) / D for j in range(n + 1)])
        shift = np.zeros(n + 1)
        for j in np.flatnonzero(x < 0.5).tolist():
            shift[j], x[j] = _shift_up(x[j].item())
        logs = logs + sign * (log_rational(scale)
                              + _lanczos(shift, x, np.log))
    return logs
