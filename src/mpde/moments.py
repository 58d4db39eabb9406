"""Moment functions built from signed products of ``a*Gamma(b + u/k)`` factors.

A moment function here is a finite product/quotient of Gamma factors.  Each
factor ``(a, b, k, sign)`` denotes ``(a * Gamma(b + u/k)) ** sign`` with
``a > 0``, ``k > 0`` rational and ``sign`` +1 or -1.  The growth order of the
whole function is the exact rational ``sum(sign / k)``.

The classical scales are obtained through :func:`gamma_s`:

* ``gamma_s(s)`` with ``s > 0``  ->  ``Gamma(1 + s*u)``
* ``gamma_s(0)``                 ->  the constant 1 (empty product)
* ``gamma_s(s)`` with ``s < 0``  ->  ``1 / Gamma(1 - s*u)``

Evaluation goes through a Lanczos log-gamma (accuracy checked against the C
library implementation in the test suite: better than 1e-12 relative on
arguments in [1, 500]).  The cached :func:`scaled_eval` gives one value as
its logarithm and an exact rational, so that it exists far beyond the
double-precision overflow threshold; no command calls it.  The solver and
the residual read whole tables instead, built outside that cache with the
same values and errors:
exact mode reads exact values (:func:`fraction_table`), multiplied out on
integers and held as ints where they are integral, Fractions otherwise;
float mode reads logarithms only (:func:`log_table`), summed factor by
factor as :func:`scaled_eval` sums them.  :func:`split_log` turns
a logarithm into a binary64 mantissa and a power of two.

There is one Lanczos body, written in ``+ - * /`` and a ``log`` passed in,
so that it runs on a float and on a numpy array alike.  :func:`log_gamma`
runs it on one float with ``math.log``; :func:`log_table` runs it once per
factor on the array of the factor's Gamma arguments, with ``math.log`` per
element, and so returns the floats of the scalar evaluation bit for bit
(numpy's own ``log`` does not always match ``math.log`` in the last bit).
The scalar paths, :func:`scaled_eval` and :func:`fraction_table` among
them, never import numpy.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .exact import as_fraction, quotient
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
    if x <= 0.0:
        raise DomainError(f"log_gamma requires a positive argument, got {x}")
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
    on numpy arrays, and ``log``, which the caller applies to a float or to
    each element of an array.
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


@record
class MomentFactor:
    """One Gamma factor ``(a * Gamma(b + u/k)) ** sign``."""

    scale: Fraction
    offset: Fraction
    ram: Fraction
    sign: int = 1

    def __post_init__(self):
        object.__setattr__(self, "scale", as_fraction(self.scale))
        object.__setattr__(self, "offset", as_fraction(self.offset))
        object.__setattr__(self, "ram", as_fraction(self.ram))
        if self.scale <= 0:
            raise DomainError("factor scale a must be positive")
        if self.ram <= 0:
            raise DomainError("factor parameter k must be positive")
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
    """The standard moment function of order ``s`` (Gevrey scale)."""
    s = as_fraction(s)
    if s == 0:
        return MOMENT_ONE
    if s > 0:
        return MomentFunction((MomentFactor(1, 1, 1 / s, 1),))
    return MomentFunction((MomentFactor(1, 1, -1 / s, -1),))


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


def _dyadic_from_log(logv: float) -> Fraction:
    mant, e2 = split_log(logv)
    return Fraction(mant) * Fraction(2) ** e2


# kept for perfbench's cache metric; it can move when ROADMAP item 6 drops it
@lru_cache(maxsize=None)
def scaled_eval(m: MomentFunction, u: Fraction) -> ScaledValue:
    """Evaluate m(u) for u >= 0 in overflow-safe scaled form (cached)."""
    if u < 0:
        raise DomainError(f"moment functions are evaluated for u >= 0, got {u}")
    logv = 0.0
    value = Fraction(1)
    for f in m.factors:
        arg = f.offset + u / f.ram
        if arg <= 0:
            raise DomainError(
                f"Gamma argument b + u/k = {arg} is not positive (u = {u})"
            )
        base_log = log_rational(f.scale) + log_gamma(float(arg))
        logv += f.sign * base_log
        if arg.denominator == 1:
            base_val = f.scale * math.factorial(arg.numerator - 1)
        else:
            base_val = _dyadic_from_log(base_log)
        value = value * base_val if f.sign == 1 else value / base_val
    return ScaledValue(logv, value)


def _argument_lines(m: MomentFunction, kappa: int) -> list:
    """Per factor of m, ``(sign, scale, A, B, D)``: the Gamma argument of
    ``m(j/kappa)`` is ``b + j/(kappa*k) = (A + j*B) / D``.  B is positive
    and D has the sign of kappa, so A + j*B grows with j."""
    return [(f.sign, f.scale,
             f.offset.numerator * kappa * f.ram.numerator,
             f.offset.denominator * f.ram.denominator,
             f.offset.denominator * kappa * f.ram.numerator)
            for f in m.factors]


def _gamma_arguments(m: MomentFunction, kappa: int, n: int):
    """Yield, for j = 0..n, the factors ``(sign, scale, x, D)`` of
    ``m(j/kappa)``, whose Gamma argument ``b + j/(kappa*k)`` is ``x / D``.

    Raises the DomainErrors of :func:`scaled_eval`, in the same order.
    """
    lines = _argument_lines(m, kappa)
    for j in range(n + 1):
        if j * kappa < 0:
            raise DomainError(f"moment functions are evaluated for u >= 0, "
                              f"got {Fraction(j, kappa)}")
        args = []
        for sign, scale, A, B, D in lines:
            x = A + j * B
            if x * D <= 0:
                raise DomainError(
                    f"Gamma argument b + u/k = {Fraction(x, D)} is not "
                    f"positive (u = {Fraction(j, kappa)})")
            args.append((sign, scale, x, D))
        yield args


def fraction_table(m: MomentFunction, kappa: int, n: int) -> list:
    """Exact values ``m(j/kappa)`` for j = 0..n.

    The values of ``scaled_eval(m, j/kappa).rational``, with the same
    DomainErrors, but outside its cache, multiplied factor by factor on
    integers and divided once (:func:`mpde.exact.quotient`): an int where
    integral, such as a factorial of Gamma(1), else a Fraction.  An integer
    Gamma argument k contributes ``scale * (k-1)!`` from a running product
    (arguments grow with j), any other argument ``x / D`` the dyadic
    rational of ``log(scale) + log_gamma(x / D)``, the log of the scale
    taken once per factor by :func:`log_rational`.
    """
    running = [[1, 1] for _ in m.factors]  # per factor: [k, (k-1)!]
    log_scales = [log_rational(f.scale) for f in m.factors]
    values = []
    for args in _gamma_arguments(m, kappa, n):
        num = den = 1  # the value's numerator and denominator, unreduced
        for fact, log_scale, (sign, scale, x, D) in zip(running, log_scales,
                                                       args):
            if x % D == 0:
                while fact[0] < x // D:
                    fact[1] *= fact[0]
                    fact[0] += 1
                bn, bd = scale.numerator * fact[1], scale.denominator
            else:
                base_val = _dyadic_from_log(log_scale + log_gamma(x / D))
                bn, bd = base_val.numerator, base_val.denominator
            if sign == 1:
                num, den = num * bn, den * bd
            else:
                num, den = num * bd, den * bn
        values.append(quotient(num, den))
    return values


def log_table(m: MomentFunction, kappa: int, n: int):
    """Natural logs of ``m(j/kappa)`` for j = 0..n, as a numpy float array.

    The same floats as ``scaled_eval(m, j/kappa).log``, summed factor by
    factor in the same order, with the same DomainErrors, but without the
    exact values (factorials, dyadic rationals) and outside its cache.

    Each factor runs the Lanczos body of :func:`log_gamma` once on the
    array of its Gamma arguments.  An argument is the integer quotient
    ``x / D``, which rounds as ``float(Fraction)``; arguments below 0.5 go
    through the scalar shift loop of :func:`log_gamma` first.  numpy's
    ``+ - * /`` round correctly, as Python's float operations do, so every
    entry is bit-identical to the scalar evaluation.  The two logarithms of
    the body are ``math.log`` per element: numpy's vectorized ``log`` is
    not guaranteed to match it to the last bit.
    """
    import numpy as np

    def log_each(a):
        return np.array(list(map(math.log, a.tolist())))

    # arguments grow with j: a DomainError can only come at j = 0 (an
    # argument) or at j = 1 (kappa < 0), and these two raise it in order
    for _ in _gamma_arguments(m, kappa, min(n, 1)):
        pass
    logs = np.zeros(n + 1)
    for sign, scale, A, B, D in _argument_lines(m, kappa):
        x = np.array([(A + j * B) / D for j in range(n + 1)])
        shift = np.zeros(n + 1)
        for j in np.flatnonzero(x < 0.5).tolist():
            shift[j], x[j] = _shift_up(x[j].item())
        logs = logs + sign * (log_rational(scale)
                              + _lanczos(shift, x, log_each))
    return logs
