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
arguments in [1, 500]).  Values are produced in a scaled form
``mantissa * 2**exponent`` so that series operators can use them far beyond
the double-precision overflow threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, EvaluationError
from .exact import as_fraction, fmt_fraction

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
    # For x < 0.5 use the recurrence log G(x) = log G(x+1) - log x to keep
    # the Lanczos series on its well-conditioned range.
    shift = 0.0
    while x < 0.5:
        shift -= math.log(x)
        x += 1.0
    z = x - 1.0
    acc = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return shift + _HALF_LOG_TWO_PI + (z + 0.5) * math.log(t) - t + math.log(acc)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class MomentFunction:
    """Finite signed product of Gamma factors; the empty product is 1."""

    factors: tuple[MomentFactor, ...] = ()

    @property
    def order(self) -> Fraction:
        """Exact rational growth order sum(sign / k)."""
        return sum((Fraction(f.sign) / f.ram for f in self.factors), Fraction(0))

    def __mul__(self, other: "MomentFunction") -> "MomentFunction":
        return combine(self, other, "product")

    def __truediv__(self, other: "MomentFunction") -> "MomentFunction":
        return combine(self, other, "quotient")

    def __str__(self):
        if not self.factors:
            return "1"
        parts = []
        for f in self.factors:
            body = f"Gamma({fmt_fraction(f.offset)}+u/{fmt_fraction(f.ram)})"
            if f.scale != 1:
                body = f"{fmt_fraction(f.scale)}*{body}"
            parts.append((f.sign, body))
        out = parts[0][1] if parts[0][0] == 1 else f"1/{parts[0][1]}"
        for sign, body in parts[1:]:
            out += ("*" if sign == 1 else "/") + body
        return out


MOMENT_ONE = MomentFunction(())


def gamma_s(s) -> MomentFunction:
    """The standard moment function of order ``s`` (Gevrey scale)."""
    s = as_fraction(s)
    if s == 0:
        return MOMENT_ONE
    if s > 0:
        return MomentFunction((MomentFactor(1, 1, 1 / s, 1),))
    return MomentFunction((MomentFactor(1, 1, -1 / s, -1),))


def combine(m1: MomentFunction, m2: MomentFunction, op: str) -> MomentFunction:
    """Pointwise product or quotient; factor lists concatenate."""
    if op == "product":
        return MomentFunction(m1.factors + m2.factors)
    if op == "quotient":
        flipped = tuple(
            MomentFactor(f.scale, f.offset, f.ram, -f.sign) for f in m2.factors
        )
        return MomentFunction(m1.factors + flipped)
    raise ValueError(f"op must be 'product' or 'quotient', got {op!r}")


def order(m: MomentFunction) -> Fraction:
    return m.order


# -- evaluation ------------------------------------------------------------


@dataclass(frozen=True)
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

    def to_float(self) -> float:
        try:
            return float(self.rational)
        except OverflowError:
            return math.inf

    def to_fraction(self) -> Fraction:
        return self.rational

    @property
    def mantissa(self) -> float:
        e2 = math.floor(self.log / _LN2)
        return math.exp(self.log - e2 * _LN2)

    @property
    def exp2(self) -> int:
        return math.floor(self.log / _LN2)


def _dyadic_from_log(logv: float) -> Fraction:
    e2 = math.floor(logv / _LN2)
    mant = math.exp(logv - e2 * _LN2)
    return Fraction(mant) * Fraction(2) ** e2


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
        base_log = math.log(f.scale) + log_gamma(float(arg))
        logv += f.sign * base_log
        if arg.denominator == 1:
            base_val = f.scale * math.factorial(arg.numerator - 1)
        else:
            base_val = _dyadic_from_log(base_log)
        value = value * base_val if f.sign == 1 else value / base_val
    return ScaledValue(logv, value)


def eval_at(m: MomentFunction, u) -> float:
    """m(u) as a positive float (inf when outside double range)."""
    return scaled_eval(m, as_fraction(u)).to_float()


def eval_fraction(m: MomentFunction, u) -> Fraction:
    """m(u) as an exact Fraction (exact Gamma values where possible,
    otherwise the dyadic rational of the scaled double evaluation)."""
    return scaled_eval(m, as_fraction(u)).to_fraction()


def fraction_table(m: MomentFunction, kappa: int, n: int) -> list:
    """Exact values ``m(j/kappa)`` for j = 0..n (see :func:`eval_fraction`)."""
    return [scaled_eval(m, Fraction(j, kappa)).rational for j in range(n + 1)]


def log_table(m: MomentFunction, kappa: int, n: int) -> list:
    """Natural logs of ``m(j/kappa)`` for j = 0..n."""
    return [scaled_eval(m, Fraction(j, kappa)).log for j in range(n + 1)]


# -- kernel and Mittag-Leffler style functions ------------------------------


def kernel_e(a, b, k, x: float) -> float:
    """Single-factor kernel ``a*k*x**(b*k)*exp(-x**k)`` for x > 0."""
    if x <= 0:
        raise DomainError(f"kernel_e requires x > 0, got {x}")
    a, b, k = float(a), float(b), float(k)
    return a * k * x ** (b * k) * math.exp(-(x ** k))


def _neumaier_add(acc, comp, term):
    # compensated (Neumaier) accumulation on one float lane
    s = acc + term
    if abs(acc) >= abs(term):
        comp += (acc - s) + term
    else:
        comp += (term - s) + acc
    return s, comp


class _CompensatedComplex:
    """Neumaier-compensated complex accumulator."""

    def __init__(self):
        self.re = 0.0
        self.im = 0.0
        self.cre = 0.0
        self.cim = 0.0

    def add(self, z: complex):
        self.re, self.cre = _neumaier_add(self.re, self.cre, z.real)
        self.im, self.cim = _neumaier_add(self.im, self.cim, z.imag)

    def value(self) -> complex:
        return complex(self.re + self.cre, self.im + self.cim)


def _sum_gamma_series(first_term, first_j, ratio_fn, tol, max_terms, what):
    """Sum ``term_j`` from ``first_j`` with term_{j+1} = term_j * ratio_fn(j).

    Compensated summation; stops when the geometric tail bound drops below
    ``tol`` relative to max(1, |partial sum|).  Returns (value, terms_used,
    max_abs_term, tail_bound).
    """
    acc = _CompensatedComplex()
    term = first_term
    max_abs = 0.0
    j = first_j
    for used in range(1, max_terms + 1):
        acc.add(term)
        max_abs = max(max_abs, abs(term))
        ratio = ratio_fn(j)
        nxt = term * ratio
        scale = max(1.0, abs(acc.value()))
        if abs(ratio) < 0.5 and abs(nxt) <= 0.5 * tol * scale:
            tail = abs(nxt) / (1.0 - abs(ratio))
            return acc.value(), used, max_abs, tail
        term = nxt
        j += 1
    raise EvaluationError(
        f"{what} did not converge within {max_terms} terms", residual=abs(term)
    )


def mittag_leffler_info(s, x: complex, tol: float = 1e-12,
                        max_terms: int = 10000, radius: float = 20.0):
    """Mittag-Leffler sum ``sum_j x**j / Gamma(1 + s*j)`` with diagnostics.

    Returns ``(value, terms_used, max_abs_term, tail_bound)``.  The rounding
    error is bounded by roughly ``max_abs_term * terms_used * eps`` on top of
    ``tail_bound`` (compensated summation keeps accumulation error at the
    level of individual term rounding).
    """
    s = as_fraction(s)
    if s <= 0:
        raise DomainError("mittag_leffler requires s > 0")
    if tol <= 0:
        raise DomainError("tol must be positive")
    x = complex(x)
    if abs(x) > radius:
        raise DomainError(f"|x| = {abs(x)} exceeds the series radius bound {radius}")
    sf = float(s)

    def ratio(j):
        return x * math.exp(log_gamma(1.0 + sf * j) - log_gamma(1.0 + sf * (j + 1)))

    return _sum_gamma_series(1.0 + 0.0j, 0, ratio, tol, max_terms, "mittag_leffler")


def mittag_leffler(s, x: complex, tol: float = 1e-12,
                   max_terms: int = 10000, radius: float = 20.0) -> complex:
    return mittag_leffler_info(s, x, tol, max_terms, radius)[0]


def e_s_beta(s, beta: int, x: complex, tol: float = 1e-12,
             max_terms: int = 10000, radius: float = 20.0) -> complex:
    """Kernel series ``sum_{j>=beta} C(j-1, beta-1) x**j / Gamma(1+s*j)``."""
    s = as_fraction(s)
    if s <= 0 or beta < 1:
        raise DomainError("e_s_beta requires s > 0 and beta >= 1")
    x = complex(x)
    if abs(x) > radius:
        raise DomainError(f"|x| = {abs(x)} exceeds the series radius bound {radius}")
    if x == 0:
        return 0.0 + 0.0j
    sf = float(s)
    first = x ** beta * math.exp(-log_gamma(1.0 + sf * beta))

    def ratio(j):
        # C(j, beta-1) / C(j-1, beta-1) = j / (j - beta + 1)
        return x * (j / (j - beta + 1)) * math.exp(
            log_gamma(1.0 + sf * j) - log_gamma(1.0 + sf * (j + 1))
        )

    value, _, _, _ = _sum_gamma_series(first, beta, ratio, tol, max_terms, "e_s_beta")
    return value


def e_s_beta_via_derivative(s, beta: int, x: complex, tol: float = 1e-12,
                            max_terms: int = 10000) -> complex:
    """Alternate evaluation through the termwise-derivative identity.

    Differentiates the series of ``(E_s(x) - 1)/x`` termwise beta-1 times and
    multiplies by ``x**beta / (beta-1)!``; agrees with :func:`e_s_beta` up to
    the summation tolerance.
    """
    s = as_fraction(s)
    if s <= 0 or beta < 1:
        raise DomainError("e_s_beta requires s > 0 and beta >= 1")
    x = complex(x)
    if x == 0:
        return 0.0 + 0.0j
    sf = float(s)
    # term_n = (n)! / (n-beta+1)! * x**(n-beta+1) / Gamma(1+s*(n+1)), n >= beta-1
    first = math.factorial(beta - 1) * math.exp(-log_gamma(1.0 + sf * beta))

    def ratio(n):
        return x * ((n + 1) / (n - beta + 2)) * math.exp(
            log_gamma(1.0 + sf * (n + 1)) - log_gamma(1.0 + sf * (n + 2))
        )

    series, _, _, _ = _sum_gamma_series(first, beta - 1, ratio, tol, max_terms,
                                        "e_s_beta (derivative form)")
    return series * x ** beta / math.factorial(beta - 1)
