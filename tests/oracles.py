"""Quadrature oracles for the test suite (they need scipy).

Independent numerical routes that cross-check the coefficient-shift
operators of mpde: a Mellin transform of the single-factor kernel against
``moments.eval_at``, and an adaptive quadrature of the fractional integral
against ``series.moment_antidiff``.
"""

from __future__ import annotations

import math

from scipy import integrate

from mpde.errors import DomainError, EvaluationError
from mpde.exact import as_fraction
from mpde.moments import log_gamma
from mpde.series import Series1


def mellin_check(a, b, k, u, quad_params: dict | None = None) -> float:
    """Numerical Mellin transform of the single-factor kernel.

    Integrates ``x**(u-1) * e_m(x)`` over (0, inf) after the substitution
    ``y = x**k``, which turns the integrand into ``a * y**(c-1) * exp(-y)``
    with ``c = b + u/k``.  The domain is cut at Y with the analytic tail
    bound ``2 * Y**(c-1) * exp(-Y)`` below the requested accuracy.  Serves
    as an independent oracle for :func:`eval_at`.
    """
    params = {"epsrel": 1e-12, "limit": 300}
    if quad_params:
        params.update(quad_params)
    a = float(a)
    u = as_fraction(u)
    if u < 0:
        raise DomainError("mellin_check requires u >= 0")
    c = float(as_fraction(b) + u / as_fraction(k))
    if c <= 0:
        raise DomainError("mellin_check requires b + u/k > 0")
    rough = math.exp(log_gamma(c))
    target = params["epsrel"] * rough * 0.1
    upper = max(2.0 * c, 40.0)
    while 2.0 * upper ** max(c - 1.0, 0.0) * math.exp(-upper) > target:
        upper *= 1.5
        if upper > 720.0:  # exp underflows anyway
            break

    def integrand(y):
        return y ** (c - 1.0) * math.exp(-y)

    out = integrate.quad(integrand, 0.0, upper,
                         epsabs=target, epsrel=params["epsrel"],
                         limit=params["limit"], full_output=1)
    if len(out) > 3:
        raise EvaluationError(f"Mellin quadrature failed: {out[3]}",
                              residual=out[1])
    value, abserr = out[0], out[1]
    if abserr > 10.0 * max(target, params["epsrel"] * abs(value)):
        raise EvaluationError("Mellin quadrature error estimate too large",
                              residual=abserr)
    return a * value


def frac_integral_quadrature(phi: Series1, s, k: int, x: float) -> complex:
    """Iterated fractional integral of a polynomial by adaptive quadrature.

    Evaluates ``(ks / Gamma(1+ks)) * integral_0^{x^(1/s)}
    phi(y^s) (x^(1/s) - y)^(ks-1) dy``, the integral form of the k-fold
    moment integration at scale s applied to the polynomial ``phi`` and
    summed at ``x``.  Independent of the coefficient-shift route, which it
    cross-checks.
    """
    s = as_fraction(s)
    if s <= 0 or k < 1 or x <= 0:
        raise DomainError("requires s > 0, integer k >= 1 and x > 0")
    sf = float(s)
    upper = x ** (1.0 / sf)
    expo = float(k * s) - 1.0  # exponent of the (upper - y) endpoint factor
    front = float(k * s) / math.gamma(1.0 + k * sf)
    coeffs = [complex(c) for c in phi.coeffs]

    def poly(y):
        acc = 0j
        for c in reversed(coeffs):
            acc = acc * (y ** sf) + c
        return acc

    def run(part):
        out = integrate.quad(lambda y: part(poly(y)), 0.0, upper,
                             weight="alg", wvar=(0.0, expo),
                             epsabs=1e-13, epsrel=1e-10, limit=200,
                             full_output=1)
        if len(out) > 3:
            raise EvaluationError(f"fractional-integral quadrature failed: {out[3]}",
                                  residual=out[1])
        return out[0]

    re = run(lambda v: v.real)
    im = run(lambda v: v.imag)
    return front * complex(re, im)
