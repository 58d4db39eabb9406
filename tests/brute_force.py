"""Brute-force normalized recursion, an oracle for the property tests.

Shares no code with mpde's solver or shift kernel: Gaussian rationals are
plain ``(Fraction, Fraction)`` pairs, moment values come from
``eval_fraction`` one cell at a time, and every normalized coefficient
``U[t][i] = u[t][i] * m1(t) * m2(i)`` is computed by a memoized recursion

    U[t][i] = G[t-n][i] - sum_{a<n} (p_ab / p_n) * U[t-n+a][i+b],

with ``U[t][i] = 0`` for ``t < n`` and ``G = g * m1 * m2``.  Only operators
with a constant top coefficient ``p_n`` (at ``(n, 0)``) are supported.
"""

from fractions import Fraction
from functools import lru_cache

from mpde.moments import eval_fraction

ZERO = (Fraction(0), Fraction(0))


def gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def gdiv(x, y):
    norm = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / norm,
            (x[1] * y[0] - x[0] * y[1]) / norm)


def l1(x):
    return (abs(x[0]) + abs(x[1]), Fraction(0))


def solve(table, m1, m2, rhs, n1, n2, rhs_is_g=True, magnitude=False):
    """Rows ``u[t][i]`` (t <= n1, i <= n2) of ``P u = p_n g``.

    ``table`` maps (a, b) to the Gaussian pair p_ab; ``rhs`` maps (j, i) to
    the pair of g, or of f = p_n g when ``rhs_is_g`` is false.  With
    ``magnitude`` every coefficient and rhs value is replaced by its L1
    modulus and every subtraction by an addition: the result bounds the
    size of each term that enters the cell, the scale of its rounding error.
    """
    n = max(a for a, _ in table)
    top = table[(n, 0)]
    coeffs = [((a, b), gdiv(p, top)) for (a, b), p in table.items() if a < n]

    def weight(j, i):
        return eval_fraction(m1, j) * eval_fraction(m2, i)

    def rhs_g(j, i):
        value = rhs.get((j, i), ZERO)
        return value if rhs_is_g else gdiv(value, top)

    @lru_cache(maxsize=None)
    def U(t, i):
        if t < n:
            return ZERO
        j = t - n
        w = weight(j, i)
        g = rhs_g(j, i)
        acc = l1(g) if magnitude else g
        acc = (acc[0] * w, acc[1] * w)
        for (a, b), c in coeffs:
            term = gmul(l1(c) if magnitude else c, U(j + a, i + b))
            sign = 1 if magnitude else -1
            acc = (acc[0] + sign * term[0], acc[1] + sign * term[1])
        return acc

    return [[(U(t, i)[0] / weight(t, i), U(t, i)[1] / weight(t, i))
             for i in range(n2 + 1)] for t in range(n1 + 1)]
