"""Characteristic-root branch data at zeta = infinity.

For a polynomial ``P(lambda, zeta) = sum A_i(zeta) lambda^i`` the root
branches behave like ``lambda ~ lambda0 * zeta**q`` as ``zeta -> infinity``.
The pole orders q are the negated slopes of the upper convex hull of the
points ``(i, deg A_i)`` and the leading terms are the nonzero roots of the
edge polynomials, one per hull edge.  Multiplicities are extracted exactly
(square-free decomposition over the Gaussian rationals).  A square-free part
of degree 1 gives its root exactly; numpy's companion-matrix root finder runs
only on parts of degree >= 2, so the branch data of linear edges needs no
numpy.

Only first-order data (q, lambda0, multiplicity) is computed.  A repeated
edge root means the class may split at deeper expansion orders; it is
reported with ``resolved=False`` instead of recursing.
"""

from __future__ import annotations

from fractions import Fraction

from . import kernel
from .errors import PreconditionError
from .exact import QC_ONE, RationalComplex
from .record import record

_ZERO = RationalComplex(0)

# -- dense polynomial helpers over an exact field (coefficients low -> high) --


def _trim(p):
    last = -1
    for idx, c in enumerate(p):
        if c:
            last = idx
    return p[: last + 1]


def _deg(p):
    return len(p) - 1


def _deriv(p):
    return [p[i] * i for i in range(1, len(p))]


def _divmod(num, den):
    num = list(num)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    q = [_ZERO] * max(len(num) - len(den) + 1, 0)
    inv_lead = QC_ONE / den[-1]
    for i in range(len(num) - len(den), -1, -1):
        # zero terms are skipped; the leading term cancels exactly
        if num[i + len(den) - 1]:
            factor = q[i] = num[i + len(den) - 1] * inv_lead
            for jj, d in enumerate(den[:-1]):
                if d:
                    num[i + jj] = num[i + jj] - factor * d
    return _trim(q), _trim(num[: len(den) - 1])


def _gcd(a, b):
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        _, r = _divmod(a, b)
        a, b = b, r
    if not a:
        return []
    inv = RationalComplex(1) / a[-1]
    return [c * inv for c in a]


def _sub(a, b):
    """``a - b``, the shorter one padded with zeros, trailing zeros trimmed."""
    n = max(len(a), len(b))
    return _trim([x - y for x, y in zip(list(a) + [_ZERO] * (n - len(a)),
                                        list(b) + [_ZERO] * (n - len(b)))])


def _squarefree_parts(p):
    """Yun's square-free decomposition over the Gaussian rationals.

    Returns ``(multiplicity, part)`` pairs, multiplicities increasing, whose
    parts are monic, square-free, pairwise coprime and of positive degree,
    with ``p = lc(p) * prod part**multiplicity``.  With ``b = p/gcd(p, p')``
    and ``d = p'/gcd(p, p')``, each round takes ``a = gcd(b, d - b')`` as the
    next part and divides it out of b and of ``d - b'``.
    """
    p = _trim(list(p))
    dp = _deriv(p)
    g = _gcd(p, dp)
    b, d = _divmod(p, g)[0], _divmod(dp, g)[0]
    parts = []
    mult = 1
    while _deg(b) > 0:
        d = _sub(d, _deriv(b))
        a = _gcd(b, d)
        if _deg(a) > 0:
            parts.append((mult, a))
        b, d = _divmod(b, a)[0], _divmod(d, a)[0]
        mult += 1
    return parts


# -- public types --------------------------------------------------------------


@record
class CharPoly:
    """``P(lambda, zeta)`` stored by lambda power.

    ``coeff_polys[i]`` is the zeta-polynomial multiplying ``lambda**i``
    (coefficients low to high, trailing zeros trimmed, empty tuple for an
    absent power).  Every coefficient is a :class:`RationalComplex`,
    whatever numbers the caller passed, so equal operators hold equal
    values and every consumer reads them exactly.  The top power must be
    present and the lambda degree at least 1.
    """

    coeff_polys: tuple

    def __post_init__(self):
        rows = [_trim([RationalComplex.coerce(c) for c in row])
                for row in self.coeff_polys]
        while rows and not rows[-1]:
            rows.pop()
        if len(rows) <= 1:
            raise PreconditionError("operator must have lambda-degree >= 1")
        object.__setattr__(self, "coeff_polys", tuple(tuple(r) for r in rows))

    @property
    def n(self) -> int:
        return len(self.coeff_polys) - 1

    @property
    def B(self) -> int:
        """zeta-degree of the top lambda coefficient :meth:`p0`."""
        return len(self.coeff_polys[-1]) - 1

    @property
    def max_b(self) -> int:
        """Largest z-order: the highest zeta-degree of any coefficient."""
        return max(map(len, self.coeff_polys)) - 1

    @classmethod
    def from_table(cls, table) -> "CharPoly":
        """Build from a sparse ``{(lambda_pow, zeta_pow): coeff}`` mapping,
        whose keys are unique, so each coefficient is stored as it is."""
        if not table:
            raise PreconditionError("empty operator support")
        n = max(a for a, _ in table)
        rows = [[] for _ in range(n + 1)]
        for (a, b), c in table.items():
            row = rows[a]
            while len(row) <= b:
                row.append(_ZERO)
            row[b] = RationalComplex.coerce(c)
        return cls(tuple(tuple(r) for r in rows))

    def support(self) -> dict:
        out = {}
        for a, row in enumerate(self.coeff_polys):
            for b, c in enumerate(row):
                if c:
                    out[(a, b)] = c
        return out

    def p0(self):
        """Coefficient polynomial of the top lambda power (zeta coeffs)."""
        return self.coeff_polys[self.n]


def monomial(a: int, b: int) -> str:
    """``dt^a*dz^b`` as an operator is written: a power 1 bare, a power 0
    left out, and ``1`` for a = b = 0."""
    return "*".join([f"d{x}^{k}" if k > 1 else f"d{x}"
                     for x, k in (("t", a), ("z", b)) if k]) or "1"


@record
class CharBranch:
    """One branch class: all roots growing like ``lambda0 * zeta**q``.

    ``leading_terms`` enumerates every determination (one leading coefficient
    per sheet of ``zeta**(1/kappa)``) with its edge-root multiplicity.
    """

    q: Fraction
    leading_terms: tuple
    kappa: int
    resolved: bool = True

    @property
    def multiplicity(self) -> int:
        return sum(m for _, m in self.leading_terms)


def _edge_roots(edge_coeffs, q):
    """Nonzero roots with multiplicities of the edge polynomial of the
    branches of pole order q.

    Every square-free part is monic, so a linear one ``w + c0`` has the root
    ``-c0``, rounded once; numpy's companion-matrix route gives the same
    value (it divides by the leading 1), differing at most in the sign of a
    zero part.  A linear edge ``c0 + c1 w`` is square-free, its one part
    ``w + c0/c1``, so it skips the decomposition.  Parts of degree >= 2 go
    through ``np.roots``.  A root or coefficient so rounded that lies beyond
    binary64 raises EvaluationError naming q.
    """
    edge = list(edge_coeffs)
    out = []
    for mult, part in ([(1, [edge[0] / edge[1], QC_ONE])]
                       if len(edge) == 2 else _squarefree_parts(edge)):
        if _deg(part) == 1:
            out.append((complex(kernel.rounded(
                -part[0], f"the branch leading term of pole order q = {q}",
                "")), mult))
        else:
            import numpy as np
            arr = np.array([complex(kernel.rounded(
                c, f"a coefficient of the edge polynomial of pole order "
                   f"q = {q}", "")) for c in reversed(part)])
            out += [(complex(r), mult) for r in np.roots(arr)]
    return out


def branches_at_infinity(P: CharPoly) -> list:
    """Branch classes (q, leading terms, ramification) sorted by decreasing q.

    The upper convex hull of the points ``(i, deg A_i)`` is walked from the
    top lambda power leftwards; each edge of slope ``-q`` contributes one
    class whose leading terms are the nonzero roots of the edge polynomial
    ``E(w) = sum lc(A_i) w**(i - i_low)`` over the lattice points on the edge.
    """
    pts = [(i, len(row) - 1) for i, row in enumerate(P.coeff_polys) if row]
    if not pts:
        raise PreconditionError("all coefficient polynomials are zero")
    if pts[0][0] != 0:
        raise PreconditionError(
            "operator is divisible by the t-derivative: the identically zero "
            "characteristic root has no pole order; factor it out first")
    # upper convex hull, points already sorted by i
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) >= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    branches = []
    for (i1, d1), (i2, d2) in zip(hull, hull[1:]):
        q = Fraction(d1 - d2, i2 - i1)
        edge = [row[-1] if row and len(row) - 1 == d1 - q * (i - i1) else _ZERO
                for i, row in enumerate(P.coeff_polys[i1:i2 + 1], start=i1)]
        terms = _edge_roots(edge, q)
        terms.sort(key=lambda t: (t[0].real, t[0].imag))
        branches.append(CharBranch(
            q=q,
            leading_terms=tuple(terms),
            kappa=q.denominator,
            resolved=all(m == 1 for _, m in terms),
        ))
    branches.sort(key=lambda b: b.q, reverse=True)
    return branches
