"""Newton polygon of a constant-coefficient moment differential operator.

Each support point ``(i, j)`` (t-order i, z-order j) spans the quarter-plane
``{x <= i*s1 + j*s2, y >= -i}``; the polygon is the convex hull of the union
of these quarter-planes.  Its boundary is a horizontal half-line, finitely
many segments of strictly increasing positive slope, then a vertical
half-line.  Everything is computed in exact rational arithmetic: the segment
slopes are compared exactly against characteristic branch data downstream.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError
from .exact import as_fraction, fmt_fraction
from .record import record


@record
class NewtonPolygon:
    """Vertex chain (x, y strictly increasing) with generating monomials."""

    vertices: tuple        # ((x, y) Fractions, ...)
    generators: tuple      # per vertex: the (i, j) support point
    s1: Fraction
    s2: Fraction

    @property
    def segments(self):
        """(from_vertex, to_vertex, slope) triples, slopes strictly increasing."""
        out = []
        for (a, b) in zip(self.vertices, self.vertices[1:]):
            out.append((a, b, (b[1] - a[1]) / (b[0] - a[0])))
        return out


def build(support, s1, s2) -> NewtonPolygon:
    """Build the polygon for a support set at weights (s1, s2) > 0.

    ``support`` is a ``{(i, j): coeff}`` mapping or an iterable of (i, j)
    pairs; j may be rational (pseudodifferential symbols).  One monotone
    chain runs over the lowest point of each x, from the rightmost lowest
    point rightwards, and keeps the turns of strictly increasing slope;
    every point it skips or pops lies in the union of the quarter-planes of
    the others.  Distinct support points map to distinct points, so each
    kept vertex remembers the one support point that generates it.
    """
    s1, s2 = as_fraction(s1), as_fraction(s2)
    if s1 <= 0 or s2 <= 0:
        raise PreconditionError("Newton polygon weights s1, s2 must be positive")
    pairs = list(support.keys()) if hasattr(support, "keys") else list(support)
    if not pairs:
        raise PreconditionError("empty operator support")
    by_point = {(as_fraction(i) * s1 + as_fraction(j) * s2, -as_fraction(i)):
                (i, j) for i, j in pairs}
    lowest = {}
    for x, y in by_point:
        lowest[x] = min(y, lowest.get(x, y))
    x0 = min(lowest.items(), key=lambda p: (p[1], -p[0]))[0]
    hull = []
    for p in sorted(pt for pt in lowest.items() if pt[0] >= x0):
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2:]
            if (ax - ox) * (p[1] - oy) > (ay - oy) * (p[0] - ox):
                break  # a strict left turn at a
            hull.pop()
        hull.append(p)
    return NewtonPolygon(tuple(hull), tuple(by_point[pt] for pt in hull),
                         s1, s2)


def slopes(polygon: NewtonPolygon) -> list:
    """Finite positive segment slopes in increasing order (exact rationals)."""
    return [seg[2] for seg in polygon.segments]


@record
class CrossCheckReport:
    """Agreement of the Newton polygon with the branch data."""

    slopes_match: bool
    integrality: bool
    vertices_match: bool
    details: tuple

    @property
    def ok(self) -> bool:
        return self.slopes_match and self.integrality and self.vertices_match


def cross_check(polygon: NewtonPolygon, branches, s1, s2,
                p0_degree: int = 0) -> CrossCheckReport:
    """Consistency of polygon geometry with characteristic branch data.

    Checks, all in exact rationals:

    (a) the finite positive slopes equal ``{1/(q*s2 - s1)}`` over branch pole
        orders with ``q > s1/s2``;
    (b) ``n_q * q`` is an integer for each such q (n_q = total multiplicity);
    (c) the vertex chain matches the closed-form vertices built from the
        (multiplicity, pole order) data, translated by ``(p0_degree*s2, 0)``
        when the top lambda coefficient has positive zeta-degree.

    Mismatches are reported as text details, not raised.
    """
    s1, s2 = as_fraction(s1), as_fraction(s2)
    details = []
    qual = [(b.q, b.multiplicity) for b in branches if b.q * s2 > s1]
    qual.sort(key=lambda t: t[0], reverse=True)
    expected_slopes = {1 / (q * s2 - s1) for q, _ in qual}
    got_slopes = set(slopes(polygon))
    slopes_match = expected_slopes == got_slopes
    if not slopes_match:
        details.append(f"slopes: expected {sorted(expected_slopes)}, "
                       f"got {sorted(got_slopes)}")
    integrality = True
    for q, mult in qual:
        if (q * mult).denominator != 1:
            integrality = False
            details.append(f"n_q * q = {mult} * {q} is not an integer")
    n = sum(b.multiplicity for b in branches)
    shift = p0_degree * s2
    expected_vertices = [(n * s1 + shift, Fraction(-n))]
    acc_m, acc_mq = 0, Fraction(0)
    for q, mult in qual:
        acc_m += mult
        acc_mq += mult * q
        expected_vertices.append(((n - acc_m) * s1 + acc_mq * s2 + shift,
                                  Fraction(acc_m - n)))
    vertices_match = tuple(expected_vertices) == polygon.vertices
    if not vertices_match:
        details.append(f"vertices: expected {expected_vertices}, "
                       f"got {list(polygon.vertices)}")
    return CrossCheckReport(slopes_match, integrality, vertices_match,
                            tuple(details))


# -- emission -------------------------------------------------------------------


def vertices_csv(polygon: NewtonPolygon) -> str:
    lines = ["x,y"]
    for (x, y) in polygon.vertices:
        lines.append(f"{fmt_fraction(x)},{fmt_fraction(y)}")
    return "\n".join(lines) + "\n"


def to_svg(polygon: NewtonPolygon) -> str:
    """Standalone 600x400 SVG: boundary polyline, labeled vertices, dashed
    half-lines."""
    width, height = 600, 400
    vs = [(float(x), float(y)) for (x, y) in polygon.vertices]
    xs = [v[0] for v in vs]
    ys = [v[1] for v in vs]
    stub = max(max(xs) - min(xs), max(ys) - min(ys), 1.0) * 0.35
    x_lo, x_hi = min(xs) - stub, max(xs) + stub * 0.4
    y_lo, y_hi = min(ys) - stub * 0.4, max(ys) + stub
    margin = 45.0
    sx = (width - 2 * margin) / (x_hi - x_lo)
    sy = (height - 2 * margin) / (y_hi - y_lo)

    def tx(x):
        return margin + (x - x_lo) * sx

    def ty(y):
        # SVG y axis points down
        return height - margin - (y - y_lo) * sy

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    first, last = vs[0], vs[-1]
    parts.append(
        f'<line x1="{tx(x_lo):.2f}" y1="{ty(first[1]):.2f}" '
        f'x2="{tx(first[0]):.2f}" y2="{ty(first[1]):.2f}" '
        'stroke="steelblue" stroke-dasharray="6 4" stroke-width="1.5"/>')
    parts.append(
        f'<line x1="{tx(last[0]):.2f}" y1="{ty(last[1]):.2f}" '
        f'x2="{tx(last[0]):.2f}" y2="{ty(y_hi):.2f}" '
        'stroke="steelblue" stroke-dasharray="6 4" stroke-width="1.5"/>')
    if len(vs) > 1:
        pts = " ".join(f"{tx(x):.2f},{ty(y):.2f}" for x, y in vs)
        parts.append(f'<polyline points="{pts}" fill="none" '
                     'stroke="steelblue" stroke-width="2.5"/>')
    for (vx, vy), (xf, yf), (i, j) in zip(vs, polygon.vertices,
                                          polygon.generators):
        label = f"({fmt_fraction(xf)}, {fmt_fraction(yf)})"
        parts.append(
            f'<circle cx="{tx(vx):.2f}" cy="{ty(vy):.2f}" r="4" fill="crimson">'
            f'<title>generated by dt^{i} dz^{j}</title></circle>')
        parts.append(
            f'<text x="{tx(vx) + 7:.2f}" y="{ty(vy) - 7:.2f}" '
            f'font-family="monospace" font-size="13">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
