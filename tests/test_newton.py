import random
from fractions import Fraction

import pytest

from helpers import random_factor_product, table_mul

from mpde import newton
from mpde.charroots import CharPoly, branches_at_infinity
from mpde.errors import PreconditionError


def _fr(x):
    return Fraction(x)


def brute_force_vertices(support, s1, s2):
    """Independent O(n^3) oracle for the quarter-plane hull vertices."""
    s1, s2 = _fr(s1), _fr(s2)
    pts = sorted({(_fr(i) * s1 + _fr(j) * s2, -_fr(i)) for (i, j) in support})
    verts = []
    for p in pts:
        dominated = any(o != p and o[0] >= p[0] and o[1] <= p[1] for o in pts)
        if dominated:
            continue
        covered = False
        for p1 in pts:
            for p2 in pts:
                if p1[0] < p[0] < p2[0]:
                    # p on or above the chord p1 -> p2
                    lhs = (p[1] - p1[1]) * (p2[0] - p1[0])
                    rhs = (p2[1] - p1[1]) * (p[0] - p1[0])
                    if lhs >= rhs:
                        covered = True
        if not covered:
            verts.append(p)
    return tuple(sorted(verts))


def test_build_heat():
    p = newton.build({(1, 0): 1, (0, 2): -1}, 1, 1)
    assert p.vertices == ((_fr(1), _fr(-1)), (_fr(2), _fr(0)))
    assert newton.slopes(p) == [Fraction(1)]
    assert brute_force_vertices({(1, 0), (0, 2)}, 1, 1) == p.vertices


def test_build_two_factor():
    support = {(2, 0): 1, (1, 2): -1, (1, 3): -1, (0, 5): 1}
    p = newton.build(support, 1, 1)
    assert p.vertices == ((_fr(2), _fr(-2)), (_fr(4), _fr(-1)),
                          (_fr(5), _fr(0)))
    assert newton.slopes(p) == [Fraction(1, 2), Fraction(1)]
    assert brute_force_vertices(support, 1, 1) == p.vertices
    # the generating monomial is remembered per vertex
    assert p.generators[0] == (2, 0)
    assert p.generators[1] == (1, 3)


def test_build_single_point():
    p = newton.build({(2, 0): 1}, 1, 1)
    assert p.vertices == ((_fr(2), _fr(-2)),)
    assert newton.slopes(p) == []


def test_build_transport_degenerate_column():
    # points (1,-1) and (1,0): single x, the upper one is dominated
    p = newton.build({(1, 0): 1, (0, 1): -1}, 1, 1)
    assert p.vertices == ((_fr(1), _fr(-1)),)
    assert newton.slopes(p) == []


def test_build_requires_positive_weights():
    with pytest.raises(PreconditionError):
        newton.build({(1, 0): 1}, 0, 1)
    with pytest.raises(PreconditionError):
        newton.build({}, 1, 1)


def test_cross_check_examples():
    cases = [
        ({(1, 0): 1, (0, 2): -1}, [Fraction(1)]),
        ({(2, 0): 1, (1, 2): -1, (1, 3): -1, (0, 5): 1},
         [Fraction(1, 2), Fraction(1)]),
        ({(1, 0): 1, (0, 1): -1}, []),
    ]
    for table, slopes in cases:
        P = CharPoly.from_table(table)
        polygon = newton.build(table, 1, 1)
        branches = branches_at_infinity(P)
        assert newton.slopes(polygon) == slopes
        report = newton.cross_check(polygon, branches, 1, 1)
        assert report.ok, report.details


def test_cross_check_detects_mismatch():
    P = CharPoly.from_table({(1, 0): 1, (0, 2): -1})
    branches = branches_at_infinity(P)
    wrong = newton.build({(1, 0): 1, (0, 3): -1}, 1, 1)
    report = newton.cross_check(wrong, branches, 1, 1)
    assert not report.ok and report.details


def _random_support(rng, s1, s2):
    """Points (i, j) with rational z-orders j, several of them sharing an x."""
    support = set()
    for _ in range(rng.randint(1, 9)):
        i = rng.randint(0, 5)
        j = Fraction(rng.randint(0, 16), rng.choice((1, 2, 3)))
        support.add((i, j))
        for i2 in range(6):
            # the point of t-order i2 with the same x, when j2 >= 0
            j2 = j + (i - i2) * _fr(s1) / _fr(s2)
            if j2 >= 0 and rng.random() < 0.3:
                support.add((i2, j2))
    return support


def test_brute_force_oracle_random():
    rng = random.Random(31)
    for _ in range(60):
        weights = ((1, 1), (Fraction(1, 2), 2), (2, Fraction(1, 2)),
                   (Fraction(rng.randint(1, 7), rng.randint(1, 5)),
                    Fraction(rng.randint(1, 7), rng.randint(1, 5))))
        for s1, s2 in weights:
            support = _random_support(rng, s1, s2)
            p = newton.build(dict.fromkeys(support, 1), s1, s2)
            assert p.vertices == brute_force_vertices(support, s1, s2)
            # each vertex keeps exactly the support point that maps to it
            for (x, y), gen in zip(p.vertices, p.generators):
                assert {gen} == {(i, j) for i, j in support
                                 if (i * _fr(s1) + j * _fr(s2), -i)
                                 == (x, y)}
            ks = newton.slopes(p)
            assert all(k > 0 for k in ks)
            assert all(a < b for a, b in zip(ks, ks[1:]))
            xs = [v[0] for v in p.vertices]
            ys = [v[1] for v in p.vertices]
            assert xs == sorted(xs) and len(set(xs)) == len(xs)
            assert ys == sorted(ys) and len(set(ys)) == len(ys)


def test_translation_property_random():
    rng = random.Random(32)
    for _ in range(25):
        table, _ = random_factor_product(rng, rng.randint(1, 4))
        k = rng.randint(0, 4)
        p0 = {(0, 0): Fraction(rng.choice([1, 2, -3]))}
        for deg in range(1, k + 1):
            p0[(0, deg)] = Fraction(rng.randint(-3, 3))
        p0[(0, k)] = p0.get((0, k), Fraction(0)) or Fraction(1)
        product = table_mul(p0, table)
        for s1, s2 in ((1, 1), (Fraction(1, 2), Fraction(3, 2))):
            base = newton.build(table, s1, s2)
            shifted = newton.build(product, s1, s2)
            dx = Fraction(k) * Fraction(s2)
            assert shifted.vertices == tuple((x + dx, y)
                                             for x, y in base.vertices)


def test_cross_check_random_products():
    rng = random.Random(33)
    for _ in range(20):
        table, factors = random_factor_product(rng, rng.randint(1, 5))
        P = CharPoly.from_table(table)
        branches = branches_at_infinity(P)
        polygon = newton.build(table, 1, 1)
        report = newton.cross_check(polygon, branches, 1, 1)
        assert report.ok, (factors, report.details)
        expected = {Fraction(1, p - 1) for _, p in factors if p > 1}
        assert set(newton.slopes(polygon)) == expected


def test_emission():
    p = newton.build({(2, 0): 1, (1, 2): -1, (1, 3): -1, (0, 5): 1}, 1, 1)
    csv = newton.vertices_csv(p)
    assert csv == "x,y\n2,-2\n4,-1\n5,0\n"
    svg = newton.to_svg(p)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<circle") == 3 and "stroke-dasharray" in svg
