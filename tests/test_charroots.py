import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import random_factor_product
from oracles import validate_numeric

from mpde.charroots import (CharPoly, _deriv, _gcd, _squarefree_parts,
                            branches_at_infinity)
from mpde.errors import PreconditionError
from mpde.exact import RationalComplex
from mpde.parsing import parse_operator


def _branch_map(branches):
    return {b.q: sorted((complex(l), m) for l, m in b.leading_terms)
            for b in branches}


def test_monomial_square():
    br = branches_at_infinity(CharPoly.from_table({(1, 0): 1, (0, 2): -1}))
    assert len(br) == 1
    assert br[0].q == 2 and br[0].kappa == 1 and br[0].resolved
    (lam, mult), = br[0].leading_terms
    assert mult == 1 and abs(lam - 1) < 1e-12


def test_ramified_three_halves():
    br = branches_at_infinity(CharPoly.from_table({(2, 0): 1, (0, 3): -1}))
    assert len(br) == 1
    b = br[0]
    assert b.q == Fraction(3, 2) and b.kappa == 2
    roots = sorted(complex(l).real for l, _ in b.leading_terms)
    assert len(roots) == 2
    assert abs(roots[0] + 1) < 1e-10 and abs(roots[1] - 1) < 1e-10


def test_two_linear_factors():
    br = branches_at_infinity(
        CharPoly.from_table({(2, 0): 1, (1, 1): -3, (0, 2): 2}))
    assert len(br) == 1 and br[0].q == 1
    roots = sorted(complex(l).real for l, _ in br[0].leading_terms)
    assert abs(roots[0] - 1) < 1e-10 and abs(roots[1] - 2) < 1e-10


def test_negative_pole_order():
    br = branches_at_infinity(CharPoly.from_table({(1, 1): 1, (0, 0): -1}))
    assert br[0].q == -1
    (lam, mult), = br[0].leading_terms
    assert abs(lam - 1) < 1e-12 and mult == 1


def test_repeated_root_unresolved_flag():
    br = branches_at_infinity(
        CharPoly.from_table({(2, 0): 1, (1, 1): -2, (0, 2): 1}))
    assert br[0].q == 1 and not br[0].resolved
    (lam, mult), = br[0].leading_terms
    assert mult == 2 and abs(lam - 1) < 1e-10


def test_rejects_zero_branch_and_degenerate():
    with pytest.raises(PreconditionError):
        branches_at_infinity(CharPoly.from_table({(2, 0): 1, (1, 1): -1}))
    with pytest.raises(PreconditionError):
        CharPoly.from_table({(0, 3): 1})


def test_an_operator_holds_gaussian_rationals_whatever_it_was_built_from():
    # ints, other numbers, a sparse table and the parser give one value
    heat = [CharPoly(((0, 0, -1), (1,))),
            CharPoly(((0.0, Fraction(0), -1 + 0j), (Fraction(2, 2),))),
            CharPoly.from_table({(1, 0): 1, (0, 2): -1}),
            parse_operator("dt - dz^2")]
    assert len({repr(P) for P in heat}) == 1 and len(set(heat)) == 1
    for P in heat:
        assert all(type(c) is RationalComplex
                   for row in P.coeff_polys for c in row)
        assert all(type(c) is RationalComplex for c in P.support().values())


@pytest.mark.parametrize("text,n,B,max_b", [
    ("dt - dz^2", 1, 0, 2), ("(dt - dz^2)*(dt - dz^3)", 2, 0, 5),
    ("(2+dz)*dt - dz^2", 1, 1, 2), ("dz^3*dt^2 + dt - 1", 2, 3, 3),
    ("dt*dz + dz^4", 1, 1, 4)])
def test_an_operator_reports_its_orders(text, n, B, max_b):
    P = parse_operator(text)
    assert (P.n, P.B, P.max_b) == (n, B, max_b)
    assert P.B == len(P.p0()) - 1
    assert P.max_b == max(b for _, b in P.support())


def test_degree_accounting_random():
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randint(1, 5)
        table = {}
        # random support with a guaranteed lambda-free term
        table[(0, rng.randint(0, 6))] = Fraction(rng.randint(1, 5))
        table[(n, rng.randint(0, 6))] = Fraction(rng.choice([-3, -1, 1, 2]))
        for _ in range(rng.randint(0, 8)):
            key = (rng.randint(0, n), rng.randint(0, 6))
            table[key] = table.get(key, Fraction(0)) + Fraction(
                rng.randint(-4, 4))
        table = {k: v for k, v in table.items() if v}
        powers = {a for a, _ in table}
        if 0 not in powers or max(powers, default=0) < 1:
            continue
        P = CharPoly.from_table(table)
        branches = branches_at_infinity(P)
        assert sum(b.multiplicity for b in branches) == P.n
        qs = [b.q for b in branches]
        assert qs == sorted(qs, reverse=True)
        assert all(abs(complex(l)) > 0 for b in branches
                   for l, _ in b.leading_terms)


@pytest.mark.parametrize("scale", [Fraction(3), Fraction(1, 2), Fraction(5, 3)])
def test_scaling_covariance(scale):
    cases = [
        ({(1, 0): 1, (0, 2): -1}, [(Fraction(2), [1])]),
        ({(2, 0): 1, (0, 3): -1}, [(Fraction(3, 2), [1, -1])]),
        ({(2, 0): 1, (1, 1): -3, (0, 2): 2}, [(Fraction(1), [1, 2])]),
        ({(1, 1): 1, (0, 0): -1}, [(Fraction(-1), [1])]),
    ]
    for table, expected in cases:
        scaled = {(a, b): c * scale ** b for (a, b), c in table.items()}
        br = branches_at_infinity(CharPoly.from_table(scaled))
        for (q, lams), b in zip(expected, br):
            assert b.q == q
            got = sorted(complex(l).real for l, _ in b.leading_terms)
            want = sorted(l * float(scale) ** float(q) for l in lams)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-10 * max(1.0, abs(w))


def test_validate_monomial_exact():
    P = CharPoly.from_table({(1, 0): 1, (0, 2): -1})
    br = branches_at_infinity(P)
    rep = validate_numeric(P, br, [1e3, 1e4])
    assert rep.consistent and rep.unassigned == 0
    assert all(d < 1e-12 for b in rep.branches for d in b.deviations)


def test_validate_ramified_at_1e4():
    P = CharPoly.from_table({(2, 0): 1, (0, 3): -1})
    br = branches_at_infinity(P)
    rep = validate_numeric(P, br, [1e4], ray_angle=0.0)
    assert rep.consistent
    assert rep.branches[0].deviations[0] < 1e-6


def test_validate_deviation_shrinks():
    P = CharPoly.from_table({(2, 0): 1, (0, 3): -1, (0, 1): -1})
    br = branches_at_infinity(P)
    rep = validate_numeric(P, br, [1e2, 1e4])
    d_small, d_big = rep.branches[0].deviations
    assert rep.consistent
    assert d_big < d_small / 50  # next-order correction dies off fast


def test_validate_monotone_random_products():
    rng = random.Random(22)
    for _ in range(10):
        table, _ = random_factor_product(rng, rng.randint(1, 3))
        P = CharPoly.from_table(table)
        br = branches_at_infinity(P)
        rep = validate_numeric(P, br, [1e2, 1e3, 1e4, 1e5])
        assert rep.unassigned == 0
        assert all(b.monotone for b in rep.branches)


def _poly_mul(a, b):
    out = [RationalComplex(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


_gaussian = st.builds(RationalComplex,
                      st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
                      st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))
_nonzero = _gaussian.filter(bool)
# (factor, times): a factor of degree 1 or 2 repeated 1-3 times
_factors = st.lists(st.tuples(
    st.builds(lambda low, top: low + [top],
              st.lists(_gaussian, min_size=1, max_size=2), _nonzero),
    st.integers(1, 3)), min_size=1, max_size=4)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(lead=_nonzero, factors=_factors)
def test_squarefree_parts_of_repeated_gaussian_factors(lead, factors):
    p = [lead]
    for factor, times in factors:
        for _ in range(times):
            p = _poly_mul(p, factor)
    parts = _squarefree_parts(p)
    mults = [m for m, _ in parts]
    assert mults == sorted(set(mults)) and mults[0] >= 1
    one = [RationalComplex(1)]
    for m, part in parts:
        assert len(part) >= 2 and part[-1] == 1  # monic, positive degree
        assert _gcd(part, _deriv(part)) == one   # square-free
    for (_, a), (_, b) in itertools.combinations(parts, 2):
        assert _gcd(a, b) == one                 # pairwise coprime
    product = one
    for m, part in parts:
        for _ in range(m):
            product = _poly_mul(product, part)
    assert product == [c / p[-1] for c in p]


@pytest.mark.parametrize("text", [
    "dt - dz^2", "dt - dz", "(dt - dz^2)*(dt - dz^3)", "(2+dz)*dt - dz^2",
    "(1+dz)*dt - dz^3", "(1+1i)*dt - dz^2", "(2+3*dz)*dt - dz^2"])
def test_linear_edges_skip_the_squarefree_decomposition(monkeypatch, text):
    # every edge of these operators is linear, hence square-free: its root
    # -c0/c1 is taken at once, rounded once, the branches those of the
    # decomposition; an edge of degree 2 still decomposes
    from mpde import charroots

    P = parse_operator(text)
    want = _branch_map(branches_at_infinity(P))
    monkeypatch.setattr(charroots, "_squarefree_parts", None)
    assert _branch_map(branches_at_infinity(P)) == want
    with pytest.raises(TypeError):
        branches_at_infinity(parse_operator("dt^2 - dz^2"))
