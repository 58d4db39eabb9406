import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import random_factor_product

from mpde import newton
from mpde.charroots import CharBranch, CharPoly, branches_at_infinity
from mpde.errors import PreconditionError
from mpde.series import Series2
from mpde.summability import (Angle, ProbeResult, admissible, classify,
                              levels, required_sectors,
                              singular_direction_probe)

HEAT = branches_at_infinity(CharPoly.from_table({(1, 0): 1, (0, 2): -1}))
TRANSPORT = branches_at_infinity(CharPoly.from_table({(1, 0): 1, (0, 1): -1}))
TWOFACTOR = branches_at_infinity(
    CharPoly.from_table({(2, 0): 1, (1, 2): -1, (1, 3): -1, (0, 5): 1}))
Q3 = branches_at_infinity(CharPoly.from_table({(1, 0): 1, (0, 3): -1}))
Q32 = branches_at_infinity(CharPoly.from_table({(2, 0): 1, (0, 3): -1}))


def test_levels_heat():
    res = levels(HEAT, 1, 1)
    assert [(l.K, l.q) for l in res.levels] == [(Fraction(1), Fraction(2))]
    assert res.tilde_K is None


def test_levels_two_factor_ordering():
    res = levels(TWOFACTOR, 1, 1)
    assert [(l.K, l.q) for l in res.levels] == [
        (Fraction(1), Fraction(2)), (Fraction(1, 2), Fraction(3))]
    ks = [l.K for l in res.levels]
    assert all(a > b for a, b in zip(ks, ks[1:]))


def test_levels_transport_empty():
    res = levels(TRANSPORT, 1, 1)
    assert res.levels == () and res.note == ""


def test_levels_not_applicable():
    res = levels(HEAT, 1, 1, 0, -2)  # s2 + st2 < 0
    assert res.note == "s2 + st2 <= 0: no Borel weight available"


def test_levels_tilde_K():
    res = levels(TWOFACTOR, 1, 1, Fraction(5), 0)
    # threshold (1+5)/1 = 6 excludes both pole orders
    assert res.levels == () and res.tilde_K == Fraction(1, 5)
    res2 = levels(TWOFACTOR, 1, 1, Fraction(3, 2), 0)
    # threshold 5/2: q=3 stays, q=2 drops
    assert [(l.K, l.q) for l in res2.levels] == [(Fraction(1, 2), Fraction(3))]
    assert res2.tilde_K == Fraction(2, 3)


def test_required_sectors_heat():
    secs = required_sectors(HEAT, 0.0, 1, 1)
    t_secs = [s for s in secs if s.variable == "t"]
    z_secs = [s for s in secs if s.variable == "z"]
    assert len(t_secs) == 1 and t_secs[0].disc_replaceable
    assert t_secs[0].growth == Fraction(1)
    assert sorted(s.direction.pi_multiple for s in z_secs) == [0, 1]
    assert all(s.growth == Fraction(2) for s in z_secs)


def test_required_sectors_q3_residues():
    z = [s for s in required_sectors(Q3, 0.0, 1, 1) if s.variable == "z"]
    assert sorted(s.direction.pi_multiple for s in z) == [
        Fraction(0), Fraction(2, 3), Fraction(4, 3)]
    assert all(s.growth == Fraction(3, 2) for s in z)  # q*K = 3 * 1/2


def test_required_sectors_ramified_direction_count():
    # q = 3/2: exactly mu = 3 distinct directions per leading term
    z = [s for s in required_sectors(Q32, 0.0, 1, 1) if s.variable == "z"]
    per_term = {}
    for s in z:
        per_term.setdefault(s.branch[1], set()).add(s.direction.pi_multiple)
    for dirs in per_term.values():
        assert dirs == {Fraction(0), Fraction(2, 3), Fraction(4, 3)}
        assert len(dirs) == 3  # mu distinct values, exact arithmetic


def test_direction_count_random_ramified():
    rng = random.Random(51)
    for _ in range(12):
        nu = rng.randint(1, 4)
        mu = rng.choice([m for m in range(nu + 1, 4 * nu + 2)
                         if math.gcd(m, nu) == 1])
        table = {(nu, 0): Fraction(1), (0, mu): Fraction(rng.choice([1, -2]))}
        branches = branches_at_infinity(CharPoly.from_table(table))
        q = branches[0].q
        assert q == Fraction(mu, nu)
        # the residue offsets 2*k/q are exact rational multiples of pi and
        # pairwise distinct mod 2 because gcd(mu, nu) = 1
        offsets = {(Fraction(2 * k) / q) % 2 for k in range(mu)}
        assert len(offsets) == mu
        z = [s for s in required_sectors(branches, 0.0, 1, 1)
             if s.variable == "z"]
        for beta in {s.branch[1] for s in z}:
            dirs = sorted(s.direction.radians for s in z
                          if s.branch[1] == beta)
            assert len(dirs) == mu
            assert all(b - a > 1e-9 for a, b in zip(dirs, dirs[1:]))


def test_classify_heat_case():
    rep = classify(HEAT, 1, 1, 0, 0, [0.0])
    assert rep.case == "simple_sum_I"
    assert [(l.K, l.q) for l in rep.levels] == [(Fraction(1), Fraction(2))]
    assert not rep.iff  # s1 = 1 != q*s2 = 2
    assert any(s.variable == "t" and s.disc_replaceable for s in rep.sectors)
    names = {h.name: h.holds for h in rep.hypotheses}
    assert names["q(s2+t2)-s1>=t1"] and names["q(s2+t2)-s1>0"]


def test_classify_q1_case_II_iff():
    rep = classify(TRANSPORT, 1, 1, 1, 0, [0.0])
    assert rep.case == "simple_sum_II"
    assert rep.levels[0].K == Fraction(1)  # K = 1/st1
    assert rep.iff  # s1 >= q*(s2+st2) since 1 >= 1
    rep2 = classify(TRANSPORT, 1, 1, 1, Fraction(1, 2), [0.0])
    assert rep2.case == "simple_sum_II" and not rep2.iff


def test_classify_sum_case_multiple_leading_terms():
    # two distinct roots with the common pole order q = 1
    br = branches_at_infinity(
        CharPoly.from_table({(2, 0): 1, (1, 1): -3, (0, 2): 2}))
    rep = classify(br, 1, 1, 0, 1, [0.0])
    assert rep.case == "sum_I"
    assert rep.levels[0].K == Fraction(1)  # 1/(q*(s2+st2) - s1) = 1/(2-1)
    assert rep.iff  # s1 = q*s2 = 1 and st2 = 1 > 0
    # both leading terms contribute their own sector families
    betas = {s.branch[1] for s in rep.sectors if s.variable == "z"}
    assert betas == {1, 2}


def test_classify_two_factor_multidirection():
    rep = classify(TWOFACTOR, 1, 1, 0, 0, [0.0, 0.0])
    assert rep.case == "multi1_I"
    assert [str(l.K) for l in rep.levels] == ["1", "1/2"]
    assert rep.admissible is True
    assert rep.margins == (math.pi / 2,)
    # widely split directions break admissibility
    rep2 = classify(TWOFACTOR, 1, 1, 0, 0, [0.0, 2.0])
    assert rep2.admissible is False


def test_classify_multi_case_II():
    rep = classify(TWOFACTOR, 1, 1, Fraction(3, 2), 0, [0.0, 0.1])
    assert rep.case == "multi1_II"
    assert rep.tilde_K == Fraction(2, 3)
    assert any(r.startswith("G0") for r in rep.g_requirements)
    # tilde_K takes the first direction, the level K = 1/2 the second
    t_sectors = {s.branch[0]: (s.direction.radians, s.growth)
                 for s in rep.sectors if s.variable == "t"}
    assert t_sectors == {1: (0.1, Fraction(1, 2)), 2: (0.0, Fraction(2, 3))}


def test_classify_none_case_with_ledger():
    rep = classify(TRANSPORT, 1, 1, 0, 0, [0.0])
    assert rep.case == "none"
    failing = [h.name for h in rep.hypotheses if not h.holds]
    assert "q(s2+t2)-s1>0" in failing


@pytest.mark.parametrize("branches,st1,dirs,message", [
    (HEAT, 0, [0.0, 1.0, 2.0], "need 1 directions for levels ['1'], got 3"),
    (TRANSPORT, 1, [0.0, 1.0], "need 1 directions for levels ['1'], got 2"),
    (TWOFACTOR, 0, [0.0, 1.0, 2.0],
     "need 2 directions for levels ['1', '1/2'], got 3"),
    (TWOFACTOR, Fraction(3, 2), [0.0, 0.1, 0.2],
     "need 2 directions for levels ['2/3', '1/2'], got 3"),
], ids=["simple_sum_I", "simple_sum_II", "multi1_I", "multi1_II"])
def test_classify_needs_one_direction_per_level(branches, st1, dirs,
                                                message):
    with pytest.raises(PreconditionError, match=re.escape(message)):
        classify(branches, 1, 1, st1, 0, dirs)
    # a single direction is broadcast to every level
    rep = classify(branches, 1, 1, st1, 0, [0.5])
    assert rep.directions == (0.5,) * int(message.split()[1])


def test_classify_none_report_keeps_the_directions_as_given():
    rep = classify(TRANSPORT, 1, 1, 0, 0, [0.0, 1.0, 2.0])
    assert rep.case == "none" and rep.directions == (0.0, 1.0, 2.0)


def _branch(q, lam0s):
    return CharBranch(q, tuple((lam0, 1) for lam0 in lam0s), q.denominator)


_rationals = st.builds(Fraction, st.integers(-3, 8), st.integers(1, 4))
_lam0 = st.sampled_from([1, -1, 1j, -2j, 2 + 1j, -0.5 + 3j])
_branch_sets = st.lists(
    st.tuples(st.builds(Fraction, st.integers(-2, 9), st.integers(1, 3)),
              st.lists(_lam0, min_size=1, max_size=3, unique=True)),
    min_size=1, max_size=3, unique_by=lambda b: b[0]).map(
        lambda bs: [_branch(q, lams)
                    for q, lams in sorted(bs, key=lambda b: -b[0])])


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(branches=_branch_sets, s1=_rationals, s2=_rationals,
       st1=st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
       st2=st.builds(Fraction, st.integers(-2, 3), st.integers(1, 3)),
       d=st.sampled_from([0.0, 1.0, math.pi, -2.5, 3 * math.pi / 4]))
def test_required_sectors_equal_the_case_I_report_sectors(
        branches, s1, s2, st1, st2, d):
    rep = classify(branches, s1, s2, st1, st2, [d])
    qualifies = bool(levels(branches, s1, s2, st1, st2).levels)
    if rep.case == "multi1_I" or (rep.case.endswith("sum_I") and qualifies):
        assert tuple(required_sectors(branches, d, s1, s2, st1, st2)) \
            == rep.sectors


def test_classify_monotone_in_st1():
    # decreasing st1 never removes a level from case-I style reports
    prev = None
    for st1 in (Fraction(2), Fraction(1), Fraction(0), Fraction(-1)):
        res = levels(TWOFACTOR, 1, 1, st1, 0)
        got = {(l.K, l.q) for l in res.levels}
        if prev is not None:
            assert prev.issubset(got)
        prev = got


def test_classify_deterministic():
    a = classify(TWOFACTOR, 1, 1, 0, 0, [0.0, 0.0])
    b = classify(TWOFACTOR, 1, 1, 0, 0, [0.0, 0.0])
    assert a == b


def test_level_slope_coincidence_random():
    rng = random.Random(52)
    for _ in range(20):
        table, _ = random_factor_product(rng, rng.randint(1, 5))
        P = CharPoly.from_table(table)
        branches = branches_at_infinity(P)
        polygon = newton.build(table, 1, 1)
        level_set = {l.K for l in levels(branches, 1, 1).levels}
        assert level_set == set(newton.slopes(polygon))


def test_admissible_worked_checks():
    ok, margins = admissible([0.0, 0.5], [2, 1])
    assert ok and margins[0] == pytest.approx(math.pi / 4 - 0.5)
    bad, margins2 = admissible([0.0, 1.0], [2, 1])
    assert not bad and margins2[0] == pytest.approx(math.pi / 4 - 1.0)
    ok_single, margins3 = admissible([0.3], [5])
    assert ok_single and margins3 == []


def test_admissible_validation():
    with pytest.raises(PreconditionError):
        admissible([0.0, 0.1], [1, 2])  # not decreasing
    with pytest.raises(PreconditionError):
        admissible([0.0], [2, 1])


def test_probe_factorial_series():
    u = Series2.from_t_coeffs([math.factorial(j) for j in range(41)])
    res = singular_direction_probe(u, 1)
    assert res.status == "ok"
    assert len(res.directions) == 1
    assert abs(res.directions[0] - 0.0) <= 0.05


def test_probe_alternating_series():
    u = Series2.from_t_coeffs([(-1) ** j * math.factorial(j)
                               for j in range(41)])
    res = singular_direction_probe(u, 1)
    assert res.status == "ok"
    assert abs(res.directions[0] - math.pi) <= 0.05


def test_probe_convergent_inconclusive():
    u = Series2.from_t_coeffs([1.0] * 41)
    res = singular_direction_probe(u, 1)
    assert res.status in ("no_singularity", "inconclusive")
    assert res.directions == ()


def test_probe_zero_tail_is_inconclusive():
    u = Series2.from_t_coeffs([1.0] + [0.0] * 40)
    assert singular_direction_probe(u, 1) == ProbeResult(
        "inconclusive", (), None, "tail is identically zero")


def test_probe_decaying_borel_coefficients_have_no_singularity():
    # b_j = 100**-j: a constant ratio below the detection scale
    u = Series2.from_t_coeffs([0.01 ** j * math.factorial(j)
                               for j in range(41)])
    res = singular_direction_probe(u, 1)
    assert (res.status, res.directions, res.radius) == (
        "no_singularity", (), None)
    assert res.detail.startswith("Borel coefficients decay")


def test_probe_conjugate_pair():
    # 1/(1 - 2 tau cos(a) + tau^2): singularities at exp(+-ia)
    a = 2.0
    b = [math.sin((j + 1) * a) / math.sin(a) for j in range(60)]
    u = Series2.from_t_coeffs([b[j] * math.gamma(1 + j) for j in range(60)])
    res = singular_direction_probe(u, 1)
    assert res.status == "ok"
    dirs = sorted(res.directions)
    assert len(dirs) == 2
    assert abs(dirs[0] - a) <= 0.05 or abs(dirs[0] - (2 * math.pi - a)) <= 0.05


def test_probe_needs_levels():
    with pytest.raises(PreconditionError):
        singular_direction_probe(Series2.from_t_coeffs([1.0] * 10), 1)


def test_probe_invariant_under_identity_weighting():
    # multiplying coefficient-wise by an order-0 quotient that is
    # identically 1 cannot change anything: the probe sees coefficients only
    u = Series2.from_t_coeffs([math.factorial(j) for j in range(41)])
    res1 = singular_direction_probe(u, 1)
    weighted = Series2.from_t_coeffs(
        [c * 1.0 for row in u.coeffs for c in row])
    res2 = singular_direction_probe(weighted, 1)
    assert res1.directions == res2.directions and res1.status == res2.status


def test_angle_detection():
    a = Angle.from_radians(math.pi)
    assert a.pi_multiple == 1
    b = Angle.from_radians(0.7)
    assert b.pi_multiple is None and b.radians == pytest.approx(0.7)
    c = Angle.from_radians(-math.pi / 2)
    assert c.pi_multiple == Fraction(3, 2)
