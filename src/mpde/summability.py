"""Summability levels, sector requirements and the classification procedure.

Levels are computed exactly: a branch of pole order q contributes the level
``K = 1/(q*(s2 + st2) - s1)`` whenever q exceeds both ``s1/(s2+st2)`` and
``(s1+st1)/(s2+st2)``.  The classifier evaluates every hypothesis inequality
of the applicable summability statement in exact rational arithmetic, picks
the case, and reports which analytic-continuation sectors the transformed
inhomogeneity must extend to; it never attempts the continuation itself.

Angles are kept as exact rational multiples of pi whenever the inputs allow
(axis-aligned leading terms, directions that are exact multiples of pi) and
only then converted to floats for reporting.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .errors import DomainError, PreconditionError
from .exact import as_fraction, fmt_fraction
from .record import record
from .series import Series2


# -- exact-when-possible angles ----------------------------------------------


@record
class Angle:
    """An angle in [0, 2*pi); ``pi_multiple`` is exact when known."""

    radians: float
    pi_multiple: Fraction | None = None

    @classmethod
    def from_pi_multiple(cls, frac: Fraction) -> "Angle":
        frac = frac % 2
        return cls(float(frac) * math.pi, frac)

    @classmethod
    def from_radians(cls, x: float) -> "Angle":
        frac = _detect_pi_multiple(x)
        if frac is not None:
            return cls.from_pi_multiple(frac)
        return cls(x % (2.0 * math.pi), None)


def _detect_pi_multiple(x: float) -> Fraction | None:
    if x == 0.0:
        return Fraction(0)
    cand = Fraction(x / math.pi).limit_denominator(384)
    if float(cand) * math.pi == x:
        return cand
    return None


def _arg_pi_multiple(z: complex) -> Fraction | None:
    if z.imag == 0.0:
        return Fraction(0) if z.real > 0 else Fraction(1)
    if z.real == 0.0:
        return Fraction(1, 2) if z.imag > 0 else Fraction(3, 2)
    return None


# -- levels -------------------------------------------------------------------


@record
class LevelSpec:
    """One candidate summability level K and its branch."""

    K: Fraction
    q: Fraction
    branch_index: int  # 1-based index into the branch list


@record
class LevelsResult:
    """The candidate levels of a problem and the counts behind them."""

    applicable: bool
    levels: tuple          # LevelSpec, K strictly decreasing
    tilde_K: Fraction | None
    threshold: Fraction | None
    n_qualifying: int
    n_distinct: int
    note: str = ""


def levels(branches, s1, s2, st1=0, st2=0) -> LevelsResult:
    """Candidate summability levels from branch pole orders.

    Returned with K strictly decreasing (ascending pole order), the order in
    which multidirections are specified.  ``tilde_K = 1/st1`` is attached
    when st1 > 0 and branches below the threshold remain.
    """
    s1, s2 = as_fraction(s1), as_fraction(s2)
    st1, st2 = as_fraction(st1), as_fraction(st2)
    weight = s2 + st2
    if weight <= 0:
        return LevelsResult(False, (), None, None, 0, len(branches),
                            "s2 + st2 <= 0: no Borel weight available")
    threshold = max(s1 / weight, (s1 + st1) / weight)
    qual = [(idx + 1, b.q) for idx, b in enumerate(branches) if b.q > threshold]
    # branches arrive q-descending; ascending q = descending K
    specs = tuple(LevelSpec(1 / (q * weight - s1), q, idx)
                  for idx, q in sorted(qual, key=lambda t: t[1]))
    tilde = None
    if st1 > 0 and len(qual) < len(branches):
        tilde = 1 / st1
    return LevelsResult(True, specs, tilde, threshold,
                        len(qual), len(branches))


# -- sector requirements --------------------------------------------------------


@record
class SectorRequirement:
    """A sector in t or z that the Borel-transformed rhs must extend to."""

    variable: str            # "t" | "z"
    direction: Angle
    growth: Fraction
    branch: tuple            # (alpha, beta, k) 1-based branch / leading term, residue
    disc_replaceable: bool = False


def _z_sectors(branch, alpha_idx: int, d: Angle, K: Fraction):
    q = branch.q
    mu = abs(q.numerator)
    out = []
    for beta_idx, (lam0, _) in enumerate(branch.leading_terms, start=1):
        arg_pi = _arg_pi_multiple(lam0)
        for k in range(mu):
            if d.pi_multiple is not None and arg_pi is not None:
                frac = (d.pi_multiple + arg_pi + 2 * k) / q
                ang = Angle.from_pi_multiple(frac)
            else:
                arg = cmath.phase(lam0) if arg_pi is None else float(arg_pi) * math.pi
                ang = Angle(((d.radians + arg + 2 * math.pi * k) / float(q))
                            % (2.0 * math.pi), None)
            out.append(SectorRequirement("z", ang, q * K,
                                         (alpha_idx, beta_idx, k)))
    return out


def required_sectors(branches, d, s1, s2, st1=0, st2=0) -> list:
    """Sectors the Borel-transformed inhomogeneity must extend to.

    For each qualifying branch, each leading term and each residue
    ``k = 0..mu-1`` (pole order q = mu/nu reduced) a z-sector in direction
    ``(d + arg(lambda0) + 2*k*pi)/q`` with growth ``q*K`` is required, plus
    one t-sector in direction d with growth K; the t-sector requirement can
    be replaced by a disc when st1 <= 0.
    """
    st1 = as_fraction(st1)
    res = levels(branches, s1, s2, st1, st2)
    if not res.applicable:
        return []
    d_angle = d if isinstance(d, Angle) else Angle.from_radians(float(d))
    out = []
    for spec in res.levels:
        branch = branches[spec.branch_index - 1]
        out.append(SectorRequirement("t", d_angle, spec.K,
                                     (spec.branch_index, 0, 0),
                                     disc_replaceable=st1 <= 0))
        out.extend(_z_sectors(branch, spec.branch_index, d_angle, spec.K))
    return out


# -- admissible multidirections ---------------------------------------------------


def admissible(directions, level_values):
    """Check ``|d_j - d_{j-1}| <= pi*(1/k_j - 1/k_{j-1})/2`` pairwise.

    ``level_values`` must be strictly decreasing (k_1 > ... > k_n).  Returns
    ``(ok, margins)`` where each margin is the exact bound minus the actual
    gap (negative = violated).
    """
    ks = [as_fraction(k) for k in level_values]
    if any(k <= 0 for k in ks):
        raise DomainError("levels must be positive")
    if any(a <= b for a, b in zip(ks, ks[1:])):
        raise PreconditionError("levels must be strictly decreasing")
    ds = [float(d) for d in directions]
    if len(ds) != len(ks):
        raise PreconditionError(
            f"{len(ds)} directions given for {len(ks)} levels")
    margins = []
    ok = True
    for j in range(1, len(ks)):
        bound = (1 / ks[j] - 1 / ks[j - 1]) / 2  # exact rational, times pi
        margin = float(bound) * math.pi - abs(ds[j] - ds[j - 1])
        margins.append(margin)
        if margin < 0:
            ok = False
    return ok, margins


# -- the decision procedure -------------------------------------------------------


@record
class Hypothesis:
    """One named hypothesis of the summability statements, checked."""

    name: str
    holds: bool
    detail: str = ""


@record
class SummabilityReport:
    """The summability classification of a problem."""

    case: str
    levels: tuple            # LevelSpec, K decreasing
    tilde_K: Fraction | None
    iff: bool
    sectors: tuple
    hypotheses: tuple
    admissible: bool | None
    margins: tuple | None
    directions: tuple | None
    g_requirements: tuple
    notes: tuple = ()


def _hyp(name: str, lhs: Fraction, op: str, rhs: Fraction) -> Hypothesis:
    holds = {"<=": lhs <= rhs, ">=": lhs >= rhs,
             "<": lhs < rhs, ">": lhs > rhs, "==": lhs == rhs}[op]
    return Hypothesis(name, holds,
                      f"{fmt_fraction(lhs)} {op} {fmt_fraction(rhs)}")


def classify(branches, s1, s2, st1=0, st2=0, directions=None
             ) -> SummabilityReport:
    """Apply the summability statements as a hypothesis-checking procedure.

    Single branch class with one leading term -> the simple case; one class
    with several leading terms -> the common-pole-order case; several
    classes -> the multilevel case (I when st1 <= 0 or every class
    qualifies, II otherwise).  All inequalities are evaluated exactly and
    recorded; an inapplicable configuration yields case ``none`` with the
    failing hypotheses in the ledger.
    """
    s1, s2 = as_fraction(s1), as_fraction(s2)
    st1, st2 = as_fraction(st1), as_fraction(st2)
    if directions is None:
        dir_list = [0.0]
    elif isinstance(directions, (int, float)):
        dir_list = [float(directions)]
    else:
        dir_list = [float(d) for d in directions]
    res = levels(branches, s1, s2, st1, st2)
    notes = [res.note] if res.note else []

    if len(branches) == 1:
        return _classify_single(branches, s1, s2, st1, st2, dir_list, res,
                                notes)
    return _classify_multi(branches, s1, s2, st1, st2, dir_list, res, notes)


def _growth_requirement(t_order, z_order, K, qK, label="G"):
    return (f"{label} = B[Gamma_{fmt_fraction(t_order)},t]"
            f"B[Gamma_{fmt_fraction(z_order)},z]g holomorphic with growth "
            f"({fmt_fraction(K)}, {fmt_fraction(qK)}) on the listed sectors")


def _classify_single(branches, s1, s2, st1, st2, dir_list, res, notes):
    branch = branches[0]
    q = branch.q
    prefix = "simple_sum" if len(branch.leading_terms) == 1 else "sum"
    weight = s2 + st2
    gap = q * weight - s1
    hyps = [
        _hyp("q>0", q, ">", Fraction(0)),
        _hyp("q(s2+t2)-s1>=t1", gap, ">=", st1),
        _hyp("q(s2+t2)-s1>0", gap, ">", Fraction(0)),
        _hyp("s2+t2>0", weight, ">", Fraction(0)),
        _hyp("q(s2+t2)-s1<=t1", gap, "<=", st1),
        _hyp("t1>0", st1, ">", Fraction(0)),
        _hyp("s1+t1>0", s1 + st1, ">", Fraction(0)),
    ]
    case_I = all(h.holds for h in hyps[:4])
    case_II = hyps[0].holds and all(h.holds for h in hyps[4:])
    d0 = Angle.from_radians(dir_list[0])
    if case_I:
        K = 1 / gap
        iff = (s1 == q * s2 and st2 > 0)
        sectors = [SectorRequirement("t", d0, K, (1, 0, 0),
                                     disc_replaceable=st1 <= 0)]
        sectors += _z_sectors(branch, 1, d0, K)
        g_req = (_growth_requirement(gap, st2, K, q * K),)
        lv = (LevelSpec(K, q, 1),)
        if iff:
            notes.append("two-variable summability is equivalent to the "
                         "same property of g (s1 = q*s2, t2 > 0)")
        return SummabilityReport(prefix + "_I", lv, res.tilde_K, iff,
                                 tuple(sectors), tuple(hyps), True, (),
                                 tuple(dir_list[:1]), g_req, tuple(notes))
    if case_II:
        K = 1 / st1
        iff = s1 >= q * weight
        sectors = [SectorRequirement("t", d0, K, (1, 0, 0),
                                     disc_replaceable=False)]
        sectors += _z_sectors(branch, 1, d0, K)
        g_req = (_growth_requirement(st1, (s1 + st1) / q - s2, K, q * K),)
        lv = (LevelSpec(K, q, 1),)
        if iff:
            notes.append("summability in direction d is equivalent to the "
                         "same property of g (s1 >= q*(s2+t2))")
        return SummabilityReport(prefix + "_II", lv, None, iff,
                                 tuple(sectors), tuple(hyps), True, (),
                                 tuple(dir_list[:1]), g_req, tuple(notes))
    return SummabilityReport("none", (), None, False, (), tuple(hyps),
                             None, None, tuple(dir_list), (), tuple(notes))


def _classify_multi(branches, s1, s2, st1, st2, dir_list, res, notes):
    hyps = [
        _hyp("s1>0", s1, ">", Fraction(0)),
        _hyp("s2>0", s2, ">", Fraction(0)),
        _hyp("s2+t2>0", s2 + st2, ">", Fraction(0)),
        Hypothesis("positive levels exist", bool(res.levels),
                   f"{res.n_qualifying} of {res.n_distinct} pole orders "
                   f"exceed the threshold"),
    ]
    if not (all(h.holds for h in hyps[:3]) and res.levels):
        return SummabilityReport("none", (), None, False, (), tuple(hyps),
                                 None, None, tuple(dir_list), (), tuple(notes))
    case_I = st1 <= 0 or res.n_qualifying == res.n_distinct
    hyps.append(_hyp("t1<=0", st1, "<=", Fraction(0)))
    hyps.append(Hypothesis("all pole orders qualify (N=n~)",
                           res.n_qualifying == res.n_distinct,
                           f"{res.n_qualifying} == {res.n_distinct}"))
    lvl = list(res.levels)
    k_values = [spec.K for spec in lvl]
    tilde = res.tilde_K if not case_I else None
    if tilde is not None:
        k_values = [tilde] + k_values
    if len(dir_list) == 1 and len(k_values) > 1:
        dir_list = dir_list * len(k_values)
    if len(dir_list) != len(k_values):
        raise PreconditionError(
            f"need {len(k_values)} directions for levels "
            f"{[fmt_fraction(k) for k in k_values]}, got {len(dir_list)}")
    ok, margins = admissible(dir_list, k_values) if len(k_values) > 1 \
        else (True, [])
    sectors = []
    g_reqs = []
    offset = 1 if tilde is not None else 0
    for pos, spec in enumerate(lvl):
        d_angle = Angle.from_radians(dir_list[pos + offset])
        branch = branches[spec.branch_index - 1]
        sectors.append(SectorRequirement("t", d_angle, spec.K,
                                         (spec.branch_index, 0, 0),
                                         disc_replaceable=st1 <= 0))
        sectors.extend(_z_sectors(branch, spec.branch_index, d_angle, spec.K))
        g_reqs.append(_growth_requirement(
            spec.q * (s2 + st2) - s1, st2, spec.K, spec.q * spec.K,
            label=f"G[q={fmt_fraction(spec.q)}]"))
    if tilde is not None:
        qualifying = {spec.branch_index for spec in lvl}
        d_t = Angle.from_radians(dir_list[0])
        for bidx, branch in enumerate(branches, start=1):
            if bidx in qualifying or branch.q <= 0:
                continue
            g_reqs.append(_growth_requirement(
                st1, st2, tilde, branch.q * tilde,
                label=f"G0[q={fmt_fraction(branch.q)}]"))
            sectors.append(SectorRequirement("t", d_t, tilde, (bidx, 0, 0)))
            sectors.extend(_z_sectors(branch, bidx, d_t, tilde))
        notes.append("the G0 requirement is reported but not verified")
    case = "multi1_I" if case_I else "multi1_II"
    return SummabilityReport(case, tuple(lvl), tilde, False, tuple(sectors),
                             tuple(hyps), ok, tuple(margins),
                             tuple(dir_list), tuple(g_reqs), tuple(notes))


# -- heuristic singular-direction probe --------------------------------------------


@record
class ProbeResult:
    """Singular directions estimated from the coefficients."""

    status: str              # "ok" | "no_singularity" | "inconclusive"
    directions: tuple        # estimated singular directions, radians in [0, 2pi)
    radius: float | None
    detail: str = ""


def singular_direction_probe(u: Series2, K, z_eval: complex = 0.0,
                             min_levels: int = 20) -> ProbeResult:
    """Estimate singular directions of the level-K Borel transform.

    Forms ``b_j = u_j(z_eval) / Gamma(1 + j/K)`` and reads the nearest
    singularity of ``sum b_j tau**j`` off the coefficient ratio sequence
    (direction = -arg of the ratio limit), falling back to a two-term
    linear recurrence fit when the plain ratios oscillate (conjugate
    singularity pairs).  Heuristic: results depend on coefficients only.
    """
    import numpy as np

    Kf = float(as_fraction(K)) if not isinstance(K, float) else K
    if Kf <= 0:
        raise DomainError("probe level K must be positive")
    J = u.valid[0]
    if J + 1 < min_levels:
        raise PreconditionError(
            f"probe needs at least {min_levels} valid t-levels, got {J + 1}")
    vals = u.row_values(z_eval)
    b = [v / math.exp(math.lgamma(1.0 + j / Kf)) for j, v in enumerate(vals)]
    start = max(2, J // 2)
    tail = b[start:]
    if all(abs(x) == 0.0 for x in tail):
        return ProbeResult("inconclusive", (), None, "tail is identically zero")
    ratios = [tail[k + 1] / tail[k] for k in range(len(tail) - 1)
              if abs(tail[k]) > 0.0]
    if len(ratios) < 5:
        return ProbeResult("inconclusive", (), None, "too few usable ratios")
    mean = sum(ratios[-8:]) / len(ratios[-8:])
    spread = max(abs(r - mean) for r in ratios[-8:])
    if abs(mean) > 0 and spread <= 0.02 * abs(mean):
        if abs(mean) < 0.05:
            return ProbeResult("no_singularity", (), None,
                               "Borel coefficients decay: no singularity "
                               "within 20x the unit scale")
        direction = (-cmath.phase(mean)) % (2.0 * math.pi)
        return ProbeResult("ok", (direction,), 1.0 / abs(mean),
                           f"ratio limit {mean:.6g}")
    # two-term recurrence fit b_{j+1} = alpha b_j + beta b_{j-1}
    rows = []
    rhs = []
    for k in range(1, len(tail) - 1):
        rows.append([tail[k], tail[k - 1]])
        rhs.append(tail[k + 1])
    A = np.array(rows, dtype=complex)
    y = np.array(rhs, dtype=complex)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    alpha, beta = complex(coef[0]), complex(coef[1])
    fit = A @ coef
    scale = float(np.max(np.abs(y))) or 1.0
    if float(np.max(np.abs(fit - y))) > 1e-3 * scale:
        return ProbeResult("inconclusive", (), None,
                           "ratio sequence does not follow a short recurrence")
    roots = np.roots([1.0, -alpha, -beta])
    dirs = []
    radius = None
    for r in roots:
        if abs(r) >= 0.05:
            dirs.append((-cmath.phase(complex(r))) % (2.0 * math.pi))
            radius = max(radius or 0.0, 1.0 / abs(r))
    if not dirs:
        return ProbeResult("no_singularity", (), None,
                           "recurrence roots below the detection scale")
    dirs = sorted(set(round(d, 12) for d in dirs))
    return ProbeResult("ok", tuple(dirs), radius,
                       f"recurrence roots {[complex(r) for r in roots]}")
