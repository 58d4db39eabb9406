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

from . import kernel
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

    levels: tuple          # LevelSpec, K strictly decreasing
    tilde_K: Fraction | None
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
        return LevelsResult((), None, 0, len(branches),
                            "s2 + st2 <= 0: no Borel weight available")
    threshold = max(s1 / weight, (s1 + st1) / weight)
    qual = [(idx + 1, b.q) for idx, b in enumerate(branches) if b.q > threshold]
    # branches arrive q-descending; ascending q = descending K
    specs = tuple(LevelSpec(1 / (q * weight - s1), q, idx)
                  for idx, q in sorted(qual, key=lambda t: t[1]))
    tilde = 1 / st1 if st1 > 0 and len(qual) < len(branches) else None
    return LevelsResult(specs, tilde, len(qual), len(branches))


# -- sector requirements --------------------------------------------------------


@record
class SectorRequirement:
    """A sector in t or z that the Borel-transformed rhs must extend to."""

    variable: str            # "t" | "z"
    direction: Angle
    growth: Fraction
    branch: tuple            # (alpha, beta, k) 1-based branch / leading term, residue
    disc_replaceable: bool = False


def _level_sectors(branch, alpha_idx: int, d: Angle, K: Fraction, st1):
    """The t-sector of level K in direction d, then the branch's z-sectors.

    The t-sector has growth K and can be replaced by a disc when st1 <= 0.
    Each leading term lambda0 and residue ``k = 0..mu-1`` (pole order
    q = mu/nu reduced) gives a z-sector in direction
    ``(d + arg(lambda0) + 2*k*pi)/q`` with growth ``q*K``.
    """
    q = branch.q
    mu = abs(q.numerator)
    out = [SectorRequirement("t", d, K, (alpha_idx, 0, 0), st1 <= 0)]
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


def classify(branches, s1, s2, st1=0, st2=0, directions=(0.0,)
             ) -> SummabilityReport:
    """Apply the summability statements as a hypothesis-checking procedure.

    Single branch class with one leading term -> the simple case; one class
    with several leading terms -> the common-pole-order case; several
    classes -> the multilevel case (I when st1 <= 0 or every class
    qualifies, II otherwise).  All inequalities are evaluated exactly and
    recorded; an inapplicable configuration yields case ``none`` with the
    failing hypotheses in the ledger and the directions as given.  A report
    with levels takes one direction per level, ordered with decreasing K
    (a single direction is broadcast); any other count is a
    PreconditionError.
    """
    s1, s2 = as_fraction(s1), as_fraction(s2)
    st1, st2 = as_fraction(st1), as_fraction(st2)
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


def _none_report(hyps, dir_list, notes) -> SummabilityReport:
    return SummabilityReport("none", (), None, False, (), tuple(hyps),
                             None, None, tuple(dir_list), (), tuple(notes))


def _per_level(dir_list, k_values) -> list:
    """One direction per level value; a single direction is broadcast."""
    if len(dir_list) == 1:
        return dir_list * len(k_values)
    if len(dir_list) != len(k_values):
        raise PreconditionError(
            f"need {len(k_values)} directions for levels "
            f"{[fmt_fraction(k) for k in k_values]}, got {len(dir_list)}")
    return dir_list


def _classify_single(branches, s1, s2, st1, st2, dir_list, res, notes):
    branch = branches[0]
    q = branch.q
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
    if all(h.holds for h in hyps[:4]):
        case, K, tilde = "_I", 1 / gap, res.tilde_K
        iff = s1 == q * s2 and st2 > 0
        g_req = _growth_requirement(gap, st2, K, q * K)
        note = ("two-variable summability is equivalent to the same "
                "property of g (s1 = q*s2, t2 > 0)")
    elif hyps[0].holds and all(h.holds for h in hyps[4:]):
        case, K, tilde = "_II", 1 / st1, None
        iff = s1 >= q * weight
        g_req = _growth_requirement(st1, (s1 + st1) / q - s2, K, q * K)
        note = ("summability in direction d is equivalent to the same "
                "property of g (s1 >= q*(s2+t2))")
    else:
        return _none_report(hyps, dir_list, notes)
    dir_list = _per_level(dir_list, [K])
    if iff:
        notes.append(note)
    prefix = "simple_sum" if len(branch.leading_terms) == 1 else "sum"
    sectors = _level_sectors(branch, 1, Angle.from_radians(dir_list[0]), K,
                             st1)
    return SummabilityReport(prefix + case, (LevelSpec(K, q, 1),), tilde,
                             iff, tuple(sectors), tuple(hyps), True, (),
                             tuple(dir_list), (g_req,), tuple(notes))


def _classify_multi(branches, s1, s2, st1, st2, dir_list, res, notes):
    hyps = [
        _hyp("s1>0", s1, ">", Fraction(0)),
        _hyp("s2>0", s2, ">", Fraction(0)),
        _hyp("s2+t2>0", s2 + st2, ">", Fraction(0)),
        Hypothesis("positive levels exist", bool(res.levels),
                   f"{res.n_qualifying} of {res.n_distinct} pole orders "
                   f"exceed the threshold"),
    ]
    if not all(h.holds for h in hyps):
        return _none_report(hyps, dir_list, notes)
    case_I = st1 <= 0 or res.n_qualifying == res.n_distinct
    hyps.append(_hyp("t1<=0", st1, "<=", Fraction(0)))
    hyps.append(Hypothesis("all pole orders qualify (N=n~)",
                           res.n_qualifying == res.n_distinct,
                           f"{res.n_qualifying} == {res.n_distinct}"))
    # case II puts tilde_K = 1/st1 (st1 > 0) ahead of the levels, which
    # take the last directions
    tilde = None if case_I else res.tilde_K
    k_values = ([] if case_I else [tilde]) + [spec.K for spec in res.levels]
    dir_list = _per_level(dir_list, k_values)
    ok, margins = admissible(dir_list, k_values)
    angles = [Angle.from_radians(d) for d in dir_list]
    sectors = []
    g_reqs = []
    for spec, d_angle in zip(res.levels, angles[-len(res.levels):]):
        sectors += _level_sectors(branches[spec.branch_index - 1],
                                  spec.branch_index, d_angle, spec.K, st1)
        g_reqs.append(_growth_requirement(
            spec.q * (s2 + st2) - s1, st2, spec.K, spec.q * spec.K,
            label=f"G[q={fmt_fraction(spec.q)}]"))
    if tilde is not None:
        qualifying = {spec.branch_index for spec in res.levels}
        for bidx, branch in enumerate(branches, start=1):
            if bidx in qualifying or branch.q <= 0:
                continue
            g_reqs.append(_growth_requirement(
                st1, st2, tilde, branch.q * tilde,
                label=f"G0[q={fmt_fraction(branch.q)}]"))
            sectors += _level_sectors(branch, bidx, angles[0], tilde, st1)
        notes.append("the G0 requirement is reported but not verified")
    case = "multi1_I" if case_I else "multi1_II"
    return SummabilityReport(case, res.levels, tilde, False, tuple(sectors),
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


def singular_direction_probe(u: Series2, K) -> ProbeResult:
    """Estimate singular directions of the level-K Borel transform.

    Forms ``b_j = u_j(0) / Gamma(1 + j/K)`` from at least 20 valid t-levels
    and reads the nearest singularity of ``sum b_j tau**j`` off the
    coefficient ratio sequence (direction = -arg of the ratio limit),
    falling back to a two-term linear recurrence fit when the plain ratios
    oscillate (conjugate singularity pairs).  Only the tail ``j >= max(2,
    J // 2)`` is read, column 0 of those rows alone: an exact series decodes
    just those cells (:func:`kernel.binary64_rows`), so a cell the probe
    does not read never stops it.  Heuristic: results depend on
    coefficients only.
    """
    import numpy as np

    Kf = float(as_fraction(K)) if not isinstance(K, float) else K
    if Kf <= 0:
        raise DomainError("probe level K must be positive")
    J = u.valid[0]
    if J + 1 < 20:
        raise PreconditionError(
            f"probe needs at least 20 valid t-levels, got {J + 1}")
    # u_j(0), column 0 of the rows the fit reads, as Python complex (a
    # float64 grid gets +0j); an exact one decodes those cells only
    start = max(2, J // 2)
    vals = ([complex(*(part[0] for part in parts)) for parts in
             kernel.binary64_rows(u.lanes, range(start, J + 1), 0)]
            if u.exact else u.grid[start:, 0].astype(complex).tolist())
    tail = [v / math.exp(math.lgamma(1.0 + j / Kf))
            for j, v in enumerate(vals, start)]
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
