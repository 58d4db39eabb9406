"""The three workloads: the operations of one pass, built from ``--seed``.

Why each workload and rung is there is written down in NOTES.md.  mpde sees
only problem JSON (in-process ops) or problem files and CLI arguments (CLI
ops); every expected output comes from ``reference.json`` or, for seeded
problems, from the brute-force recursion in ``checks.exact_reference``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBLEMS = SRC / "mpde" / "problems"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

SHIPPED = ("heat", "transport", "twofactor")
CLI_COMMANDS = ("analyze", "newton", "solve", "verify", "probe")

# (problem, N1, N2) rungs; see NOTES.md for the choice of each.
EXACT_RUNGS = (("twofactor", 20, 60), ("twofactor", 40, 60),
               ("twofactor", 60, 60), ("heat", 60, 60),
               ("pseudo", 20, 40), ("gamma", 20, 40))
FLOAT_RUNGS = (("heat", 200, 100), ("transport", 200, 200),
               ("twofactor", 40, 60), ("twofactor", 80, 60),
               ("twofactor", 160, 60), ("gamma", 100, 60),
               ("pseudo", 40, 40))
SEEDED_OPS = 8
SEEDED_TRUNCATION = (12, 24)
SEEDED_COEFFS = (1, -1)


def rung_id(name: str, n1: int, n2: int) -> str:
    return f"{name}@{n1}x{n2}"


def fixed_problem(name: str, n1: int | None = None,
                  n2: int | None = None) -> dict:
    """A shipped problem, or one of the two built on heat.json."""
    base = "heat" if name in ("pseudo", "gamma") else name
    problem = json.loads((PROBLEMS / f"{base}.json").read_text())
    if name == "pseudo":
        problem.update(operator="(2+dz)*dt - dz^2", rhs_role="f",
                       mode="pseudo")
    elif name == "gamma":
        problem.update(m1="Gamma(1/2)", m2="Gamma(3/2)")
    if n1 is not None:
        problem["truncation"] = [n1, n2]
    return problem


# -- seeded problems -------------------------------------------------------------


def _operator_text(terms: dict) -> str:
    text = ""
    for (a, b), p in sorted(terms.items(), reverse=True):
        factors = [str(abs(p))] if abs(p) != 1 or a == b == 0 else []
        if a:
            factors.append("dt" if a == 1 else f"dt^{a}")
        if b:
            factors.append("dz" if b == 1 else f"dz^{b}")
        sign = "-" if p < 0 else "+"
        text += ("" if not text and sign == "+" else f" {sign} ") \
            + "*".join(factors)
    return text


def seeded_problem(rng: random.Random):
    """A direct exact problem with Gamma(1) moments.

    The operator is ``dt^2`` (listed first so the text needs no leading
    sign) plus ``dz^3`` and three more lower terms ``dt^a dz^b`` with a <= 1
    and b <= 3, so every seed has the same grid and the same number of
    terms.  The ``dz^3`` term keeps the operator from being divisible by dt,
    which mpde rejects.  The rhs is a polynomial with three entries.  Seeds
    pick the positions and the signs; all magnitudes are 1, so coefficient
    growth, and with it the cost, differs little from seed to seed.  Returns
    (problem dict, terms, rhs table) as Fractions.
    """
    n, max_b = 2, 3
    slots = [(a, b) for a in range(n) for b in range(max_b + 1)
             if (a, b) != (0, max_b)]
    terms = {(n, 0): Fraction(1)}
    for slot in [(0, max_b)] + rng.sample(slots, 3):
        terms[slot] = Fraction(rng.choice(SEEDED_COEFFS))
    g = {(0, 0): Fraction(rng.choice(SEEDED_COEFFS))}
    while len(g) < 3:
        g[(rng.randrange(3), rng.randrange(5))] = Fraction(
            rng.choice(SEEDED_COEFFS))
    problem = {
        "operator": _operator_text(terms),
        "m1": "Gamma(1)", "m2": "Gamma(1)",
        "rhs": {"kind": "coeffs",
                "payload": [[j, i, str(v), "0"] for (j, i), v in sorted(g.items())]},
        "rhs_role": "g",
        "truncation": list(SEEDED_TRUNCATION),
        "directions": [0.0],
        "mode": "direct",
        "arithmetic": "exact",
    }
    return problem, terms, g


# -- operations ------------------------------------------------------------------


@dataclass(frozen=True)
class Shape:
    """Grid sizes of one solve, computed from the problem's inputs."""

    cells: int        # internal solver grid (N1+1)*(N2i+1), N2i = N2+N1*max_b
    terms: int        # operator terms
    out_cells: int    # output window (N1+1)*(N2+1)
    rhs_cells: int    # rhs expansion grid


def shape_of(problem: dict, parse_operator) -> Shape:
    support = parse_operator(problem["operator"]).support()
    n1, n2 = problem["truncation"]
    n = max(a for a, _ in support)
    max_b = max(b for _, b in support)
    n2i = n2 + n1 * max_b
    p0_degree = max(b for a, b in support if a == n)
    rhs_n2 = n2i + (p0_degree if problem.get("rhs_role") == "f" else 0)
    return Shape((n1 + 1) * (n2i + 1), len(support), (n1 + 1) * (n2 + 1),
                 (n1 + 1) * (rhs_n2 + 1))


@dataclass
class Op:
    """One operation.  In-process ops have ``run``; CLI ops have ``argv``
    (arguments after ``mpde``) and the output files they write."""

    name: str
    check: Callable           # result -> (kind, detail, stats)
    shape: Shape | None = None
    run: Callable | None = None
    argv: list = field(default_factory=list)
    outputs: tuple = ()


def _exact_op(mpde, label, problem, digest=None, reference=None) -> Op:
    text = json.dumps(problem)

    def run():
        pf = mpde.problem.load_problem(text)
        u, sidecar = mpde.problem.solve_problem(pf, arithmetic="exact")
        return u, sidecar, u.to_csv()

    def check(result):
        u, sidecar, csv = result
        kind, detail = checks.check_exact(u, sidecar, csv, digest, reference)
        stats = checks.exact_stats(u.coeffs)
        stats["csv_bytes"] = len(csv.encode())
        return kind, detail, stats

    return Op(f"exact-solve:{label}", check,
              shape_of(problem, mpde.parsing.parse_operator), run=run)


def _float_ops(mpde, label, problem, ref) -> list:
    text = json.dumps(problem)
    shape = shape_of(problem, mpde.parsing.parse_operator)

    def solve():
        pf = mpde.problem.load_problem(text)
        return mpde.problem.solve_problem(pf, arithmetic="float")

    def check_solve(result):
        u, sidecar = result
        grid = np.asarray(u.coeffs, dtype=complex)
        stats = checks.float_stats(grid)
        kind, detail = checks.check_float(grid, sidecar["residual"],
                                          ref["float"].get(label), stats)
        return kind, detail, stats

    def probe():
        pf = mpde.problem.load_problem(text)
        return mpde.problem.probe_problem(pf, arithmetic="float")

    def check_probe(report):
        kind, detail = checks.check_probe(report, ref["probe"].get(label))
        return kind, detail, {}

    return [Op(f"float-solve:{label}", check_solve, shape, run=solve),
            Op(f"float-probe:{label}", check_probe, shape, run=probe)]


def _read_grid(csv_text: str):
    """The complex grid of an ``mpde solve`` CSV (header j,i,re,im)."""
    table = np.loadtxt(csv_text.splitlines()[1:], delimiter=",", ndmin=2)
    j, i = table[:, 0].astype(int), table[:, 1].astype(int)
    grid = np.zeros((j.max() + 1, i.max() + 1), dtype=complex)
    grid[j, i] = table[:, 2] + 1j * table[:, 3]
    return grid


def _cli_op(mpde, command, name, outdir: Path, ref) -> Op:
    path = PROBLEMS / f"{name}.json"
    problem = json.loads(path.read_text())
    label = rung_id(name, *problem["truncation"])
    argv, outputs = [command, str(path)], ()
    if command == "newton":
        outputs = (outdir / f"{name}.newton.svg", outdir / f"{name}.newton.csv")
        argv += ["--svg", str(outputs[0]), "--out", str(outputs[1])]
    elif command == "solve":
        outputs = (outdir / f"{name}.solution.csv",
                   outdir / f"{name}.solution.json")
        argv += ["--out", str(outputs[0])]
    if command in ("solve", "verify", "probe"):
        argv += ["--arithmetic", "float"]

    def check(proc):
        if proc.returncode != 0:
            last = (proc.stderr.strip().splitlines() or [""])[-1]
            return checks.RAISED, f"exit code {proc.returncode}: {last}", {}
        if command == "analyze":
            ok = json.loads(proc.stdout) == ref["analyze"][name]
            return (checks.OK, "", {}) if ok else \
                (checks.WRONG, "analyze report differs from the reference", {})
        if command == "newton":
            got = [checks.sha256(p.read_text()) for p in outputs]
            want = [ref["newton"][name]["svg_sha256"],
                    ref["newton"][name]["csv_sha256"]]
            return (checks.OK, "", {}) if got == want else \
                (checks.WRONG, "newton SVG or CSV differs from the reference", {})
        if command == "solve":
            grid = _read_grid(outputs[0].read_text())
            sidecar = json.loads(outputs[1].read_text())
            stats = checks.float_stats(grid)
            stats["csv_bytes"] = outputs[0].stat().st_size
            if sidecar["valid_window"] != problem["truncation"]:
                return checks.WRONG, "valid window differs from the request", stats
            kind, detail = checks.check_float(grid, sidecar["residual"],
                                              ref["float"][label], stats)
            return kind, detail, stats
        report = json.loads(proc.stdout)
        if command == "probe":
            kind, detail = checks.check_probe(report, ref["probe"][label])
            return kind, detail, {}
        residual = report["residual"]
        if not (report["passed"] and isinstance(residual, (int, float))
                and residual <= checks.RESIDUAL_TOL):
            return checks.WRONG, f"verify report {report} is not a pass", {}
        if report["window"] != ref["verify_window"][name]:
            return checks.WRONG, "verify window differs from the reference", {}
        return checks.OK, "", {}

    shape = shape_of(problem, mpde.parsing.parse_operator)
    return Op(f"cli-{command}:{name}", check, shape, argv=argv, outputs=outputs)


def build(workload: str, seed: int, mpde, outdir: Path) -> list:
    """The operations of one pass, in a seed-dependent order."""
    rng = random.Random(seed)
    ref = json.loads(REFERENCE.read_text())
    if workload == "cli-cold":
        ops = [_cli_op(mpde, command, name, outdir, ref)
               for name in SHIPPED for command in CLI_COMMANDS]
    elif workload == "exact-ladder":
        ops = [_exact_op(mpde, rung_id(*rung), fixed_problem(*rung),
                         digest=ref["exact_csv_sha256"][rung_id(*rung)])
               for rung in EXACT_RUNGS]
        for k in range(SEEDED_OPS):
            problem, terms, g = seeded_problem(rng)
            reference = checks.exact_reference(terms, g, *SEEDED_TRUNCATION)
            ops.append(_exact_op(mpde, f"seeded{k}@{seed}", problem,
                                 reference=reference))
    elif workload == "float-ladder":
        ops = []
        for rung in FLOAT_RUNGS:
            problem = fixed_problem(*rung)
            problem["arithmetic"] = "float"
            ops += _float_ops(mpde, rung_id(*rung), problem, ref)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops
