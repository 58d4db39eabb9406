"""Output-diff runner: run every command of one corpus on two source trees
and report each run whose outputs differ.

    python tests/outputs.py PARENT_TREE CHANGE_TREE [--allow FILE]
        [--json PATH]

A tree is the root of a checkout (a ``git archive`` of a commit will do):
its ``src`` goes first on the path of one fresh interpreter, which runs
:func:`run_corpus`: it calls ``mpde.cli.main`` in process for each run,
from a folder of its own, on relative paths, so that no message quotes a
folder.  Nothing of mpde but ``mpde.cli`` is imported there, so a tree of
any past commit runs.  Each run is wrapped in ``warnings.catch_warnings()``,
which restarts the once-per-location warning registry, so a run prints the
warnings that the same command would print as a process of its own.
``tests/test_package_surface.py`` runs the same loop on the same corpus
under ``sys.setprofile``.

A run records its exit code, its stdout, its stderr and the SHA-256 of
each file it writes.  The runner prints each run that differs, field by
field, both sides.  ``--allow FILE`` lists the runs whose differences are
claimed, one ``fnmatch`` pattern of run names a line (``#`` starts a
comment), given before the run; the runner exits 1 on any difference no
pattern matches, and names the patterns that matched no difference.

The corpus is built here, from this checkout, and is the same for both
trees:

* the shipped problems (``src/mpde/problems``) at their file truncation;
* the benchmark's ladder rungs (``perfbench/workloads.py``, 13 rungs) at
  theirs, and its seeded problems of seeds 1-3 (8 a seed);
* each of these with its rhs role flipped (``g`` to ``f`` and back), the
  f-role variants;
* seven variants of heat at (24, 8): pseudo mode in both rhs roles,
  Gamma moments of order other than 1, a complex operator, a second-order
  operator with a constant term, and a ``coeffs`` rhs;
* the repros of the findings in CHANGES.md that are problem files, and a
  few more that reach code paths the rest does not (a t-dependent rhs
  denominator, a negative top coefficient with an f rhs, a float term
  scalar or an rhs entry beyond binary64).

Every problem runs ``analyze``, ``newton``, and ``solve``, ``verify`` (also
with ``--tol 0``) and ``probe`` in both arithmetics; a repro that names a
truncation runs ``solve``, ``verify`` and ``probe`` with it as
``--n1``/``--n2``.  The whole corpus, 1,020 runs, takes about 3 s a
tree on one core.  ``--json PATH`` writes both sides' results.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import fnmatch
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BIG = "1" + "0" * 400  # 10^400, beyond binary64
E300 = "1" + "0" * 300

RUNS = [("analyze", []), ("newton", ["--svg", "n.svg", "--out", "n.csv"]),
        *((f"{command}-{arithmetic}",
           [*extra, "--arithmetic", arithmetic])
          for command, extra in (("solve", ["--out", "u.csv"]),
                                 ("verify", []),
                                 ("verify-tol0", ["--tol", "0"]),
                                 ("probe", []))
          for arithmetic in ("float", "exact"))]
# the files each command writes, in its folder
WRITES = {"newton": ("n.svg", "n.csv"), "solve": ("u.csv", "u.json")}


def _shipped(name: str) -> dict:
    return json.loads((ROOT / "src" / "mpde" / "problems"
                       / f"{name}.json").read_text())


def _heat(**changes) -> dict:
    return {**_shipped("heat"), **changes}


PSEUDO = {"operator": "(10+dz)*dt - dz^2", "mode": "pseudo"}
# (name, changes to heat at (24, 8))
VARIANTS = [
    ("pseudo", PSEUDO),
    ("pseudo_f", {**PSEUDO, "rhs_role": "f"}),
    ("gamma_half", {"m1": "1*Gamma(1/2+u/1)"}),
    ("gamma_third", {"m1": "Gamma(1/2)", "m2": "3/2*Gamma(1/3+u/2)"}),
    ("complex", {"operator": "(1+1i)*dt - dz^2"}),
    ("second_order", {"operator": "dt^2 - dt*dz - dz^3 + 1"}),
    ("coeffs", {"rhs": {"kind": "coeffs",
                        "payload": [[0, 0, "1", "0"], [1, 2, "-1/2", "1"],
                                    [3, 1, "2", "0"]]}}),
]
# (name, problem, truncation override or None)
REPROS = [
    # PR 40's Gamma parameters at the edge of binary64, refused at parse
    ("found-offset-1e-400", _heat(m1=f"1*Gamma(1/{BIG}+u/1)"), (2, None)),
    ("found-k-1e-400", _heat(m2=f"1*Gamma(1+u/1/{BIG})"), (2, None)),
    # a largest Gamma argument beyond binary64, and one whose log-Gamma is
    ("found-k-1e-307", _heat(m2=f"1*Gamma(1+u/1/1{'0' * 307})"), (2, None)),
    ("found-lgamma-k-1e-306", _heat(m2=f"1*Gamma(1+u/1/1{'0' * 306})"),
     (2, None)),
    ("gamma-negative-offset", _heat(m1="1*Gamma(-10+u/1)"), (2, None)),
    # PR 40's exact byte budget
    ("found-wide-transport", _shipped("transport"), (2, 20000)),
    # PR 35's huge operator coefficients
    ("found-e300", {**_heat(operator=f"({E300}+{E300}*dz)*dt - {E300}*dz^2",
                            mode="pseudo")}, (30, 30)),
    # PR 38's direct declaration of a polynomial top
    ("found-direct-polynomial-top", _heat(operator="(1+dz)*dt - dz^2"), None),
    # the exact probe decodes column 0 of its tail rows alone, so cell
    # (4, 4) of g = 1/(1-z) + 1e305 z^10, beyond binary64, must not stop it
    ("found-probe-unread-cells", _heat(rhs={"kind": "rational", "payload": {
        **_shipped("heat")["rhs"]["payload"],
        "num": [[0, 0, "1", "0"], [0, 10, "1e305", "0"],
                [0, 11, "-1e305", "0"]]}}), (20, 20)),
    # the float Gevrey fit skips t-level 20, whose finite terms, 1.7e308
    # each, sum past binary64 (math.fsum raised there); the float residual's
    # terms overflow too, and its second pass, scaled by the largest cell,
    # passes float verify
    ("found-fit-sum-overflow", _heat(operator="dt - 30", rhs={
        "kind": "rational", "payload": {
            **_shipped("heat")["rhs"]["payload"],
            "num": [[0, 0, "3.5585223560545805e+298", "0"]]}}), (20, 5)),
    ("t-dependent-den", _heat(rhs={"kind": "rational", "payload": {
        "num": [[0, 0, "1", "0"]],
        "den": [[0, 0, "1", "0"], [0, 1, "-1", "0"], [1, 0, "-1/2", "0"]]}}),
     None),
    ("negative-top-f", _heat(operator="-dt + dz^2", rhs_role="f"), None),
    ("negative-top-f-pseudo", _heat(operator="(-2+dz)*dt - dz^2",
                                    rhs_role="f", mode="pseudo"), None),
    ("multi-tap-pseudo-f", _heat(operator="(2+dz+3*dz^2)*dt - dz^3",
                                 rhs_role="f", mode="pseudo"), None),
    # an m2 table too wide to z-normalize at (2, 1200): the float kernel
    # scales the raw downward terms of the f-role pseudo solve one by one
    ("raw-pseudo-f", _heat(operator="(2+dz)*dt - dz^2", rhs_role="f",
                           mode="pseudo"), (2, 1200)),
    # an rhs entry beyond binary64: float commands exit 4 naming it
    ("rhs-entry-1e400", _heat(rhs={"kind": "rational", "payload": {
        **_shipped("heat")["rhs"]["payload"],
        "num": [[0, 0, BIG, "0"]]}}), None),
    # the fused scalar c*m1(t-1)/m1(t)*exp(2 kappa) of the term dz^2 is
    # beyond binary64 at the first levels, so they update one factor at a
    # time until float solves exit 4 at t-level 2
    ("unfused-term-1e306", _heat(operator=f"dt - 1{'0' * 306}*dz^2"), None),
]


def corpus() -> list:
    """``[(name, problem dict, argv extra)]`` of every problem the runner
    runs, named uniquely."""
    # last on the path, where it shadows nothing that mpde imports
    sys.path.append(str(ROOT / "perfbench"))
    import workloads

    base = [(name, _shipped(name)) for name in workloads.SHIPPED]
    for rung in (*workloads.EXACT_RUNGS, *workloads.FLOAT_RUNGS):
        base.append((f"rung-{workloads.rung_id(*rung)}",
                     workloads.fixed_problem(*rung)))
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for k in range(workloads.SEEDED_OPS):
            base.append((f"seeded{k}@{seed}",
                         workloads.seeded_problem(rng)[0]))
    # the same rung may sit on both ladders
    base = list({name: problem for name, problem in base}.items())
    problems = [(name, problem, None) for name, problem in base]
    for name, problem in base:
        role = "g" if problem.get("rhs_role", "g") == "f" else "f"
        problems.append((f"{name}-{role}", {**problem, "rhs_role": role},
                         None))
    problems += [(f"variant-{name}", _heat(truncation=[24, 8], **changes),
                  None) for name, changes in VARIANTS]
    problems += REPROS
    out = []
    for name, problem, truncation in problems:
        extra = []
        for flag, value in zip(("--n1", "--n2"), truncation or ()):
            if value is not None:
                extra += [flag, str(value)]
        out.append((name, copy.deepcopy(problem), extra))
    return out


def _run(main, argv: list, writes: tuple, src: str) -> dict:
    """The exit code, stdout and stderr of ``main(argv)``, and the SHA-256
    of each file of ``writes`` that it wrote."""
    for path in writes:
        if os.path.exists(path):
            os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            main(argv)
            code = "returned"
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # recorded, not raised
            code = f"raised {type(exc).__name__}: {exc}"
    files = {}
    for path in writes:
        if os.path.exists(path):
            with open(path, "rb") as fh:
                files[path] = hashlib.sha256(fh.read()).hexdigest()
    # a warning quotes the source file, which lies in the tree
    return {"exit": 0 if code is None else code, "stdout": out.getvalue(),
            "stderr": err.getvalue().replace(src, "<src>"), "files": files}


def run_corpus(problems: list) -> dict:
    """Run every command of :data:`RUNS` on each of ``problems`` (as
    :func:`corpus` gives them) in process, from a temporary folder, and
    return each run's results by run name.  mpde is imported here, on the
    first call, and nothing of it but ``mpde.cli``."""
    import mpde.cli

    src = str(Path(mpde.cli.__file__).parent.parent)
    results = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, problem, extra in problems:
                with open("problem.json", "w") as fh:
                    json.dump(problem, fh)
                for run, argv in RUNS:
                    command = run.split("-")[0]
                    if command in ("solve", "verify", "probe"):
                        argv = [*argv, *extra]
                    results[f"{name}:{run}"] = _run(
                        mpde.cli.main, [command, "problem.json", *argv],
                        WRITES.get(command, ()), src)
        finally:
            os.chdir(cwd)
    return results


# Runs in a fresh interpreter with one tree's src first on the path: the
# corpus comes on stdin, one JSON object of results goes to stdout.
CHILD = ("import json, sys; sys.path.append(sys.argv[1]); import outputs; "
         "json.dump(outputs.run_corpus(json.load(sys.stdin)), sys.stdout)")


def run_tree(tree: Path, problems: list) -> dict:
    """The results of every run of ``problems`` on ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(Path(__file__).parent)],
        input=json.dumps(problems), capture_output=True, text=True, env=env,
        check=False)
    if proc.returncode != 0:
        raise SystemExit(f"the runner failed on {tree}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _show(field: str, old, new) -> str:
    if field in ("stdout", "stderr"):
        old, new = old.splitlines(), new.splitlines()
        i = next((k for k, (a, b) in enumerate(zip(old, new)) if a != b),
                 min(len(old), len(new)))
        old = old[i] if i < len(old) else "<end>"
        new = new[i] if i < len(new) else "<end>"
        field = f"{field} line {i + 1}"
    return (f"    {field}:\n      parent: {old!r:.300}\n"
            f"      change: {new!r:.300}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--allow", type=Path,
                        help="claimed differences, one run-name pattern "
                             "a line")
    parser.add_argument("--json", type=Path,
                        help="write both sides' results to this file")
    args = parser.parse_args(argv)
    allow = []
    if args.allow:
        for line in args.allow.read_text().splitlines():
            line = line.split("#", 1)[0].strip()
            if line:
                allow.append(line)
    problems = corpus()
    sides = {}
    for side, tree in (("parent", args.parent), ("change", args.change)):
        start = time.perf_counter()
        sides[side] = run_tree(tree.resolve(), problems)
        print(f"{side}: {len(sides[side])} runs of {len(problems)} problems "
              f"in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    if args.json:
        args.json.write_text(json.dumps(sides, indent=1, sort_keys=True))
    old, new = sides["parent"], sides["change"]
    differ = [run for run in old if old[run] != new.get(run)]
    unclaimed, matched = [], set()
    for run in differ:
        patterns = [p for p in allow if fnmatch.fnmatchcase(run, p)]
        matched.update(patterns)
        print(f"{'claimed' if patterns else 'UNCLAIMED'}: {run}")
        if not patterns:
            unclaimed.append(run)
        for field in ("exit", "stdout", "stderr", "files"):
            if old[run][field] != new[run][field]:
                print(_show(field, old[run][field], new[run][field]))
    for pattern in allow:
        if pattern not in matched:
            print(f"claimed but not seen: {pattern}")
    print(f"{len(old)} runs, {len(old) - len(differ)} identical, "
          f"{len(differ) - len(unclaimed)} claimed differences, "
          f"{len(unclaimed)} unclaimed")
    return 1 if unclaimed else 0


if __name__ == "__main__":
    sys.exit(main())
