"""Every function defined in ``src/mpde`` runs under some command, or is
on ``NEVER_RUN``, each entry with the reason it stays in the package.

One fresh interpreter imports mpde and runs every command in process, under
``sys.setprofile``, on a corpus: the three shipped problems and seven
variants of heat.  The commands are ``analyze``, ``newton``, and ``solve``,
``verify`` (once more with ``--tol 0``) and ``probe`` in both arithmetics.
A fresh interpreter counts what an mpde command counts: the code run by
the import, and no cache primed by another test.

A function is a ``def`` (methods and nested functions included), named
``module.Qual.name``.  It ran when the profiler saw a call of its code.
What never runs belongs in ``tests/routes.py`` (see its docstring for the
rule), unless an entry below says why it stays.

``PYTHONPATH=src python tests/test_package_surface.py`` prints the
functions that never ran, one a line.
"""

import ast
import copy
import json
import os
import subprocess
import sys
import tempfile
from importlib import resources, util
from pathlib import Path

PACKAGE = Path(util.find_spec("mpde").origin).parent

NEVER_RUN = {
    # error paths: the corpus holds no failing problem
    "errors.EvaluationError.__init__": "error path: a numeric failure",
    "errors.ParseError.__init__": "error path: a malformed problem file",
    "kernel.CellOverflow.__init__": "error path: an exact cell beyond binary64",
    "kernel.beyond_binary64": "error path: a float value beyond binary64",
    # the public readout and dunder methods of the result types
    "exact.RationalComplex.__abs__": "dunder method of a public type",
    "exact.RationalComplex.__hash__": "dunder method of a public type",
    "exact.RationalComplex.__pos__": "dunder method of a public type",
    "exact.RationalComplex.__repr__": "dunder method of a public type",
    "exact.RationalComplex.__rsub__": "dunder method of a public type",
    "exact.RationalComplex.__setattr__": "dunder method of a public type",
    "exact.RationalComplex.__str__": "dunder method of a public type",
    "moments.MomentFunction.__mul__": "dunder method of a public type",
    "moments.MomentFunction.__truediv__": "dunder method of a public type",
    "record.record.__delattr__": "dunder method every record gets",
    "record.record.__hash__": "dunder method every record gets",
    "record.record.__repr__": "dunder method every record gets",
    "record.record.__setattr__": "dunder method every record gets",
    "series.Series2.__eq__": "dunder method of a public type",
    "series.Series2.__hash__": "dunder method of a public type",
    "series.Series2.__repr__": "dunder method of a public type",
    "series.Series2.__setattr__": "dunder method of a public type",
    "series.Series2._key": "what Series2's __eq__ and __hash__ compare",
    "series.Series2.coeffs": "Series2's public readout as Python numbers",
    "kernel.denormalize": "decodes exact lanes for Series2.coeffs",
    "series._rows": "builds a Series2 from rows, as library callers do",
    "solver.CauchyProblem.widths": "a CauchyProblem built without assemble, "
                                   "which seeds the widths",
    # read by perfbench, or kept for an open ROADMAP item
    "moments.scaled_eval": "perfbench reads its cache (ROADMAP item 6)",
    "charroots.validate_numeric": "ROADMAP item 11 decides its fate",
    "charroots.ValidationReport.consistent": "validate_numeric's report",
    "charroots.CharPoly.lambda_coeffs_at": "validate_numeric's evaluation",
}

_HEAT = {
    "operator": "dt - dz^2", "m1": "Gamma(1)", "m2": "Gamma(1)",
    "rhs": {"kind": "rational",
            "payload": {"num": [[0, 0, "1", "0"]],
                        "den": [[0, 0, "1", "0"], [0, 1, "-1", "0"]]}},
    "rhs_role": "g", "rhs_gevrey": ["0", "0"], "truncation": [24, 8],
    "directions": [0.0], "mode": "direct", "arithmetic": "exact",
}


def _heat(**changes) -> dict:
    return dict(copy.deepcopy(_HEAT), **changes)


PSEUDO = {"operator": "(10+dz)*dt - dz^2", "mode": "pseudo"}
VARIANTS = {
    "pseudo": _heat(**PSEUDO),
    "pseudo_f": _heat(**PSEUDO, rhs_role="f"),
    "gamma_half": _heat(m1="1*Gamma(1/2+u/1)"),
    "gamma_third": _heat(m1="Gamma(1/2)", m2="3/2*Gamma(1/3+u/2)"),
    "complex": _heat(operator="(1+1i)*dt - dz^2"),
    "second_order": _heat(operator="dt^2 - dt*dz - dz^3 + 1"),
    "coeffs": _heat(rhs={"kind": "coeffs",
                         "payload": [[0, 0, "1", "0"], [1, 2, "-1/2", "1"],
                                     [3, 1, "2", "0"]]}),
}
RUNS = [["analyze"], ["newton"],
        *([command, "--arithmetic", arithmetic]
          for command in ("solve", "verify", "probe")
          for arithmetic in ("float", "exact")),
        *(["verify", "--arithmetic", arithmetic, "--tol", "0"]
          for arithmetic in ("float", "exact"))]


def run_corpus(folder: str) -> None:
    """Write the corpus to ``folder``, run every command on it under the
    profiler, and print the (file, first line) of each mpde code object
    that was called, as JSON.  Import mpde only after this starts."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    folder = Path(folder)
    paths = []
    for name, problem in VARIANTS.items():
        paths.append(folder / f"{name}.json")
        paths[-1].write_text(json.dumps(problem))
    sys.setprofile(profile)
    try:
        import mpde.cli

        shipped = resources.files("mpde") / "problems"
        paths += [str(shipped / f"{n}.json")
                  for n in ("heat", "transport", "twofactor")]
        outputs = {"solve": ["--out", str(folder / "u.csv")],
                   "newton": ["--out", str(folder / "n.csv"),
                              "--svg", str(folder / "n.svg")]}
        for path in paths:
            for command, *options in RUNS:
                try:
                    mpde.cli.main([command, str(path), *options,
                                   *outputs.get(command, ["--out", os.devnull])])
                except SystemExit:
                    pass
    finally:
        sys.setprofile(None)
    print(json.dumps(sorted({(c.co_filename, c.co_firstlineno)
                             for c in seen})))


def defined_functions() -> dict:
    """``module.Qual.name`` -> (file, first line) of every ``def`` in mpde;
    a decorated function starts at its first decorator, as its code does."""
    out = {}

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    out[name] = (str(path), first)
                walk(child, name, path)
            else:
                walk(child, prefix, path)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, path.resolve())
    return out


def never_run() -> set:
    """Names of the mpde functions that no command of the corpus called."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(PACKAGE.parent), str(Path(__file__).parent),
                    os.environ.get("PYTHONPATH")) if p))
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, test_package_surface as t; t.run_corpus(sys.argv[1])",
             tmp], env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    ran = {(str(Path(f).resolve()), line)
           for f, line in json.loads(proc.stdout.splitlines()[-1])}
    return {name for name, where in defined_functions().items()
            if where not in ran}


def test_every_function_runs_under_a_command_or_is_allowed():
    assert not sorted(set(NEVER_RUN) - set(defined_functions()))
    assert all(reason for reason in NEVER_RUN.values())
    assert not sorted(never_run() - set(NEVER_RUN))


if __name__ == "__main__":
    print("\n".join(sorted(never_run())))
