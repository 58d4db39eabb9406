"""Every function defined in ``src/mpde`` runs under some command, or is
on ``NEVER_RUN``, each entry with the reason it stays in the package; and
every entry of ``NEVER_RUN`` names a function that no command runs.

One fresh interpreter runs the corpus of ``tests/outputs.py`` with
:func:`outputs.run_corpus`, the loop of the output-diff runner, under
``sys.setprofile``: every command on every problem of the corpus, in
process.  A fresh interpreter counts what an mpde command counts: the code
run by the import, and no cache primed by another test.  A run that raises
in place of exiting fails the test.

A function is a ``def`` (methods and nested functions included), named
``module.Qual.name``.  It ran when the profiler saw a call of its code.
What never runs belongs in ``tests/routes.py`` (see its docstring for the
rule), unless an entry below says why it stays.

``PYTHONPATH=src python tests/test_package_surface.py`` prints the
functions that never ran, one a line.
"""

import ast
import json
import os
import subprocess
import sys
from importlib import util
from pathlib import Path

PACKAGE = Path(util.find_spec("mpde").origin).parent

NEVER_RUN = {
    # the public readout and dunder methods of the result types
    "exact.RationalComplex.__abs__": "dunder method of a public type",
    "exact.RationalComplex.__eq__": "dunder method of a public type",
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
    # the exact residual's sizes, which only a wrong exact solve reaches
    "solver._max_weighted": "runs only for a wrong exact solve",
    "solver._safe_float": "runs only for a wrong exact solve",
    # read by perfbench, or kept for an open ROADMAP item
    "moments.scaled_eval": "perfbench reads its cache (ROADMAP item 6)",
}

# Runs in a fresh interpreter with mpde and tests/ on the path: mpde is
# imported under the profiler, by the first run.
PROFILED = r'''
import json, sys, outputs

seen = set()


def profile(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)


problems = outputs.corpus()
sys.setprofile(profile)
try:
    results = outputs.run_corpus(problems)
finally:
    sys.setprofile(None)
# run_corpus records a run that raised as a string in place of its exit code
raised = {run: r["exit"] for run, r in results.items()
          if not isinstance(r["exit"], int)}
if raised:
    sys.exit(json.dumps(raised, indent=1))
print(json.dumps(sorted({(c.co_filename, c.co_firstlineno) for c in seen})))
'''


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
    """Names of the mpde functions that no run of the corpus called."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(PACKAGE.parent), str(Path(__file__).parent),
                    os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", PROFILED], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    ran = {(str(Path(f).resolve()), line)
           for f, line in json.loads(proc.stdout.splitlines()[-1])}
    return {name for name, where in defined_functions().items()
            if where not in ran}


def test_every_function_runs_under_a_command_or_is_allowed():
    assert all(reason for reason in NEVER_RUN.values())
    unrun = never_run()
    assert not sorted(unrun - set(NEVER_RUN))
    # an entry that names no function, or one a run now reaches, must go
    assert not sorted(set(NEVER_RUN) - unrun)


if __name__ == "__main__":
    print("\n".join(sorted(never_run())))
