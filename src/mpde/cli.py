"""Command line interface.

Exit codes: 0 success, 1 parse error, 2 precondition violation,
3 verification failure, 4 numeric evaluation failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import problem as problem_mod
from .errors import (DomainError, EstimationError, EvaluationError,
                     ParseError, PreconditionError)

EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_VERIFY = 3
EXIT_NUMERIC = 4


def _run(fn, problem: str, *outputs):
    try:
        _check_outputs(problem, *outputs)
        return fn()
    except ParseError as exc:
        click.echo(f"parse error: {exc}", err=True)
        sys.exit(EXIT_PARSE)
    except (PreconditionError, DomainError) as exc:
        click.echo(f"precondition violated: {exc}", err=True)
        sys.exit(EXIT_PRECONDITION)
    except (EvaluationError, EstimationError, OverflowError,
            ZeroDivisionError, FloatingPointError) as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        sys.exit(EXIT_NUMERIC)


def _check_outputs(problem: str, *outputs) -> None:
    """PreconditionError when an output path (of the ``(name, path)`` pairs
    ``outputs``; None is stdout) is the problem file or another output, or
    lies in a directory that does not exist."""
    outputs = [(name, path) for name, path in outputs if path is not None]
    names = [f"{name} {path}" for name, path in outputs]
    paths = [Path(path).resolve() for _, path in outputs]
    if Path(problem).resolve() in paths:
        raise PreconditionError(f"{' or '.join(names)} would overwrite the "
                                f"problem file {problem}; choose another path")
    if len(set(paths)) < len(paths):
        raise PreconditionError(f"{' and '.join(names)} resolve to one file; "
                                f"choose different paths")
    for name, path in outputs:
        folder = Path(path).parent
        if not folder.is_dir():
            raise PreconditionError(f"{name} {path} is in {folder}, which is "
                                    f"not an existing directory; create it or "
                                    f"choose another path")


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        click.echo(text, nl=False)


def _dump(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


@click.group()
def main():
    """Analyze moment partial differential equations.

    All commands take a problem JSON file; see the README for the schema.
    No output may overwrite the problem file or another output, or lie in
    a directory that does not exist (exit 2).
    """


_problem_arg = click.argument("problem", type=click.Path(exists=True,
                                                         dir_okay=False))
_out_opt = click.option("--out", type=click.Path(dir_okay=False), default=None,
                        help="Output path (default: stdout or problem stem).")
_n1_opt = click.option("--n1", type=int, default=None,
                       help="Override the t-truncation.")
_n2_opt = click.option("--n2", type=int, default=None,
                       help="Override the z-truncation.")
_arith_opt = click.option("--arithmetic",
                          type=click.Choice(["float", "exact"]), default=None,
                          help="Override the coefficient arithmetic.")


@main.command()
@_problem_arg
@_out_opt
def analyze(problem, out):
    """Branch data, Newton polygon, Gevrey orders, summability report."""
    def body():
        pf = problem_mod.load_problem(problem)
        report = problem_mod.analyze_problem(pf)
        _emit(_dump(report), out)
    _run(body, problem, ("the report", out))


@main.command()
@_problem_arg
@_out_opt
@_n1_opt
@_n2_opt
@_arith_opt
def solve(problem, out, n1, n2, arithmetic):
    """Write the solution coefficient CSV plus a JSON sidecar.

    The sidecar is the CSV path with a .json suffix.  The requested window
    [N1, N2] is fully valid: the solver internally inflates the
    z-truncation by N1 times the largest z-order of the operator before
    recursing.
    """
    csv_path = Path(out) if out else Path(problem).with_suffix(".solution.csv")
    sidecar_path = csv_path.with_suffix(".json")

    def body():
        pf = problem_mod.load_problem(problem)
        u, sidecar = problem_mod.solve_problem(pf, n1, n2, arithmetic)
        csv_path.write_text(u.to_csv())
        sidecar_path.write_text(_dump(sidecar))
        click.echo(f"wrote {csv_path} and {sidecar_path}")
    _run(body, problem, ("the CSV", csv_path), ("its sidecar", sidecar_path))


@main.command()
@_problem_arg
@_out_opt
@click.option("--svg", type=click.Path(dir_okay=False), default=None,
              help="Path for the polygon SVG (default: problem stem).")
def newton(problem, out, svg):
    """Emit the Newton polygon as SVG plus a vertex CSV."""
    svg_path = Path(svg) if svg else Path(problem).with_suffix(".newton.svg")
    csv_path = Path(out) if out else Path(problem).with_suffix(".newton.csv")

    def body():
        pf = problem_mod.load_problem(problem)
        svg_text, csv_text = problem_mod.newton_problem(pf)
        svg_path.write_text(svg_text)
        csv_path.write_text(csv_text)
        click.echo(f"wrote {svg_path} and {csv_path}")
    _run(body, problem, ("the SVG", svg_path), ("the vertex CSV", csv_path))


@main.command()
@_problem_arg
@_out_opt
@_n1_opt
@_n2_opt
@_arith_opt
def probe(problem, out, n1, n2, arithmetic):
    """Empirical Gevrey order and singular-direction estimates."""
    def body():
        pf = problem_mod.load_problem(problem)
        report = problem_mod.probe_problem(pf, n1, n2, arithmetic)
        _emit(_dump(report), out)
    _run(body, problem, ("the report", out))


@main.command()
@_problem_arg
@_out_opt
@_n1_opt
@_n2_opt
@_arith_opt
@click.option("--tol", type=float, default=1e-8,
              help="Relative residual tolerance (default 1e-8).")
def verify(problem, out, n1, n2, arithmetic, tol):
    """Solve and check the residual; exit 3 when above --tol."""
    def body():
        pf = problem_mod.load_problem(problem)
        report = problem_mod.verify_problem(pf, tol, n1, n2, arithmetic)
        _emit(_dump(report), out)
        return report
    report = _run(body, problem, ("the report", out))
    if not report["passed"]:
        sys.exit(EXIT_VERIFY)


if __name__ == "__main__":
    main()
