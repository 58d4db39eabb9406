"""Analyze moment partial differential equations: mpde COMMAND PROBLEM
[options], where mpde COMMAND --help lists the options.  Exit codes:
0 success, 1 parse error, interrupt or a reader that closed stdout first,
2 precondition violation or usage error, 3 verification failure, 4 numeric
evaluation failure."""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import os
import sys
from pathlib import Path

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
        return fn(problem_mod.load_problem(problem))
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        sys.exit(EXIT_PARSE)
    except (PreconditionError, DomainError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        sys.exit(EXIT_PRECONDITION)
    except (EvaluationError, EstimationError, OverflowError,
            ZeroDivisionError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        sys.exit(EXIT_NUMERIC)
    except MemoryError:
        print("precondition violated: the command ran out of memory; lower "
              "--n1 or --n2, or use --arithmetic float", file=sys.stderr)
        sys.exit(EXIT_PRECONDITION)
    except KeyboardInterrupt:
        sys.exit("\nAborted!")  # on stderr, exit 1, and no traceback


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
        sys.stdout.write(text)


def _dump(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def analyze(problem, out):
    """Branch data, Newton polygon, Gevrey orders, summability report."""
    _run(lambda pf: _emit(_dump(problem_mod.analyze_problem(pf)), out),
         problem, ("the report", out))


def solve(problem, out, n1, n2, arithmetic):
    """Write the solution coefficient CSV plus a JSON sidecar.

    The sidecar is the CSV path with a .json suffix.  The requested window
    [N1, N2] is fully valid: the solver computes each internal t-level on
    as many columns past N2 as the later levels read from it.
    """
    csv_path = Path(out) if out else Path(problem).with_suffix(".solution.csv")
    sidecar_path = csv_path.with_suffix(".json")

    def body(pf):
        u, sidecar = problem_mod.solve_problem(pf, n1, n2, arithmetic)
        csv_path.write_text(u.to_csv())
        sidecar_path.write_text(_dump(sidecar))
        print(f"wrote {csv_path} and {sidecar_path}")
    _run(body, problem, ("the CSV", csv_path), ("its sidecar", sidecar_path))


def newton(problem, out, svg):
    """Emit the Newton polygon as SVG plus a vertex CSV."""
    svg_path = Path(svg) if svg else Path(problem).with_suffix(".newton.svg")
    csv_path = Path(out) if out else Path(problem).with_suffix(".newton.csv")

    def body(pf):
        svg_text, csv_text = problem_mod.newton_problem(pf)
        svg_path.write_text(svg_text)
        csv_path.write_text(csv_text)
        print(f"wrote {svg_path} and {csv_path}")
    _run(body, problem, ("the SVG", svg_path), ("the vertex CSV", csv_path))


def probe(problem, out, n1, n2, arithmetic):
    """Empirical Gevrey order and singular-direction estimates."""
    _run(lambda pf: _emit(_dump(problem_mod.probe_problem(
        pf, n1, n2, arithmetic)), out), problem, ("the report", out))


def verify(problem, out, n1, n2, arithmetic, tol):
    """Solve and check the residual; exit 3 when above --tol."""
    def body(pf):
        report = problem_mod.verify_problem(pf, tol, n1, n2, arithmetic)
        _emit(_dump(report), out)
        return report
    if not _run(body, problem, ("the report", out))["passed"]:
        sys.exit(EXIT_VERIFY)


def _path(path: str, readable: bool = False) -> str:
    if os.path.isdir(path) or readable and not os.access(path, os.R_OK):
        raise argparse.ArgumentTypeError(
            f"{path!r} is not a {'readable ' * readable}file")
    return path


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


_OUT = ("--out", {"type": _path,
                  "help": "output path (default: stdout or problem stem)"})
_WINDOW = [("--n1", {"type": int, "help": "override the t-truncation"}),
           ("--n2", {"type": int, "help": "override the z-truncation"}),
           ("--arithmetic", {"choices": ["float", "exact"],
                             "help": "override the coefficient arithmetic"})]
# each command with its options (flag, argparse keywords)
COMMANDS = {
    analyze: [_OUT], solve: [_OUT, *_WINDOW],
    newton: [_OUT, ("--svg", {"type": _path, "help": "path for the polygon "
                              "SVG (default: problem stem)"})],
    probe: [_OUT, *_WINDOW],
    verify: [_OUT, *_WINDOW, ("--tol", {
        "type": _finite, "default": 1e-8,
        "help": "relative residual tolerance (default 1e-8)"})]}


class _Parser(argparse.ArgumentParser):
    """Long options only, never abbreviated, and ``--help`` but no ``-h``."""

    def __init__(self, **kw):
        super().__init__(add_help=False, allow_abbrev=False, **kw)
        self.add_argument("--help", action="help",
                          help="show this message and exit")


def _parser(prog: str) -> argparse.ArgumentParser:
    top = _Parser(prog=prog, description=__doc__)
    commands = top.add_subparsers(dest="command", required=True,
                                  metavar="COMMAND")
    for fn, options in COMMANDS.items():
        sub = commands.add_parser(fn.__name__, description=fn.__doc__,
                                  help=(fn.__doc__ or "").split("\n")[0])
        sub.add_argument("problem", metavar="PROBLEM",
                         type=lambda path: _path(path, readable=True))
        for flag, keywords in options:
            sub.add_argument(flag, **keywords)
    return top


def _glue(argv) -> list:
    """``--opt=word`` for a valued option and its next word, even ``-x``."""
    words, out = iter(argv), []
    valued = {flag for options in COMMANDS.values() for flag, _ in options}
    for word in words:
        if word == "--":
            return out + [word, *words]
        value = next(words, None) if word in valued else None
        out.append(word if value is None else f"{word}={value}")
    return out


def main(args=None, prog_name: str = "mpde"):
    """Run ``args`` (default ``sys.argv[1:]``); always raises SystemExit.

    As the program (``args`` None) it freezes the heap at exit, so that the
    interpreter's teardown skips its cyclic-GC passes over what the command
    leaves alive; a caller that passes ``args`` keeps its own exit."""
    if args is None:
        atexit.register(gc.freeze)
        args = sys.argv[1:]
    namespace = vars(_parser(prog_name).parse_args(_glue(args)))
    command = {fn.__name__: fn for fn in COMMANDS}[namespace.pop("command")]
    try:
        try:
            command(**namespace)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout first (``mpde analyze P | head -1``): exit
        # 1 quietly, with stdout on devnull so that the final flush succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(0)


# perfbench/clitrace.py calls ``mpde.cli.main.main(args=..., prog_name=...)``
main.main = main

if __name__ == "__main__":
    main()
