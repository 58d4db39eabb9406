"""Span tracing around calls into mpde's public functions.

A traced run replaces each function named in ``TRACED`` by a wrapper that
records a span: name, start, end, parent span and operation id.  Every mpde
module attribute bound to the function is replaced, so calls made inside
mpde (for example ``problem.solve_problem`` calling ``solver.residual``) are
recorded too.  An untraced run installs nothing.  Spans stay in memory until
the run writes them out.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
import time
from contextlib import contextmanager

# (module, attribute) pairs; the span name is "<module>.<attribute>".
TRACED = (
    ("problem", "load_problem"), ("problem", "assemble"),
    ("problem", "expand_rhs"), ("problem", "solve_problem"),
    ("problem", "verify_problem"), ("problem", "probe_problem"),
    ("problem", "analyze_problem"), ("problem", "newton_problem"),
    ("solver", "formal_solve"), ("solver", "residual"),
    ("solver", "g_from_f"), ("solver", "theoretical_orders"),
    ("series", "apply_operator"), ("series", "gevrey_fit"),
    ("charroots", "branches_at_infinity"),
    ("newton", "build"), ("newton", "cross_check"), ("newton", "to_svg"),
    ("newton", "vertices_csv"),
    ("summability", "classify"), ("summability", "levels"),
    ("summability", "singular_direction_probe"),
    ("parsing", "parse_operator"), ("parsing", "parse_moment"),
)


class Tracer:
    """In-memory span recorder; spans are ``[name, start, end, parent, op]``."""

    def __init__(self):
        self.spans: list = []
        self.op = None
        self._open: list = []
        self._undo: list = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self) -> None:
        self.spans[self._open.pop()][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end()

    def adopt(self, child_spans: list, parent: int) -> None:
        """Append spans recorded by a child process under ``parent``."""
        offset = len(self.spans)
        for name, start, end, up, _ in child_spans:
            self.spans.append([name, start, end,
                               parent if up is None else up + offset, self.op])

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()
        return traced

    def install(self) -> None:
        """Wrap every traced function that the imported mpde defines."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "mpde" or n.startswith("mpde."))]
        for modname, attr in TRACED:
            fn = getattr(sys.modules.get("mpde." + modname), attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(f"{modname}.{attr}", fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, fn))
        series2 = getattr(sys.modules.get("mpde.series"), "Series2", None)
        to_csv = vars(series2).get("to_csv") if series2 is not None else None
        if to_csv is not None:
            setattr(series2, "to_csv", self._wrap("series.to_csv", to_csv))
            self._undo.append((series2, "to_csv", to_csv))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, fn = self._undo.pop()
            setattr(owner, key, fn)

    def dump(self, path, **extra) -> None:
        """Write the spans, and any ``extra`` values, as one JSON object."""
        rows = [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                for n, s, e, p, o in self.spans]
        path.write_text(json.dumps({"spans": rows, **extra}))


def load_dump(path) -> tuple:
    """(spans, extra values) from a file written by ``Tracer.dump``."""
    data = json.loads(path.read_text())
    spans = [[r["name"], r["start"], r["end"], r["parent"], r["op"]]
             for r in data.pop("spans")]
    return spans, data


def self_times(spans: list) -> list:
    """Per span: its duration minus the durations of its direct children.

    Spans of one process nest without overlap, so the children's durations
    are the part of the interval they cover.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - covered[k]
            for k, (_, start, end, _, _) in enumerate(spans)]


def import_breakdown(python: str, env: dict) -> dict:
    """Seconds spent importing mpde, scipy and numpy, from ``-X importtime``.

    ``total`` is the cumulative time of the ``mpde`` package; the scipy and
    numpy figures sum the self time of every module of that package, so each
    module is counted once whichever mpde module imported it first.
    """
    proc = subprocess.run([python, "-X", "importtime", "-c", "import mpde"],
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    out = {"total": 0.0, "scipy": 0.0, "numpy": 0.0}
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        own_us, cumulative_us = int(fields[0]), int(fields[1])
        name = fields[2].strip()
        if name == "mpde":
            out["total"] = cumulative_us / 1e6
        top = name.split(".")[0]
        if top in ("scipy", "numpy"):
            out[top] += own_us / 1e6
    return out
