"""mpde benchmark: one closed-loop client running one operation at a time.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-cold, exact-ladder, float-ladder (see NOTES.md).  Run from the
root of a checkout; mpde is imported from ``src``.  Every operation starts with
cold in-package caches (``moments.scaled_eval`` is cleared) and every output
is checked.  Times are corrected for the host's speed (see ``CAL_REF_S``).  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

import checks
import spans
import workloads

OUT = workloads.ROOT / ".perfbench-out"
SETUP_REPEATS = 3          # fresh interpreters timed for setup_s
IMPORTTIME_REPEATS = 3     # fresh interpreters for the import.* breakdown
CLI_TIMEOUT_S = 120
RUN_BUDGET_S = 150         # no pass starts that could end past this
# Passes per 30 s of --seconds.  A run makes round(PASSES_PER_30S * seconds
# / 30) passes, at least one, so every commit times the same operations the
# same number of times.  One pass takes about 14 s on cli-cold, 15-20 s on
# exact-ladder and 2.2 s on float-ladder at the baseline on 2 cores; three
# exact passes give its multi-second operations a steadier best-of time,
# and the others are kept short so that all runs of the benchmark fit its
# time budget.
PASSES_PER_30S = {"cli-cold": 2, "exact-ladder": 3, "float-ladder": 6}

# The host runs this machine's cores at speeds up to ~1.5x apart, switching
# every few seconds and drifting for minutes, which moves raw wall times of
# whole runs by 30%.  The benchmark pins itself and its children to one core
# and times ``calibrate()`` before every operation of a pass and after the
# last.  An operation shorter than SHORT_OP_S falls inside one speed regime
# and is scaled by CAL_REF_S over the mean of the two calibrations around
# it; a longer one spans switches and is scaled by CAL_REF_S over the mean
# of the whole pass.  Times then read as seconds on a core where
# ``calibrate()`` takes CAL_REF_S (its median on the baseline host).  Set-up
# imports are corrected by the mean of their calibrations.
CAL_REF_S = 0.0033
SHORT_OP_S = 0.5

IMPORT_PROBE = ("import time; t = time.perf_counter(); import mpde; "
                "print(time.perf_counter() - t)")
# what the installed ``mpde`` console script runs
CLI_ENTRY = ("import sys; from mpde.cli import main; sys.argv[0] = 'mpde'; "
             "sys.exit(main())")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
                    "op_tail_s": "s", "ok_rate": "ratio", "peak_rss_mb": "MB"}

SELF_TIME_METRICS = {
    "problem.load_problem_s": ("problem.load_problem",),
    "problem.assemble_s": ("problem.assemble",),
    "problem.expand_rhs_s": ("problem.expand_rhs",),
    "solver.formal_solve_s": ("solver.formal_solve",),
    "solver.residual_s": ("solver.residual",),
    "solver.g_from_f_s": ("solver.g_from_f",),
    "series.apply_operator_s": ("series.apply_operator",),
    "series.gevrey_fit_s": ("series.gevrey_fit",),
    "series.to_csv_s": ("series.to_csv",),
    "charroots.branches_s": ("charroots.branches_at_infinity",),
    "newton.build_s": ("newton.build",),
    "summability.classify_s": ("summability.classify",),
    "summability.probe_s": ("summability.singular_direction_probe",),
    "parsing.parse_s": ("parsing.parse_operator", "parsing.parse_moment"),
}

# unit and how the value is obtained, printed next to each per-layer metric
LAYER_LABELS = {
    "import.total_s": ("s", "python -X importtime, cumulative mpde"),
    "import.scipy_s": ("s", "python -X importtime, self time of scipy.*"),
    "import.numpy_s": ("s", "python -X importtime, self time of numpy.*"),
    **{name: ("s", "span self time per pass") for name in SELF_TIME_METRICS},
    "problem.expand_rhs_cells": ("cells", "computed from inputs"),
    "solver.cells": ("cells", "computed from inputs"),
    "solver.term_updates": ("count", "computed from inputs"),
    "solver.output_ratio": ("ratio", "computed from inputs"),
    "series.apply_operator_calls": ("count", "counted at the call boundary"),
    "series.csv_bytes": ("B", "computed from outputs"),
    "moments.scaled_eval_misses": ("count", "scaled_eval.cache_info()"),
    "exact.max_num_bits": ("bit", "computed from outputs"),
    "exact.max_den_bits": ("bit", "computed from outputs"),
    "float.max_log2_abs": ("log2", "computed from outputs"),
    "float.nonfinite_cells": ("cells", "computed from outputs"),
    "trace.overhead_s": ("s", "traced minus untraced wall_s, host-corrected"),
    "share.solver_series": ("ratio", "solver.* + series.* self time / wall"),
    "share.import_of_op_p50": ("ratio", "import.total_s / op_p50_s"),
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(workloads.SRC), env.get("PYTHONPATH")) if p)
    return env


def calibrate() -> float:
    """Seconds for a fixed loop of Fraction and complex arithmetic, the kind
    of pure-Python work mpde does."""
    start = time.perf_counter()
    acc, z = Fraction(0), 0j
    for k in range(1, 700):
        acc += Fraction(1, k)
        z = z * 0.5 + complex(k, 1)
    return time.perf_counter() - start


def measure_setup(env: dict) -> tuple:
    """Median wall time of ``import mpde`` in fresh interpreters, as
    (host-corrected, raw) seconds."""
    raw, cals = [], [calibrate()]
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S, check=True)
        raw.append(float(proc.stdout.strip().splitlines()[-1]))
        cals.append(calibrate())
    median = statistics.median(raw)
    return median * CAL_REF_S / statistics.fmean(cals), median


class Runner:
    """Runs operations one at a time and keeps one record per operation."""

    def __init__(self, mpde, env: dict, outdir: Path):
        self.mpde = mpde
        self.env = env
        self.outdir = outdir
        self.tracer: spans.Tracer | None = None
        # dicts: pass, op, seconds (raw), scaled (host-corrected), kind, ...
        self.records: list = []

    def run_pass(self, ops: list, index: int, traced: bool) -> float:
        """Run every op once; returns the pass's summed raw op time."""
        total = 0.0
        first, cals = len(self.records), []
        for op in ops:
            op_id = len(self.records)
            if traced:
                self.tracer.op = op_id
            cals.append(calibrate())
            if op.run is not None:
                seconds, result, misses = self._in_process(op, traced)
            else:
                seconds, result, misses = self._cli(op, op_id, traced)
            if isinstance(result, BaseException):
                kind, detail, stats = checks.RAISED, \
                    f"{type(result).__name__}: {result}", {}
            else:
                try:
                    kind, detail, stats = op.check(result)
                except (LookupError, ValueError, TypeError, AttributeError,
                        OSError) as exc:  # output missing or malformed
                    kind, detail, stats = checks.WRONG, \
                        f"unreadable output: {type(exc).__name__}: {exc}", {}
            del result
            self.records.append({"pass": index, "traced": traced,
                                 "op": op, "seconds": seconds, "kind": kind,
                                 "detail": detail, "stats": stats,
                                 "misses": misses})
            total += seconds
        cals.append(calibrate())
        pass_factor = CAL_REF_S / statistics.fmean(cals)
        for k, record in enumerate(self.records[first:]):
            factor = pass_factor if record["seconds"] >= SHORT_OP_S \
                else 2 * CAL_REF_S / (cals[k] + cals[k + 1])
            record["scaled"] = record["seconds"] * factor
        return total

    def _op_span(self, traced: bool):
        return self.tracer.span("op") if traced else nullcontext()

    def _in_process(self, op, traced: bool):
        cache = self.mpde.moments.scaled_eval
        cache.cache_clear()
        gc.collect()
        start = time.perf_counter()
        try:
            with self._op_span(traced):
                result = op.run()
        except Exception as exc:  # the op failed; its check records it
            result = exc
        seconds = time.perf_counter() - start
        return seconds, result, cache.cache_info().misses

    def _cli(self, op, op_id: int, traced: bool):
        for path in op.outputs:
            path.unlink(missing_ok=True)
        dump = self.outdir / f"spans-op{op_id}.json"
        if traced:
            prefix = [sys.executable, str(Path(__file__).with_name(
                "clitrace.py")), str(dump)]
        else:
            prefix = [sys.executable, "-c", CLI_ENTRY]
        start = time.perf_counter()
        try:
            with self._op_span(traced) as parent:
                result = subprocess.run(prefix + op.argv, cwd=self.outdir,
                                        env=self.env, capture_output=True,
                                        text=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            result = exc
        seconds = time.perf_counter() - start
        misses = 0
        if traced and dump.exists():
            child_spans, extra = spans.load_dump(dump)
            self.tracer.adopt(child_spans, parent)
            misses = extra["misses"]
            dump.unlink()
        return seconds, result, misses


def tail(samples: list):
    """(value, percentile, count): the highest percentile that still has ten
    samples above it; the maximum when there are fewer than eleven."""
    ordered = sorted(samples)
    k = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered)


def best_times(records: list, key: str = "scaled") -> dict:
    """Each operation's best time over the given records."""
    best = {}
    for r in records:
        name = r["op"].name
        best[name] = min(best.get(name, r[key]), r[key])
    return best


def end_to_end(records: list, setup_s: float, peak_rss_mb: float,
               key: str = "scaled"):
    """The end-to-end metrics from the untraced operations.

    Within a run the host still switches speed every few seconds, so each
    operation is timed as its best over the run's passes: ``wall_s`` sums
    those, and every operation run enters the percentiles with its
    operation's best time.  ``key`` selects host-corrected or raw times.
    """
    timed = [r for r in records if not r["traced"]]
    best = best_times(timed, key)
    samples = [best[r["op"].name] for r in timed]
    tail_s, tail_pct, n = tail(samples)
    failed = sum(r["kind"] != checks.OK for r in records)
    passes = len({r["pass"] for r in timed})
    metrics = {
        "setup_s": setup_s,
        "wall_s": sum(best.values()),
        "op_p50_s": statistics.median(samples),
        "op_tail_s": tail_s,
        "ok_rate": (len(records) - failed) / len(records),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {"op_tail_s": f"p{tail_pct:.1f} of {n} operation runs",
             "op_p50_s": f"median of {n} operation runs",
             "wall_s": f"{len(best)} operations, best of {passes} passes each",
             "setup_s": f"median of {SETUP_REPEATS} fresh interpreters",
             "ok_rate": f"1 - fail_rate; fail_rate = {failed}/{len(records)}"}
    return metrics, notes


def per_layer(records: list, tracer: spans.Tracer, imports: dict,
              raw_op_p50_s: float) -> dict:
    """The per-layer metrics of a traced run.  Span times are raw wall times,
    and the shares divide raw times by raw times."""
    traced = [r for r in records if r["traced"]]
    op_of = {k: r for k, r in enumerate(records)}
    own = spans.self_times(tracer.spans)
    # per traced pass: self time by span name, span counts by op
    time_by_pass = defaultdict(Counter)
    calls_by_op = defaultdict(Counter)
    for (name, _, _, _, op_id), t in zip(tracer.spans, own):
        if op_id is None:
            continue
        time_by_pass[op_of[op_id]["pass"]][name] += t
        calls_by_op[op_id][name] += 1
    pass_ids = sorted({r["pass"] for r in traced})
    wall = {p: sum(r["seconds"] for r in traced if r["pass"] == p)
            for p in pass_ids}
    # best-of-k against best-of-k; the first pass warms the process up (its
    # memory allocation runs ~25% slower in process) and is left out when
    # another untraced pass exists
    untraced_ids = sorted({r["pass"] for r in records if not r["traced"]})
    untraced_ids = untraced_ids[1:] or untraced_ids
    k = min(len(pass_ids), len(untraced_ids))

    def best_wall(ids):
        return sum(best_times([r for r in records if r["pass"] in ids]).values())

    overhead = best_wall(pass_ids[-k:]) - best_wall(untraced_ids[-k:])

    def per_pass_median(fn):
        return statistics.median(fn(p) for p in pass_ids)

    out = {f"import.{k}_s": v for k, v in imports.items()}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = per_pass_median(
            lambda p: sum(time_by_pass[p][n] for n in names))
    first = [(k, r) for k, r in op_of.items()
             if r["traced"] and r["pass"] == pass_ids[0]]
    cells = rhs_cells = updates = out_cells = applies = 0
    for k, r in first:
        shape, calls = r["op"].shape, calls_by_op[k]
        solves = calls["solver.formal_solve"]
        cells += solves * shape.cells
        updates += solves * shape.cells * shape.terms
        out_cells += solves * shape.out_cells
        rhs_cells += calls["problem.expand_rhs"] * shape.rhs_cells
        applies += calls["series.apply_operator"]
    stats = [r["stats"] for _, r in first]
    out.update({
        "problem.expand_rhs_cells": rhs_cells,
        "solver.cells": cells,
        "solver.term_updates": updates,
        "solver.output_ratio": out_cells / cells if cells else 0.0,
        "series.apply_operator_calls": applies,
        "series.csv_bytes": sum(s.get("csv_bytes", 0) for s in stats),
        "moments.scaled_eval_misses": sum(r["misses"] for _, r in first),
        "exact.max_num_bits": max(s.get("max_num_bits", 0) for s in stats),
        "exact.max_den_bits": max(s.get("max_den_bits", 0) for s in stats),
        "float.max_log2_abs": max(s.get("max_log2_abs", 0.0) for s in stats),
        "float.nonfinite_cells": sum(s.get("nonfinite_cells", 0)
                                     for s in stats),
        "trace.overhead_s": overhead,
        "share.solver_series": per_pass_median(
            lambda p: sum(t for n, t in time_by_pass[p].items()
                          if n.startswith(("solver.", "series."))) / wall[p]),
        "share.import_of_op_p50": imports["total"] / raw_op_p50_s,
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(PASSES_PER_30S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (workloads.SRC / "mpde" / "__init__.py").is_file():
        print(f"mpde sources not found under {workloads.SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = child_env()
    setup_s, raw_setup_s = measure_setup(env)
    sys.path.insert(0, str(workloads.SRC))
    import mpde
    import mpde.moments
    import mpde.parsing
    import mpde.problem

    outdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, mpde, outdir)
        runner = Runner(mpde, env, outdir)
        passes = max(1, round(PASSES_PER_30S[args.workload]
                              * args.seconds / 30))
        plan = [False] * passes
        if args.trace:
            # untraced and traced passes alternate, untraced first
            plan = [index % 2 == 1 for index in range(max(2, passes))]
            runner.tracer = spans.Tracer()
        longest = 0.0
        for index, traced in enumerate(plan):
            # a traced run always gets one untraced and one traced pass
            if traced in plan[:index] and \
                    time.perf_counter() - started + longest > RUN_BUDGET_S:
                break
            if traced:
                runner.tracer.install()
            try:
                longest = max(longest, runner.run_pass(ops, index, traced))
            finally:
                if traced:
                    runner.tracer.uninstall()
        if runner.tracer is not None:
            runner.tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    records = runner.records
    if args.workload == "cli-cold":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics, notes = end_to_end(records, setup_s, rss_kb / 1024.0)
    raw, _ = end_to_end(records, raw_setup_s, rss_kb / 1024.0, key="seconds")
    notes["peak_rss_mb"] = ("largest mpde child process"
                            if args.workload == "cli-cold"
                            else "the benchmark process, which runs mpde")
    for r in records:
        if r["kind"] != checks.OK and r["pass"] == 0:
            print(f"FAILED [{r['kind']}] {r['op'].name}: {r['detail']}")
    for name, value in metrics.items():
        unit = END_TO_END_UNITS[name]
        uncorrected = f"; {raw[name]:.6g} {unit} uncorrected" \
            if unit == "s" else ""
        print(f"{name} = {value:.6g} {unit}  ({notes[name]}{uncorrected})")
    report = metrics
    if args.trace:
        imports = [spans.import_breakdown(sys.executable, env)
                   for _ in range(IMPORTTIME_REPEATS)]
        imports = {k: statistics.median(i[k] for i in imports)
                   for k in imports[0]}
        report = per_layer(records, runner.tracer, imports, raw["op_p50_s"])
        for name, value in report.items():
            unit, how = LAYER_LABELS[name]
            print(f"{name} = {value:.6g} {unit}  ({how})")
    failed = sum(r["kind"] != checks.OK for r in records)
    wrong = sum(r["kind"] == checks.WRONG for r in records)
    units = {**END_TO_END_UNITS, **{k: u for k, (u, _) in LAYER_LABELS.items()}}
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in report.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
