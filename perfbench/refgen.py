"""Write reference.json: the expected outputs the benchmark checks against.

Usage: python3 perfbench/refgen.py

Run it only to set a new baseline, never to make a failing check pass.  The
float references are cross-checked against exact solves where those are
cheap (twofactor at N1 <= 40 and the shipped problems at their truncation).
Outputs that fail at the baseline (binary64 overflow) get a reference for
their finite part only, and a probe that raises gets none.
"""

import json
import sys

import numpy as np

import checks
import workloads

sys.path.insert(0, str(workloads.SRC))

from mpde import problem as mp  # noqa: E402
from mpde.errors import MpdeError  # noqa: E402

CROSS_CHECK = ("heat@20x60", "transport@20x60", "twofactor@20x60",
               "twofactor@40x60")


def main() -> int:
    ref = {"exact_csv_sha256": {}, "float": {}, "probe": {}, "analyze": {},
           "newton": {}, "verify_window": {}}
    for rung in workloads.EXACT_RUNGS:
        label = workloads.rung_id(*rung)
        pf = mp.load_problem(workloads.fixed_problem(*rung))
        u, sidecar = mp.solve_problem(pf, arithmetic="exact")
        if not sidecar["residual_exact_zero"]:
            raise SystemExit(f"{label}: exact residual is not zero")
        ref["exact_csv_sha256"][label] = checks.sha256(u.to_csv())
        print("exact", label, flush=True)

    float_rungs = list(workloads.FLOAT_RUNGS) + [
        (name, None, None) for name in workloads.SHIPPED]
    for rung in float_rungs:
        problem = workloads.fixed_problem(*rung)
        label = workloads.rung_id(rung[0], *problem["truncation"])
        pf = mp.load_problem(problem)
        u, _ = mp.solve_problem(pf, arithmetic="float")
        ref["float"][label] = checks.float_reference(
            np.asarray(u.coeffs, dtype=complex))
        if label in CROSS_CHECK:
            exact, _ = mp.solve_problem(pf, arithmetic="exact")
            grid = np.array([[complex(c) for c in row] for row in exact.coeffs])
            diff = checks.compare_float(grid, ref["float"][label])
            if diff:
                raise SystemExit(f"{label}: float disagrees with exact: {diff}")
        try:
            report = mp.probe_problem(pf, arithmetic="float")
            ref["probe"][label] = checks.probe_reference(report)
        except (MpdeError, ArithmeticError, ValueError) as exc:
            print("probe raises", label, type(exc).__name__, exc)
        print("float", label, flush=True)

    for name in workloads.SHIPPED:
        pf = mp.load_problem(workloads.PROBLEMS / f"{name}.json")
        ref["analyze"][name] = json.loads(json.dumps(mp.analyze_problem(pf)))
        svg, csv = mp.newton_problem(pf)
        ref["newton"][name] = {"svg_sha256": checks.sha256(svg),
                               "csv_sha256": checks.sha256(csv)}
        ref["verify_window"][name] = mp.verify_problem(
            pf, arithmetic="float")["window"]

    workloads.REFERENCE.write_text(json.dumps(ref, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
