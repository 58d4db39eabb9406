"""Output checks and the counts computed from returned outputs.

Every operation ends in one of four kinds:

* ``ok``        - the output passed every check;
* ``nonfinite`` - the output holds inf/nan values (binary64 overflow);
* ``raised``    - the operation raised, or the CLI exited with a nonzero code;
* ``wrong``     - the output is finite but disagrees with the reference
                  (digest, exact recursion, float reference, residual).

All kinds but ``ok`` count as failed operations.  Only ``wrong`` makes a run
incorrect: it is a result that looks valid and is not.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np

RESIDUAL_TOL = 1e-8     # float relative residual accepted as a solution
FLOAT_RTOL = 1e-9       # float values against the committed reference
FLOAT_FLOOR = 1e-3      # small cells are compared at this share of the row max
PROBE_RTOL = 1e-6       # Gevrey fit and probe radii against the reference
SAMPLE_CELLS = 256      # reference cells kept per float grid

OK, NONFINITE, RAISED, WRONG = "ok", "nonfinite", "raised", "wrong"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _close(x, ref, rtol) -> bool:
    if ref is None or x is None:
        return x is None and ref is None
    return abs(x - ref) <= rtol * max(abs(ref), 1e-300)


# -- counts from outputs ---------------------------------------------------------


def float_stats(grid) -> dict:
    """Non-finite cells and the largest log2|c| of the finite cells of a
    complex grid (a numpy array)."""
    finite = np.isfinite(grid)
    magnitude = np.maximum(np.abs(grid.real), np.abs(grid.imag))[finite]
    peak = float(magnitude.max()) if magnitude.size else 0.0
    return {"nonfinite_cells": int(grid.size - finite.sum()),
            "max_log2_abs": math.log2(peak) if peak else 0.0}


def exact_stats(rows) -> dict:
    """Largest numerator and denominator bit lengths, and largest log2|c|."""
    num_bits = den_bits = 0
    log2_peak = 0.0
    for row in rows:
        for c in row:
            for part in (c.re, c.im):
                if part:
                    num_bits = max(num_bits, abs(part.numerator).bit_length())
                    den_bits = max(den_bits, part.denominator.bit_length())
                    log2_peak = max(log2_peak, math.log2(abs(part.numerator))
                                    - math.log2(part.denominator))
    return {"max_num_bits": num_bits, "max_den_bits": den_bits,
            "max_log2_abs": log2_peak}


# -- exact mode ------------------------------------------------------------------


def exact_reference(terms: dict, g: dict, n1: int, n2: int) -> list:
    """Raw solution of a direct problem with Gamma(1) moments, by brute force.

    ``terms`` maps (a, b) to the Fraction coefficient of dt^a dz^b, with a
    constant top term (n, 0); ``g`` maps (j, i) to the rhs coefficient.  In
    normalized coordinates ``U = u * j! * i!`` the problem reads
    ``sum p_ab U[j+a][i+b] = p_top G[j][i]`` with ``U[j] = 0`` for j < n.
    Rows are computed on a grid wide enough that the zero padding at its
    right edge never reaches columns <= n2.
    """
    n = max(a for a, _ in terms)
    p_top = terms[(n, 0)]
    max_b = max(b for _, b in terms)
    width = n2 + (n1 + 1) * max_b
    fact = [1]
    for k in range(1, width + n1 + 1):
        fact.append(fact[-1] * k)
    lower = [(a, b, p) for (a, b), p in terms.items() if a < n]
    U = [[Fraction(0)] * (width + 1) for _ in range(n1 + 1)]
    for j in range(n1 - n + 1):
        row = U[j + n]
        for i in range(width + 1):
            acc = p_top * g.get((j, i), 0) * fact[j] * fact[i]
            for a, b, p in lower:
                if i + b <= width:
                    acc -= p * U[j + a][i + b]
            row[i] = acc / p_top
    return [[U[j][i] / (fact[j] * fact[i]) for i in range(n2 + 1)]
            for j in range(n1 + 1)]


def check_exact(u, sidecar: dict, csv: str, digest: str | None = None,
                reference: list | None = None):
    """An exact solve: zero residual, then the CSV digest or the brute-force
    reference values."""
    if not sidecar.get("residual_exact_zero"):
        return WRONG, f"exact residual is not zero ({sidecar.get('residual')})"
    if digest is not None and sha256(csv) != digest:
        return WRONG, "solution CSV digest differs from the reference"
    if reference is not None:
        if tuple(u.valid) != (len(reference) - 1, len(reference[0]) - 1):
            return WRONG, f"valid window {u.valid} differs from the reference"
        for j, ref_row in enumerate(reference):
            for i, ref in enumerate(ref_row):
                c = u.coeffs[j][i]
                if c.re != ref or c.im != 0:
                    return WRONG, f"coefficient ({j},{i}) differs from the " \
                                  "brute-force recursion"
    return OK, ""


# -- float mode ------------------------------------------------------------------


def float_reference(grid) -> dict:
    """Shape, per-row maxima and a sample of cells of a complex grid.

    Non-finite rows get no maximum and non-finite cells are not sampled, so
    the reference of an overflowing grid covers its finite part only.
    """
    n_rows, n_cols = grid.shape
    finite = np.isfinite(grid)
    rowmax = [float(np.abs(row).max()) if ok.all() else None
              for row, ok in zip(grid, finite)]
    total = n_rows * n_cols
    flat = sorted({k * total // SAMPLE_CELLS for k in range(SAMPLE_CELLS)})
    cells = []
    for k in flat:
        j, i = divmod(k, n_cols)
        if finite[j, i]:
            c = complex(grid[j, i])
            cells.append([j, i, c.real, c.imag])
    return {"shape": [n_rows - 1, n_cols - 1], "rowmax": rowmax,
            "cells": cells}


def compare_float(grid, ref: dict) -> str | None:
    """None when the grid matches the reference, else what differs."""
    if [n - 1 for n in grid.shape] != ref["shape"]:
        return f"grid shape differs from the reference {ref['shape']}"
    rowmax = np.array([m if m is not None else np.nan for m in ref["rowmax"]])
    if ref["cells"]:
        j, i, re, im = np.array(ref["cells"]).T
        j, i = j.astype(int), i.astype(int)
        want = re + 1j * im
        floor = FLOAT_FLOOR * np.nan_to_num(rowmax[j])
        bad = ~(np.abs(grid[j, i] - want)
                <= FLOAT_RTOL * np.maximum(np.abs(want), floor))
        if bad.any():
            k = int(np.argmax(bad))
            return f"cell ({j[k]},{i[k]}) = {grid[j[k], i[k]]} differs " \
                   f"from {want[k]}"
    known = ~np.isnan(rowmax)
    got = np.abs(grid[known]).max(axis=1)
    bad = ~(np.abs(got - rowmax[known]) <= FLOAT_RTOL * rowmax[known])
    if bad.any():
        k = int(np.flatnonzero(known)[np.argmax(bad)])
        return f"row {k} maximum differs from {rowmax[k]}"
    return None


def check_float(grid, residual, ref: dict | None, stats: dict):
    """A float solve: finite cells, relative residual <= RESIDUAL_TOL, and
    agreement with the reference where the reference is finite.  ``stats``
    is ``float_stats(grid)``."""
    if stats["nonfinite_cells"]:
        return NONFINITE, (f"{stats['nonfinite_cells']} non-finite cells, "
                           f"reported residual {residual}")
    if not (isinstance(residual, (int, float)) and residual <= RESIDUAL_TOL):
        return WRONG, f"relative residual {residual} above {RESIDUAL_TOL}"
    diff = compare_float(grid, ref) if ref is not None else None
    if diff:
        return WRONG, diff
    return OK, ""


def probe_reference(report: dict) -> dict:
    probes = [{k: p[k] for k in ("K", "status", "directions", "radius")}
              for p in report["probes"]]
    return {"gevrey_fit": report["gevrey_fit"],
            "theoretical_t_order": report["theoretical_t_order"],
            "probes": probes}


def check_probe(report: dict, ref: dict | None):
    """A probe report: finite fit, equal to the reference within PROBE_RTOL."""
    fit = report["gevrey_fit"]
    if not all(math.isfinite(fit[k]) for k in ("s_hat", "stderr")):
        return NONFINITE, f"Gevrey fit is not finite: {fit}"
    if ref is None:
        return OK, ""
    rfit = ref["gevrey_fit"]
    if list(fit["j_range"]) != list(rfit["j_range"]) or not all(
            _close(fit[k], rfit[k], PROBE_RTOL) for k in ("s_hat", "stderr")):
        return WRONG, f"Gevrey fit {fit} differs from {rfit}"
    if report["theoretical_t_order"] != ref["theoretical_t_order"]:
        return WRONG, "theoretical t-order differs from the reference"
    got = probe_reference(report)["probes"]
    if len(got) != len(ref["probes"]):
        return WRONG, "number of level probes differs from the reference"
    for p, r in zip(got, ref["probes"]):
        if (p["K"], p["status"]) != (r["K"], r["status"]) \
                or len(p["directions"]) != len(r["directions"]) \
                or not all(abs(d - e) <= 1e-9 for d, e in
                           zip(p["directions"], r["directions"])) \
                or not _close(p["radius"], r["radius"], PROBE_RTOL):
            return WRONG, f"level probe {p} differs from {r}"
    return OK, ""
