import atexit
import contextlib
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from helpers import run_cli, strict_json
from outputs import REPROS, VARIANTS
from routes import row_values

from mpde import cli, moments
from mpde import problem as problem_mod
from mpde.errors import EvaluationError, ParseError, PreconditionError
from mpde.exact import RationalComplex
from mpde.problem import (analyze_problem, assemble, expand_rhs,
                          load_problem, newton_problem, parse_rhs,
                          probe_problem, solve_problem, verify_problem)
from mpde.series import Series2, gevrey_fit
from mpde.solver import formal_solve, residual

PROBLEMS = resources.files("mpde") / "problems"
SCHEMA = json.loads(
    (resources.files("mpde") / "data/analyze_report.schema.json").read_text())
GOLDEN = Path(__file__).parent / "golden"


def shipped(name: str) -> str:
    return str(PROBLEMS / f"{name}.json")


def test_load_problem_defaults_and_validation():
    pf = load_problem(shipped("heat"))
    assert pf.operator == "dt - dz^2"
    assert pf.truncation == (20, 60) and pf.arithmetic == "exact"
    with pytest.raises(ParseError):
        load_problem({"operator": "dt"})  # missing pieces
    with pytest.raises(ParseError):
        load_problem({"operator": "dt", "m1": "Gamma(1)", "m2": "Gamma(1)",
                      "rhs": {"kind": "coeffs", "payload": []}, "bogus": 1})
    with pytest.raises(ParseError):
        load_problem({"operator": "dt", "m1": "Gamma(1)", "m2": "Gamma(1)",
                      "rhs": {"kind": "weird", "payload": []}})


@pytest.mark.parametrize("field", ["operator", "m1", "m2"])
@pytest.mark.parametrize("value", [3, None, ["dt"]])
def test_load_problem_rejects_an_operator_or_moment_that_is_no_string(
        field, value):
    data = dict(json.loads(Path(shipped("heat")).read_text()),
                **{field: value})
    with pytest.raises(ParseError, match=f"^{field} must be a string, got "):
        load_problem(data)


def test_problem_files_loaded_twice_are_equal_and_hash_equal():
    # a loaded rhs keeps each entry as a tuple, so the record hashes
    rational = json.loads(Path(shipped("heat")).read_text())
    rational["rhs"]["payload"]["den"].append([1, 0, "-1/2", "0"])
    for source in (*map(shipped, ("heat", "transport", "twofactor")),
                   json.dumps(rational)):
        a, b = load_problem(source), load_problem(source)
        assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("field,value", [
    ("truncation", [True, 5]), ("truncation", [4, False]),
    ("directions", [True]), ("directions", [0.0, False])])
def test_load_problem_rejects_booleans(field, value):
    data = json.loads(Path(shipped("heat")).read_text())
    data[field] = value
    with pytest.raises(ParseError):
        load_problem(data)


def test_expand_rhs_rational():
    spec = {"kind": "rational",
            "payload": {"num": [[0, 0, 1, 0]],
                        "den": [[0, 0, 1, 0], [0, 1, -1, 0]]}}
    s = expand_rhs(parse_rhs(spec), 0, 5, exact=True)
    assert all(c.re == 1 for c in s.coeffs[0])
    spec2 = {"kind": "rational",
             "payload": {"num": [[0, 0, 1, 0]],
                         "den": [[0, 0, 1, 0], [0, 1, -1, 0],
                                 [1, 0, -1, 0], [1, 1, 1, 0]]}}
    s2 = expand_rhs(parse_rhs(spec2), 4, 4, exact=True)  # 1/((1-t)(1-z))
    assert all(c.re == 1 for row in s2.coeffs for c in row)


def test_float_rational_rhs_keeps_the_quotient_grid(monkeypatch):
    # the fresh read-only grid of the expansion is not copied again
    grids = []
    divide = problem_mod._divide
    monkeypatch.setattr(problem_mod, "_divide",
                        lambda *args: grids.append(divide(*args))
                        or grids[-1])
    spec = json.loads(Path(shipped("heat")).read_text())["rhs"]
    s = expand_rhs(parse_rhs(spec), 20, 50, exact=False)
    assert len(grids) == 1 and s.grid is grids[0]
    assert not s.grid.flags.writeable
    assert s.coeffs[0][7] == 1 and s.coeffs[3][7] == 0


# heat with one complex piece: an operator coefficient, a rhs num entry, a
# rhs den entry; None is heat itself
COMPLEX_PIECES = {
    None: {},
    "operator": {"operator": "(1+1i)*dt - dz^2"},
    "num": {"rhs": {"kind": "rational", "payload": {
        "num": [[0, 0, "1", "1"]],
        "den": [[0, 0, "1", "0"], [0, 1, "-1", "0"]]}}},
    "den": {"rhs": {"kind": "rational", "payload": {
        "num": [[0, 0, "1", "0"]],
        "den": [[0, 0, "1", "0"], [0, 1, "-1", "1/2"]]}}},
}


@pytest.mark.parametrize("piece", list(COMPLEX_PIECES))
def test_float_solve_is_float64_for_real_data_and_complex128_otherwise(piece):
    data = json.loads(Path(shipped("heat")).read_text())
    data.update(COMPLEX_PIECES[piece])
    u, _ = solve_problem(load_problem(data), 6, 8, "float")
    assert u.grid.dtype == (float if piece is None else complex)
    assert all(type(c) is complex for row in u.coeffs for c in row)


def test_expand_rhs_coeffs_and_errors():
    s = expand_rhs(parse_rhs({"kind": "coeffs", "payload": [[0, 0, 1, 0]]}),
                   2, 2, False)
    assert s.coeffs[0][0] == 1 and s.coeffs[1][1] == 0
    with pytest.raises(PreconditionError):
        expand_rhs(parse_rhs({"kind": "rational",
                              "payload": {"num": [[0, 0, 1, 0]],
                                          "den": [[0, 1, 1, 0]]}}),
                   2, 2, False)


def test_expand_rhs_exact_strings():
    s = expand_rhs(parse_rhs({"kind": "coeffs",
                              "payload": [[1, 2, "1/3", "-2/7"]]}),
                   2, 3, exact=True)
    from fractions import Fraction
    assert s.coeffs[1][2].re == Fraction(1, 3)
    assert s.coeffs[1][2].im == Fraction(-2, 7)


@pytest.mark.parametrize("name", ["heat", "transport", "twofactor"])
def test_analyze_matches_golden_and_schema(name):
    pf = load_problem(shipped(name))
    report = analyze_problem(pf)
    jsonschema.validate(report, SCHEMA)
    golden = json.loads((GOLDEN / f"{name}.analyze.json").read_text())
    assert report == golden


def test_analyze_without_a_newton_polygon_reports_null_and_fits_the_schema():
    data = json.loads(Path(shipped("heat")).read_text())
    data["m2"] = "Gamma(0)"
    report = analyze_problem(load_problem(data))
    jsonschema.validate(report, SCHEMA)
    assert report["newton"] is None


def test_analyze_reports_the_multilevel_case_II():
    # st1 = 3/2 > 0 leaves a branch below the threshold: tilde_K = 1/st1
    # takes the first direction
    data = json.loads(Path(shipped("twofactor")).read_text())
    data.update(rhs_gevrey=["3/2", "0"], directions=[0.0, 0.1])
    report = analyze_problem(load_problem(data))
    jsonschema.validate(report, SCHEMA)
    assert report["summability"]["case"] == "multi1_II"
    assert report["summability"]["tilde_K"] == "2/3"


def test_solve_problem_sidecar():
    pf = load_problem(shipped("heat"))
    u, sidecar = solve_problem(pf, n1=6, n2=8)
    assert sidecar["valid_window"] == [6, 8]
    assert sidecar["residual_exact_zero"] is True
    assert u.coeffs[2][0].re == 1


def test_verify_problem_tolerance():
    pf = load_problem(shipped("transport"))
    rep = verify_problem(pf, tol=1e-8, n1=8, n2=10)
    assert rep["passed"] and rep["residual"] == 0.0


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("arithmetic", ["exact", "float"])
def test_verify_problem_refuses_a_tolerance_that_is_not_finite(
        tol, arithmetic, monkeypatch):
    # refused before anything is solved
    def solve(*args):
        raise AssertionError("solved with a non-finite tolerance")
    monkeypatch.setattr(problem_mod, "_solve_checked", solve)
    pf = load_problem(shipped("heat"))
    with pytest.raises(PreconditionError,
                       match=rf"^tolerance {tol!r} is not a finite number$"):
        verify_problem(pf, tol, 6, 8, arithmetic)


@pytest.mark.parametrize("tol", [-1.0, -1e-300])
def test_verify_problem_refuses_a_negative_tolerance(tol, monkeypatch):
    # a negative tolerance failed even an exactly zero residual; it is
    # refused before anything is solved
    def solve(*args):
        raise AssertionError("solved with a negative tolerance")
    monkeypatch.setattr(problem_mod, "_solve_checked", solve)
    pf = load_problem(shipped("heat"))
    with pytest.raises(PreconditionError,
                       match=rf"^tolerance {tol!r} is negative$"):
        verify_problem(pf, tol, 6, 8, "exact")


# -- CLI integration ------------------------------------------------------------


def test_cli_analyze_stdout_golden():
    result = run_cli(["analyze", shipped("heat")])
    assert result.exit_code == 0
    report = json.loads(result.output)
    golden = json.loads((GOLDEN / "heat.analyze.json").read_text())
    assert report == golden


def test_cli_solve_csv_and_sidecar(tmp_path):
    out = tmp_path / "heat.csv"
    result = run_cli(["solve", shipped("heat"), "--out", str(out),
                      "--n1", "5", "--n2", "6"])
    assert result.exit_code == 0, result.output
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "j,i,re,im"
    assert len(lines) == 1 + 6 * 7
    # row-major ordering and 17-significant-digit rendering
    assert lines[1] == "0,0,0,0"
    row = dict()
    for line in lines[1:]:
        j, i, re, im = line.split(",")
        row[(int(j), int(i))] = (re, im)
    assert row[(1, 0)] == ("1", "0")
    assert row[(4, 0)] == ("30", "0")
    sidecar = json.loads(out.with_suffix(".json").read_text())
    assert sidecar["valid_window"] == [5, 6]
    assert sidecar["residual"] == 0.0


def test_cli_newton_outputs(tmp_path):
    svg = tmp_path / "p.svg"
    csv = tmp_path / "v.csv"
    result = run_cli(["newton", shipped("twofactor"),
                      "--svg", str(svg), "--out", str(csv)])
    assert result.exit_code == 0
    assert csv.read_text() == "x,y\n2,-2\n4,-1\n5,0\n"
    assert svg.read_text().startswith("<svg")


def test_cli_probe(tmp_path):
    result = run_cli(["probe", shipped("heat"),
                      "--arithmetic", "float", "--n1", "40"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert abs(report["gevrey_fit"]["s_hat"] - 1.0) <= 0.15
    assert report["theoretical_t_order"] == "1"
    assert report["probes"][0]["K"] == "1"


def test_cli_probe_skips_a_level_below_20_valid_t_levels():
    result = run_cli(["probe", shipped("heat"), "--n1", "18", "--n2", "20"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["probes"] == [
        {"K": "1", "status": "skipped", "directions": [], "radius": None,
         "detail": "probe needs at least 20 valid t-levels, got 19"}]


@pytest.mark.parametrize("arithmetic", ["float", "exact"])
def test_cli_probe_rejects_a_truncation_too_short_to_fit_before_solving(
        arithmetic, monkeypatch):
    # the fit reads the levels [ceil(N1/2), N1]: 8 of them from N1 = 14 on
    args = ["probe", shipped("heat"), "--n2", "20", "--arithmetic", arithmetic]
    assert run_cli([*args, "--n1", "14"]).exit_code == 0

    def solve(prob):
        raise AssertionError("probe solved a truncation it cannot fit")

    monkeypatch.setattr(problem_mod, "formal_solve", solve)
    result = run_cli([*args, "--n1", "13"])
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr == ("precondition violated: probe needs --n1 >= 14, "
                             "so that its Gevrey fit has 8 t-levels to read; "
                             "got N1 = 13\n")


@pytest.mark.parametrize("arithmetic", ["float", "exact"])
def test_cli_probe_reads_its_branch_data_before_solving(
        arithmetic, tmp_path, monkeypatch):
    # dz^2*dt - dt^2 is divisible by dt, so it has no branch data: probe
    # exits 2 without expanding the rhs or solving
    data = json.loads(Path(shipped("heat")).read_text())
    data.update(operator="dz^2*dt - dt^2", mode="pseudo")
    prob = tmp_path / "dt.json"
    prob.write_text(json.dumps(data))

    def refuse(*args):
        raise AssertionError("probe built a problem it has no branches for")

    for name in ("assemble", "formal_solve"):
        monkeypatch.setattr(problem_mod, name, refuse)
    result = run_cli(["probe", str(prob), "--arithmetic", arithmetic])
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr == (
        "precondition violated: operator is divisible by the t-derivative: "
        "the identically zero characteristic root has no pole order; factor "
        "it out first\n")


@pytest.mark.parametrize("arithmetic", ["float", "exact"])
def test_cli_direct_mode_with_a_polynomial_top_exits_2(arithmetic, tmp_path):
    # "direct" declares a constant top lambda coefficient; solve, verify
    # and probe refuse (1+dz)*dt - dz^2 in one line, analyze and newton do
    # not read the mode, and the file declared "pseudo" runs
    data = json.loads(Path(shipped("heat")).read_text())
    data.update(operator="(1+dz)*dt - dz^2")
    runs = [["solve", "--out", str(tmp_path / "u.csv")], ["verify"],
            ["probe"]]
    for mode in ("direct", "pseudo"):
        prob = tmp_path / f"{mode}.json"
        prob.write_text(json.dumps(dict(data, mode=mode)))
        for command, *options in runs:
            result = run_cli([command, str(prob), "--arithmetic", arithmetic,
                              *options])
            if mode == "pseudo":
                assert result.exit_code == 0, (command, result.output)
                continue
            assert (result.exit_code, result.stdout, result.stderr) == (
                2, "", "precondition violated: direct mode requires a "
                "constant top lambda coefficient; use pseudo mode\n"), command
    prob = tmp_path / "direct.json"
    assert run_cli(["analyze", str(prob)]).exit_code == 0
    assert run_cli(["newton", str(prob), "--out", str(tmp_path / "n.csv"),
                    "--svg", str(tmp_path / "n.svg")]).exit_code == 0


def test_cli_verify_exit_codes(tmp_path):
    ok = run_cli(["verify", shipped("heat"), "--n1", "6",
                  "--n2", "8"])
    assert ok.exit_code == 0
    # an impossible tolerance still passes in exact mode (residual is 0);
    # force a float failure instead through a perturbed problem
    data = json.loads(Path(shipped("heat")).read_text())
    data["rhs_gevrey"] = ["0", "0"]
    prob = tmp_path / "ok.json"
    prob.write_text(json.dumps(data))
    ok2 = run_cli(["verify", str(prob), "--arithmetic", "float",
                   "--n1", "6", "--n2", "8"])
    assert ok2.exit_code == 0
    strict = run_cli(["verify", str(prob), "--arithmetic",
                      "float", "--n1", "6", "--n2", "8",
                      "--tol", "0"])
    assert strict.exit_code == 3


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_cli_float_overflow_exits_numeric(command, tmp_path):
    # raw float coefficients of twofactor overflow binary64 at N1 = 80;
    # neither command may report success on them
    out = tmp_path / "twofactor.csv"
    result = run_cli([command, shipped("twofactor"), "--n1", "80",
                      "--arithmetic", "float", "--out", str(out)])
    assert result.exit_code == 4, result.output
    assert "t-level 64" in result.output
    assert not out.exists()


def test_cli_exact_solve_beyond_binary64_names_the_cell(tmp_path):
    # the exact solution of twofactor at (80, 60) leaves the binary64 range
    # of the CSV at t-level 64; verify checks it without rounding
    out = tmp_path / "twofactor.csv"
    args = [shipped("twofactor"), "--n1", "80", "--n2", "60",
            "--arithmetic", "exact"]
    result = run_cli(["solve", *args, "--out", str(out)])
    assert result.exit_code == 4, result.output
    assert ("exact coefficient (64, 55) is about 2^1025.8, outside the "
            "binary64 range of the CSV; lower --n1") in result.output
    assert not out.exists()
    result = run_cli(["verify", *args])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["residual_exact_zero"]


def test_cli_exact_probe_beyond_binary64_names_the_level(tmp_path):
    # the Gevrey fit rounds the moduli of the exact cells to binary64; at
    # (80, 60) twofactor's t-level 64 leaves that range, below it the fit runs
    args = [shipped("twofactor"), "--n2", "60", "--arithmetic", "exact"]
    result = run_cli(["probe", *args, "--n1", "80"])
    assert result.exit_code == 4, result.output
    assert ("numeric failure: exact coefficients of t-level 64 are outside "
            "the binary64 range of the Gevrey fit; lower --n1 below 64 "
            "(verify checks the exact solution without fitting it)"
            ) in result.output
    result = run_cli(["probe", *args, "--n1", "63"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["gevrey_fit"]["j_range"] == [32, 63]


def test_cli_exact_probe_decodes_only_the_cells_it_reads(tmp_path):
    # g = 1/(1-z) + 1e305 z^10: the z^10 term leaves binary64 at cells the
    # probe never reads (such as (4, 4), 2^1025.8); the Gevrey fit reads
    # rows 10-20 and the singular-direction probe column 0 of them, and
    # both report what they report for heat's own g
    data = json.loads(Path(shipped("heat")).read_text())
    data["rhs"]["payload"]["num"] = [[0, 0, "1", "0"], [0, 10, "1e305", "0"],
                                     [0, 11, "-1e305", "0"]]
    prob = tmp_path / "big.json"
    prob.write_text(json.dumps(data))
    args = ["--arithmetic", "exact", "--n1", "20", "--n2", "20"]
    result = run_cli(["probe", str(prob), *args])
    assert result.exit_code == 0, result.output
    assert result.stderr == ""
    assert result.stdout == run_cli(["probe", shipped("heat"), *args]).stdout
    report = json.loads(result.stdout)
    assert report["gevrey_fit"]["s_hat"] == 1.184171227523089
    assert report["probes"][0]["status"] == "ok"
    assert report["probes"][0]["radius"] == 0.3366126511100491


def test_cli_float_probe_skips_a_level_whose_terms_sum_past_binary64(
        tmp_path):
    # the operator dt - 30 with g = 3.56e298 / (1 - z): every cell of
    # t-level 20 is 1.7e308, and its weighted sum, 1.7e308 * 1.11111, is
    # beyond binary64; the fit skips that level as any other whose sum is
    # infinite, where a math.fsum of its finite terms raises
    data = json.loads(Path(shipped("heat")).read_text())
    data.update(operator="dt - 30", truncation=[20, 5])
    data["rhs"]["payload"]["num"] = [[0, 0, "3.5585223560545805e+298", "0"]]
    prob = tmp_path / "sum_overflow.json"
    prob.write_text(json.dumps(data))
    u = formal_solve(problem_mod.assemble(load_problem(str(prob)), 20, 5,
                                          "float"))
    terms = [abs(c) * 0.1 ** i for i, c in enumerate(u.coeffs[20])]
    assert all(math.isfinite(x) for x in terms)
    with pytest.raises(OverflowError, match="intermediate overflow"):
        math.fsum(terms)
    result = run_cli(["probe", str(prob), "--arithmetic", "float"])
    assert result.exit_code == 0, result.output
    assert result.stderr == ""
    fit = json.loads(result.stdout)["gevrey_fit"]
    assert fit["j_range"] == [10, 20]
    assert abs(fit["s_hat"] + 1.0) <= 1e-9


@pytest.mark.parametrize("kind", ["rational", "coeffs"])
def test_cli_float_rhs_entry_beyond_binary64_names_it(kind, tmp_path):
    # 1e400 is a valid rational but no binary64: float arithmetic exits 4
    # naming the entry and the remedy, exact arithmetic solves it
    data = json.loads(Path(shipped("heat")).read_text())
    entry = [0, 0, "1e400", "0"]
    if kind == "rational":
        data["rhs"]["payload"]["num"] = [entry]
        where = "rhs num"
    else:
        data["rhs"] = {"kind": "coeffs", "payload": [[0, 1, "1", "0"], entry]}
        where = "rhs"
    prob = tmp_path / "heat.json"
    prob.write_text(json.dumps(data))
    for command in ("verify", "solve", "probe"):
        args = [command, str(prob), "--arithmetic", "float"]
        if command == "solve":
            args += ["--out", str(tmp_path / "out.csv")]
        result = run_cli(args)
        assert result.exit_code == 4, result.output
        assert (f'numeric failure: {where} entry [0, 0, "1e400", "0"] is '
                f"beyond the binary64 range of float arithmetic; use "
                f"--arithmetic exact") in result.output
    assert not (tmp_path / "out.csv").exists()
    result = run_cli(["verify", str(prob), "--arithmetic", "exact"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["residual_exact_zero"]


ONE_MINUS_Z = [[0, 0, "1", "0"], [0, 1, "-1", "0"]]


@pytest.mark.parametrize("rhs,named", [
    ({"kind": "coeffs", "payload": [[0, 0, "1e308", "0"]] * 2},
     "rhs entries at [0, 0] add up"),
    ({"kind": "rational", "payload": {"num": [[0, 1, "-1e308", "1"]] * 2,
                                      "den": ONE_MINUS_Z}},
     "rhs num entries at [0, 1] add up"),
    ({"kind": "rational", "payload": {
        "num": [[0, 0, "1", "0"]],
        "den": ONE_MINUS_Z + [[1, 1, "1e308", "0"]] * 2}},
     "rhs den entries at [1, 1] add up"),
    # the recursion divides den by its constant term 1e-10 once
    ({"kind": "rational", "payload": {
        "num": [[0, 0, "1", "0"]],
        "den": [[0, 0, "1e-10", "0"], [1, 0, "1e300", "0"]]}},
     "rhs den term [1, 0] over term [0, 0] is"),
    ({"kind": "rational", "payload": {
        "num": [[0, 0, "1", "0"]],
        "den": [[0, 0, "1e-10", "0"], [0, 1, "1", "0"], [1, 2, "1e300", "0"]]}},
     "rhs den term [1, 2] over term [0, 0] is"),
    ({"kind": "rational", "payload": {
        "num": [[0, 0, "1", "0"]],
        "den": [[0, 0, "1e-10", "0"], [0, 2, "0", "-1e300"]]}},
     "rhs den term [0, 2] over term [0, 0] is"),
    ({"kind": "rational", "payload": {"num": [[0, 0, "1", "0"]],
                                      "den": [[0, 0, "1e-310", "0"]]}},
     "1 over rhs den term [0, 0] is"),
], ids=["coeffs", "num", "den", "den-term", "den-tail-term", "den-tap",
        "den-inverse"])
def test_cli_float_rhs_beyond_binary64_after_summing_or_dividing_names_it(
        rhs, named, tmp_path):
    # finite entries whose sum, or whose quotient by den's constant term,
    # leaves binary64: float arithmetic exits 4 naming the term and the
    # remedy before anything is solved, exact arithmetic solves it
    data = json.loads(Path(shipped("heat")).read_text())
    data["rhs"] = rhs
    prob = tmp_path / "heat.json"
    prob.write_text(json.dumps(data))
    for command in ("verify", "solve", "probe"):
        args = [command, str(prob), "--arithmetic", "float"]
        if command == "solve":
            args += ["--out", str(tmp_path / "out.csv")]
        result = run_cli(args)
        assert result.exit_code == 4, result.output
        assert (f"numeric failure: {named} beyond the binary64 range of "
                f"float arithmetic; use --arithmetic exact") in result.output
    assert not (tmp_path / "out.csv").exists()
    result = run_cli(["verify", str(prob), "--arithmetic", "exact",
                      "--n1", "4", "--n2", "4"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["residual_exact_zero"]


BIG = "1" + "0" * 400  # 10^400, beyond binary64


def _csv_cells(path) -> list:
    """The complex cells of a solution CSV, row-major."""
    return [complex(float(re), float(im)) for _, _, re, im in
            (line.split(",") for line in path.read_text().splitlines()[1:])]


@pytest.mark.parametrize("scale,arg", [
    (scale, arg) for arg in ("1/2+u/1", "1+u/1") for scale in (f"1/{BIG}", BIG)
] + [("Gamma(1)*Gamma(1)/1", "1+u/1")], ids=[
    "1/2+u/1-tiny", "1/2+u/1-huge", "1+u/1-tiny", "1+u/1-huge",
    "1+u/1-inverse"])
def test_cli_moment_scale_beyond_binary64_solves(scale, arg, tmp_path):
    # the scale a of a*Gamma(b + u/k) may be any positive rational: its log
    # is taken from its integer numerator and denominator.  The scale of m1
    # cancels from the solution, so the cells are those of the unscaled
    # moment: equal in exact arithmetic when the Gamma arguments are
    # integers (both tables are exact factorials), within 1e-12 in float.
    # Gamma(1)*Gamma(1)/1*Gamma(1+u/1), whose inverse factor cancels one
    # Gamma(1), is the unscaled moment, heat's own
    data = json.loads(Path(shipped("heat")).read_text())
    cells = {}
    for label, m1 in (("scaled", f"{scale}*Gamma({arg})"),
                      ("unscaled", f"1*Gamma({arg})")):
        prob = tmp_path / f"{label}.json"
        prob.write_text(json.dumps(dict(data, m1=m1)))
        for arithmetic in ("exact", "float"):
            for command in ("verify", "probe"):
                result = run_cli([command, str(prob),
                                  "--arithmetic", arithmetic])
                assert result.exit_code == 0, result.output
            out = tmp_path / f"{label}.{arithmetic}.csv"
            result = run_cli(["solve", str(prob), "--arithmetic", arithmetic,
                              "--out", str(out)])
            assert result.exit_code == 0, result.output
            cells[label, arithmetic] = out
    if arg == "1+u/1":
        assert (cells["scaled", "exact"].read_text()
                == cells["unscaled", "exact"].read_text())
    got, want = (_csv_cells(cells[label, "float"])
                 for label in ("scaled", "unscaled"))
    assert len(got) == len(want)
    assert all(abs(x - y) <= 1e-12 * abs(y) for x, y in zip(got, want))


TOP_LEAVES = ("numeric failure: the branch leading term of pole order q = 2 "
              "is beyond the binary64 range of float arithmetic\n")


@pytest.mark.parametrize("changes,named", [
    # m2 = Gamma(1 + 60u): the dz^6 term's ratio m2(6)/m2(0) = 360!
    ({"operator": "dt - dz^6", "m2": "1*Gamma(1+u/1/60)",
      "truncation": [4, 200]}, "the m2 values at indices 6 and 0"),
    # m1 = 1/Gamma(1 + 600u): the ratio m1(0)/m1(1) = 600! of level 1
    ({"m1": "Gamma(1)/1*Gamma(1+u/1/600)", "truncation": [4, 8]},
     "the m1 values at indices 0 and 1"),
], ids=["m2", "m1"])
def test_cli_moment_ratio_beyond_binary64_names_the_moment_function(
        changes, named, tmp_path):
    # float solve, verify and probe exit 4 naming the moment function and
    # the remedy (probe at N1 = 14, the least it fits); in a fresh
    # interpreter stderr is that one line, with no numpy warning; exact
    # verify solves the problem
    data = json.loads(Path(shipped("heat")).read_text())
    data.update(changes)
    prob = tmp_path / "ratio.json"
    prob.write_text(json.dumps(data))
    want = (f"numeric failure: the ratio of {named} is beyond the binary64 "
            f"range of float arithmetic; use --arithmetic exact\n")
    for command in ("solve", "verify", "probe"):
        args = [command, str(prob), "--arithmetic", "float"]
        if command == "solve":
            args += ["--out", str(tmp_path / "out.csv")]
        if command == "probe":
            args += ["--n1", "14"]
        result = run_cli(args)
        assert (result.exit_code, result.stderr) == (4, want), command
    src = Path(problem_mod.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "mpde.cli", "verify", str(prob),
         "--arithmetic", "float"], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert (proc.returncode, proc.stdout, proc.stderr) == (4, "", want)
    result = run_cli(["verify", str(prob), "--arithmetic", "exact"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["residual_exact_zero"]


@pytest.mark.parametrize("operator,float_named,exact_probe", [
    (f"dt - {BIG}*dz^2", "operator term dz^2 over term dt", TOP_LEAVES),
    # each coefficient is a binary64, their quotient is not
    (f"1/1{'0' * 200}*dt - 1{'0' * 200}*dz^2",
     "operator term dz^2 over term dt", TOP_LEAVES),
    # the recursion's quotient is 1, and the residual scales the terms by a
    # power of two
    (f"{BIG}*dt - {BIG}*dz^2", None, None),
    # a pseudo-mode quotient of two lambda coefficients
    (f"(2+dz)*dt - {BIG}*dz^2", "the zeta^0 coefficient of the lambda^0 "
     "coefficient over the top lambda coefficient",
     TOP_LEAVES.replace("q = 2", "q = 1")),
], ids=["term", "quotient", "residual", "pseudo"])
def test_cli_operator_beyond_binary64_names_the_term(
        operator, float_named, exact_probe, tmp_path):
    # float solve and verify exit 4 naming the operator term and the
    # remedy, and exact verify solves the problem; analyze and probe, in
    # both arithmetics and before the probe solves, round the branch
    # leading terms to binary64, and name the one beyond it
    data = json.loads(Path(shipped("heat")).read_text())
    data.update(operator=operator)
    if "(" in operator:
        data.update(rhs_role="f", mode="pseudo")
    prob = tmp_path / "op.json"
    prob.write_text(json.dumps(data))
    want = (f"numeric failure: {float_named} is beyond the binary64 range of "
            f"float arithmetic; use --arithmetic exact\n")
    for command in ("solve", "verify", "probe"):
        args = [command, str(prob), "--arithmetic", "float"]
        if command == "solve":
            args += ["--out", str(tmp_path / "out.csv")]
        result = run_cli(args)
        if float_named is None:
            # no float value is beyond binary64, and the branches are in
            # range
            assert result.exit_code == 0, result.output
        elif command == "probe":
            assert (result.exit_code, result.stderr) == (4, exact_probe)
        else:
            assert (result.exit_code, result.stderr) == (4, want), command
    result = run_cli(["verify", str(prob), "--arithmetic", "exact"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["residual_exact_zero"]
    for args in (["analyze"], ["probe", "--arithmetic", "exact"]):
        result = run_cli([args[0], str(prob), *args[1:]])
        if exact_probe is None:
            assert result.exit_code == 0, result.output
        else:
            assert (result.exit_code, result.stderr) == (4, exact_probe)


def test_exact_fit_and_row_values_build_no_cell_objects(monkeypatch):
    # the binary64 readers decode the integer lanes row by row; the per-cell
    # route built one RationalComplex for each of the 64 x 61 cells
    pf = load_problem(shipped("twofactor"))
    u = formal_solve(problem_mod.assemble(pf, 63, 60, "exact"))
    built = []
    init = RationalComplex.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(RationalComplex, "__init__", counting_init)
    fit = gevrey_fit(u)
    values = row_values(u, 0.0)
    assert fit.j_range == (32, 63) and len(values) == 64
    assert built == []


# (shipped problem, changes, N1, N2, the first t-level that overflows): 64
# is the first of a block of 8 levels that the kernel checks at once, the
# others lie inside one; the pseudo-mode recursion has downward terms and a
# tap; the case named "" runs under the command's name alone
OVERFLOWS = {
    "": ("twofactor", {}, 80, 60, 64),
    "twofactor@160x60": ("twofactor", {}, 160, 60, 64),
    "heat@200x100": ("heat", {}, 200, 100, 105),
    "gamma@100x60": ("heat", {"m1": "Gamma(1/2)", "m2": "Gamma(3/2)"}, 100,
                     60, 52),
    "complex@200x100": ("heat", dict(VARIANTS)["complex"], 200, 100, 111),
    "pseudo-f@200x100": ("heat", {"operator": "(1+dz)*dt - dz^3",
                                  "rhs_role": "f", "mode": "pseudo"}, 200,
                         100, 106),
}


@pytest.mark.parametrize("command,case", [
    (command, case) for case in OVERFLOWS for command in ("solve", "probe")],
    ids=[f"{command}-{case}" if case else command for case in OVERFLOWS
         for command in ("solve", "probe")])
def test_cli_float_overflow_advises_a_smaller_truncation(command, case,
                                                         tmp_path):
    name, changes, n1, n2, level = OVERFLOWS[case]
    prob = tmp_path / "problem.json"
    prob.write_text(json.dumps(dict(
        json.loads(Path(shipped(name)).read_text()), **changes)))
    result = run_cli([
        command, str(prob), "--n1", str(n1), "--n2", str(n2),
        "--arithmetic", "float", "--out", str(tmp_path / "out")])
    assert (result.exit_code, result.stderr) == (4, (
        f"numeric failure: float coefficients overflow at t-level {level} "
        f"(of {n1}) inside the requested window; lower the t-truncation "
        f"(--n1) below {level}, or check larger ones with verify "
        f"--arithmetic exact\n")), result.output


def test_cli_float_overflow_at_the_first_rhs_level_advises_exact(tmp_path):
    # den = 1 - 1e200 z overflows the rhs from column 2 on, so level n = 1,
    # the first that the rhs sets, overflows; no t-truncation below it
    # leaves the operator orders, so exact arithmetic, whose residual is
    # zero, is the only advice (N1 = 14, the least that probe fits)
    spec = json.loads((PROBLEMS / "heat.json").read_text())
    spec["rhs"]["payload"]["den"] = [[0, 0, "1", "0"], [0, 1, "-1e200", "0"]]
    spec.update(truncation=[14, 10], arithmetic="float")
    path = tmp_path / "den.json"
    path.write_text(json.dumps(spec))
    for command in ("solve", "verify", "probe"):
        result = run_cli([command, str(path), "--out", str(tmp_path / "out")])
        assert result.exit_code == 4, result.output
        assert result.stderr == (
            "numeric failure: float coefficients overflow at t-level 1 (of "
            "14) inside the requested window; use --arithmetic exact\n")
    result = run_cli(["verify", str(path), "--arithmetic", "exact"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["residual_exact_zero"] is True


@pytest.mark.parametrize("operator,n1,n2,level", [
    ("(1+dz^2)*dt - dz^4", 100, 5, None),
    ("(2+dz)*dt - dz^3", 150, 3, 135)])
def test_pseudo_float_overflow_in_inflated_columns(operator, n1, n2, level):
    # the inverse-power tail reads columns that overflow binary64 before the
    # requested window does; they may not make the window non-finite early
    spec = json.loads((PROBLEMS / "heat.json").read_text())
    spec.update(operator=operator, rhs_role="f", mode="pseudo",
                arithmetic="float", truncation=[n1, n2])
    pf = load_problem(json.dumps(spec))
    if level is None:
        assert verify_problem(pf)["passed"]
    else:
        with pytest.raises(EvaluationError, match=f"t-level {level} "):
            verify_problem(pf)


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("flag,value", [("--n2", "3"), ("--n1", "1")])
def test_cli_truncation_below_operator_order(command, flag, value, tmp_path,
                                             monkeypatch):
    # twofactor has operator orders (2, 5); below them the residual has no
    # window, which is reported before anything is solved
    def no_solve(prob):
        raise AssertionError("formal_solve must not run")
    monkeypatch.setattr(problem_mod, "formal_solve", no_solve)
    out = tmp_path / "twofactor.csv"
    result = run_cli([command, shipped("twofactor"), flag,
                      value, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "N1 >= 2 and N2 >= 5" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "verify", "probe"])
def test_cli_grid_above_cap_is_rejected_before_expansion(command,
                                                         monkeypatch):
    # heat has max_b = 2: (1000, 60) needs 1001 x 2061 = 2,063,061 cells
    def no_expand(*args):
        raise AssertionError("expand_rhs must not run")
    monkeypatch.setattr(problem_mod, "expand_rhs", no_expand)
    result = run_cli([command, shipped("heat"), "--n1",
                      "1000", "--n2", "60"])
    assert result.exit_code == 2, result.output
    assert "2063061 cells" in result.output
    assert str(problem_mod.MAX_GRID_CELLS) in result.output


@pytest.mark.parametrize("command", ["solve", "verify", "probe"])
def test_cli_grid_above_cap_is_rejected_before_the_level_widths(command,
                                                                monkeypatch):
    # (N1+1) * (N2+1) is a lower bound of the solver grid, since w[0] >= N2:
    # a truncation whose bound exceeds the cap exits 2 before level_widths
    # builds its N1+1 widths (about 40 GB at N1 = 10**9)
    def no_widths(*args):
        raise AssertionError("level_widths must not run")
    monkeypatch.setattr(problem_mod, "level_widths", no_widths)
    result = run_cli([command, shipped("heat"), "--n1", "1000000000",
                      "--n2", "10"])
    assert result.exit_code == 2, result.output
    assert ("has at least 11000000011 cells (1000000001 x 11), above the cap "
            f"of {problem_mod.MAX_GRID_CELLS}") in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("command,n1", [("solve", 2), ("verify", 2),
                                        ("probe", 14)])
def test_cli_wide_exact_solve_is_refused_before_its_tables(command, n1,
                                                           monkeypatch):
    # transport at (2, 20000) exact held about 1.9 GB at its peak; its
    # moment values are estimated at about 1,157 MiB, above the budget, so
    # it exits 2 before the rhs or any exact moment table is built (probe
    # needs 14 t-levels, and takes more)
    def no_build(*args):
        raise AssertionError("nothing may be built")
    monkeypatch.setattr(problem_mod, "expand_rhs", no_build)
    monkeypatch.setattr(moments, "fraction_table", no_build)
    result = run_cli([command, shipped("transport"), "--arithmetic",
                      "exact", "--n1", str(n1), "--n2", "20000"])
    assert result.exit_code == 2, result.output
    assert result.stdout == "" and result.stderr.count("\n") == 1
    assert result.stderr.startswith(
        f"precondition violated: an exact solve of truncation ({n1}, 20000) "
        f"needs about ")
    assert result.stderr.endswith(
        " MiB of moment values, above the budget of 256 MiB; lower --n1 or "
        "--n2, or use --arithmetic float\n")
    if n1 == 2:
        assert "needs about 1,157 MiB" in result.stderr


def test_cli_exact_budget_counts_each_factor_of_a_quotient_moment(
        tmp_path, monkeypatch):
    # m2(j) = j! / Gamma(j + 1/2) is near sqrt(j), but the moment table
    # multiplies j! by the 53-bit dyadic denominator of Gamma(j + 1/2)
    # before it divides, so a value keeps about 2 j log2 j bits: transport
    # at (2, 20000) is refused, as with m2 = Gamma(1), at twice the size
    def no_build(*args):
        raise AssertionError("nothing may be built")
    monkeypatch.setattr(problem_mod, "expand_rhs", no_build)
    monkeypatch.setattr(moments, "fraction_table", no_build)
    prob = tmp_path / "quotient.json"
    prob.write_text(json.dumps(dict(
        json.loads(Path(shipped("transport")).read_text()),
        m2="1*Gamma(1+u/1)/1*Gamma(1/2+u/1)")))
    result = run_cli(["verify", str(prob), "--arithmetic", "exact",
                      "--n1", "2", "--n2", "20000"])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith(
        "precondition violated: an exact solve of truncation (2, 20000) "
        "needs about 2,314 MiB of moment values, above the budget of 256 MiB")


@pytest.mark.parametrize("m1,refusal", [
    ("1*Gamma(-10+u/1)", "factor offset b must be positive, got -10 "
                         "(at position 16)"),
    (f"1*Gamma(1/1{'0' * 400}+u/1)",
     "factor offset b is at most 2^-1075, which rounds to 0.0 in binary64 "
     "(at position 416)")],
    ids=["negative", "underflow"])
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_cli_exact_budget_leaves_a_bad_gamma_argument_to_the_table(
        command, m1, refusal, tmp_path):
    # neither the byte estimate nor a moment table meets a Gamma argument
    # that is not positive in binary64 (-10 + j for every j <= 3 of the m1
    # table, and 10^-400, which is 0.0): its factor is a parse error, in
    # one stderr line that names the offset
    prob = tmp_path / "heat.json"
    prob.write_text(json.dumps(dict(
        json.loads(Path(shipped("heat")).read_text()), m1=m1)))
    args = [command, str(prob), "--arithmetic", "exact", "--n1", "2"]
    if command == "solve":
        args += ["--out", str(tmp_path / "u.csv")]
    result = run_cli(args)
    assert result.exit_code == 1, result.output
    assert result.stderr == f"parse error: {refusal}\n"


@pytest.mark.parametrize("name,n1,n2", [("heat", 240, 200),
                                        ("transport", 2, 5000)])
def test_exact_budget_admits_wide_solves_below_it(name, n1, n2, monkeypatch):
    # heat (240, 200), estimated at about 62 MiB, and transport (2, 5000),
    # at about 60 MiB, reach expand_rhs
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached
    monkeypatch.setattr(problem_mod, "expand_rhs", reached)
    with pytest.raises(Reached):
        problem_mod.assemble(load_problem(shipped(name)), n1, n2, "exact")


@pytest.mark.parametrize("arithmetic", ["Exact", True, "", 1])
def test_an_arithmetic_other_than_float_or_exact_is_refused(arithmetic,
                                                            monkeypatch):
    # a library caller can pass what the CLI's choices cannot; every entry
    # point refuses it before the rhs is expanded
    def no_expand(*args):
        raise AssertionError("expand_rhs must not run")
    monkeypatch.setattr(problem_mod, "expand_rhs", no_expand)
    pf = load_problem(shipped("heat"))
    refusal = re.escape(f'arithmetic must be "float" or "exact", got '
                        f'{arithmetic!r}')
    for call in (lambda: problem_mod.assemble(pf, 4, 6, arithmetic),
                 lambda: solve_problem(pf, 6, 8, arithmetic),
                 lambda: verify_problem(pf, 1e-8, 6, 8, arithmetic),
                 lambda: probe_problem(pf, 24, 8, arithmetic)):
        with pytest.raises(PreconditionError, match=refusal):
            call()


def test_running_out_of_memory_exits_2_with_advice(monkeypatch, tmp_path):
    # a grid below the cap can still exhaust memory (an exact solve whose
    # integers grow large); the solver is stubbed, no memory is exhausted
    def exhausted(*args):
        raise MemoryError
    monkeypatch.setattr(problem_mod, "solve_problem", exhausted)
    out = tmp_path / "u.csv"
    result = run_cli(["solve", shipped("heat"), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr == (
        "precondition violated: the command ran out of memory; lower --n1 "
        "or --n2, or use --arithmetic float\n")
    assert not out.exists()


@pytest.mark.parametrize("arithmetic", ["float", "exact"])
def test_a_solve_builds_its_level_widths_once(arithmetic, monkeypatch):
    # assemble builds the widths for the rhs and hands them to the solver
    from mpde import solver

    calls = []

    def counted(*args):
        calls.append(args)
        return level_widths(*args)
    level_widths = solver.level_widths
    monkeypatch.setattr(solver, "level_widths", counted)
    monkeypatch.setattr(problem_mod, "level_widths", counted)
    for name in ("heat", "twofactor"):
        calls.clear()
        solve_problem(load_problem(shipped(name)), arithmetic=arithmetic)
        assert len(calls) == 1


def test_grid_cap_admits_the_largest_benchmark_grid(monkeypatch):
    # heat (200, 100): a solver grid of 201 x 501 = 100,701 cells reaches
    # expand_rhs, which expands heat's t-free rhs on its one row
    class Reached(Exception):
        pass

    def reached(spec, n1, n2, exact):
        assert (200 + 1) * (n2 + 1) == 100701 and n1 == 0
        raise Reached
    monkeypatch.setattr(problem_mod, "expand_rhs", reached)
    pf = load_problem(shipped("heat"))
    with pytest.raises(Reached):
        problem_mod.assemble(pf, 200, 100, "float")


def test_import_does_not_load_scipy():
    # scipy serves only test oracles; importing it would add ~0.5 s to
    # every CLI call
    src = Path(problem_mod.__file__).resolve().parents[1]
    code = "import sys, mpde; sys.exit('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr or "import mpde loaded scipy"


def test_import_analyze_newton_and_exact_solve_do_not_load_numpy(tmp_path):
    # branch data, polygon and classification are rational work, and so is
    # an exact solve; numpy's import would take about half of every cold
    # analyze or newton call
    src = Path(problem_mod.__file__).resolve().parents[1]
    calls = []
    for name in ("heat", "transport", "twofactor"):
        out = tmp_path / name
        calls += [["analyze", shipped(name), "--out", f"{out}.json"],
                  ["newton", shipped(name), "--out", f"{out}.csv",
                   "--svg", f"{out}.svg"],
                  ["solve", shipped(name), "--arithmetic", "exact",
                   "--out", f"{out}.solution.csv"],
                  ["verify", shipped(name), "--arithmetic", "exact",
                   "--out", f"{out}.verify.json"]]
    code = ("import sys, mpde\n"
            "assert 'numpy' not in sys.modules, 'import mpde'\n"
            "from helpers import run_cli\n"
            f"for argv in {calls!r}:\n"
            "    assert run_cli(argv).exit_code == 0, argv\n"
            "    assert 'numpy' not in sys.modules, argv\n")
    path = os.pathsep.join([str(src), str(Path(__file__).parent)])
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for name in ("heat", "transport", "twofactor"):
        assert ((tmp_path / f"{name}.json").read_text()
                == (GOLDEN / f"{name}.analyze.json").read_text())
        assert (tmp_path / f"{name}.svg").read_text().startswith("<svg")
        assert json.loads(
            (tmp_path / f"{name}.verify.json").read_text())["passed"]


def test_import_cli_loads_the_standard_library_alone():
    # the command line runs on argparse, and numpy waits for float numerics
    src = Path(problem_mod.__file__).resolve().parents[1]
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import mpde.cli\n"
            "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
            "print(sorted(new - set(sys.stdlib_module_names) - {'mpde'}))\n"
            "print('numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\nFalse\n"


# argument lists that are usage errors, run in a directory that holds only
# the problem P.json and an empty directory D
USAGE_ERRORS = [
    [], ["bogus", "P.json"], ["solve"], ["solve", "P.json", "--n1", "x"],
    ["probe", "P.json", "--n2", "1.5"], ["verify", "P.json", "--tol", "tiny"],
    ["verify", "P.json", "--tol", "nan"], ["verify", "P.json", "--tol", "inf"],
    ["solve", "P.json", "--arithmetic", "double"], ["solve", "P.json", "--n1"],
    ["newton", "P.json", "--svg"], ["analyze", "missing.json"],
    ["analyze", "D"], ["analyze", "P.json", "--out", "D"],
    ["newton", "P.json", "--svg", "D"], ["solve", "P.json", "--out", "D"],
    # no abbreviated option, no -h, no option of another command, no extra
    # argument
    ["solve", "P.json", "--ar", "exact"], ["analyze", "P.json", "-h"],
    ["analyze", "P.json", "--n1", "5"], ["analyze", "P.json", "P.json"],
]


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
def test_cli_usage_errors_exit_2_and_write_nothing(argv, tmp_path,
                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "P.json").write_bytes(Path(shipped("heat")).read_bytes())
    (tmp_path / "D").mkdir()
    result = run_cli(argv)
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["D", "P.json"]


@pytest.mark.parametrize("tol", ["nan", "NaN", "inf", "-Infinity", "1e400"])
@pytest.mark.parametrize("arithmetic", ["exact", "float"])
def test_cli_verify_refuses_a_tolerance_that_is_not_finite(tol, arithmetic):
    # a NaN tolerance failed an exactly zero residual and printed "tol":
    # NaN, which is not JSON; an infinite one passed any residual
    result = run_cli(["verify", shipped("heat"), "--n1", "6", "--n2", "8",
                      "--arithmetic", arithmetic, "--tol", tol])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert f"argument --tol: {tol!r} is not a finite number" in result.output


def test_cli_nonfinite_residual_is_written_as_null(tmp_path):
    # the float residual of 10^400*dt - 10^400*dz^2 is small in the scaled
    # terms, and beyond binary64 in the problem's own scale: verify passes
    # and solve succeeds, and both write its absolute value as null, in
    # process and in a fresh interpreter
    data = json.loads(Path(shipped("heat")).read_text())
    data.update(operator=f"{BIG}*dt - {BIG}*dz^2")
    prob = tmp_path / "null.json"
    prob.write_text(json.dumps(data))
    window = ["--n1", "30", "--n2", "30", "--arithmetic", "float"]
    sidecar = tmp_path / "u.json"
    src = Path(problem_mod.__file__).resolve().parents[1]

    def in_process(argv):
        result = run_cli(argv)
        return result.exit_code, result.stdout, result.stderr

    def fresh(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "mpde.cli", *argv], capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": str(src)})
        return proc.returncode, proc.stdout, proc.stderr

    for run in (in_process, fresh):
        code, out, err = run(["verify", str(prob), *window])
        assert (code, err) == (0, "")
        report = strict_json(out)
        assert (report["residual_abs"], report["residual_exact_zero"],
                report["passed"]) == (None, False, True)
        assert 0.0 < report["residual"] < 1e-15
        sidecar.unlink(missing_ok=True)
        code, _, err = run(["solve", str(prob), *window, "--out",
                            str(tmp_path / "u.csv")])
        assert (code, err) == (0, "")
        written = strict_json(sidecar.read_text())
        assert (written["residual"], written["residual_abs"]) == (
            report["residual"], None)


def test_cli_float_verify_passes_an_operator_with_huge_coefficients(
        tmp_path):
    # (E+E*dz)*dt - E*dz^2 with E = 10^300 has the solution of E = 1, and
    # its float residual, on terms scaled by 2**-997, is as small; read
    # unscaled, E * u overflowed and the residual was NaN, a failure
    data = json.loads(Path(shipped("heat")).read_text())
    window = ["--n1", "30", "--n2", "30", "--arithmetic", "float"]
    reports, csvs = [], []
    for e in ("1" + "0" * 300, "1"):
        data.update(operator=f"({e}+{e}*dz)*dt - {e}*dz^2", mode="pseudo")
        prob = tmp_path / f"e{len(e)}.json"
        prob.write_text(json.dumps(data))
        result = run_cli(["verify", str(prob), *window])
        assert (result.exit_code, result.stderr) == (0, ""), result.output
        reports.append(strict_json(result.stdout))
        csv = tmp_path / f"u{len(e)}.csv"
        assert run_cli(["solve", str(prob), *window, "--out",
                        str(csv)]).exit_code == 0
        csvs.append(csv.read_bytes())
    assert csvs[0] == csvs[1]
    huge, unit = reports
    assert huge["passed"] and huge["residual"] < 1e-15
    assert 1e290 < huge["residual_abs"] / unit["residual_abs"] < 1e310


def test_cli_float_verify_passes_a_solution_whose_residual_terms_overflow(
        tmp_path):
    # dt - 30 with g = 3.6e298/(1-z) at (20, 5): every cell of u is finite,
    # but the residual's terms, scaled by 2**-4 for the coefficient 30,
    # overflow; scaled once more by the largest cell's binary exponent they
    # do not, and the right solution passes, as it does in exact arithmetic
    # (before, the residual was null and verify exited 3)
    data = next(p for name, p, _ in REPROS if name == "found-fit-sum-overflow")
    prob = tmp_path / "overflow.json"
    prob.write_text(json.dumps(data))
    result = run_cli(["verify", str(prob), "--n1", "20", "--n2", "5",
                      "--arithmetic", "float"])
    assert (result.exit_code, result.stderr) == (0, ""), result.output
    report = strict_json(result.stdout)
    assert report["passed"] and report["residual"] < 1e-15
    assert 1e290 < report["residual_abs"] < math.inf
    # the second pass still fails a wrong solution: one cell 0.1% off
    cauchy = assemble(load_problem(prob), 20, 5, "float")
    cells = formal_solve(cauchy).grid.copy()
    cells[10, 2] *= 1.001
    rep = residual(cauchy, Series2(cells))
    assert 1e-8 < rep.relative < 1e-5 and math.isfinite(rep.max_abs)


@pytest.mark.parametrize("tol", ["-1", "-1e-300"])
def test_cli_verify_refuses_a_negative_tolerance(tol):
    # exit 3 before, even on an exactly zero residual
    result = run_cli(["verify", shipped("heat"), "--n1", "6", "--n2", "8",
                      "--tol", tol])
    assert result.exit_code == 2, result.output
    assert result.stdout == "" and "Traceback" not in result.output
    assert (f"precondition violated: tolerance {float(tol)!r} is negative"
            in result.output)


@pytest.mark.parametrize("tol", ["1e-300", "0", "-0.0", "1e300"])
def test_cli_verify_accepts_a_finite_tolerance(tol):
    result = run_cli(["verify", shipped("heat"), "--n1", "6", "--n2", "8",
                      "--arithmetic", "exact", "--tol", tol])
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["tol"] == float(tol)


@pytest.mark.parametrize("args,code", [
    (["verify", shipped("heat"), "--n1", "6", "--n2", "8"], 0),
    (["verify", shipped("heat"), "--n1", "-5"], 2),
    # a valued option takes the next word whatever it starts with: the
    # float residual is above a tolerance of -0.0, and a negative
    # tolerance is a precondition violation
    (["verify", shipped("heat"), "--n1", "6", "--n2", "8", "--arithmetic",
      "float", "--tol", "-0.0"], 3),
    (["verify", shipped("heat"), "--n1", "6", "--n2", "8", "--tol",
      "-1e-9"], 2)])
def test_cli_main_main_ends_in_system_exit_with_the_code(args, code,
                                                        capsys):
    # perfbench/clitrace.py calls the entry point through this attribute
    with pytest.raises(SystemExit) as exc:
        cli.main.main(args=args, prog_name="mpde")
    assert exc.value.code == code, capsys.readouterr()


def test_cli_interrupt_exits_1_with_aborted(monkeypatch):
    # no traceback: "\nAborted!" on stderr and exit code 1
    def interrupted(path):
        raise KeyboardInterrupt
    monkeypatch.setattr(problem_mod, "load_problem", interrupted)
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", shipped("heat")])
    assert exc.value.code == "\nAborted!"


def test_cli_bool_truncation_is_parse_error(tmp_path):
    data = json.loads(Path(shipped("heat")).read_text())
    data["truncation"] = [True, 5]
    prob = tmp_path / "bool.json"
    prob.write_text(json.dumps(data))
    assert run_cli(["solve", str(prob)]).exit_code == 1


@pytest.mark.parametrize("arithmetic", ["float", "exact"])
@pytest.mark.parametrize("command,override", [
    ("probe", ["--n1", "0", "--n2", "-5"]), ("probe", ["--n1", "-1"]),
    ("solve", ["--n2", "-5"]), ("verify", ["--n1", "-3", "--n2", "4"])])
def test_cli_negative_truncation_override_exits_2_naming_it(
        command, override, arithmetic, tmp_path, monkeypatch):
    # rejected before the rhs is expanded: no IndexError from the exact
    # expansion, no "empty coefficient grid" in float
    expanded = []
    monkeypatch.setattr(problem_mod, "expand_rhs",
                        lambda *a: expanded.append(a))
    out = tmp_path / "out"
    result = run_cli([command, shipped("heat"), *override, "--arithmetic",
                      arithmetic, "--out", str(out)])
    assert result.exit_code == 2, result.output
    name, value = next(pair for pair in zip(override[::2], override[1::2])
                       if pair[1].startswith("-"))
    assert result.stdout == "" and "Traceback" not in result.output
    assert f"truncation override {name} {value} is negative" in result.output
    assert expanded == [] and not out.exists()


def test_a_problem_file_parses_its_operator_and_moments_once(monkeypatch):
    calls = []

    def counted(name):
        parse = getattr(problem_mod, name)
        return lambda text: calls.append(name) or parse(text)
    for name in ("parse_operator", "parse_moment"):
        monkeypatch.setattr(problem_mod, name, counted(name))
    pf = load_problem(shipped("twofactor"))
    analyze_problem(pf)
    solve_problem(pf, 6, 8, "exact")
    verify_problem(pf, 1e-8, 6, 8, "float")
    probe_problem(pf, 24, 8, "float")
    newton_problem(pf)
    assert calls == ["parse_operator", "parse_moment", "parse_moment"]


@pytest.mark.parametrize("command", ["solve", "verify", "probe"])
@pytest.mark.parametrize("override", [["--n1", "0"], ["--n1", "-1"],
                                      ["--n1", "3000"]])
def test_cli_parse_error_comes_before_the_truncation_checks(
        command, override, tmp_path):
    # the operator and both moments are parsed before the truncation is
    # checked against the overrides, the operator orders or the grid cap
    data = json.loads(Path(shipped("heat")).read_text())
    data["m2"] = "Gamma(1"
    prob = tmp_path / "bad_m2.json"
    prob.write_text(json.dumps(data))
    out = tmp_path / "out"
    result = run_cli([command, str(prob), *override, "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert result.stderr.startswith("parse error: ") and result.stdout == ""
    assert "truncation" not in result.output and not out.exists()


@pytest.mark.parametrize("text", ["5", "[1, 2]", '"x"', "null"])
def test_problem_file_that_is_no_json_object_is_a_parse_error(text,
                                                              tmp_path):
    prob = tmp_path / "scalar.json"
    prob.write_text(text)
    named = f"a problem file holds one JSON object, got {text}"
    with pytest.raises(ParseError, match=re.escape(named)):
        load_problem(prob)
    result = run_cli(["analyze", str(prob)])
    assert result.exit_code == 1, result.output
    assert named in result.output and "Traceback" not in result.output


@pytest.mark.parametrize("source,message", [
    ("[1, 2]", "a problem file holds one JSON object, got [1, 2]"),
    ("5", "cannot read the problem file 5: "),
    ("null", "cannot read the problem file null: "),
    ("{bad", "invalid problem JSON: "),
])
def test_load_problem_of_text_that_is_no_object_is_a_parse_error(source,
                                                                 message):
    # JSON text from its first non-blank "{" or "["; any other text is a path
    with pytest.raises(ParseError, match=re.escape(message)):
        load_problem(source)


def test_load_problem_of_an_unreadable_path_is_a_parse_error(tmp_path):
    missing = tmp_path / "missing.json"
    for source in (missing, str(missing), tmp_path):
        with pytest.raises(ParseError, match=re.escape(
                f"cannot read the problem file {source}: ")):
            load_problem(source)


def test_cli_single_branch_problem_needs_one_direction_per_level(tmp_path):
    prob = tmp_path / "heat3.json"
    data = json.loads(Path(shipped("heat")).read_text())
    data["directions"] = [0.0, 1.0, 2.0]
    prob.write_text(json.dumps(data))
    result = run_cli(["analyze", str(prob)])
    assert result.exit_code == 2, result.output
    assert result.stdout == "" and "Traceback" not in result.output
    assert ("precondition violated: need 1 directions for levels ['1'], "
            "got 3") in result.output


def test_problem_file_that_is_no_utf8_is_a_parse_error(tmp_path):
    prob = tmp_path / "latin1.json"
    prob.write_bytes(b'{"operator": "dt - dz^2 \xe9"}')  # Latin-1 bytes
    with pytest.raises(ParseError, match=f"{re.escape(str(prob))} is not "
                                         f"UTF-8 text"):
        load_problem(prob)
    result = run_cli(["analyze", str(prob)])
    assert result.exit_code == 1, result.output
    assert "is not UTF-8 text" in result.output
    assert "Traceback" not in result.output


def test_cli_error_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run_cli(["analyze", str(bad)]).exit_code == 1

    deg0 = tmp_path / "deg0.json"
    data = json.loads(Path(shipped("heat")).read_text())
    data["operator"] = "dz^2"
    deg0.write_text(json.dumps(data))
    assert run_cli(["analyze", str(deg0)]).exit_code == 2

    unk = tmp_path / "unk.json"
    data2 = json.loads(Path(shipped("heat")).read_text())
    data2["surprise"] = True
    unk.write_text(json.dumps(data2))
    assert run_cli(["analyze", str(unk)]).exit_code == 1

    badmode = tmp_path / "badmode.json"
    data3 = json.loads(Path(shipped("heat")).read_text())
    data3["operator"] = "(dz^2+1)*dt - dz"
    badmode.write_text(json.dumps(data3))  # mode stays "direct"
    assert run_cli(["solve", str(badmode)]).exit_code == 2


# heat.json with one field replaced by a raw JSON literal, and a piece of
# the ParseError message that names the entry
MALFORMED = [
    ("num entry", '[0, 0, "abc", "0"]', 'rhs num entry [0, 0, "abc", "0"]'),
    ("num entry", '["x", 0, "1", "0"]', 'rhs num entry ["x", 0, "1", "0"]'),
    ("num entry", '[0, 0, null, "0"]', 'rhs num entry [0, 0, null, "0"]'),
    ("payload", '[[0, 0, "1", "0"]]', "a rational rhs payload is an object"),
    ("num entry", "[0, 0, 1e309, 0]", "rhs num entry [0, 0, Infinity, 0]"),
    ("num entry", '[0, 0, "1/0", "0"]', 'rhs num entry [0, 0, "1/0", "0"]'),
    ("num entry", '[0.5, 0, "1", "0"]', 'rhs num entry [0.5, 0, "1", "0"]'),
    ("num entry", '[true, 0, "1", "0"]', 'rhs num entry [true, 0, "1", "0"]'),
    ("rhs_gevrey", '[1e309, "0"]', "rhs_gevrey entry Infinity"),
    ("rhs_gevrey", '[true, "0"]', "rhs_gevrey entry true"),
    # a misspelt key would leave a zero rhs that verifies as passed
    ("payload", '{"nums": [[0, 0, "1", "0"]], "den": [[0, 0, "1", "0"]]}',
     "unknown rational rhs payload keys: ['nums']"),
    ("rhs", '{"kind": "coeffs", "payload": [[0, 0, "1", "0"]], '
            '"den": [[0, 0, "2", "0"]]}',
     "unknown rhs keys: ['den']"),
    ("rhs", '{"kind": "coeffs"}', "rhs is missing its payload"),
    ("rhs", '{"kind": "coeffs", "payload": {"num": []}}',
     "rhs coefficients must be a list of [j, i, re, im] entries"),
    ("num entry", '[0, 0, "1"]', 'rhs num entry [0, 0, "1"] is not '
                                 '[j, i, re, im]'),
    ("rhs_role", '"h"', 'rhs_role must be "g" or "f"'),
    ("rhs_gevrey", "[1]", "rhs_gevrey must be a pair of rationals"),
    ("mode", '"fast"', 'mode must be "direct" or "pseudo"'),
    ("arithmetic", '"double"', 'arithmetic must be "float" or "exact"'),
]
# JSON reads NaN, Infinity and 1e309 (as Infinity) into directions
MALFORMED += [
    ("directions", literal,
     f"directions must be a non-empty list of finite reals, got {shown}")
    for literal, shown in (("[NaN]", "[NaN]"),
                           ("[Infinity, 0.0]", "[Infinity, 0.0]"),
                           ("[0.0, -Infinity]", "[0.0, -Infinity]"),
                           ("[1e309]", "[Infinity]"))]


def _malformed_heat(field: str, literal: str) -> str:
    data = json.loads(Path(shipped("heat")).read_text())
    if field == "num entry":
        data["rhs"]["payload"]["num"][0] = "RAW"
    elif field == "payload":
        data["rhs"]["payload"] = "RAW"
    else:
        data[field] = "RAW"
    return json.dumps(data).replace('"RAW"', literal)


@pytest.mark.parametrize("field,literal,named", MALFORMED,
                         ids=[f"{f}={v}" for f, v, _ in MALFORMED])
def test_malformed_rhs_is_a_parse_error_naming_the_entry(field, literal,
                                                         named, tmp_path):
    text = _malformed_heat(field, literal)
    with pytest.raises(ParseError, match=re.escape(named)):
        load_problem(text)
    prob = tmp_path / "bad.json"
    prob.write_text(text)
    for command in ("verify", "analyze"):
        result = run_cli([command, str(prob)])
        assert result.exit_code == 1, result.output
        assert f"parse error: {named}" in result.output


@pytest.mark.parametrize("field,text,named", [
    ("operator", "dt^x - dz", "expected an unsigned integer exponent"),
    ("m1", "Gamma(x)", "expected a rational number"),
    ("m2", "0*Gamma(1+u/1)", "factor scale a must be positive, got 0")])
def test_cli_bad_operator_or_moment_is_a_parse_error(field, text, named,
                                                     tmp_path):
    # the expressions are parsed on first use, not at load
    data = json.loads(Path(shipped("heat")).read_text())
    data[field] = text
    load_problem(data)
    prob = tmp_path / "bad.json"
    prob.write_text(json.dumps(data))
    for command in ("verify", "analyze"):
        result = run_cli([command, str(prob)])
        assert result.exit_code == 1, result.output
        assert result.stderr.startswith(f"parse error: {named}")
        assert result.stdout == ""


def test_cli_gamma_of_b_plus_u_without_its_scale_is_a_one_line_parse_error(
        tmp_path):
    # in a fresh interpreter: exit 1, one stderr line naming the missing
    # scale, no traceback
    data = json.loads(Path(shipped("heat")).read_text())
    data["m1"] = "Gamma(1)/Gamma(1+u/1)"
    prob = tmp_path / "scale.json"
    prob.write_text(json.dumps(data))
    want = ("parse error: Gamma(b+u/k) needs its scale a, as in "
            "'1*Gamma(1+u/1)' (at position 16)\n")
    for command in ("verify", "analyze"):
        result = run_cli([command, str(prob)])
        assert (result.exit_code, result.stdout, result.stderr) == (1, "", want)
    src = Path(problem_mod.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "mpde.cli", "solve", str(prob), "--out",
         str(tmp_path / "out.csv")], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", want)


def test_shipped_problems_pass_the_entry_checks():
    for name in ("heat", "transport", "twofactor"):
        data = json.loads(Path(shipped(name)).read_text())
        assert load_problem(data).rhs == parse_rhs(data["rhs"])
    # numbers, rational and decimal strings, and repeated entries still load
    data = json.loads(Path(shipped("heat")).read_text())
    data["rhs"]["payload"]["num"] += [[0, 0, 0.5, -2], [3, 1, "-1/3", "0.25"]]
    data["rhs_gevrey"] = [1, "1/2"]
    pf = load_problem(data)
    assert pf.rhs_gevrey == (1, Fraction(1, 2))


# shaped as the seeded operators of the exact benchmark ladder: three rhs
# entries of two parts and the two default Gevrey orders, 8 rationals
SEEDED = {"operator": "dt^2 + dz^3 - dt*dz^2 + dt - 1", "m1": "Gamma(1)",
          "m2": "Gamma(1)", "truncation": [12, 24], "arithmetic": "exact",
          "rhs": {"kind": "coeffs", "payload": [[0, 0, "1", "0"],
                                                [1, 3, "-1", "0"],
                                                [2, 0, "1", "0"]]}}


def test_the_rhs_is_parsed_once_at_load(monkeypatch):
    parsed = []
    rational = problem_mod._rational
    monkeypatch.setattr(problem_mod, "_rational",
                        lambda value: parsed.append(value) or rational(value))
    pf = load_problem(SEEDED)
    assert len(parsed) == 8
    for arithmetic in ("exact", "float"):
        solve_problem(pf, arithmetic=arithmetic)
        verify_problem(pf, arithmetic=arithmetic)
        probe_problem(pf, 24, 24, arithmetic)  # 12 levels fit too few
    assert len(parsed) == 8


@pytest.mark.parametrize("text", ["0", "-0", "007", "+1", " 1 ", "1_0", "²",
                                  "١٢", "1e3", "3/2", "-1/0"])
def test_a_rational_string_reads_as_fraction_reads_it(text):
    # a decimal integer string is read by int alone, to the value and the
    # type that Fraction gives ("²" passes str.isdigit but is no decimal
    # digit; "١٢" is one); the rest goes through Fraction, which refuses
    # some strings as ParseErrors
    try:
        q = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ParseError) as err:
            problem_mod._rational(text)
        assert str(err.value) == (
            f"{json.dumps(text)} is not a finite number or a rational string "
            f"with a nonzero denominator")
        return
    got = problem_mod._rational(text)
    assert got == q
    assert type(got) is (int if q.denominator == 1 else Fraction)


BIG_TEN = "1" + "0" * 400


@pytest.mark.parametrize("arithmetic", ["float", "exact"])
@pytest.mark.parametrize("moment,text,line", [
    ("m1", f"1*Gamma(1/{BIG_TEN}+u/1)",
     "parse error: factor offset b is at most 2^-1075, which rounds to 0.0 "
     "in binary64 (at position 416)"),
    ("m2", f"1*Gamma(1+u/1/{BIG_TEN})",
     "parse error: factor parameter k is so small that 1/k is beyond the "
     "binary64 range (at position 416)"),
    # 1/k = 10^307 is a double, but 1 + 66/k, the argument of m2(66), the
    # last the table reads at --n1 2, is not
    ("m2", f"1*Gamma(1+u/1/{BIG_TEN[:308]})",
     "precondition violated: the Gamma argument b + j/k of m2 at index 66 "
     "is beyond the binary64 range; lower --n1 or --n2"),
    # 1 + 66 * 10^306 is a double, but its log-Gamma is not
    ("m2", f"1*Gamma(1+u/1/{BIG_TEN[:307]})",
     "precondition violated: the log-Gamma of the argument b + j/k of m2 at "
     "index 66 is beyond the binary64 range; lower --n1 or --n2")],
    ids=["offset-rounds-to-0", "k-reciprocal-infinite", "argument-infinite",
         "log-gamma-infinite"])
def test_cli_gamma_factor_at_the_edge_of_binary64_is_one_line(
        moment, text, line, arithmetic, tmp_path):
    # each is refused before any table or rhs is built, in one stderr line
    # with no traceback; analyze and newton parse the moments too
    prob = tmp_path / "heat.json"
    prob.write_text(json.dumps(dict(
        json.loads(Path(shipped("heat")).read_text()), **{moment: text})))
    result = run_cli(["verify", str(prob), "--arithmetic", arithmetic,
                      "--n1", "2"])
    assert result.exit_code == (1 if line.startswith("parse") else 2)
    assert result.stderr == line + "\n" and result.stdout == ""
    if line.startswith("parse"):
        for command in ("analyze", "newton"):
            result = run_cli([command, str(prob), "--out",
                              str(tmp_path / f"{command}.out")])
            assert result.exit_code == 1 and result.stderr == line + "\n"


@pytest.mark.parametrize("arithmetic", ["float", "exact"])
def test_a_log_gamma_beyond_binary64_is_refused_before_the_tables(
        arithmetic, tmp_path, monkeypatch):
    # m2 = Gamma(1 + u * 10^306) at --n1 2: its last argument, about
    # 6.6e307, is a double whose log-Gamma is not; assemble refuses it
    # before the byte estimate, the tables and the rhs, with no warning
    def no_build(*args):
        raise AssertionError("nothing may be built")
    for name in ("log_sizes", "log_table", "fraction_table"):
        monkeypatch.setattr(moments, name, no_build)
    monkeypatch.setattr(problem_mod, "expand_rhs", no_build)
    prob = tmp_path / "heat.json"
    prob.write_text(json.dumps(dict(
        json.loads(Path(shipped("heat")).read_text()),
        m2=f"1*Gamma(1+u/1/{BIG_TEN[:307]})")))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_cli(["verify", str(prob), "--arithmetic", arithmetic,
                          "--n1", "2"])
    assert result.exit_code == 2 and not caught
    assert result.stderr == (
        "precondition violated: the log-Gamma of the argument b + j/k of m2 "
        "at index 66 is beyond the binary64 range; lower --n1 or --n2\n")


@pytest.mark.parametrize("out_name", ["heat.json", "heat.csv", "heat"])
def test_cli_solve_refuses_to_overwrite_the_problem_file(out_name, tmp_path):
    # the CSV or its .json sidecar would be the problem file itself
    prob = tmp_path / "heat.json"
    prob.write_bytes(Path(shipped("heat")).read_bytes())
    before = prob.read_bytes()
    result = run_cli(["solve", str(prob), "--out",
                      str(tmp_path / out_name)])
    assert result.exit_code == 2, result.output
    csv = tmp_path / out_name
    assert (f"the CSV {csv} or its sidecar {csv.with_suffix('.json')} would "
            f"overwrite the problem file {prob}") in result.output
    assert prob.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["heat.json"]


# (arguments after the problem path, a piece of the refusal); P.json is the
# problem file, out.json and X are names in the same directory, and nodir
# does not exist
OUTPUT_CLASHES = [
    (["analyze", "--out", "P.json"],
     "the report P.json would overwrite the problem file"),
    (["verify", "--out", "P.json"],
     "the report P.json would overwrite the problem file"),
    (["probe", "--out", "P.json"],
     "the report P.json would overwrite the problem file"),
    (["newton", "--svg", "P.json"],
     "the SVG P.json or the vertex CSV P.newton.csv would overwrite the "
     "problem file"),
    (["newton", "--out", "P.json"],
     "the SVG P.newton.svg or the vertex CSV P.json would overwrite the "
     "problem file"),
    (["solve", "--out", "out.json"],
     "the CSV out.json and its sidecar out.json resolve to one file"),
    (["newton", "--svg", "X", "--out", "X"],
     "the SVG X and the vertex CSV X resolve to one file"),
    (["analyze", "--out", "nodir/x.json"],
     "the report nodir/x.json is in nodir, which is not an existing "
     "directory"),
    (["verify", "--out", "nodir/x.json"],
     "the report nodir/x.json is in nodir, which is not an existing "
     "directory"),
    (["probe", "--out", "nodir/x.json"],
     "the report nodir/x.json is in nodir, which is not an existing "
     "directory"),
    (["solve", "--out", "nodir/x.csv"],
     "the CSV nodir/x.csv is in nodir, which is not an existing directory"),
    (["newton", "--svg", "nodir/x.svg"],
     "the SVG nodir/x.svg is in nodir, which is not an existing directory"),
    (["newton", "--out", "nodir/x.csv"],
     "the vertex CSV nodir/x.csv is in nodir, which is not an existing "
     "directory"),
    (["analyze", "--out", "P.json/x.json"],
     "the report P.json/x.json is in P.json, which is not an existing "
     "directory"),
]


@pytest.mark.parametrize("args,refusal", OUTPUT_CLASHES,
                         ids=[" ".join(a) for a, _ in OUTPUT_CLASHES])
def test_cli_refuses_outputs_over_the_problem_or_each_other(args, refusal,
                                                           tmp_path,
                                                           monkeypatch):
    monkeypatch.chdir(tmp_path)
    prob = tmp_path / "P.json"
    prob.write_bytes(Path(shipped("heat")).read_bytes())
    before = prob.read_bytes()
    result = run_cli([args[0], "P.json", *args[1:]])
    assert result.exit_code == 2, result.output
    assert f"precondition violated: {refusal}" in result.output
    assert prob.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["P.json"]


def test_console_script_entry_point(tmp_path):
    # one end-to-end run of the CLI module in a fresh interpreter; the
    # installed ``mpde`` console script is run by CI on the shipped problems
    result = subprocess.run(
        [sys.executable, "-m", "mpde.cli", "verify", shipped("heat"),
         "--n1", "5", "--n2", "6"],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["passed"] is True


@pytest.mark.parametrize("args", [["analyze"], ["newton", "--out", "N.csv",
                                                "--svg", "N.svg"]])
def test_cli_exits_1_quietly_when_the_reader_closed_stdout(args, tmp_path):
    # as in ``mpde analyze P | true``: the read end of the pipe is closed
    # before mpde starts, so every write to stdout fails
    src = Path(problem_mod.__file__).resolve().parents[1]
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "mpde.cli", args[0], shipped("twofactor"),
             *args[1:]], stdout=write, stderr=subprocess.PIPE, text=True,
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)})
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (1, "")


# mpde run as the program in a fresh interpreter, behind an exit probe that is
# registered first and so runs after mpde's own exit handler: it writes the
# count of frozen objects to the file named by the first argument
EXIT_PROBE = ("import atexit, gc, sys\n"
              "path = sys.argv.pop(1)\n"
              "atexit.register(lambda: open(path, 'w').write("
              "str(gc.get_freeze_count())))\n"
              "from mpde.cli import main\n"
              "sys.argv[0] = 'mpde'\n"
              "main()\n")


def _files(folder: Path) -> dict:
    return {p.name: p.read_bytes() for p in folder.iterdir()}


@pytest.mark.parametrize("args, code, closed", [
    (["solve", "heat", "--n1", "5", "--n2", "6", "--arithmetic", "float",
      "--out", "S.csv"], 0, False),
    (["analyze", "twofactor"], 0, False),
    (["solve", "heat", "--n1", "x"], 2, False),
    (["verify", "heat", "--n1", "5", "--n2", "6", "--arithmetic", "float",
      "--tol", "-0.0"], 3, False),
    (["solve", "twofactor", "--n1", "80", "--arithmetic", "float",
      "--out", "T.csv"], 4, False),
    (["newton", "twofactor", "--out", "N.csv", "--svg", "N.svg"], 1, True),
    *((["probe", name, "--arithmetic", "exact"], 0, False)
      for name in ("heat", "transport", "twofactor")),
    *(([command, "transport", "--n1", "200", "--n2", "200", "--arithmetic",
        "float"], 0, False) for command in ("verify", "probe"))])
def test_cli_as_the_program_freezes_the_heap_at_exit_and_keeps_its_output(
        args, code, closed, tmp_path, monkeypatch):
    # stdout, stderr, exit code and written files are those of the in-process
    # run, except that a program whose reader closed stdout first (``closed``)
    # writes no stdout and exits 1 quietly; a run that exits 0 in process,
    # where a RuntimeWarning is an error, writes no stderr, and so no numpy
    # warning as the program either
    argv = [args[0], shipped(args[1]), *args[2:]]
    inside, program = tmp_path / "inside", tmp_path / "program"
    inside.mkdir()
    program.mkdir()
    monkeypatch.chdir(inside)
    want = run_cli(argv)
    assert want.exit_code == (0 if closed else code), want.output
    src = Path(problem_mod.__file__).resolve().parents[1]
    count = tmp_path / "freeze_count"
    stdout = subprocess.PIPE
    if closed:
        read, stdout = os.pipe()
        os.close(read)
    try:
        result = subprocess.run(
            [sys.executable, "-c", EXIT_PROBE, str(count), *argv],
            stdout=stdout, stderr=subprocess.PIPE, text=True, cwd=program,
            env={**os.environ, "PYTHONPATH": str(src)})
    finally:
        if closed:
            os.close(stdout)
    assert result.returncode == code, result.stderr
    assert (result.stdout, result.stderr) == (
        (None, "") if closed else (want.stdout, want.stderr))
    assert _files(program) == _files(inside)
    assert int(count.read_text()) > 0


def test_cli_called_with_args_registers_no_exit_handler(monkeypatch):
    # the tests, perfbench's clitrace and library callers run main(args) in
    # their own process, whose exit stays theirs; as the program, main
    # registers gc.freeze
    handlers = []
    monkeypatch.setattr(atexit, "register", handlers.append)
    assert run_cli(["analyze", shipped("heat")]).exit_code == 0
    assert handlers == []
    monkeypatch.setattr(sys, "argv", ["mpde", "analyze", shipped("heat")])
    with contextlib.redirect_stdout(io.StringIO()) as out:
        with pytest.raises(SystemExit) as exc:
            cli.main()
    assert exc.value.code == 0
    assert out.getvalue() == (GOLDEN / "heat.analyze.json").read_text()
    assert handlers == [gc.freeze]
