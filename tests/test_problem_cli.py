import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from click.testing import CliRunner

from mpde import problem as problem_mod
from mpde.cli import main
from mpde.errors import ParseError, PreconditionError
from mpde.problem import (analyze_problem, expand_rhs, load_problem,
                          solve_problem, verify_problem)

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
    s = expand_rhs(spec, 0, 5, exact=True)
    assert all(c.re == 1 for c in s.coeffs[0])
    spec2 = {"kind": "rational",
             "payload": {"num": [[0, 0, 1, 0]],
                         "den": [[0, 0, 1, 0], [0, 1, -1, 0],
                                 [1, 0, -1, 0], [1, 1, 1, 0]]}}
    s2 = expand_rhs(spec2, 4, 4, exact=True)  # 1/((1-t)(1-z))
    assert all(c.re == 1 for row in s2.coeffs for c in row)


def test_expand_rhs_coeffs_and_errors():
    s = expand_rhs({"kind": "coeffs", "payload": [[0, 0, 1, 0]]}, 2, 2, False)
    assert s.coeffs[0][0] == 1 and s.coeffs[1][1] == 0
    with pytest.raises(PreconditionError):
        expand_rhs({"kind": "rational",
                    "payload": {"num": [[0, 0, 1, 0]],
                                "den": [[0, 1, 1, 0]]}}, 2, 2, False)


def test_expand_rhs_exact_strings():
    s = expand_rhs({"kind": "coeffs", "payload": [[1, 2, "1/3", "-2/7"]]},
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


# -- CLI integration ------------------------------------------------------------


def test_cli_analyze_stdout_golden():
    runner = CliRunner()
    result = runner.invoke(main, ["analyze", shipped("heat")])
    assert result.exit_code == 0
    report = json.loads(result.output)
    golden = json.loads((GOLDEN / "heat.analyze.json").read_text())
    assert report == golden


def test_cli_solve_csv_and_sidecar(tmp_path):
    runner = CliRunner()
    out = tmp_path / "heat.csv"
    result = runner.invoke(main, ["solve", shipped("heat"), "--out", str(out),
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
    runner = CliRunner()
    svg = tmp_path / "p.svg"
    csv = tmp_path / "v.csv"
    result = runner.invoke(main, ["newton", shipped("twofactor"),
                                  "--svg", str(svg), "--out", str(csv)])
    assert result.exit_code == 0
    assert csv.read_text() == "x,y\n2,-2\n4,-1\n5,0\n"
    assert svg.read_text().startswith("<svg")


def test_cli_probe(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["probe", shipped("heat"),
                                  "--arithmetic", "float", "--n1", "40"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert abs(report["gevrey_fit"]["s_hat"] - 1.0) <= 0.15
    assert report["theoretical_t_order"] == "1"
    assert report["probes"][0]["K"] == "1"


def test_cli_verify_exit_codes(tmp_path):
    runner = CliRunner()
    ok = runner.invoke(main, ["verify", shipped("heat"), "--n1", "6",
                              "--n2", "8"])
    assert ok.exit_code == 0
    # an impossible tolerance still passes in exact mode (residual is 0);
    # force a float failure instead through a perturbed problem
    data = json.loads(Path(shipped("heat")).read_text())
    data["rhs_gevrey"] = ["0", "0"]
    prob = tmp_path / "ok.json"
    prob.write_text(json.dumps(data))
    ok2 = runner.invoke(main, ["verify", str(prob), "--arithmetic", "float",
                               "--n1", "6", "--n2", "8"])
    assert ok2.exit_code == 0
    strict = runner.invoke(main, ["verify", str(prob), "--arithmetic",
                                  "float", "--n1", "6", "--n2", "8",
                                  "--tol", "0"])
    assert strict.exit_code == 3


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_cli_float_overflow_exits_numeric(command, tmp_path):
    # raw float coefficients of twofactor overflow binary64 at N1 = 80;
    # neither command may report success on them
    runner = CliRunner()
    out = tmp_path / "twofactor.csv"
    result = runner.invoke(main, [command, shipped("twofactor"), "--n1", "80",
                                  "--arithmetic", "float", "--out", str(out)])
    assert result.exit_code == 4, result.output
    assert "t-level 64" in result.output
    assert not out.exists()


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
    result = CliRunner().invoke(main, [command, shipped("twofactor"), flag,
                                       value, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "N1 >= 2 and N2 >= 5" in result.output
    assert not out.exists()


def test_cli_bool_truncation_is_parse_error(tmp_path):
    data = json.loads(Path(shipped("heat")).read_text())
    data["truncation"] = [True, 5]
    prob = tmp_path / "bool.json"
    prob.write_text(json.dumps(data))
    assert CliRunner().invoke(main, ["solve", str(prob)]).exit_code == 1


def test_cli_error_exit_codes(tmp_path):
    runner = CliRunner()
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert runner.invoke(main, ["analyze", str(bad)]).exit_code == 1

    deg0 = tmp_path / "deg0.json"
    data = json.loads(Path(shipped("heat")).read_text())
    data["operator"] = "dz^2"
    deg0.write_text(json.dumps(data))
    assert runner.invoke(main, ["analyze", str(deg0)]).exit_code == 2

    unk = tmp_path / "unk.json"
    data2 = json.loads(Path(shipped("heat")).read_text())
    data2["surprise"] = True
    unk.write_text(json.dumps(data2))
    assert runner.invoke(main, ["analyze", str(unk)]).exit_code == 1

    badmode = tmp_path / "badmode.json"
    data3 = json.loads(Path(shipped("heat")).read_text())
    data3["operator"] = "(dz^2+1)*dt - dz"
    badmode.write_text(json.dumps(data3))  # mode stays "direct"
    assert runner.invoke(main, ["solve", str(badmode)]).exit_code == 2


def test_console_script_entry_point(tmp_path):
    # one end-to-end run through the installed executable
    result = subprocess.run(
        [sys.executable, "-m", "mpde.cli", "verify", shipped("heat"),
         "--n1", "5", "--n2", "6"],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["passed"] is True
