"""The exit-code contract of the command line, checked on mutated problems.

Each draw mutates one of the shipped problems: the operator, the moments,
rhs entries, the rhs role, the mode, the truncation (kept small but for
one wide one, which exact arithmetic refuses) and the directions, with
misspelled and extra keys at every level of the problem object.  Every
command runs on it: ``analyze``, ``newton``, and ``solve``, ``verify`` and
``probe`` in both arithmetics.  Each run must exit 0-4 with nothing raised
past ``cli.main``; exits 1, 2 and 4 start their stderr with the prefix of
their kind.  Every JSON report a run writes to stdout, and every solve
sidecar, must parse as strict JSON, with no ``NaN`` or ``Infinity``.
"""

import copy
import json
import tempfile
from importlib import resources
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import run_cli, strict_json

BIG = "1" + "0" * 400  # 10^400, beyond binary64
E300 = "1" + "0" * 300  # 10^300
# a wide truncation, whose exact moment values pass the budget of assemble
WIDE = [2, 20000]

SHIPPED = {name: json.loads((resources.files("mpde") / "problems"
                             / f"{name}.json").read_text())
           for name in ("heat", "transport", "twofactor")}

PREFIX = {1: "parse error: ", 2: "precondition violated: ",
          4: "numeric failure: "}

OPERATORS = ["dt - dz", "dt - dz^2", "(dt - dz^2)*(dt - dz^3)",
             "dt^2 - dt*dz - dz^3 + 1", "(2+dz)*dt - dz^2", "(1+1i)*dt - dz^2",
             "dz^2", "dt - dt", "0", "dt -", "x", "", 3,
             f"dt - {BIG}*dz^2", f"1/1{'0' * 200}*dt - 1{'0' * 200}*dz^2",
             f"{BIG}*dt - {BIG}*dz^2", f"(2+dz)*dt - {BIG}*dz^2",
             "dt - dz^6"]
MOMENTS = ["Gamma(1)", "Gamma(1/2)", "Gamma(3/2)", "Gamma(0)", "Gamma(-1)",
           "Gamma(1)*Gamma(1/2)/Gamma(2)", "3/2*Gamma(1/3+u/2)",
           "1*Gamma(-1/2+u/1)", f"1/{BIG}*Gamma(1/2+u/1)",
           f"{BIG}*Gamma(1/2+u/1)", f"1/{BIG}*Gamma(1+u/1)", "Gamma(",
           "x", "", 2, "1*Gamma(1+u/1/60)", "1*Gamma(-30+u/1)",
           # an offset that rounds to 0.0, a k whose 1/k is beyond
           # binary64, and one whose arguments are doubles whose log-Gamma
           # is not
           f"1*Gamma(1/{BIG}+u/1)", f"1*Gamma(1+u/1/{BIG})",
           f"1*Gamma(1+u/1/{BIG[:307]})"]
VALUES = ["1", "-1/2", "0", "1/0", "x", "1e400", BIG, f"1/{BIG}", "1e-400",
          "2.5", 1.5, None, ""]
KEYS = {"problem": ["operatr", "m_1", "rhs_rol", "truncaton", "bogus"],
        "rhs": ["kindd", "payloads", "bogus"],
        "payload": ["nums", "dens", "bogus"]}

ints = st.integers(0, 6)
entry = st.tuples(ints, ints, st.sampled_from(VALUES), st.sampled_from(VALUES))
entries = st.lists(entry.map(list), max_size=3)


@st.composite
def problems(draw):
    """A shipped problem with a few mutations, as a dict."""
    p = copy.deepcopy(SHIPPED[draw(st.sampled_from(sorted(SHIPPED)))])
    # small truncations; 24 t-levels reach the probe's minimum of 20
    p["truncation"] = [draw(st.sampled_from([0, 1, 3, 6, 24])),
                       draw(st.integers(0, 8))]
    for _ in range(draw(st.integers(0, 3))):
        rhs = p.get("rhs") if isinstance(p.get("rhs"), dict) else {}
        kind = draw(st.sampled_from(
            ["operator", "m1", "m2", "num", "den", "coeffs", "kind", "role",
             "mode", "truncation", "directions", "key", "key", "drop"]))
        if kind == "operator":
            p["operator"] = draw(st.sampled_from(OPERATORS))
        elif kind in ("m1", "m2"):
            p[kind] = draw(st.sampled_from(MOMENTS))
        elif kind in ("num", "den"):
            payload = rhs.get("payload")
            if isinstance(payload, dict):
                payload[kind] = draw(entries)
        elif kind == "coeffs":
            p["rhs"] = {"kind": "coeffs", "payload": draw(entries)}
        elif kind == "kind":
            rhs["kind"] = draw(st.sampled_from(
                ["coeffs", "rational", "weird", 1]))
        elif kind == "role":
            p["rhs_role"] = draw(st.sampled_from(["g", "f", "h", 1]))
        elif kind == "mode":
            p["mode"] = draw(st.sampled_from(["direct", "pseudo", "x"]))
        elif kind == "truncation":
            p["truncation"] = draw(st.sampled_from(
                [[-1, 2], [2], "x", [1.5, 2], [True, 2], [2, 2, 2], WIDE]))
        elif kind == "directions":
            p["directions"] = draw(st.sampled_from(
                [[], [0.5, 1.0], ["x"], [1e308], "x", [0.0] * 3]))
        elif kind == "key":
            level = draw(st.sampled_from(sorted(KEYS)))
            obj = (p if level == "problem" else rhs if level == "rhs"
                   else rhs.get("payload"))
            if isinstance(obj, dict):
                obj[draw(st.sampled_from(KEYS[level]))] = 1
        else:
            p.pop(draw(st.sampled_from(["operator", "m1", "rhs", "mode"])),
                  None)
    return p


RUNS = [["analyze"], ["newton"],
        *([command, "--arithmetic", arithmetic]
          for command in ("solve", "verify", "probe")
          for arithmetic in ("float", "exact"))]


def _heat(**changes) -> dict:
    return dict(copy.deepcopy(SHIPPED["heat"]), truncation=[24, 8], **changes)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(problems())
@example(_heat(m1=f"1/{BIG}*Gamma(1/2+u/1)"))
@example(_heat(operator=f"dt - {BIG}*dz^2"))
@example(_heat(operator="dt - dz^6", m2="1*Gamma(1+u/1/60)"))
# a Gamma argument that is not positive over the whole exact moment table
@example(_heat(m1="1*Gamma(-30+u/1)"))
@example(_heat(m1=f"1*Gamma(1/{BIG}+u/1)"))
@example(_heat(m2=f"1*Gamma(1+u/1/{BIG})"))
@example(_heat(m2=f"1*Gamma(1+u/1/{BIG[:307]})"))
@example(dict(copy.deepcopy(SHIPPED["transport"]), truncation=WIDE))
# huge operator coefficients, which the float residual scales by 2**-997
@example(dict(_heat(operator=f"({E300}+{E300}*dz)*dt - {E300}*dz^2",
                    mode="pseudo"), truncation=[30, 30]))
def test_every_run_exits_0_to_4_with_its_stderr_prefix(problem):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problem.json"
        path.write_text(json.dumps(problem))
        outputs = {"solve": ["--out", f"{tmp}/u.csv"],
                   "newton": ["--out", f"{tmp}/n.csv",
                              "--svg", f"{tmp}/n.svg"]}
        for command, *options in RUNS:
            result = run_cli([command, str(path), *options,
                              *outputs.get(command, [])])
            code = result.exit_code
            assert code in range(5), (command, options, result.output)
            if code in PREFIX:
                assert result.stderr.startswith(PREFIX[code]), (
                    command, options, result.stderr)
            # verify prints its report when it fails (exit 3) too
            if code in (0, 3) and command in ("analyze", "verify", "probe"):
                strict_json(result.stdout)
            if code == 0 and command == "solve":
                strict_json((Path(tmp) / "u.json").read_text())
