"""Shared builders for randomized test corpora (all deterministic seeds),
and an in-process harness for the command line."""

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from mpde import cli
from mpde.exact import RationalComplex
from mpde.moments import MomentFactor, MomentFunction
from mpde.series import Series2
from routes import Series1


# Fixed before measuring.  numpy's and math's log are each within about an
# ulp of the true value, so a ``moments.log_table`` entry may differ from the
# scalar sum of ``log_rational`` and ``log_gamma`` by LOG_ULPS ulps of the
# magnitudes that the sum adds (:func:`log_magnitude`), where a last-bit
# change of a log is scaled by the Lanczos body's ``z + 0.5``.
LOG_ULPS = 8


def larger_k(m: MomentFunction, kappa: int) -> MomentFunction:
    """m with each Gamma factor's k multiplied by kappa: the moment function
    that reads a series in ``t**(1/kappa)`` at its index j, since
    ``b + (j/kappa)/k = b + j/(k*kappa)`` (README, "Library entry
    points")."""
    return MomentFunction(tuple(MomentFactor(f.scale, f.offset, f.ram * kappa,
                                             f.sign) for f in m.factors))


def log_magnitude(m, u) -> float:
    """A bound on the magnitudes that ``log m(u)`` adds: per factor
    ``a*Gamma(x)``, ``|log a|``, the shift ``|log x|`` of an argument below
    0.5, and ``(x + 8) * (2 + log(x + 8))`` for the Lanczos body's
    ``(z + 0.5) * log(t)``, ``t`` and ``log(acc)``."""
    total = 0.0
    for f in m.factors:
        x = float(f.offset + u / f.ram)
        total += (abs(math.log(f.scale)) + abs(math.log(x))
                  + (x + 8.0) * (2.0 + math.log(x + 8.0)))
    return total


def random_series1(rng: random.Random, n: int,
                   exact: bool = False) -> Series1:
    if exact:
        coeffs = [RationalComplex(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                                  Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
                  for _ in range(n + 1)]
    else:
        coeffs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                  for _ in range(n + 1)]
    return Series1(coeffs, exact=exact)


def random_series2(rng: random.Random, n1: int, n2: int,
                   exact: bool = False) -> Series2:
    if exact:
        rows = [[RationalComplex(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                                 Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
                 for _ in range(n2 + 1)] for _ in range(n1 + 1)]
    else:
        rows = [[complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                 for _ in range(n2 + 1)] for _ in range(n1 + 1)]
    return Series2(rows, exact=exact)


def from_t_coeffs(seq, exact: bool = False) -> Series2:
    """One-column grid: c_{j,0} from ``seq``, everything else absent."""
    return Series2([[v] for v in seq], exact=exact)


def transposed(u: Series2) -> Series2:
    """u with t and z swapped: ``gevrey_fit`` of it fits the z-levels."""
    return Series2(tuple(zip(*u.coeffs)), u.exact)


def geometric_g(n1, n2, exact=False, t_coeffs=None):
    """g = (sum_j t_coeffs[j] t^j) / (1 - z); default is 1/(1-z)."""
    one = 1 if exact else 1.0
    zero = 0 if exact else 0.0
    rows = []
    for j in range(n1 + 1):
        w = t_coeffs[j] if t_coeffs else (one if j == 0 else zero)
        rows.append([w * one] * (n2 + 1))
    return Series2(rows, exact=exact)


def table_mul(t1: dict, t2: dict) -> dict:
    out = {}
    for (a1, b1), v1 in t1.items():
        for (a2, b2), v2 in t2.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) + v1 * v2
    return {k: v for k, v in out.items() if v}


def random_factor_product(rng: random.Random, n_factors: int,
                          max_power: int = 3) -> tuple:
    """Product of (lambda - c * zeta^p) factors; returns (table, [(c, p)])."""
    table = {(0, 0): Fraction(1)}
    factors = []
    for _ in range(n_factors):
        c = Fraction(rng.choice([x for x in range(-4, 5) if x]))
        p = rng.randint(0, max_power)
        factors.append((c, p))
        table = table_mul(table, {(1, 0): Fraction(1), (0, p): -c})
    return table, factors


def series1_close(a: Series1, b: Series1, tol: float = 1e-12) -> bool:
    if len(a.coeffs) != len(b.coeffs):
        return False
    scale = max([abs(complex(c)) for c in a.coeffs] + [1.0])
    return all(abs(complex(x) - complex(y)) <= tol * scale
               for x, y in zip(a.coeffs, b.coeffs))


@dataclass(frozen=True)
class CliResult:
    """One ``mpde`` run: its exit code, its stdout, ``output`` (stdout and
    stderr in the order they were written) and its stderr."""

    exit_code: int
    stdout: str
    output: str
    stderr: str


def run_cli(argv) -> CliResult:
    """Run ``cli.main(argv)`` in this process with both streams captured;
    main must end in SystemExit, whose code None reads as 0."""
    both = io.StringIO()

    class Tee(io.StringIO):
        def write(self, text):
            both.write(text)
            return super().write(text)

    out, err = Tee(), Tee()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        else:
            raise AssertionError(f"mpde {argv} returned without SystemExit")
    code = 0 if code is None else code if isinstance(code, int) else 1
    return CliResult(code, out.getvalue(), both.getvalue(),
                     err.getvalue())


def strict_json(text: str):
    """``json.loads`` of text that must be JSON: ``NaN``, ``Infinity`` and
    ``-Infinity``, which Python's reader accepts and strict parsers reject,
    raise ValueError."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)
