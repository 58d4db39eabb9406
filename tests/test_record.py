"""The ``record`` decorator against the frozen dataclass it stands in for."""

import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from functools import cached_property
from importlib import resources
from pathlib import Path

import pytest

import routes

import mpde
from mpde import charroots, moments, problem
from mpde.moments import MomentFunction
from mpde.record import record

PROBLEMS = resources.files("mpde") / "problems"


def twins(post_init=None):
    """The same class body decorated by ``record`` and by a frozen dataclass."""
    def make():
        class Point:
            a: int
            b: object
            c: str = "x"
        if post_init is not None:
            Point.__post_init__ = post_init
        return Point
    return record(make()), dataclasses.dataclass(frozen=True)(make())


VALUES = [(1, 2.5, "x"), (0, None, ""), (-3, (1, Fraction(1, 3)), "y"),
          (7, float("nan"), "z"), (2, [1, 2], "w")]


@pytest.mark.parametrize("args", VALUES)
def test_record_matches_a_frozen_dataclass_twin(args):
    R, D = twins()
    for r, d in ((R(*args), D(*args)), (R(*args[:2]), D(*args[:2])),
                 (R(c=args[2], b=args[1], a=args[0]),
                  D(c=args[2], b=args[1], a=args[0]))):
        assert repr(r) == repr(d)
        # equal field tuples; a tuple holding one NaN object equals itself,
        # which a dataclass's == matches up to Python 3.12 only
        assert (r == R(*args)) == ((r.a, r.b, r.c) == args)
        if args[1] == args[1]:
            assert (r == R(*args)) == (d == D(*args))
            assert (r != R(*args)) == (d != D(*args))
        assert (r == R(args[0] + 1, *args[1:])) is False
        try:
            expected = hash(d)
        except TypeError:
            with pytest.raises(TypeError):
                hash(r)
        else:
            assert hash(r) == expected
        assert (r == d) is False and r.__eq__(d) is NotImplemented
    assert R.__match_args__ == D.__match_args__ == ("a", "b", "c")
    match R(*args):
        case R(a, b, c):
            assert (a, b, c) == (args[0], args[1], args[2])


@pytest.mark.parametrize("args, kwargs", [
    ((), {}), ((1,), {"c": "y"}),                 # missing
    ((1, 2, "x", 4), {}),                         # extra
    ((1, 2), {"a": 1}), ((1,), {"b": 2, "a": 3}),  # duplicate
    ((1, 2), {"d": 4}),                           # unknown
])
def test_record_rejects_bad_arguments_as_the_dataclass_does(args, kwargs):
    R, D = twins()
    with pytest.raises(TypeError):
        D(*args, **kwargs)
    with pytest.raises(TypeError):
        R(*args, **kwargs)


def test_record_rejects_a_field_without_default_after_one_with():
    class Bad:
        a: int = 0
        b: int
    with pytest.raises(TypeError):
        record(Bad)


def test_record_fields_can_be_neither_assigned_nor_deleted():
    R, D = twins()
    for p in (R(1, 2), D(1, 2)):
        for name in ("a", "c", "fresh"):
            with pytest.raises(AttributeError):
                setattr(p, name, 5)
            with pytest.raises(AttributeError):
                delattr(p, name)
        assert (p.a, p.b, p.c) == (1, 2, "x")
    with pytest.raises(dataclasses.FrozenInstanceError):
        D(1, 2).a = 5


def test_record_post_init_runs_and_may_reset_fields():
    def post_init(self):
        object.__setattr__(self, "b", Fraction(self.b))
        if self.a < 0:
            raise ValueError("a must be non-negative")
    R, D = twins(post_init)
    r, d = R(1, 2), D(1, 2)
    assert type(r.b) is Fraction and repr(r) == repr(d)
    assert hash(r) == hash(d)
    for cls in (R, D):
        with pytest.raises(ValueError):
            cls(-1, 2)


def test_record_keeps_cached_property_working():
    calls = []

    @record
    class Cached:
        x: int

        @cached_property
        def square(self):
            calls.append(self.x)
            return self.x * self.x

    c = Cached(3)
    assert c.square == 9 and c.square == 9 and calls == [3]
    assert c == Cached(3) and hash(c) == hash(Cached(3))
    pf = problem.load_problem(str(PROBLEMS / "twofactor.json"))
    assert pf.parsed is pf.parsed
    cp = problem.assemble(pf, 4, 6, True)
    assert cp.fraction_tables is cp.fraction_tables


def record_classes() -> set:
    """Every class decorated by ``record`` in mpde and in ``routes``."""
    out = set()
    names = [info.name for info in
             pkgutil.iter_modules(mpde.__path__, "mpde.")] + ["routes"]
    for name in names:
        module = importlib.import_module(name)
        for value in vars(module).values():
            if (isinstance(value, type) and value.__module__ == name
                    and getattr(value.__init__, "__module__", None)
                    == "mpde.record"):
                out.add(value)
    return out


def test_every_record_repr_and_hash_match_its_dataclass_twin(monkeypatch):
    # instances from the pipeline on two shipped problems, each compared
    # with the frozen dataclass of the same name and field values
    classes = record_classes()
    assert len(classes) == 25
    made = {cls: [] for cls in classes}
    for cls in classes:
        def init(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            made[type(self)].append(self)
        monkeypatch.setattr(cls, "__init__", init)
    for name in ("heat", "twofactor"):
        pf = problem.load_problem(str(PROBLEMS / f"{name}.json"))
        problem.analyze_problem(pf)
        problem.solve_problem(pf, 6, 8, "exact")
        problem.verify_problem(pf, 1e-8, 6, 8, "float")
        problem.probe_problem(pf, 24, 8, "float")
        P = pf.parsed[0]
        charroots.validate_numeric(P, charroots.branches_at_infinity(P),
                                   [10.0, 100.0])
    routes.borel(MomentFunction(), routes.Series1([1, 2, 3]))
    moments.scaled_eval.__wrapped__(MomentFunction(), Fraction(1, 2))
    assert not [cls.__name__ for cls, found in made.items() if not found]
    for cls, instances in made.items():
        twin = dataclasses.make_dataclass(cls.__name__, cls.__match_args__,
                                          frozen=True)
        for x in instances[:3]:
            y = twin(**{name: getattr(x, name) for name in cls.__match_args__})
            assert repr(x) == repr(y)
            try:
                expected = hash(y)
            except TypeError:
                with pytest.raises(TypeError):
                    hash(x)
            else:
                assert hash(x) == expected


def test_record_classes_carry_their_own_docstrings():
    # a dataclass used to write a signature into a missing __doc__
    assert not [cls.__name__ for cls in record_classes() if not cls.__doc__]


@pytest.mark.parametrize("analyze", [False, True])
def test_cold_import_and_analyze_load_neither_dataclasses_nor_inspect(
        analyze, tmp_path):
    argv = ["analyze", str(PROBLEMS / "heat.json"),
            "--out", str(tmp_path / "report.json")]
    code = "import sys\nimport mpde\n" + (
        "import mpde.cli\n"
        "try:\n"
        f"    mpde.cli.main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n" if analyze else "") + (
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    src = Path(problem.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    assert (tmp_path / "report.json").exists() == analyze
