"""The package namespace, what a CLI process loads, and the semantics of the
package's record and value types."""

import dataclasses
import importlib
import os
import subprocess
import sys

import numpy as np
import pytest

import perspex
from perspex import (
    Breakpoints,
    ConvexFunction,
    DomainError,
    Interval,
    PowerFn,
    RelaxationKind,
    bracket_gap,
    build_underestimator,
    gradient_system,
    make_body,
    mc_volume,
    newton_optimize,
    single_point_bounds,
    sweep_optimal_points,
)

UNIT = Interval(0.0, 1.0)
SRC = os.path.dirname(os.path.dirname(perspex.__file__))
WATCHED = ("numpy.random", "dataclasses")
# what every command imports: the front end and the modules it reads at the top
FRONT = {"perspex.cli", "perspex.errors", "perspex.power", "perspex.underestimator"}


def _loaded(code):
    """The perspex modules and the modules of ``WATCHED`` that a fresh
    process has loaded after running ``code``."""
    code += (
        "\nimport sys\n"
        f"print(','.join(m for m in sys.modules if m.startswith('perspex.') or m in {WATCHED!r}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return set(filter(None, proc.stdout.strip().split(",")))


def _loaded_by_cli(argv):
    return _loaded(
        "import contextlib, io\n"
        "from perspex import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({list(argv)!r}) == 0\n"
    )


class TestLoadBudget:
    DOMAIN = ("--p", "3", "--l", "0", "--u", "1")

    def test_importing_the_package_imports_none_of_its_modules(self):
        assert _loaded("import perspex") == set()

    @pytest.mark.parametrize(
        "argv",
        [
            ("compare", "--l", "0", "--u", "1", "--gap", "1e-3"),
            ("volume", *DOMAIN, "--equal", "4", "--relax", "plpr"),
            ("volume", *DOMAIN, "--equal", "4", "--relax", "plenr"),
        ],
        ids=["compare", "volume-plpr", "volume-plenr"],
    )
    def test_closed_forms_load_no_solver_and_no_oracle(self, argv):
        assert _loaded_by_cli(argv) == FRONT

    @pytest.mark.parametrize(
        "argv",
        [
            ("optimize", *DOMAIN, "--n", "4"),
            ("sweep", "--l", "0", "--u", "1", "--n", "4", "--p-grid", "1.5,3"),
            ("volume", *DOMAIN, "--optimize", "4"),
        ],
        ids=["optimize", "sweep", "volume-optimize"],
    )
    def test_solver_commands_load_no_oracle(self, argv):
        assert _loaded_by_cli(argv) == FRONT | {"perspex.placement"}

    def test_mc_loads_no_solver(self):
        argv = ("mc", *self.DOMAIN, "--equal", "4", "--relax", "plpr", "--samples", "8192")
        loaded = _loaded_by_cli(argv)
        assert FRONT | {"perspex.mc", "perspex._columns"} <= loaded
        assert "perspex.placement" not in loaded


class TestNamespace:
    def test_every_public_name_resolves_to_its_module_attribute(self):
        for name in perspex.__all__[:-1]:
            module = importlib.import_module(f"perspex.{perspex._SOURCE[name]}")
            assert getattr(perspex, name) is getattr(module, name), name
        assert perspex.__all__[-1] == "__version__" and perspex.__version__ == "0.1.0"

    def test_star_import_yields_exactly_all(self):
        namespace = {}
        exec("from perspex import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(perspex.__all__)
        assert len(set(perspex.__all__)) == len(perspex.__all__)

    def test_unknown_names_raise_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'volume_cubic'"):
            perspex.volume_cubic  # noqa: B018
        assert not hasattr(perspex, "_columns_table")

    def test_module_helpers_are_not_package_names(self):
        # read through their modules, as the tests and benchmarks do
        for module, name in (("placement", "solve_tridiagonal"), ("mc", "BLOCK_SIZE")):
            assert name not in perspex.__all__ and not hasattr(perspex, name), name
            assert hasattr(importlib.import_module(f"perspex.{module}"), name), name

    def test_dir_lists_the_public_names(self):
        assert set(perspex.__all__) <= set(dir(perspex))

    def test_names_are_read_from_their_module_on_every_access(self, monkeypatch):
        # nothing is copied into the package, so a patch of the defining
        # module reaches every caller, and undoing it restores the name
        original = perspex.gradient_system
        sentinel = object()
        monkeypatch.setattr(perspex.power, "gradient_system", sentinel)
        assert perspex.gradient_system is sentinel
        assert "gradient_system" not in vars(perspex)
        monkeypatch.undo()
        assert perspex.gradient_system is original


_PF = PowerFn(3.0, UNIT)
_BP = Breakpoints.equally_spaced(UNIT, 3)
# two calls of each make two instances with equal contents
RECORDS = {
    "Breakpoints": lambda: Breakpoints.equally_spaced(UNIT, 3),
    "ConvexFunction": lambda: ConvexFunction(fn=_PF, deriv=_PF.deriv, interval=UNIT),
    "PowerFn.oracle": _PF.oracle,
    "PLUnderEstimator": lambda: build_underestimator(_PF.oracle(), _BP),
    "GradientSystem": lambda: gradient_system(_PF, _BP),
    "BodySpec": lambda: make_body(RelaxationKind.PL_PR, _PF, _BP),
    "SweepResult": lambda: sweep_optimal_points(UNIT, 3, [1.5, 3.0]),
}


class TestClassSemantics:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: Interval(0.0, 1.0),
            lambda: PowerFn(3.0, Interval(0.0, 1.0)),
            lambda: single_point_bounds(PowerFn(3.0, Interval(0.0, 1.0))),
            lambda: bracket_gap(3.0, 0.25),
        ],
        ids=["Interval", "PowerFn", "SinglePointBounds", "BracketGap"],
    )
    def test_value_types_compare_and_hash_by_value(self, make):
        a, b = make(), make()
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
        assert a == tuple(b)  # records are tuples

    def test_value_types_differ_by_value(self):
        assert Interval(0.0, 1.0) != Interval(0.0, 2.0)
        assert PowerFn(3.0, UNIT) != PowerFn(3.5, UNIT)
        assert PowerFn(3.0, UNIT) != PowerFn(3.0, Interval(0.5, 1.0))

    @pytest.mark.parametrize(
        "make", [*RECORDS.values(), lambda: newton_optimize(_PF, 3)[1]],
        ids=[*RECORDS, "NewtonTrace"],
    )
    def test_other_types_compare_and_hash_by_identity(self, make):
        a, b = make(), make()
        assert a == a and not a != a
        assert a != b and not a == b
        assert hash(a) == object.__hash__(a)
        assert len({a, b}) == 2

    @pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS)
    def test_fields_are_read_only(self, make):
        obj = make()
        for field in obj._fields:
            with pytest.raises(AttributeError):
                setattr(obj, field, getattr(obj, field))
        with pytest.raises(AttributeError):  # slots: no instance dict
            obj.extra = 1

    def test_value_type_fields_are_read_only(self):
        for obj in (UNIT, PowerFn(3.0, UNIT), single_point_bounds(PowerFn(3.0, UNIT)),
                    bracket_gap(3.0, 0.25)):
            for field in obj._fields:
                with pytest.raises(AttributeError):
                    setattr(obj, field, getattr(obj, field))
            with pytest.raises(AttributeError):
                obj.extra = 1

    def test_replace_and_make_validate(self):
        # namedtuple's _make and _replace build through the validating __new__
        with pytest.raises(DomainError):
            Interval(0.0, 1.0)._replace(lower=2.0)
        with pytest.raises(DomainError):
            Interval._make([3.0, 1.0])
        with pytest.raises(DomainError):
            PowerFn(3.0, UNIT)._replace(p=0.5)
        with pytest.raises(DomainError):
            _BP._replace(xi=[5.0, 1.0])
        with pytest.raises(DomainError):
            ConvexFunction(fn=_PF, deriv=_PF.deriv, interval=UNIT)._replace(
                fn=lambda x: -1.0)
        est = build_underestimator(_PF.oracle(), _BP)
        with pytest.raises(DomainError):
            est._replace(x=est.x[::-1])
        # valid fields still build the type, and the arrays stay read-only copies
        assert Interval(0.0, 1.0)._replace(upper=2.0) == Interval(0.0, 2.0)
        assert type(Interval._make([0.0, 2.0])) is Interval
        assert PowerFn(3.0, UNIT)._replace(p=2.5) == PowerFn(2.5, UNIT)
        xi = np.array([0.0, 0.5, 1.0])
        moved = _BP._replace(xi=xi)
        assert type(moved) is Breakpoints and moved.xi is not xi
        assert not moved.xi.flags.writeable
        assert type(_PF.oracle()._replace(interval=UNIT)) is type(_PF.oracle())
        assert (est._replace(y=est.y).x == est.x).all()

    def test_arrays_are_read_only_copies(self):
        xi = np.linspace(0.0, 1.0, 4)
        bp = Breakpoints(UNIT, xi)
        assert bp.xi is not xi and not bp.xi.flags.writeable
        est = build_underestimator(PowerFn(3.0, UNIT).oracle(), bp)
        assert not est.x.flags.writeable and not est.y.flags.writeable
        with pytest.raises(ValueError):
            est.x[0] = 1.0

    def test_value_type_reprs(self):
        assert repr(UNIT) == "Interval(lower=0.0, upper=1.0)"
        assert repr(PowerFn(3.0, UNIT)) == (
            "PowerFn(p=3.0, interval=Interval(lower=0.0, upper=1.0))")
        assert repr(bracket_gap(2.0, 0.5)) == (
            "BracketGap(p=2.0, endpoint_ratio=0.5, value=0.0)")
        assert repr(single_point_bounds(PowerFn(2.0, UNIT))) == (
            "SinglePointBounds(lower=0.5, upper=0.5, half=0.5, power_mean=0.5)")

    def test_power_oracle_skips_the_positivity_probe(self):
        calls = []

        class Counting(PowerFn):
            __slots__ = ()

            def __call__(self, x):
                calls.append(x)
                return super().__call__(x)

        Counting(3.0, UNIT).oracle()
        assert calls == []
        ConvexFunction(fn=Counting(3.0, UNIT), deriv=lambda x: 3.0 * x * x, interval=UNIT)
        assert len(calls) == 64

    def test_mc_estimate_is_a_frozen_dataclass(self):
        iv = Interval(0.5, 1.0)
        est = mc_volume(make_body(RelaxationKind.PR, PowerFn(2.0, iv)), 8192, seed=1)
        moved = dataclasses.replace(est, mean=est.mean + 1.0)
        assert moved.mean == est.mean + 1.0 and moved.stderr == est.stderr
        assert moved != est and dataclasses.replace(est) == est
        with pytest.raises(dataclasses.FrozenInstanceError):
            est.mean = 0.0
