"""The oracle module's boundary: a leaf that no production request calls, and
whose every route the self-test exercises."""

import ast
import importlib
import inspect
import pkgutil
from functools import cached_property
from pathlib import Path

import numpy as np

import abelian_spectra
from abelian_spectra import DualFunction, cli, delta, make_group, oracle, regular_representation
from abelian_spectra.fileio import dump_json, function_to_payload, representation_to_payload
from abelian_spectra.representations import UnitaryRep

ROUTES = [fn for _, fn in inspect.getmembers(oracle, inspect.isfunction)
          if fn.__module__ == oracle.__name__]


def package_modules() -> list:
    return [importlib.import_module(f"abelian_spectra.{info.name}")
            for info in pkgutil.iter_modules(abelian_spectra.__path__)] + [abelian_spectra]


def rebind(monkeypatch, replace) -> None:
    """Rebind every oracle route wherever the package holds it, and
    ``UnitaryRep.operators``, to ``replace(route)``."""
    for module in package_modules():
        for key, value in list(vars(module).items()):
            if any(value is fn for fn in ROUTES):
                monkeypatch.setattr(module, key, replace(value))
    prop = cached_property(replace(UnitaryRep.__dict__["operators"].func))
    prop.__set_name__(UnitaryRep, "operators")
    monkeypatch.setattr(UnitaryRep, "operators", prop)


def test_oracle_imports_nothing_from_the_package_but_errors():
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported <= {"__future__", "numpy", ".errors"}, imported
    assert {"hermitian_form", "operator_stack", "operator_at", "reconstruction_residual",
            "joint_eigenprojections"} <= {fn.__name__ for fn in ROUTES}


def test_no_production_request_calls_an_oracle(tmp_path, monkeypatch, capsys):
    G = make_group((2, 4))
    phi, xi, rep = tmp_path / "phi.json", tmp_path / "xi.json", tmp_path / "rep.json"
    dump_json(function_to_payload(delta(G)), phi)
    dump_json(function_to_payload(DualFunction(G, np.linspace(1.0, 2.0, G.size))), xi)
    dump_json(representation_to_payload(regular_representation(G)), rep)

    def raiser(route):
        def called(*args, **kwargs):
            raise AssertionError(f"{route.__name__} ran in a production request")
        return called

    rebind(monkeypatch, raiser)
    out = str(tmp_path / "out.json")
    for argv in (["fourier", "--input", str(phi)],
                 ["fourier", "--direction", "inverse", "--input", str(xi)],
                 ["gns", "--input", str(phi)],
                 ["decompose", "--input", str(rep)],
                 ["rig", "--input", str(rep)],
                 ["rig", "--input", str(rep), "--xi", str(xi)]):
        assert cli.main(argv + ["--output", out]) == 0, argv
    capsys.readouterr()


def test_the_smallest_selftest_calls_every_oracle_route(tmp_path, monkeypatch, capsys):
    calls = {}

    def counter(route):
        def counted(*args, **kwargs):
            calls[route.__name__] = calls.get(route.__name__, 0) + 1
            return route(*args, **kwargs)
        return counted

    rebind(monkeypatch, counter)
    assert cli.main(["selftest", "--max-group-size", "4", "--max-dim", "2",
                     "--output", str(tmp_path / "s.json")]) == 0
    capsys.readouterr()
    assert sorted(calls) == sorted(fn.__name__ for fn in ROUTES)


def test_no_other_module_defines_an_oracle_route():
    for module in package_modules():
        for fn in ROUTES:
            assert vars(module).get(fn.__name__, fn) is fn, (module.__name__, fn.__name__)
