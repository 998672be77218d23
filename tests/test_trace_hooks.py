"""The benchmark's per-layer tracer still finds every name it patches.

``perfbench/tracer.py`` wraps package functions, methods and cached
properties by name; a rename in the package would break traced benchmark
runs without failing any other test.
"""

import importlib
import sys
from pathlib import Path

from abelian_spectra import cli, delta, gns, make_group, regular_representation
from abelian_spectra.fileio import dump_json, function_to_payload, representation_to_payload

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import METHODS, MODULES, PROPERTIES, Tracer  # noqa: E402


def _patchable_state() -> dict:
    """Every attribute the tracer may rebind, keyed by owner and name."""
    modules = {name: importlib.import_module(f"abelian_spectra.{name}") for name in MODULES}
    owners = list(modules.values()) + [
        getattr(modules[module], cls) for module, cls, *_ in METHODS + PROPERTIES]
    state = {(id(owner), key): value for owner in owners for key, value in vars(owner).items()}
    state.update({("commands", key): value for key, value in cli._COMMANDS.items()})
    return state


def test_tracer_records_quotient_spans_and_restores_the_package(tmp_path, capsys):
    phi = tmp_path / "phi.json"
    dump_json(function_to_payload(delta(make_group((4,)))), phi)
    rep = tmp_path / "rep.json"
    dump_json(representation_to_payload(regular_representation(make_group((2, 2)))), rep)
    before = _patchable_state()

    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["gns", "--input", str(phi), "--output", str(tmp_path / "g.json")]) == 0
        assert cli.main(["rig", "--input", str(rep), "--output", str(tmp_path / "r.json")]) == 0
    finally:
        tracer.uninstall()

    assert {"gns.gns_construct", "cli.gns", "cli.rig", "representations.cyclic_decomposition",
            "representations.diagonalize"} <= set(tracer.names)
    # gns reports the support the generator diagonals follow from: it neither
    # reads them nor builds dense images (both names still resolve)
    assert not {"gns.generator_images", "gns.representation"} & set(tracer.names)
    assert {"generator_images", "representation"} <= set(vars(gns.GNSSpace))
    # production quotients never build the dense form or run its eigenvalue route
    assert not {"algebra.hermitian_form", "algebra.is_positive_type",
                "groups.difference_indices"} & set(tracer.names)
    after = _patchable_state()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []


def test_traced_rig_checks_the_operator_relations_in_one_pass(tmp_path):
    rep = tmp_path / "rep.json"
    dump_json(representation_to_payload(regular_representation(make_group((2, 2)))), rep)

    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["rig", "--input", str(rep), "--output", str(tmp_path / "r.json")]) == 0
    finally:
        tracer.uninstall()

    names = set(tracer.names)
    assert {"rigging.build_decomposition", "rigging.intertwiner"} <= names
    assert not {"rigging.eigen_residual", "rigging.reconstruct_operator"} & names
    # no transform of phi: the quotient is read off the model, and the identity
    # check transforms its test functions as two stacks, below fourier
    assert tracer.self_times().get("algebra.fourier", (0.0, 0))[1] == 0


def test_traced_decompose_records_the_spectral_spans_and_restores_the_package(tmp_path):
    rep = tmp_path / "rep.json"
    dump_json(representation_to_payload(regular_representation(make_group((2, 2)))), rep)
    before = _patchable_state()

    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["decompose", "--input", str(rep),
                         "--output", str(tmp_path / "d.json")]) == 0
    finally:
        tracer.uninstall()

    assert {"representations.spectral_measure", "representations.cyclic_decomposition",
            "representations.diagonalize", "cli.decompose"} <= set(tracer.names)
    # the measure and the relation certificate use the generators, never the stack
    assert not {"representations.operators", "representations.reconstruction_residual",
                "representations.diagonalization_residual"} & set(tracer.names)
    after = _patchable_state()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []


def test_traced_selftest_counts_the_oracles_under_their_old_names(tmp_path):
    # the oracles live in ``oracle``; the tracer wraps them where the benchmark's
    # layers name them, so a re-import that bound another object would leave
    # these counts at 0
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["selftest", "--max-group-size", "4", "--max-dim", "2",
                         "--output", str(tmp_path / "s.json")]) == 0
    finally:
        tracer.uninstall()

    calls = {name: count for name, (_, count) in tracer.self_times().items()}
    for name in ("algebra.hermitian_form", "representations.reconstruction_residual",
                 "representations.diagonalization_residual", "representations.operators"):
        assert calls.get(name, 0) >= 1, name
