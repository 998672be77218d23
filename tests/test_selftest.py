"""The seeded property suite: registry, determinism, failure reporting."""

import json
from dataclasses import replace

import numpy as np
import pytest

import abelian_spectra.selftest as selftest_mod
from abelian_spectra import Group, make_group, regular_representation
from abelian_spectra.oracle import joint_eigenprojections
from abelian_spectra.selftest import (
    ERROR_RESIDUAL,
    PROPERTIES,
    PropertyResult,
    SelftestConfig,
    random_multiplicity_free_representation,
    random_orders,
    run_property,
    run_selftest,
    random_unitary,
)


SMALL = SelftestConfig(max_group_size=8, max_dim=4)

# (name, cases, tolerance) of every property, in suite order; the case counts
# and tolerances do not depend on the configuration
REGISTRY = [
    ("pairing-homomorphism", 100, 1e-09),
    ("character-orthogonality", 10, 1e-09),
    ("element-order", 50, 1e-09),
    ("transform-roundtrip", 12, 1e-12),
    ("plancherel", 12, 1e-12),
    ("convolution-theorem", 10, 1e-10),
    ("convolution-algebra", 8, 1e-09),
    ("involution-transform", 8, 1e-09),
    ("positivity-route-agreement", 20, 0.0),
    ("gram-translation-invariance", 6, 1e-12),
    ("projection-validity", 8, 1e-09),
    ("projection-reconstruction", 8, 1e-09),
    ("projection-oracle-agreement", 8, 1e-07),
    ("projection-algebra-action", 6, 1e-09),
    ("component-invariance", 6, 1e-09),
    ("diagonalization", 6, 1e-09),
    ("ket-completeness", 6, 1e-09),
    ("functional-calculus-group-law", 6, 1e-10),
    ("quotient-reconstruction", 8, 1e-09),
    ("quotient-representation", 6, 1e-09),
    ("quotient-rank-support", 8, 0.0),
    ("quotient-cyclicity", 6, 0.0),
    ("quotient-algebra-action", 6, 1e-09),
    ("eigenvector-system", 6, 1e-09),
    ("operator-reconstruction", 5, 1e-09),
    ("eigenvalue-equation", 5, 1e-09),
    ("intertwiner", 5, 1e-09),
    ("functional-coordinate-agreement", 5, 1e-10),
    ("eigenvector-orthonormality", 5, 1e-09),
    ("serialization-roundtrip", 8, 0.0),
]


def test_registry_has_thirty_uniquely_named_properties():
    names = [name for name, _ in PROPERTIES]
    assert len(names) == 30
    assert len(set(names)) == 30
    assert all(name == name.lower() and " " not in name for name in names)


@pytest.mark.parametrize("name", [name for name, _ in PROPERTIES])
def test_each_property_passes_on_a_small_config(name):
    result = run_property(name, SMALL)
    assert result.passed, result.line()
    assert result.max_residual <= result.tolerance
    assert result.cases > 0


@pytest.mark.parametrize("cfg", [SMALL, SelftestConfig(), SelftestConfig(max_group_size=4, max_dim=2),
                                 SelftestConfig(max_group_size=64, max_dim=16, seed=1)],
                         ids=["small", "default", "4-d2", "64-d16"])
def test_every_property_keeps_its_name_case_count_and_tolerance(cfg):
    results, _ = run_selftest(cfg)
    assert [(res.name, res.cases, res.tolerance) for res in results] == REGISTRY


def test_run_property_is_deterministic():
    a = run_property("plancherel", SMALL)
    b = run_property("plancherel", SMALL)
    assert a == b


def test_unknown_property_name_is_rejected():
    with pytest.raises(KeyError):
        run_property("no-such-property", SMALL)


def test_result_lines_are_formatted():
    ok = PropertyResult(name="demo", passed=True, max_residual=1.5e-12,
                        tolerance=1e-9, cases=7)
    assert ok.line() == "[ ok ] demo: max residual 1.500e-12 (tol 1.0e-09, 7 cases)"
    bad = PropertyResult(name="demo", passed=False, max_residual=2.0,
                         tolerance=1e-9, cases=7, detail="boom")
    assert bad.line().startswith("[FAIL] demo:")
    assert bad.line().endswith("— boom")


def test_run_selftest_report_is_json_safe_and_complete():
    results, report = run_selftest(SMALL)
    text = json.dumps(report, allow_nan=False)  # must not smuggle NaN/inf
    parsed = json.loads(text)
    assert parsed["passed"] is True
    assert len(parsed["properties"]) == len(results) == 30
    assert parsed["max_group_size"] == 8 and parsed["max_dim"] == 4


@pytest.mark.parametrize("name, target, attribute", [
    ("pairing-homomorphism", Group, "pairing"),
    ("transform-roundtrip", selftest_mod, "fourier"),
    ("projection-validity", selftest_mod, "spectral_measure"),
    ("quotient-reconstruction", selftest_mod, "gns_construct"),
    ("eigenvector-system", selftest_mod, "build_decomposition"),
], ids=["groups", "transforms", "spectral", "quotient", "rigging"])
def test_failing_property_is_reported_with_a_finite_sentinel(monkeypatch, name, target,
                                                             attribute):
    from abelian_spectra.errors import InconsistencyError

    def explode(*args, **kwargs):
        raise InconsistencyError("synthetic failure")

    monkeypatch.setattr(target, attribute, explode)
    result = run_property(name, SMALL)
    assert not result.passed
    assert result.max_residual == ERROR_RESIDUAL
    assert np.isfinite(result.max_residual)
    assert result.cases == 1
    assert "synthetic failure" in (result.detail or "")
    # and the full run still renders to strict JSON with the failure recorded
    _, report = run_selftest(SMALL)
    json.dumps(report, allow_nan=False)
    assert report["passed"] is False


def mix_first_two_eigenvectors(decomp, angle=1e-6):
    """The decomposition with its first two eigenvector coordinates rotated
    into each other: still orthonormal, no longer eigenvectors."""
    C = decomp.coords.copy()
    if len(C) > 1:
        a, b = decomp.coords[:2]
        c, s = np.cos(angle), np.sin(angle)
        C[0], C[1] = c * a + s * b, c * b - s * a
    return replace(decomp, coords=C)


@pytest.mark.parametrize("name, attribute, corrupt", [
    ("operator-reconstruction", "build_decomposition", mix_first_two_eigenvectors),
    ("eigenvalue-equation", "build_decomposition", mix_first_two_eigenvectors),
    ("projection-algebra-action", "apply_algebra", lambda out: out * (1 + 1e-6)),
    ("quotient-algebra-action", "gns_algebra_action", lambda out: out * (1 + 1e-6)),
])
def test_each_all_group_relation_catches_a_corruption(monkeypatch, name, attribute, corrupt):
    original = getattr(selftest_mod, attribute)
    monkeypatch.setattr(selftest_mod, attribute,
                        lambda *args, **kwargs: corrupt(original(*args, **kwargs)))
    result = run_property(name, SMALL)
    assert not result.passed
    assert result.tolerance < result.max_residual < ERROR_RESIDUAL


def test_quotient_algebra_action_is_relative_to_the_size_of_f_at_1024_elements():
    # the round-off of the diagonal powers grows with |G|: the absolute gap
    # read 2.0e-10 at --max-group-size 1024, and correct code would cross the
    # 1e-9 tolerance near 4096; divided by haar * sum |f| it stays at round-off
    result = run_property("quotient-algebra-action",
                          SelftestConfig(max_group_size=1024, max_dim=8, seed=0))
    assert result.passed
    assert result.max_residual < 1e-11


def test_trivial_group_configuration_runs():
    results, report = run_selftest(SelftestConfig(max_group_size=1, max_dim=2))
    assert report["passed"] is True
    assert all(res.passed for res in results)


def test_random_orders_respect_the_size_bound():
    rng = np.random.default_rng(5)
    for _ in range(200):
        orders = random_orders(rng, 12)
        size = int(np.prod(orders))
        assert 1 <= size <= 12


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(6)
    U = random_unitary(rng, 5)
    np.testing.assert_allclose(U.conj().T @ U, np.eye(5), atol=1e-12)


def test_multiplicity_free_generator_matches_its_name():
    from abelian_spectra import spectral_measure
    rng = np.random.default_rng(7)
    for _ in range(10):
        G = make_group(random_orders(rng, 8))
        rep = random_multiplicity_free_representation(rng, G, max_dim=4)
        pvm = spectral_measure(rep)
        assert all(m == 1 for m in pvm.multiplicities)


def test_oracle_agrees_on_the_regular_representation():
    G = make_group((2, 3))
    rep = regular_representation(G)
    oracle = joint_eigenprojections(rep)
    from abelian_spectra import spectral_measure
    pvm = spectral_measure(rep)
    assert set(oracle) == set(pvm.support)
    for chi, proj in oracle.items():
        np.testing.assert_allclose(proj, pvm.projection(chi), atol=1e-9)


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_a_non_finite_residual_fails_at_the_finite_sentinel(monkeypatch, value):
    monkeypatch.setattr(selftest_mod, "reconstruction_residual", lambda pvm: value)
    result = run_property("projection-reconstruction", SMALL)
    assert not result.passed
    assert result.max_residual == ERROR_RESIDUAL


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_selftest_command_exits_4_on_a_non_finite_residual(monkeypatch, capsys, value):
    from abelian_spectra import cli
    monkeypatch.setattr(selftest_mod, "reconstruction_residual", lambda pvm: value)
    code = cli.main(["selftest"])
    out, err = capsys.readouterr()
    assert code == 4
    report = json.loads(out)
    assert report["passed"] is False
    failed = [p for p in report["properties"] if p["name"] == "projection-reconstruction"]
    assert failed[0]["max_residual"] == ERROR_RESIDUAL
    assert "Traceback" not in err


def test_rig_properties_read_each_quotient_off_its_model(monkeypatch):
    # the six rig properties build 31 quotients in closed form: no
    # gns_construct call, no forward transform of phi, no construction-check draw
    from abelian_spectra import gns
    calls = dict.fromkeys(("quotient_from_cyclic", "gns_construct", "fourier", "draws"), 0)
    for module, name in ((selftest_mod, "quotient_from_cyclic"),
                         (selftest_mod, "gns_construct"), (gns, "fourier")):
        def spy(*args, _name=name, _call=getattr(module, name)):
            calls[_name] += 1
            return _call(*args)
        monkeypatch.setattr(module, name, spy)
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *args: calls.update(
        draws=calls["draws"] + (args == (0,))) or default_rng(*args))
    rig = ["eigenvector-system", "operator-reconstruction", "eigenvalue-equation",
           "intertwiner", "functional-coordinate-agreement", "eigenvector-orthonormality"]
    results = [run_property(name, SelftestConfig()) for name in rig]
    assert all(res.passed for res in results)
    assert calls == {"quotient_from_cyclic": 31, "gns_construct": 0, "fourier": 0, "draws": 0}
