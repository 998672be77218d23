"""Every overflow, relation and residual check raises through ``errors.stage``
and ``errors.check``: the error names its stage, in ``stage`` and in its
message, carries the failed residuals by key, and keeps its class, so the
CLI keeps its exit code."""

import os
import sys

import numpy as np
import pytest

from abelian_spectra import (DualFunction, GroupFunction, UnitaryRep, cli, delta, gns,
                             make_group, make_representation, regular_representation)
from abelian_spectra import algebra
from abelian_spectra.errors import (AbelianSpectraError, InconsistencyError,
                                    NumericalDegeneracyError, RepresentationValidationError,
                                    check, describe, stage)
from abelian_spectra.gns import gns_construct
from abelian_spectra.representations import cyclic_decomposition, spectral_measure
from abelian_spectra.rigging import build_decomposition, phi_from_cyclic, quotient_from_cyclic


def flat_on_support(model, value):
    values = np.zeros(model.group.size, dtype=complex)
    values[model.columns] = value
    return DualFunction(model.group, values)


def planted_model(orders, dim):
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    from workloads import planted_representation
    generators, _ = planted_representation(np.random.default_rng(3), orders, dim, 1)
    return cyclic_decomposition(spectral_measure(make_representation(make_group(orders),
                                                                     generators)))[0]


def raised(call, *args, **kwargs):
    with pytest.raises(AbelianSpectraError) as info:
        call(*args, **kwargs)
    return info.value


def assert_names(exc, cls, name, key):
    assert type(exc) is cls
    assert exc.stage == name
    assert str(exc).startswith(name)
    assert key in exc.residuals


@pytest.mark.parametrize("direction, cls", [("forward", GroupFunction),
                                            ("inverse", DualFunction)])
def test_an_overflowing_transform_names_its_direction(monkeypatch, direction, cls):
    # the fourier command's own stage, fed a parsed function in place of a file
    f = cls(make_group((4,)), [1e308] * 4)
    monkeypatch.setattr(cli, "function_from_payload", lambda payload, size_cap: f)
    monkeypatch.setattr(cli, "_load", lambda path: None)
    args = cli.build_parser().parse_args(["fourier", "--input", "-", "--direction", direction])
    exc = raised(cli.cmd_fourier, args, 1e-9)
    assert_names(exc, NumericalDegeneracyError, f"{direction} transform", "nonfinite")
    assert exc.residuals["nonfinite"] > 0


def test_an_overflowing_transform_of_phi_names_it():
    exc = raised(gns_construct, GroupFunction(make_group((4,)), [1e308] * 4))
    assert_names(exc, NumericalDegeneracyError, "transform of phi", "nonfinite")


def test_an_overflowing_construction_check_names_it():
    exc = raised(gns_construct, GroupFunction(make_group((256,)), 3e307 * np.eye(256)[0]))
    assert_names(exc, NumericalDegeneracyError, "form applied to the support characters",
                 "nonfinite")


def test_the_construction_check_bound_names_its_stage(monkeypatch):
    exact = gns.fourier

    def skewed(f):
        values = exact(f).values.copy()
        values[3] *= 1 + 1e-6
        return DualFunction(f.group, values)

    monkeypatch.setattr(gns, "fourier", skewed)
    exc = raised(gns_construct, delta(make_group((64,))))
    assert_names(exc, InconsistencyError, "form applied to the support characters", "RMS gap")
    assert exc.residuals["RMS gap"] > 1e-12
    assert "not eigenvectors of the form (RMS gap" in str(exc)


def test_an_overflowing_phi_of_the_cyclic_amplitude_names_it():
    model = cyclic_decomposition(spectral_measure(regular_representation(make_group((4,)))))[0]
    exc = raised(phi_from_cyclic, model, DualFunction(model.group, [1e200] * 4))
    assert_names(exc, NumericalDegeneracyError, "phi of the cyclic amplitude", "nonfinite")


def test_an_overflowing_spectrum_of_the_cyclic_amplitude_names_it():
    # one support character: phi is |xi|^2 = 1e308 everywhere, the spectrum 4 times that
    G = make_group((4,))
    model = cyclic_decomposition(spectral_measure(make_representation(G, [np.eye(1)])))[0]
    xi = DualFunction(G, [1e154, 0, 0, 0])
    assert np.isfinite(phi_from_cyclic(model, xi).values).all()
    exc = raised(quotient_from_cyclic, model, xi)
    assert_names(exc, NumericalDegeneracyError, "spectrum of the cyclic amplitude", "nonfinite")


def test_an_overflowing_identity_check_names_it():
    model = planted_model((256,), 8)
    xi = flat_on_support(model, 4.642e152)
    exc = raised(build_decomposition, quotient_from_cyclic(model, xi), xi)
    assert_names(exc, NumericalDegeneracyError, "inner-product identity check", "nonfinite")


def test_the_identity_bound_names_its_stage():
    model = planted_model((16,), 4)
    xi = flat_on_support(model, 1.0)
    exc = raised(build_decomposition, quotient_from_cyclic(model, xi), xi, tol=1e-300)
    assert_names(exc, InconsistencyError, "inner-product identity check",
                 "inner-product identity residual")
    assert "inner-product identity residual" in str(exc).split(": ", 1)[1]


def test_a_non_unitary_generator_names_its_relation():
    shear = np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex)
    exc = raised(make_representation, make_group((2, 2)), [np.eye(2), shear])
    assert_names(exc, RepresentationValidationError, "unitary[1]", "residual")
    assert str(exc) == "unitary[1]: generator 1 not unitary (residual 1.732e+00)"


def test_non_commuting_generators_name_their_relation():
    X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    exc = raised(make_representation, make_group((2, 2)), [X, np.diag([1.0, -1.0])])
    assert_names(exc, RepresentationValidationError, "commute[0,1]", "residual")
    assert "generators 0 and 1 do not commute (residual" in str(exc)


def test_a_generator_of_the_wrong_order_names_its_relation():
    exc = raised(make_representation, make_group((3,)), [np.diag([1.0, -1.0])])
    assert_names(exc, RepresentationValidationError, "order[0]", "residual")
    assert "generator 0 does not have order dividing 3 (residual" in str(exc)


def test_a_measure_that_is_not_complete_names_the_key(non_idempotent_measure):
    exc = raised(spectral_measure, regular_representation(make_group((4,))))
    assert_names(exc, NumericalDegeneracyError, "projection-valued measure", "completeness")


def test_a_measure_that_is_not_invariant_names_the_key():
    X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    c, s = np.cos(1e-6), np.sin(1e-6)
    R = np.array([[c, -s], [s, c]], dtype=complex)
    rep = UnitaryRep(group=make_group((2, 2)), dim=2, generators=(X, R @ X @ R.conj().T))
    exc = raised(spectral_measure, rep)
    assert_names(exc, NumericalDegeneracyError, "projection-valued measure", "invariance")
    assert list(exc.residuals) == ["invariance"]


def test_a_measure_with_a_mislabelled_eigenvalue_names_the_key(monkeypatch):
    eig = np.linalg.eig

    def shifted(a):
        lam, V = eig(a)
        lam[..., 0] *= 1j
        return lam, V

    monkeypatch.setattr(np.linalg, "eig", shifted)
    exc = raised(spectral_measure, regular_representation(make_group((4,))))
    assert_names(exc, NumericalDegeneracyError, "projection-valued measure", "restriction")
    assert exc.residuals == {"restriction": pytest.approx(2 ** 0.5)}


def test_split_positivity_routes_name_their_stage(monkeypatch):
    # the dense route sees a form of eigenvalue -1 where the transform is 1
    monkeypatch.setattr(algebra, "hermitian_form", lambda phi: -np.eye(phi.group.size))
    exc = raised(algebra.is_positive_type, delta(make_group((4,))))
    assert_names(exc, InconsistencyError, "positive-type routes", "min gap")
    assert str(exc).startswith("positive-type routes disagree: min eigenvalue -1.000000e+00")


def test_check_passes_at_the_bound_fails_on_nan_and_formats_only_on_failure():
    check("never {formatted}", {"a": 1.0, "b": 0.5}, 1.0)  # no field needed on success
    exc = raised(check, "step {j}", {"a": 0.5, "b": float("nan"), "c": 2.0}, 1.0, j=3)
    assert_names(exc, NumericalDegeneracyError, "step 3", "b")
    assert exc.residuals.keys() == {"b", "c"}
    assert str(exc) == "step 3 violates its invariants (b nan, c 2.000e+00)"
    assert describe({"x": 1.0, "y": 2e-10}) == "x 1.000e+00, y 2.000e-10"


def test_a_stage_tags_package_errors_raised_in_it_and_silences_overflow():
    def broken():
        raise InconsistencyError("broken")

    def nested():
        np.float64(1e308) * 10  # no RuntimeWarning inside a stage
        return stage("inner", broken)

    exc = raised(stage, "outer", nested)
    assert exc.stage == "inner" and exc.residuals == {}
    assert raised(stage, "outer", broken).stage == "outer"
    assert stage("finite", lambda: 2.0) == 2.0
    exc = raised(stage, "scalar", lambda: np.float64(1e308) * 10)
    assert_names(exc, NumericalDegeneracyError, "scalar", "nonfinite")
    assert exc.residuals == {"nonfinite": 1}
    assert InconsistencyError("outside").stage is None
