"""Shared helpers for the test suite."""

import numpy as np
import pytest

from abelian_spectra import Group, GroupFunction, make_group


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)


def random_function(group: Group, rng: np.random.Generator) -> GroupFunction:
    values = rng.normal(size=group.size) + 1j * rng.normal(size=group.size)
    return GroupFunction(group, values)


def random_positive_type(group: Group, rng: np.random.Generator) -> GroupFunction:
    """A positive-type function with a uniformly positive transform."""
    from abelian_spectra import DualFunction, inverse_fourier

    spectrum = rng.uniform(0.5, 2.0, size=group.size)
    return inverse_fourier(DualFunction(group, spectrum.astype(complex)))


@pytest.fixture
def non_idempotent_measure(monkeypatch):
    """Scale the Q factor of every ``np.linalg.qr`` by 1 + 1e-6.

    ``spectral_measure`` orthonormalises each block's eigenvectors by QR and
    writes B Q in place of the block B, so on a one-factor representation
    such as the regular representation of Z_4 its basis becomes
    (1 + 1e-6) times a unitary: the projections B_c B_c^dagger stop being
    idempotent, while every eigenvalue keeps its label.
    """
    qr = np.linalg.qr

    def scaled(a, *args, **kwargs):
        out = qr(a, *args, **kwargs)
        return out._replace(Q=out.Q * (1 + 1e-6))

    monkeypatch.setattr(np.linalg, "qr", scaled)


SMALL_ORDER_LISTS = [(1,), (2,), (3,), (4,), (5,), (2, 2), (2, 3), (2, 4), (2, 2, 2), (3, 3)]


@pytest.fixture(params=SMALL_ORDER_LISTS, ids=lambda o: "x".join(map(str, o)))
def small_group(request):
    return make_group(request.param)
