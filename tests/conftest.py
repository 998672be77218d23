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
    """Scale the unit character's projection by 1 + 1e-6 inside spectral_measure.

    That character is in the support of a regular representation, so its
    P(chi) stops being idempotent while its rank stays the same.
    """
    from abelian_spectra import representations

    transform = representations._transform

    def perturbed(group, values):
        out = transform(group, values)
        out[0] *= 1 + 1e-6
        return out

    monkeypatch.setattr(representations, "_transform", perturbed)


SMALL_ORDER_LISTS = [(1,), (2,), (3,), (4,), (5,), (2, 2), (2, 3), (2, 4), (2, 2, 2), (3, 3)]


@pytest.fixture(params=SMALL_ORDER_LISTS, ids=lambda o: "x".join(map(str, o)))
def small_group(request):
    return make_group(request.param)
