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
    """Scale the m = 0 power U^0 = I of each generator-power stack by 1 + 1e-6.

    ``spectral_measure`` transforms the powers of each generator along the
    power axis, so every P_j(c) gains 1e-6 I / n_j: the projections of a
    one-factor representation such as the regular representation of Z_4
    stop being idempotent, while their ranks, read off the traces, stay
    the same.
    """
    from abelian_spectra import representations

    generator_powers = representations.generator_powers

    def perturbed(U, n):
        out = generator_powers(U, n)
        out[0] *= 1 + 1e-6
        return out

    monkeypatch.setattr(representations, "generator_powers", perturbed)


SMALL_ORDER_LISTS = [(1,), (2,), (3,), (4,), (5,), (2, 2), (2, 3), (2, 4), (2, 2, 2), (3, 3)]


@pytest.fixture(params=SMALL_ORDER_LISTS, ids=lambda o: "x".join(map(str, o)))
def small_group(request):
    return make_group(request.param)
