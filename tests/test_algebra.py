"""Convolution algebra, transforms, and the positive-type test."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelian_spectra import (
    DualFunction,
    Group,
    GroupFunction,
    GroupMismatchError,
    ShapeMismatchError,
    character_function,
    convolve,
    delta,
    fourier,
    hermitian_form,
    inverse_fourier,
    involution,
    is_positive_type,
    make_group,
)
from conftest import SMALL_ORDER_LISTS, random_function, random_positive_type


# ---------------------------------------------------------------------------
# function containers
# ---------------------------------------------------------------------------

def test_group_function_evaluates_by_element():
    G = make_group((2, 2))
    f = GroupFunction(G, np.array([1.0, 2.0, 3.0, 4.0], dtype=complex))
    assert f(G.element((0, 1))) == 2.0
    assert f(G.element((1, 1))) == 4.0


def test_dual_function_evaluates_by_character():
    G = make_group((3,))
    F = DualFunction(G, np.array([5.0, 6.0, 7.0], dtype=complex))
    assert F(G.character((2,))) == 7.0


def test_function_length_is_checked():
    G = make_group((3,))
    with pytest.raises(ShapeMismatchError):
        GroupFunction(G, np.zeros(2))
    with pytest.raises(ShapeMismatchError):
        DualFunction(G, np.zeros(4))


def test_delta_is_a_point_mass():
    G = make_group((2, 2))
    np.testing.assert_array_equal(delta(G).values, [1, 0, 0, 0])
    np.testing.assert_array_equal(delta(G, G.element((1, 0))).values, [0, 0, 1, 0])


def test_character_function_samples_the_pairing():
    G = make_group((4,))
    f = character_function(G, G.character((1,)))
    np.testing.assert_allclose(f.values, [1, 1j, -1, -1j], atol=1e-15)


# ---------------------------------------------------------------------------
# convolution and involution
# ---------------------------------------------------------------------------

def test_convolution_of_point_masses_adds_their_locations():
    G = make_group((2,))
    f = GroupFunction(G, np.array([1.0, 0.0], dtype=complex))
    h = GroupFunction(G, np.array([0.0, 1.0], dtype=complex))
    np.testing.assert_allclose(convolve(f, h).values, [0.0, 1.0], atol=1e-15)


def test_convolution_with_constant_function():
    G = make_group((3,))
    ones = GroupFunction(G, np.ones(3, dtype=complex))
    point = GroupFunction(G, np.array([1.0, 0.0, 0.0], dtype=complex))
    np.testing.assert_allclose(convolve(ones, point).values, [1.0, 1.0, 1.0], atol=1e-15)


def test_delta_is_the_convolution_identity(small_group, rng):
    f = random_function(small_group, rng)
    np.testing.assert_allclose(
        convolve(f, delta(small_group)).values, f.values, atol=1e-12)
    np.testing.assert_allclose(
        convolve(delta(small_group), f).values, f.values, atol=1e-12)


def test_convolution_by_a_point_mass_translates():
    G = make_group((2, 3))
    rng = np.random.default_rng(7)
    f = random_function(G, rng)
    a = G.element((1, 2))
    shifted = convolve(f, delta(G, a))
    np.testing.assert_allclose(shifted.values, f.values[G.translate_indices(a)], atol=1e-12)


def test_convolution_requires_matching_groups():
    f = GroupFunction(make_group((2,)), np.ones(2))
    h = GroupFunction(make_group((3,)), np.ones(3))
    with pytest.raises(GroupMismatchError):
        convolve(f, h)


def test_involution_negates_the_argument_and_conjugates():
    Z3 = make_group((3,))
    f = GroupFunction(Z3, np.array([0.0, 1.0, 0.0], dtype=complex))
    np.testing.assert_array_equal(involution(f).values, [0.0, 0.0, 1.0])

    Z2 = make_group((2,))
    h = GroupFunction(Z2, np.array([1j, 2.0]))
    np.testing.assert_array_equal(involution(h).values, [-1j, 2.0])


def test_involution_is_an_involution(small_group, rng):
    f = random_function(small_group, rng)
    np.testing.assert_allclose(involution(involution(f)).values, f.values, atol=0)


def test_involution_fixes_real_even_functions():
    G = make_group((4,))
    f = GroupFunction(G, np.array([3.0, 1.0, 5.0, 1.0], dtype=complex))  # f(g) = f(-g)
    np.testing.assert_array_equal(involution(f).values, f.values)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def test_transform_of_point_mass_is_constant_one():
    G = make_group((4,))
    np.testing.assert_allclose(fourier(delta(G)).values, np.ones(4), atol=1e-15)


def test_transform_on_z2():
    G = make_group((2,))
    np.testing.assert_allclose(
        fourier(GroupFunction(G, np.array([1.0, 1.0], dtype=complex))).values,
        [2.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(
        fourier(GroupFunction(G, np.array([0.0, 1.0], dtype=complex))).values,
        [1.0, -1.0], atol=1e-15)


def test_inverse_transform_on_z2():
    G = make_group((2,))
    F = DualFunction(G, np.array([2.0, 0.0], dtype=complex))
    np.testing.assert_allclose(inverse_fourier(F).values, [1.0, 1.0], atol=1e-15)


def test_inverse_transform_of_constant_is_point_mass():
    G = make_group((4,))
    F = DualFunction(G, np.ones(4, dtype=complex))
    np.testing.assert_allclose(inverse_fourier(F).values, delta(G).values, atol=1e-15)


def test_transform_of_character_concentrates_on_it():
    G = make_group((3,))
    F = fourier(character_function(G, G.character((1,))))
    np.testing.assert_allclose(F.values, [0.0, 3.0, 0.0], atol=1e-12)


def test_transform_roundtrip_on_random_functions(rng):
    for orders in [(2,), (5,), (2, 3), (4, 4), (2, 2, 3)]:
        G = make_group(orders)
        for _ in range(20):
            f = random_function(G, rng)
            back = inverse_fourier(fourier(f))
            assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_transform_rejects_wrong_domain():
    G = make_group((2,))
    with pytest.raises(GroupMismatchError):
        fourier(DualFunction(G, np.ones(2)))
    with pytest.raises(GroupMismatchError):
        inverse_fourier(GroupFunction(G, np.ones(2)))


def test_transform_scales_with_the_haar_weight():
    G = Group((2,), haar_weight=2.0)
    np.testing.assert_allclose(fourier(delta(G)).values, [2.0, 2.0], atol=1e-15)
    # and the inverse compensates
    f = GroupFunction(G, np.array([1.0, -0.5], dtype=complex))
    np.testing.assert_allclose(inverse_fourier(fourier(f)).values, f.values, atol=1e-14)


@pytest.mark.parametrize("weight", [1.0, 0.5])
@pytest.mark.parametrize("orders", SMALL_ORDER_LISTS + [(6,), (3, 5, 2)],
                         ids=lambda o: "x".join(map(str, o)))
def test_fft_engine_matches_direct_sums(orders, weight, rng):
    """The FFT route equals the dense sums over the pairing and difference tables."""
    G = Group(orders, haar_weight=weight)
    f, h = random_function(G, rng), random_function(G, rng)
    table = G.pairing_table()
    diff = G.difference_indices()
    np.testing.assert_allclose(fourier(f).values, weight * np.conj(table) @ f.values,
                               rtol=0, atol=1e-12)
    F = DualFunction(G, f.values)
    np.testing.assert_allclose(inverse_fourier(F).values,
                               table @ F.values / (weight * G.size), rtol=0, atol=1e-12)
    np.testing.assert_allclose(convolve(f, h).values, weight * h.values[diff] @ f.values,
                               rtol=0, atol=1e-12)


def test_plancherel_identity(small_group, rng):
    G = small_group
    w = G.haar_weight
    for _ in range(5):
        f = random_function(G, rng)
        lhs = w * float(np.sum(np.abs(f.values) ** 2))
        rhs = float(np.sum(np.abs(fourier(f).values) ** 2)) / (w * G.size)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_convolution_theorem(small_group, rng):
    G = small_group
    f, h = random_function(G, rng), random_function(G, rng)
    lhs = fourier(convolve(f, h)).values
    rhs = fourier(f).values * fourier(h).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-10 * max(1.0, np.max(np.abs(rhs))))


def test_involution_conjugates_the_transform(small_group, rng):
    f = random_function(small_group, rng)
    np.testing.assert_allclose(
        fourier(involution(f)).values, np.conj(fourier(f).values), atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=2), st.integers(0, 2 ** 31))
def test_convolution_is_commutative(orders, seed):
    G = make_group(orders)
    rng = np.random.default_rng(seed)
    f, h = random_function(G, rng), random_function(G, rng)
    np.testing.assert_allclose(convolve(f, h).values, convolve(h, f).values, atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=2), st.integers(0, 2 ** 31))
def test_convolution_is_associative(orders, seed):
    G = make_group(orders)
    rng = np.random.default_rng(seed)
    f, h, k = (random_function(G, rng) for _ in range(3))
    np.testing.assert_allclose(
        convolve(convolve(f, h), k).values,
        convolve(f, convolve(h, k)).values, atol=1e-9)


# ---------------------------------------------------------------------------
# the Hermitian form and the positive-type test
# ---------------------------------------------------------------------------

def test_hermitian_form_of_point_mass_is_identity():
    G = make_group((3,))
    np.testing.assert_allclose(hermitian_form(delta(G)), np.eye(3), atol=1e-15)


def test_hermitian_form_includes_the_squared_weight():
    G = Group((3,), haar_weight=2.0)
    np.testing.assert_allclose(hermitian_form(delta(G)), 4.0 * np.eye(3), atol=1e-15)


def test_hermitian_form_of_constant_function():
    G = make_group((2,))
    phi = GroupFunction(G, np.array([1.0, 1.0], dtype=complex))
    np.testing.assert_allclose(hermitian_form(phi), [[1.0, 1.0], [1.0, 1.0]], atol=1e-15)


def test_hermitian_form_entries_sample_differences():
    G = make_group((3,))
    a = np.exp(2j * np.pi / 3)
    phi = GroupFunction(G, np.array([1.0, a, np.conj(a)]))
    M = hermitian_form(phi)
    # row g', column g holds phi(g - g')
    for i, gi in enumerate(G.elements):
        for j, gj in enumerate(G.elements):
            expected = phi(G.op(gj, G.neg(gi)))
            assert M[i, j] == pytest.approx(expected, abs=1e-15)
    np.testing.assert_allclose(M, M.conj().T, atol=1e-15)


def test_hermitian_form_of_positive_type_function_is_psd(small_group, rng):
    phi = random_positive_type(small_group, rng)
    eigs = np.linalg.eigvalsh(hermitian_form(phi))
    assert eigs.min() > -1e-10


def test_positive_type_accepts_constant_one():
    G = make_group((2,))
    report = is_positive_type(GroupFunction(G, np.array([1.0, 1.0], dtype=complex)))
    assert report.verdict is True
    assert report.min_fourier == pytest.approx(0.0, abs=1e-12)


def test_positive_type_rejects_with_diagnostics():
    G = make_group((2,))
    report = is_positive_type(GroupFunction(G, np.array([1.0, 2.0], dtype=complex)))
    assert report.verdict is False
    # transform is [3, -1]: the negative value is reported on both routes
    assert report.min_fourier == pytest.approx(-1.0, abs=1e-9)
    assert report.min_gram_eigenvalue == pytest.approx(-1.0, abs=1e-9)


def test_positive_type_point_mass(small_group):
    report = is_positive_type(delta(small_group))
    assert report.verdict is True
    assert report.min_gram_eigenvalue == pytest.approx(
        small_group.haar_weight ** 2, rel=1e-9)


def test_positive_type_report_round_trips_to_dict():
    G = make_group((2,))
    report = is_positive_type(delta(G))
    d = report.as_dict()
    assert set(d) == {"verdict", "min_fourier", "min_gram_eigenvalue",
                      "max_fourier_imag", "max_gram_imag", "tol"}
    assert d["verdict"] is True


def test_positive_type_flags_non_hermitian_symbols():
    # phi(g) != conj(phi(-g)) forces a complex transform
    G = make_group((3,))
    report = is_positive_type(GroupFunction(G, np.array([1.0, 1.0, 0.0], dtype=complex)))
    assert report.verdict is False
    assert report.max_fourier_imag > 0.1


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=2), st.integers(0, 2 ** 31))
def test_positive_type_routes_agree_on_random_spectra(orders, seed):
    """Functions synthesised from a real spectrum get the expected verdict."""
    G = make_group(orders)
    rng = np.random.default_rng(seed)
    spectrum = rng.uniform(-1.0, 2.0, size=G.size)
    phi = inverse_fourier(DualFunction(G, spectrum.astype(complex)))
    report = is_positive_type(phi)
    assert report.verdict == bool(spectrum.min() >= -report.tol)
    assert report.min_fourier == pytest.approx(float(spectrum.min()), abs=1e-9)
