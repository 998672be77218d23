"""Quotient construction for positive-type functions."""

import tracemalloc

import numpy as np
import pytest

from abelian_spectra import (
    DualFunction,
    Group,
    GroupFunction,
    GroupMismatchError,
    InconsistencyError,
    PositiveTypeError,
    delta,
    gns_algebra_action,
    gns_construct,
    hermitian_form,
    inverse_fourier,
    make_group,
    reconstruct_phi,
)
from abelian_spectra import gns
from conftest import random_function, random_positive_type


def masked_positive_type(group, mask, rng):
    """Positive-type function whose transform support is exactly ``mask``."""
    spectrum = np.zeros(group.size)
    spectrum[mask] = rng.uniform(0.5, 2.0, size=len(mask))
    return inverse_fourier(DualFunction(group, spectrum.astype(complex)))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_point_mass_gives_the_full_quotient():
    G = make_group((4,))
    space = gns_construct(delta(G))
    assert space.rank == 4
    np.testing.assert_allclose(space.eigenvalues, np.ones(4), atol=1e-12)


def test_constant_function_gives_a_line():
    G = make_group((2,))
    space = gns_construct(GroupFunction(G, np.array([1.0, 1.0], dtype=complex)))
    assert space.rank == 1
    np.testing.assert_allclose(space.operator(G.element((1,))), [[1.0]], atol=1e-12)


def test_sign_character_gives_a_line_with_negative_action():
    G = make_group((2,))
    space = gns_construct(GroupFunction(G, np.array([1.0, -1.0], dtype=complex)))
    assert space.rank == 1
    np.testing.assert_allclose(space.operator(G.element((1,))), [[-1.0]], atol=1e-12)


def test_rank_equals_transform_support_size(rng):
    G = make_group((6,))
    phi = masked_positive_type(G, [0, 2, 4], rng)
    assert gns_construct(phi).rank == 3

    H = make_group((2, 4))
    phi = masked_positive_type(H, [1, 3, 5, 6], rng)
    assert gns_construct(phi).rank == 4


def test_non_positive_function_is_rejected_with_diagnostics():
    G = make_group((2,))
    with pytest.raises(PositiveTypeError) as exc:
        gns_construct(GroupFunction(G, np.array([1.0, 2.0], dtype=complex)))
    assert exc.value.residuals == {"min_fourier": pytest.approx(-1.0, abs=1e-9),
                                   "min_gram_eigenvalue": pytest.approx(-1.0, abs=1e-9)}
    assert "not of positive type" in str(exc.value)


def assert_closed_form_matches_the_dense_form(orders, rng):
    for weight in (1.0, 0.5):
        G = Group(orders, haar_weight=weight)
        mask = rng.choice(G.size, size=max(1, 2 * G.size // 3), replace=False)
        phi = masked_positive_type(G, mask, rng)
        space = gns_construct(phi)
        gram = hermitian_form(phi)
        dense = np.linalg.eigvalsh(gram)[::-1]
        scale = float(np.max(np.abs(dense)))
        np.testing.assert_allclose(space.eigenvalues, dense, rtol=0, atol=1e-12 * scale)
        assert space.rank == len(mask)
        # Q[g, s] = conj(<g|psi_s>) / sqrt(|G| lambda_s): the support characters
        # conjugated and scaled to unit form norm
        Q = (G.pairing_at(np.arange(G.size), space.support).conj()
             / np.sqrt(G.size * space.eigenvalues[:space.rank]))
        np.testing.assert_allclose(Q.conj().T @ gram @ Q, np.eye(space.rank), atol=1e-9)
        # the table-free accessors: one inverse transform of f read at the support
        f = random_function(G, rng)
        np.testing.assert_allclose(space.class_coordinates(f),
                                   (Q * space.eigenvalues[:space.rank]).conj().T @ f.values,
                                   rtol=0, atol=1e-12)
        summed = weight * sum(f(g) * space.operator(g) for g in G.elements)
        np.testing.assert_allclose(gns_algebra_action(space, f), summed, rtol=0, atol=1e-12)


def test_quotient_basis_is_orthonormal_for_the_form(small_group, rng):
    assert_closed_form_matches_the_dense_form(small_group.orders, rng)


@pytest.mark.parametrize("orders", [(4,), (6,), (2, 4), (3, 5, 2)])
def test_closed_form_matches_the_dense_form_on_mixed_shapes(orders, rng):
    assert_closed_form_matches_the_dense_form(orders, rng)


def traced_peak(compute):
    """compute()'s tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        compute()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_class_coordinates_of_a_full_rank_quotient_build_no_table():
    # a 65536 x 65536 table of the support characters would take 64 GiB
    G = make_group((65536,))
    space = gns_construct(delta(G))
    assert space.rank == G.size
    g = G.element((12345,))
    assert traced_peak(lambda: space.class_coordinates(delta(G, g))) < 16 * 2 ** 20


def test_operator_reads_one_row_of_the_pairing():
    # the dense 1024 x 1024 diagonal image is 16 MiB; a |G| x r table would add 16 more
    G = make_group((1024,))
    space = gns_construct(delta(G))
    g = G.element((5,))
    assert traced_peak(lambda: space.operator(g)) < 20 * 2 ** 20
    np.testing.assert_array_equal(np.diag(space.operator(g)),
                                  G.pairing_at([5], space.support)[0])


def test_construction_check_catches_a_wrong_spectrum(monkeypatch):
    G = make_group((4,))
    exact = gns.fourier

    def skewed(f):
        F = exact(f)
        return DualFunction(F.group, F.values * np.array([1.0, 1.0 + 1e-6, 1.0, 1.0]))

    monkeypatch.setattr(gns, "fourier", skewed)
    with pytest.raises(InconsistencyError, match="not eigenvectors of the form"):
        gns_construct(delta(G))


def test_construction_check_sees_each_wrong_support_value_at_rank_8(monkeypatch):
    # the random combinations weigh every support character, so a transform
    # value skewed by 1e-6 at any one of them raises
    G = make_group((16,))
    spectrum = np.zeros(G.size)
    support = [1, 3, 4, 7, 9, 12, 14, 15]
    spectrum[support] = np.linspace(0.5, 2.0, len(support))
    phi = inverse_fourier(DualFunction(G, spectrum.astype(complex)))
    assert gns_construct(phi).rank == 8
    exact = gns.fourier
    for s in support:
        def skewed(f, s=s):
            values = exact(f).values.copy()
            values[s] *= 1 + 1e-6
            return DualFunction(f.group, values)

        monkeypatch.setattr(gns, "fourier", skewed)
        with pytest.raises(InconsistencyError, match="not eigenvectors of the form"):
            gns_construct(phi)


def test_class_coordinates_requires_the_same_group():
    space = gns_construct(delta(make_group((2,))))
    other = delta(make_group((3,)))
    with pytest.raises(GroupMismatchError):
        space.class_coordinates(other)
    with pytest.raises(GroupMismatchError):
        gns_algebra_action(space, other)


# ---------------------------------------------------------------------------
# the quotient representation
# ---------------------------------------------------------------------------

def test_operators_are_unitary_and_multiply_like_the_group(small_group, rng):
    phi = random_positive_type(small_group, rng)
    space = gns_construct(phi)
    G = small_group
    eye = np.eye(space.rank)
    for g in G.elements:
        U = space.operator(g)
        np.testing.assert_allclose(U.conj().T @ U, eye, atol=1e-9)
    a, b = G.elements[0], G.elements[-1]
    np.testing.assert_allclose(
        space.operator(G.op(a, b)), space.operator(a) @ space.operator(b), atol=1e-9)


def test_representation_passes_validation(small_group, rng):
    phi = random_positive_type(small_group, rng)
    space = gns_construct(phi)
    rep = space.representation()
    assert rep.dim == space.rank


def test_cyclic_vector_has_norm_phi_at_identity(rng):
    G = make_group((2, 3))
    phi = random_positive_type(G, rng)
    space = gns_construct(phi)
    assert np.vdot(space.eta, space.eta).real == pytest.approx(
        phi(G.identity).real, rel=1e-9)


def test_matrix_coefficient_of_eta_recovers_phi(small_group, rng):
    phi = random_positive_type(small_group, rng)
    space = gns_construct(phi)
    for i, g in enumerate(small_group.elements):
        coeff = np.vdot(space.eta, space.operator(g) @ space.eta)
        assert coeff == pytest.approx(phi.values[i], abs=1e-9)


def test_eta_is_cyclic(small_group, rng):
    phi = random_positive_type(small_group, rng)
    space = gns_construct(phi)
    orbit = np.column_stack([space.operator(g) @ space.eta for g in small_group.elements])
    assert np.linalg.matrix_rank(orbit, tol=1e-8) == space.rank


def test_reconstruct_phi_round_trips(small_group, rng):
    phi = random_positive_type(small_group, rng)
    space = gns_construct(phi)
    assert np.max(np.abs(reconstruct_phi(space).values - phi.values)) < 1e-9


def test_reconstruct_phi_on_frozen_cases():
    G = make_group((4,))
    np.testing.assert_allclose(
        reconstruct_phi(gns_construct(delta(G))).values, [1, 0, 0, 0], atol=1e-12)
    H = make_group((2,))
    ones = GroupFunction(H, np.ones(2, dtype=complex))
    np.testing.assert_allclose(
        reconstruct_phi(gns_construct(ones)).values, [1.0, 1.0], atol=1e-12)


# ---------------------------------------------------------------------------
# the algebra action on the quotient
# ---------------------------------------------------------------------------

def test_algebra_action_on_point_masses(small_group, rng):
    phi = random_positive_type(small_group, rng)
    space = gns_construct(phi)
    np.testing.assert_allclose(
        gns_algebra_action(space, delta(small_group)), np.eye(space.rank), atol=1e-9)
    g = small_group.elements[-1]
    np.testing.assert_allclose(
        gns_algebra_action(space, delta(small_group, g)), space.operator(g), atol=1e-9)


def test_algebra_action_is_the_weighted_operator_sum(rng):
    G = make_group((4,))
    space = gns_construct(delta(G))
    f = random_function(G, rng)
    expected = sum(f.values[i] * space.operator(g) for i, g in enumerate(G.elements))
    np.testing.assert_allclose(gns_algebra_action(space, f), expected, atol=1e-10)


def test_algebra_action_turns_convolution_into_composition(rng):
    from abelian_spectra import convolve
    G = make_group((2, 3))
    phi = random_positive_type(G, rng)
    space = gns_construct(phi)
    f, h = random_function(G, rng), random_function(G, rng)
    np.testing.assert_allclose(
        gns_algebra_action(space, convolve(f, h)),
        gns_algebra_action(space, f) @ gns_algebra_action(space, h), atol=1e-9)


def test_algebra_action_applied_to_eta_gives_class_coordinates(small_group, rng):
    phi = random_positive_type(small_group, rng)
    space = gns_construct(phi)
    f = random_function(small_group, rng)
    np.testing.assert_allclose(
        gns_algebra_action(space, f) @ space.eta,
        space.class_coordinates(f), atol=1e-9)


# ---------------------------------------------------------------------------
# the Haar weight is threaded through every formula
# ---------------------------------------------------------------------------

def test_haar_weight_scaling():
    G = Group((2,), haar_weight=2.0)
    space = gns_construct(delta(G))
    assert space.rank == 2
    # eta still has norm phi(identity) = 1
    assert np.vdot(space.eta, space.eta).real == pytest.approx(1.0, rel=1e-12)
    # the matrix coefficient still recovers phi
    for i, g in enumerate(G.elements):
        coeff = np.vdot(space.eta, space.operator(g) @ space.eta)
        assert coeff == pytest.approx(delta(G).values[i], abs=1e-12)
    # the algebra action picks up one factor of the weight
    np.testing.assert_allclose(
        gns_algebra_action(space, delta(G)), 2.0 * np.eye(2), atol=1e-12)


def test_weighted_reconstruction_round_trips(rng):
    G = Group((2, 2), haar_weight=0.5)
    phi = random_positive_type(G, rng)
    space = gns_construct(phi)
    assert np.max(np.abs(reconstruct_phi(space).values - phi.values)) < 1e-9
