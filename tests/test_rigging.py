"""Generalized-eigenvector systems over quotient representations."""

import numpy as np
import pytest

from abelian_spectra import (
    DualFunction,
    Group,
    GroupFunction,
    GroupMismatchError,
    InconsistencyError,
    NotCyclicError,
    SupportError,
    build_decomposition,
    cyclic_decomposition,
    delta,
    diagonalize,
    eigen_residual,
    fourier,
    gns_construct,
    hermitian_form,
    intertwiner,
    inverse_fourier,
    make_group,
    make_representation,
    phi_from_cyclic,
    reconstruct_operator,
    regular_representation,
    spectral_measure,
    trivial_representation,
)
from abelian_spectra import rigging
from conftest import random_function


def regular_model(group):
    pvm = spectral_measure(regular_representation(group))
    return diagonalize(cyclic_decomposition(pvm)[0], pvm)


def ones_amplitude(group):
    return DualFunction(group, np.ones(group.size, dtype=complex))


def rigged_system(group, xi=None, rng=None):
    """model -> phi -> quotient -> decomposition for the regular component."""
    model = regular_model(group)
    if xi is None:
        xi = ones_amplitude(group)
    phi = phi_from_cyclic(model, xi)
    space = gns_construct(phi)
    decomp = build_decomposition(space, xi, rng=rng)
    return model, phi, space, decomp


# ---------------------------------------------------------------------------
# phi_from_cyclic
# ---------------------------------------------------------------------------

def test_flat_amplitude_on_the_regular_model_gives_a_point_mass():
    G = make_group((4,))
    phi = phi_from_cyclic(regular_model(G), ones_amplitude(G))
    np.testing.assert_allclose(phi.values, [4.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_single_character_amplitude_gives_a_constant():
    G = make_group((3,))
    pvm = spectral_measure(trivial_representation(G, dim=1))
    model = diagonalize(cyclic_decomposition(pvm)[0], pvm)
    phi = phi_from_cyclic(model, ones_amplitude(G))
    np.testing.assert_allclose(phi.values, np.ones(3), atol=1e-12)


def test_amplitude_moduli_weight_the_characters():
    G = make_group((2,))
    xi = DualFunction(G, np.array([3.0, 4.0], dtype=complex))
    phi = phi_from_cyclic(regular_model(G), xi)
    # 9 <g|chi_0> + 16 <g|chi_1>
    np.testing.assert_allclose(phi.values, [25.0, -7.0], atol=1e-12)
    # only the modulus matters
    xi_rot = DualFunction(G, np.array([3j, -4.0], dtype=complex))
    np.testing.assert_allclose(
        phi_from_cyclic(regular_model(G), xi_rot).values, phi.values, atol=1e-12)


def test_produced_function_is_positive_type(small_group, rng):
    from abelian_spectra import is_positive_type
    xi = DualFunction(small_group,
                      rng.normal(size=small_group.size)
                      + 1j * rng.normal(size=small_group.size))
    # keep the amplitude away from zero so it stays cyclic
    xi = DualFunction(small_group, xi.values + 3.0)
    phi = phi_from_cyclic(regular_model(small_group), xi)
    assert is_positive_type(phi).verdict is True


def test_vanishing_amplitude_on_the_support_is_rejected():
    G = make_group((2,))
    xi = DualFunction(G, np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(NotCyclicError):
        phi_from_cyclic(regular_model(G), xi)


def test_amplitude_must_share_the_group():
    G = make_group((2,))
    with pytest.raises(GroupMismatchError):
        phi_from_cyclic(regular_model(G), ones_amplitude(make_group((3,))))


# ---------------------------------------------------------------------------
# building the eigenvector system
# ---------------------------------------------------------------------------

def test_two_point_system_on_z2():
    G = make_group((2,))
    _, _, space, decomp = rigged_system(G)
    assert [chi.coords for chi in decomp.support] == [(0,), (1,)]
    assert [vec.weight for vec in decomp.eigenvectors] == [1.0, 1.0]
    assert decomp.nu == {G.character((0,)): 1.0, G.character((1,)): 1.0}
    assert decomp.identity_residual < 1e-9
    for vec in decomp.eigenvectors:
        assert np.linalg.norm(vec.coords) == pytest.approx(1.0, abs=1e-12)


def test_weights_record_the_amplitude_moduli():
    G = make_group((2,))
    xi = DualFunction(G, np.array([3.0, -4.0], dtype=complex))
    _, _, _, decomp = rigged_system(G, xi)
    assert [vec.weight for vec in decomp.eigenvectors] == [3.0, 4.0]


def test_eigenvector_coordinates_are_orthonormal(rng):
    G = make_group((6,))
    _, _, space, decomp = rigged_system(G, rng=rng)
    V = np.column_stack([vec.coords for vec in decomp.eigenvectors])
    np.testing.assert_allclose(V.conj().T @ V, np.eye(space.rank), atol=1e-10)


def test_functional_action_is_the_weighted_transform_at_the_inverse():
    G = make_group((3,))
    pvm = spectral_measure(trivial_representation(G, dim=1))
    model = diagonalize(cyclic_decomposition(pvm)[0], pvm)
    xi = DualFunction(G, np.array([2.0, 0.0, 0.0], dtype=complex))
    space = gns_construct(phi_from_cyclic(model, xi))
    decomp = build_decomposition(space, xi)
    assert len(decomp.eigenvectors) == 1
    rng = np.random.default_rng(11)
    f = random_function(G, rng)
    expected = 2.0 * np.conj(fourier(f).values[0])  # the unit character is its own inverse
    assert decomp.eigenvectors[0].act(f) == pytest.approx(expected, abs=1e-12)


def test_functional_action_agrees_with_quotient_coordinates(rng):
    G = make_group((2, 3))
    _, phi, space, decomp = rigged_system(G)
    for _ in range(5):
        f = random_function(G, rng)
        coords = space.class_coordinates(f)
        for vec in decomp.eigenvectors:
            assert vec.act(f) == pytest.approx(
                complex(np.vdot(coords, vec.coords)), abs=1e-9)
    # the inner-product identity over fresh pairs
    for _ in range(20):
        f, h = random_function(G, rng), random_function(G, rng)
        lhs = complex(f.values.conj() @ (hermitian_form(phi) @ h.values))
        rhs = sum(vec.act(f) * np.conj(vec.act(h)) for vec in decomp.eigenvectors)
        assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(lhs)))


def test_support_count_must_match_the_rank():
    G = make_group((3,))
    pvm = spectral_measure(trivial_representation(G, dim=1))
    model = diagonalize(cyclic_decomposition(pvm)[0], pvm)
    xi = DualFunction(G, np.array([1.0, 0.0, 0.0], dtype=complex))
    space = gns_construct(phi_from_cyclic(model, xi))  # rank 1
    wide = DualFunction(G, np.array([1.0, 1.0, 0.0], dtype=complex))
    with pytest.raises(InconsistencyError, match="supported on 2 characters"):
        build_decomposition(space, wide)


def test_mismatched_quotient_is_caught_by_the_identity_check():
    # delta has unit transform weight everywhere, so a flat amplitude has the
    # right support count but the wrong inner product; the identity check
    # must refuse to certify it.
    G = make_group((2,))
    space = gns_construct(delta(G))
    with pytest.raises(InconsistencyError, match="identity residual"):
        build_decomposition(space, ones_amplitude(G))


def test_decomposition_requires_matching_groups():
    G = make_group((2,))
    _, _, space, _ = rigged_system(G)
    with pytest.raises(GroupMismatchError):
        build_decomposition(space, ones_amplitude(make_group((3,))))


def test_eigenvector_lookup_rejects_missing_characters():
    G = make_group((4,))
    U = np.diag([1.0, -1.0]).astype(complex)  # spectrum {chi_0, chi_2}
    pvm = spectral_measure(make_representation(G, [U]))
    model = diagonalize(cyclic_decomposition(pvm)[0], pvm)
    xi = DualFunction(G, np.array([1.0, 0.0, 1.0, 0.0], dtype=complex))
    space = gns_construct(phi_from_cyclic(model, xi))
    decomp = build_decomposition(space, xi)
    assert [chi.coords for chi in decomp.support] == [(0,), (2,)]
    with pytest.raises(SupportError):
        decomp.eigenvector(G.character((1,)))
    with pytest.raises(SupportError):
        eigen_residual(decomp, space, G.element((1,)), G.character((1,)))


# ---------------------------------------------------------------------------
# reconstruction and the eigenvalue equation
# ---------------------------------------------------------------------------

def test_identity_reconstructs_from_completeness():
    G = make_group((2,))
    _, _, space, decomp = rigged_system(G)
    np.testing.assert_allclose(
        reconstruct_operator(decomp, space, G.identity), np.eye(2), atol=1e-12)


def test_operator_reconstruction_on_z2():
    G = make_group((2,))
    _, _, space, decomp = rigged_system(G)
    g = G.element((1,))
    np.testing.assert_allclose(
        reconstruct_operator(decomp, space, g), space.operator(g), atol=1e-12)


@pytest.mark.parametrize("orders", [(2,), (6,), (2, 4), (3, 3)])
def test_operator_reconstruction_everywhere(orders):
    G = make_group(orders)
    _, _, space, decomp = rigged_system(G)
    for g in G.elements:
        np.testing.assert_allclose(
            reconstruct_operator(decomp, space, g), space.operator(g), atol=1e-10)


def test_eigen_residuals_vanish_on_z6():
    G = make_group((6,))
    _, _, space, decomp = rigged_system(G)
    for g in G.elements:
        for chi in decomp.support:
            assert eigen_residual(decomp, space, g, chi) < 1e-10


def test_eigenvalue_is_the_conjugated_pairing():
    G = make_group((2,))
    _, _, space, decomp = rigged_system(G)
    g = G.element((1,))
    vec = decomp.eigenvector(G.character((1,)))
    moved = space.operator(g).conj().T @ vec.coords
    np.testing.assert_allclose(moved, -vec.coords, atol=1e-12)


def test_reconstruction_with_uneven_weights(rng):
    G = make_group((2, 2))
    xi = DualFunction(G, np.array([1.0, 2.0, 0.5, 1.5], dtype=complex))
    _, _, space, decomp = rigged_system(G, xi, rng=rng)
    for g in G.elements:
        np.testing.assert_allclose(
            reconstruct_operator(decomp, space, g), space.operator(g), atol=1e-10)
        for chi in decomp.support:
            assert eigen_residual(decomp, space, g, chi) < 1e-10


# ---------------------------------------------------------------------------
# the intertwiner onto the diagonal model
# ---------------------------------------------------------------------------

def test_intertwiner_is_unitary_and_intertwines_on_z2():
    G = make_group((2,))
    model, _, space, _ = rigged_system(G)
    result = intertwiner(space, model, ones_amplitude(G))
    assert result.unitarity_residual < 1e-12
    assert result.intertwining_residual < 1e-12
    # rows are the support characters' unit coordinates: a permutation, here
    # the identity because the tied eigenvalues keep enumeration order
    np.testing.assert_allclose(np.abs(result.matrix), np.eye(2), atol=1e-12)


def test_intertwiner_maps_classes_to_transforms(rng):
    G = make_group((6,))
    model, _, space, _ = rigged_system(G)
    result = intertwiner(space, model, ones_amplitude(G))
    for _ in range(5):
        f = random_function(G, rng)
        image = result.matrix @ space.class_coordinates(f)
        expected = np.array([
            fourier(f).values[G.character_index(G.neg_character(chi))]
            for chi in model.support])
        np.testing.assert_allclose(image, expected, atol=1e-9)


def test_intertwiner_scalar_case():
    G = make_group((3,))
    pvm = spectral_measure(trivial_representation(G, dim=1))
    model = diagonalize(cyclic_decomposition(pvm)[0], pvm)
    xi = DualFunction(G, np.array([1.0, 0.0, 0.0], dtype=complex))
    space = gns_construct(phi_from_cyclic(model, xi))
    result = intertwiner(space, model, xi)
    assert result.matrix.shape == (1, 1)
    assert abs(result.matrix[0, 0]) == pytest.approx(1.0, abs=1e-12)


def test_intertwiner_rejects_rank_mismatch():
    G = make_group((3,))
    pvm = spectral_measure(trivial_representation(G, dim=1))
    narrow_model = diagonalize(cyclic_decomposition(pvm)[0], pvm)
    _, _, space, _ = rigged_system(G)  # rank 3
    with pytest.raises(InconsistencyError):
        intertwiner(space, narrow_model, ones_amplitude(G))


def test_intertwiner_rejects_vanishing_amplitude():
    G = make_group((2,))
    model, _, space, _ = rigged_system(G)
    bad = DualFunction(G, np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(NotCyclicError):
        intertwiner(space, model, bad)


def test_a_character_off_the_quotient_support_is_named():
    # the quotient of phi has transform support {1, 3, 5}; character 6 is
    # orthogonal to all three, so its coordinate column is only round-off
    G = make_group((16,))
    spectrum = np.zeros(16, dtype=complex)
    spectrum[[1, 3, 5]] = 1.0
    space = gns_construct(inverse_fourier(DualFunction(G, spectrum)))
    rep = make_representation(G, [np.diag(np.exp(2j * np.pi * np.array([1, 3, 6]) / 16))])
    pvm = spectral_measure(rep)
    model = diagonalize(cyclic_decomposition(pvm)[0], pvm)
    xi = DualFunction(G, np.isin(np.arange(16), [1, 3, 6]).astype(complex))
    for build in (intertwiner, lambda space, _, xi: build_decomposition(space, xi)):
        with pytest.raises(InconsistencyError, match=r"characters \[\(6,\)\] have no component"):
            build(space, model, xi)


def test_intertwiner_rejects_mixed_groups():
    G = make_group((2,))
    model, _, space, _ = rigged_system(G)
    with pytest.raises(GroupMismatchError):
        intertwiner(space, model, ones_amplitude(make_group((3,))))


# ---------------------------------------------------------------------------
# end-to-end properties
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("orders", [(5,), (2, 3), (8,)])
def test_full_pipeline_residuals(orders, rng):
    G = make_group(orders)
    xi_values = rng.normal(size=G.size) + 1j * rng.normal(size=G.size)
    xi_values += 3.0  # bounded away from zero
    xi = DualFunction(G, xi_values)
    model, phi, space, decomp = rigged_system(G, xi, rng=rng)
    assert decomp.identity_residual < 1e-9
    for g in G.elements:
        np.testing.assert_allclose(
            reconstruct_operator(decomp, space, g), space.operator(g), atol=1e-9)
        for chi in decomp.support:
            assert eigen_residual(decomp, space, g, chi) < 1e-9
    result = intertwiner(space, model, xi)
    assert result.unitarity_residual < 1e-9
    assert result.intertwining_residual < 1e-9


def test_pipeline_respects_the_haar_weight(rng):
    G = Group((2,), haar_weight=2.0)
    model = regular_model(G)
    xi = ones_amplitude(G)
    space = gns_construct(phi_from_cyclic(model, xi))
    decomp = build_decomposition(space, xi, rng=rng)
    assert decomp.identity_residual < 1e-9
    for g in G.elements:
        np.testing.assert_allclose(
            reconstruct_operator(decomp, space, g), space.operator(g), atol=1e-10)
    result = intertwiner(space, model, xi)
    assert result.unitarity_residual < 1e-10
    assert result.intertwining_residual < 1e-10


# ---------------------------------------------------------------------------
# one-pass residuals over the whole group
# ---------------------------------------------------------------------------

def random_multiplicity_free_system(rng):
    """Conjugated diagonal rep of Z_3 x Z_4 on 5 distinct characters."""
    G = make_group((3, 4))
    chosen = rng.choice(G.size, size=5, replace=False)
    slots = [G.characters[i] for i in sorted(chosen)]
    Q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    gens = []
    for coords in [(1, 0), (0, 1)]:
        eig = np.array([G.pairing(G.element(coords), chi) for chi in slots])
        gens.append(Q @ np.diag(eig) @ Q.conj().T)
    pvm = spectral_measure(make_representation(G, gens))
    (component,) = cyclic_decomposition(pvm)
    model = diagonalize(component, pvm)
    vals = np.zeros(G.size, dtype=complex)
    for chi in model.support:
        vals[G.character_index(chi)] = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.random())
    xi = DualFunction(G, vals)
    space = gns_construct(phi_from_cyclic(model, xi))
    return model, xi, space, build_decomposition(space, xi, rng=rng)


def regular_2x2_system(rng):
    G = make_group((2, 2))
    xi = DualFunction(G, np.array([1.0, 2.0, 0.5, 1.5], dtype=complex))
    model, _, space, decomp = rigged_system(G, xi, rng=rng)
    return model, xi, space, decomp


@pytest.mark.parametrize("system", [random_multiplicity_free_system, regular_2x2_system])
def test_stored_maxima_equal_the_per_element_relations(system, rng):
    _, _, space, decomp = system(rng)
    G = space.group
    recon = max(float(np.linalg.norm(reconstruct_operator(decomp, space, g)
                                     - space.operator(g))) for g in G.elements)
    eig = max(eigen_residual(decomp, space, g, chi)
              for g in G.elements for chi in decomp.support)
    assert decomp.reconstruction_residual == pytest.approx(recon, abs=1e-12)
    assert decomp.eigen_equation_residual == pytest.approx(eig, abs=1e-12)


def test_stored_maxima_see_mixed_eigenvector_coordinates(monkeypatch, rng):
    model, xi, space, _ = random_multiplicity_free_system(rng)
    original = rigging._eigenvector_coords

    def mixed(space, table, support):
        v = original(space, table, support).copy()
        v[:, 0], v[:, 1] = v[:, 0] + 1e-3 * v[:, 1], v[:, 1] - 1e-3 * v[:, 0]
        return v

    monkeypatch.setattr(rigging, "_eigenvector_coords", mixed)
    decomp = build_decomposition(space, xi, tol=1.0)
    assert decomp.reconstruction_residual > 1e-6
    assert decomp.eigen_equation_residual > 1e-6


@pytest.mark.parametrize("system", [random_multiplicity_free_system, regular_2x2_system])
def test_intertwining_residual_equals_the_per_element_loop(system, rng):
    model, xi, space, _ = system(rng)
    result = intertwiner(space, model, xi)
    W = result.matrix
    expected = max(
        float(np.linalg.norm(W @ space.operator(g) - np.diag(model.table[i]) @ W))
        for i, g in enumerate(space.group.elements))
    assert result.intertwining_residual == pytest.approx(expected, abs=1e-12)


def test_phi_from_cyclic_equals_the_per_character_sum(rng):
    model, xi, _, _ = random_multiplicity_free_system(rng)
    G = model.group
    expected = np.zeros(G.size, dtype=complex)
    for chi in model.support:
        expected += abs(xi(chi)) ** 2 * np.array([G.pairing(g, chi) for g in G.elements])
    np.testing.assert_allclose(phi_from_cyclic(model, xi).values, expected, rtol=0, atol=1e-12)


def test_measure_and_decomposition_never_enumerate_the_characters():
    # the supports are built from index arrays, not from |G| Character tuples
    G = make_group((3, 4))
    model, _, _, decomp = rigged_system(G, rng=np.random.default_rng(0))
    assert len(decomp.support) == G.size == len(model.support)
    assert "characters" not in G.__dict__
