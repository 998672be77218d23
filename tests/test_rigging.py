"""Generalized-eigenvector systems over quotient representations."""

import json

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
from abelian_spectra.rigging import quotient_from_cyclic
from abelian_spectra.algebra import _transform, apply_hermitian_form
from conftest import random_function


def regular_model(group):
    pvm = spectral_measure(regular_representation(group))
    return diagonalize(cyclic_decomposition(pvm)[0])


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
    model = diagonalize(cyclic_decomposition(pvm)[0])
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
    model = diagonalize(cyclic_decomposition(pvm)[0])
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
    model = diagonalize(cyclic_decomposition(pvm)[0])
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
    model = diagonalize(cyclic_decomposition(pvm)[0])
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
    model, _, _, decomp = rigged_system(G)
    result = intertwiner(decomp, model)
    assert result.unitarity_residual < 1e-12
    assert result.intertwining_residual < 1e-12
    # rows are the support characters' unit coordinates: a permutation, here
    # the identity because the tied eigenvalues keep enumeration order
    np.testing.assert_allclose(np.abs(result.matrix), np.eye(2), atol=1e-12)


def test_intertwiner_maps_classes_to_transforms(rng):
    G = make_group((6,))
    model, _, space, decomp = rigged_system(G)
    result = intertwiner(decomp, model)
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
    model = diagonalize(cyclic_decomposition(pvm)[0])
    xi = DualFunction(G, np.array([1.0, 0.0, 0.0], dtype=complex))
    space = gns_construct(phi_from_cyclic(model, xi))
    result = intertwiner(build_decomposition(space, xi), model)
    assert result.matrix.shape == (1, 1)
    assert abs(result.matrix[0, 0]) == pytest.approx(1.0, abs=1e-12)


def test_intertwiner_rejects_rank_mismatch():
    G = make_group((3,))
    pvm = spectral_measure(trivial_representation(G, dim=1))
    narrow_model = diagonalize(cyclic_decomposition(pvm)[0])
    _, _, _, decomp = rigged_system(G)  # rank 3
    with pytest.raises(InconsistencyError, match="support characters are not"):
        intertwiner(decomp, narrow_model)


def test_intertwiner_rejects_a_model_on_another_support():
    # as many characters as the eigenvector system, but not the same ones
    G = make_group((4,))

    def model_on(chars):
        rep = make_representation(G, [np.diag(np.exp(2j * np.pi * np.array(chars) / 4))])
        return diagonalize(cyclic_decomposition(spectral_measure(rep))[0])

    model = model_on([0, 1])
    xi = DualFunction(G, np.isin(np.arange(4), [0, 1]).astype(complex))
    decomp = build_decomposition(gns_construct(phi_from_cyclic(model, xi)), xi)
    assert intertwiner(decomp, model).unitarity_residual == 0.0
    with pytest.raises(InconsistencyError, match="support characters are not"):
        intertwiner(decomp, model_on([0, 2]))


def test_intertwiner_reads_no_pairing(monkeypatch, rng):
    # the intertwiner is read off the decomposition: no slot lookup, no
    # pairing block and no gap table of its own
    for model, xi, space in planted_components((4, 4), 6, 3, rng):
        decomp = build_decomposition(space, xi)
        calls = []
        with monkeypatch.context() as patch:
            for owner, name in ((Group, "pairing_at"), (rigging, "_eigenvector_slots")):
                patch.setattr(owner, name, lambda *args, name=name: calls.append(name))
            result = intertwiner(decomp, model)
        assert calls == []
        assert result.matrix is decomp.coords
        assert result.intertwining_residual == decomp.reconstruction_residual


def test_a_character_off_the_quotient_support_is_named():
    # the quotient of phi has transform support {1, 3, 5}; character 6 is
    # orthogonal to all three, so its coordinate column is only round-off
    G = make_group((16,))
    spectrum = np.zeros(16, dtype=complex)
    spectrum[[1, 3, 5]] = 1.0
    space = gns_construct(inverse_fourier(DualFunction(G, spectrum)))
    xi = DualFunction(G, np.isin(np.arange(16), [1, 3, 6]).astype(complex))
    with pytest.raises(InconsistencyError, match=r"characters \[\(6,\)\] have no component"):
        build_decomposition(space, xi)


def test_intertwiner_rejects_mixed_groups():
    G = make_group((2,))
    _, _, _, decomp = rigged_system(G)
    with pytest.raises(GroupMismatchError):
        intertwiner(decomp, regular_model(make_group((3,))))


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
    result = intertwiner(decomp, model)
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
    result = intertwiner(decomp, model)
    assert result.unitarity_residual < 1e-10
    assert result.intertwining_residual < 1e-10


# ---------------------------------------------------------------------------
# certified residuals against the per-element oracles
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
    model = diagonalize(component)
    vals = np.zeros(G.size, dtype=complex)
    for chi in model.support:
        vals[G.character_index(chi)] = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.random())
    xi = DualFunction(G, vals)
    space = gns_construct(phi_from_cyclic(model, xi))
    return model, xi, space, build_decomposition(space, xi, rng=rng)


def planted_components(orders, dim, mult, rng):
    """(model, xi, space) for each cyclic component of V diag(<e_j|chi_b>)
    V^dagger on dim // mult characters, each mult times, as ``rig`` builds
    them, with random amplitudes on each component support."""
    G = make_group(orders)
    slots = np.repeat(rng.choice(G.size, size=dim // mult, replace=False), mult)
    V, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    diagonals = G.pairing_at(G.generator_indices, slots)
    pvm = spectral_measure(make_representation(G, [V @ np.diag(d) @ V.conj().T
                                                   for d in diagonals]))
    systems = []
    for component in cyclic_decomposition(pvm):
        model = diagonalize(component)
        vals = np.zeros(G.size, dtype=complex)
        vals[model.columns] = rng.uniform(0.5, 2.0, size=len(model.support)) * np.exp(
            2j * np.pi * rng.random(len(model.support)))
        xi = DualFunction(G, vals)
        systems.append((model, xi, gns_construct(phi_from_cyclic(model, xi))))
    return systems


def oracle_maxima(model, space, decomp, W):
    """The three relations' worst gaps over all of G, element by element."""
    G = space.group
    recon = max(float(np.linalg.norm(reconstruct_operator(decomp, space, g)
                                     - space.operator(g))) for g in G.elements)
    eig = max(eigen_residual(decomp, space, g, chi)
              for g in G.elements for chi in decomp.support)
    itw = max(float(np.linalg.norm(W @ space.operator(g)
                                   - np.diag(model.symbols([G.element_index(g)])[0]) @ W))
              for g in G.elements)
    return recon, eig, itw


# (orders, dim, multiplicity): trivial factors, one and several factors,
# several components
CERTIFIED_SHAPES = [((1,), 1, 1), ((1, 4), 2, 1), ((3, 1, 2), 3, 1), ((5,), 3, 1),
                    ((8,), 4, 1), ((6,), 6, 1), ((3, 4), 5, 1), ((2, 3), 4, 2),
                    ((2, 2, 2), 4, 2), ((4, 4), 6, 3), ((2,) * 4, 8, 2), ((7, 1), 3, 1)]


def patch_slots(monkeypatch, change):
    """Route rigging's slot map through ``change``, which edits a copy in place."""
    original = rigging._eigenvector_slots

    def slots(space, columns):
        out = original(space, columns).copy()
        change(out)
        return out

    monkeypatch.setattr(rigging, "_eigenvector_slots", slots)


def swap_first_two(slots):
    if len(slots) >= 2:
        slots[[0, 1]] = slots[[1, 0]]


def repeat_first(slots):
    slots[1] = slots[0]


def rig_regular_representation(tmp_path):
    """Exit code and report of ``rig`` on the regular representation of Z_2 x Z_3."""
    from abelian_spectra import cli
    from abelian_spectra.fileio import dump_json, representation_to_payload
    src, out = tmp_path / "rep.json", tmp_path / "out.json"
    dump_json(representation_to_payload(regular_representation(make_group((2, 3)))), src)
    code = cli.main(["rig", "--input", str(src), "--output", str(out)])
    return code, json.loads(out.read_text())


@pytest.mark.parametrize("perturb", [False, True], ids=["exact", "perturbed"])
@pytest.mark.parametrize("orders, dim, mult", CERTIFIED_SHAPES)
def test_certified_residuals_bound_the_per_element_oracles(monkeypatch, rng, orders, dim,
                                                           mult, perturb):
    # perturbed: the first two characters swap their quotient slots where
    # r >= 2, so the coordinates still form a permutation, now a wrong one,
    # and every relation's gap is of order 1
    if perturb:
        patch_slots(monkeypatch, swap_first_two)
    for model, xi, space in planted_components(orders, dim, mult, rng):
        decomp = build_decomposition(space, xi, tol=1.0)
        result = intertwiner(decomp, model)
        oracles = oracle_maxima(model, space, decomp, result.matrix)
        certified = (decomp.reconstruction_residual, decomp.eigen_equation_residual,
                     result.intertwining_residual)
        assert all(value >= oracle for value, oracle in zip(certified, oracles))
        assert result.unitarity_residual == 0.0
        if perturb and space.rank >= 2:
            assert min(oracles) > 1e-5
        else:
            assert max(certified) < 1e-12


def test_stored_maxima_see_mixed_eigenvector_coordinates(monkeypatch, tmp_path, capsys, rng):
    model, xi, space, _ = random_multiplicity_free_system(rng)
    patch_slots(monkeypatch, swap_first_two)
    decomp = build_decomposition(space, xi, tol=1.0)
    result = intertwiner(decomp, model)
    certified = (decomp.reconstruction_residual, decomp.eigen_equation_residual,
                 result.intertwining_residual)
    for value, oracle in zip(certified, oracle_maxima(model, space, decomp, result.matrix)):
        assert value >= oracle > 1e-5
    # the CLI reports the breach and exits 4
    code, report = rig_regular_representation(tmp_path)
    assert code == 4
    out = capsys.readouterr().out.splitlines()
    assert "passed: False" in out
    failed = [item.split()[0] for item in out[-1].removeprefix("failed: ").split(", ")]
    assert failed == ["reconstruction", "eigen_equation", "intertwiner"]
    assert report["passed"] is False


def test_a_repeated_slot_breaks_the_intertwiners_unitarity(monkeypatch, tmp_path, capsys, rng):
    # W^dagger W = diag(count of each slot): one slot twice and one never
    model, xi, space, _ = random_multiplicity_free_system(rng)
    patch_slots(monkeypatch, repeat_first)
    assert intertwiner(build_decomposition(space, xi), model).unitarity_residual == np.sqrt(2)
    code, report = rig_regular_representation(tmp_path)
    assert code == 4
    out = capsys.readouterr().out.splitlines()
    assert "passed: False" in out
    assert out[-1].startswith("failed: ") and "intertwiner_unitarity 1.414e+00" in out[-1]
    assert report["residuals"]["intertwiner_unitarity"] == np.sqrt(2)


def test_rig_builds_no_character_table(monkeypatch, tmp_path):
    # every character value is read through Group.pairing_at; gns reads none,
    # and decompose and rig certify on the identity and the L binary powers,
    # so no call reads more than 1 + L rows of the table
    from abelian_spectra import cli
    from abelian_spectra.fileio import dump_json, function_to_payload, representation_to_payload
    pairing_at = Group.pairing_at
    for orders in ((2,) * 10, (64, 64)):
        G = make_group(orders)
        slots = np.repeat(np.random.default_rng(1).choice(G.size, size=3, replace=False), 2)
        V, _ = np.linalg.qr(np.random.default_rng(2).normal(size=(6, 6)))
        rep = make_representation(G, [V @ np.diag(d) @ V.T
                                      for d in G.pairing_at(G.generator_indices, slots)])
        phi, src = tmp_path / "phi.json", tmp_path / "rep.json"
        dump_json(function_to_payload(delta(G)), phi)
        dump_json(representation_to_payload(rep), src)
        rows_bound = 1 + sum((n - 1).bit_length() for n in orders)
        for command, path in (("gns", phi), ("decompose", src), ("rig", src)):
            rows = []
            monkeypatch.setattr(Group, "pairing_at", lambda self, r, c: rows.append(
                np.size(r)) or pairing_at(self, r, c))
            code = cli.main([command, "--input", str(path), "--output", str(tmp_path / "o.json")])
            monkeypatch.setattr(Group, "pairing_at", pairing_at)
            assert code == 0
            assert bool(rows) == (command != "gns"), (orders, command)
            assert max(rows, default=0) <= rows_bound, (orders, command, rows)


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


# ---------------------------------------------------------------------------
# the batched functional reader
# ---------------------------------------------------------------------------

def weighted_quotient(orders, r, rng):
    """(space, decomposition) of phi = inverse transform of |xi|^2 on r drawn
    characters, with amplitude moduli drawn in [0.5, 2]."""
    G = make_group(orders)
    vals = np.zeros(G.size, dtype=complex)
    vals[rng.choice(G.size, size=r, replace=False)] = rng.uniform(0.5, 2.0, r) * np.exp(
        2j * np.pi * rng.random(r))
    xi = DualFunction(G, vals)
    phi = GroupFunction(G, _transform(G, np.abs(vals) ** 2, inverse=True))
    space = gns_construct(phi)
    return space, build_decomposition(space, xi, rng=rng)


def per_pair_identity_residual(space, eigenvectors, rng):
    """The identity check as one ``fourier`` call per test function."""
    group = space.group
    draws = rng.standard_normal((rigging.IDENTITY_CHECK_PAIRS, 4, group.size))
    f, h = draws[:, 0] + 1j * draws[:, 1], draws[:, 2] + 1j * draws[:, 3]
    lhs = np.sum(f.conj() * apply_hermitian_form(space.phi, h.T).T, axis=1)
    neg = [group.character_index(group.neg_character(vec.character)) for vec in eigenvectors]
    weights = np.array([vec.weight for vec in eigenvectors])
    act_f, act_h = (np.array([weights * np.conj(fourier(GroupFunction(group, v)).values[neg])
                              for v in side]) for side in (f, h))
    bound = np.linalg.norm(act_f, axis=1) * np.linalg.norm(act_h, axis=1)
    gaps = np.abs(lhs - np.sum(act_f * act_h.conj(), axis=1)) / np.where(bound > 0, bound, 1.0)
    return float(gaps.max(initial=0.0))


FUNCTIONAL_SHAPES = [((1,), 1), ((3, 1, 4), 1), ((3, 1, 4), 5), ((2,) * 5, 1), ((2,) * 5, 4),
                     ((16, 16), 1), ((16, 16), 8), ((4, 4, 4, 4), 1), ((4, 4, 4, 4), 6)]


@pytest.mark.parametrize("orders, r", FUNCTIONAL_SHAPES)
def test_identity_residual_equals_the_per_pair_loop(orders, r):
    space, decomp = weighted_quotient(orders, r, np.random.default_rng(r))
    eigenvectors = decomp.eigenvectors
    assert len(eigenvectors) == r
    assert any(vec.weight != 1.0 for vec in eigenvectors)
    for seed in range(3):
        batched = rigging._identity_residual(space, decomp.columns, decomp.weights,
                                             np.random.default_rng(seed))
        looped = per_pair_identity_residual(space, eigenvectors, np.random.default_rng(seed))
        assert batched == looped


@pytest.mark.parametrize("orders, r", FUNCTIONAL_SHAPES)
def test_act_is_an_entry_of_the_stacked_functional_values(orders, r, rng):
    space, decomp = weighted_quotient(orders, r, rng)
    G = space.group
    stack = rng.normal(size=(G.size, 5)) + 1j * rng.normal(size=(G.size, 5))
    values = rigging._functional_values(G, decomp.columns, decomp.weights, stack)
    assert values.shape == (r, 5)
    f = GroupFunction(G, stack[:, 3])
    for k, vec in enumerate(decomp.eigenvectors):
        assert vec.act(f) == values[k, 3]


def test_act_rejects_a_dual_function_and_a_foreign_character():
    G = make_group((8,))
    _, _, _, decomp = rigged_system(G)
    with pytest.raises(GroupMismatchError):
        decomp.eigenvectors[0].act(ones_amplitude(G))
    # a function on another group, whether or not the character's
    # coordinates fit that group
    for k in (1, 5):
        with pytest.raises(GroupMismatchError):
            decomp.eigenvectors[k].act(delta(make_group((4,))))


def test_rig_reads_the_functionals_twice_per_distinct_layer(monkeypatch, tmp_path):
    # one stacked transform for the f side and one for the h side of the
    # identity check, however many pairs it draws; the four layers share one
    # support, so one identity check serves them all
    from abelian_spectra import cli
    from abelian_spectra.fileio import dump_json, load_json, representation_to_payload
    G = make_group((16, 16))
    rng = np.random.default_rng(5)
    slots = np.repeat(rng.choice(G.size, size=8, replace=False), 4)
    V, _ = np.linalg.qr(rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32)))
    rep = make_representation(G, [V @ np.diag(d) @ V.conj().T
                                  for d in G.pairing_at(G.generator_indices, slots)])
    src, out = tmp_path / "rep.json", tmp_path / "rig.json"
    dump_json(representation_to_payload(rep), src)
    calls = []
    values = rigging._functional_values
    monkeypatch.setattr(rigging, "_functional_values",
                        lambda *args: calls.append(args[3].shape) or values(*args))
    assert cli.main(["rig", "--input", str(src), "--output", str(out)]) == 0
    components = load_json(out)["results"]["components"]
    assert len(components) == 4
    assert len({str(comp["support"]) for comp in components}) == 1
    assert calls == [(G.size, rigging.IDENTITY_CHECK_PAIRS)] * 2


def test_identity_check_in_chunks_is_bit_equal_to_one_chunk(monkeypatch):
    # at (65536,) the byte bound draws and transforms two pairs at a time, from
    # the same generator in the same order; one chunk of all 8 pairs gives the
    # same residual to the last bit
    space, decomp = weighted_quotient((65536,), 8, np.random.default_rng(8))
    shapes = []
    values = rigging._functional_values
    monkeypatch.setattr(rigging, "_functional_values",
                        lambda *args: shapes.append(args[3].shape) or values(*args))

    def residual(seed):
        shapes.clear()
        return rigging._identity_residual(space, decomp.columns, decomp.weights,
                                          np.random.default_rng(seed))

    for seed in range(2):
        chunked = residual(seed)
        assert shapes == [(65536, 2)] * rigging.IDENTITY_CHECK_PAIRS
        with monkeypatch.context() as m:
            m.setattr(rigging, "identity_chunk", lambda size: rigging.IDENTITY_CHECK_PAIRS)
            assert residual(seed) == chunked
            assert shapes == [(65536, rigging.IDENTITY_CHECK_PAIRS)] * 2


def test_identity_check_transforms_phi_once_for_all_its_chunks(monkeypatch):
    # at (65536,) the pairs come two at a time, four chunks, one reflection of phi
    from abelian_spectra import algebra
    space, decomp = weighted_quotient((65536,), 8, np.random.default_rng(8))
    assert rigging.identity_chunk(65536) == 2
    calls = []
    involution = algebra.involution
    monkeypatch.setattr(algebra, "involution", lambda f: calls.append(f) or involution(f))
    rigging._identity_residual(space, decomp.columns, decomp.weights, np.random.default_rng(0))
    assert calls == [space.phi]


# ---------------------------------------------------------------------------
# the closed-form quotient
# ---------------------------------------------------------------------------

def planted_model(G, r, rng):
    """The one cyclic component of V diag(<e_j|chi_b>) V^dagger on r drawn characters."""
    slots = rng.choice(G.size, size=r, replace=False)
    V, _ = np.linalg.qr(rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r)))
    rep = make_representation(G, [V @ np.diag(d) @ V.conj().T
                                  for d in G.pairing_at(G.generator_indices, slots)])
    (component,) = cyclic_decomposition(spectral_measure(rep))
    return diagonalize(component)


def computed_quotient(model, xi):
    return gns_construct(phi_from_cyclic(model, xi))


@pytest.mark.parametrize("amplitude", ["ones", "random"])
@pytest.mark.parametrize("orders, haar", [((64,), 1.0), ((8, 8), 1.0), ((2,) * 6, 1.0),
                                          ((64,), 0.5)])
def test_closed_form_quotient_agrees_with_gns_construct(orders, haar, amplitude, rng):
    # ones gives exact ties in the closed form, which the computed transform
    # breaks by round-off: the supports agree as sets
    G = Group(orders, haar_weight=haar)
    model = planted_model(G, 8, rng)
    vals = np.zeros(G.size, dtype=complex)
    vals[model.columns] = 1.0 if amplitude == "ones" else (
        rng.uniform(0.5, 2.0, 8) * np.exp(2j * np.pi * rng.random(8)))
    xi = DualFunction(G, vals)
    closed, computed = quotient_from_cyclic(model, xi), computed_quotient(model, xi)
    assert closed.rank == computed.rank == 8
    assert set(closed.support.tolist()) == set(computed.support.tolist()) \
        == set(model.columns.tolist())
    np.testing.assert_array_equal(closed.phi.values, computed.phi.values)
    lam = dict(zip(computed.support.tolist(), computed.eigenvalues))
    np.testing.assert_allclose(closed.eigenvalues[:8], [lam[s] for s in closed.support.tolist()],
                               rtol=1e-13)
    np.testing.assert_allclose(closed.eigenvalues[:8],
                               haar ** 2 * G.size * np.abs(vals[closed.support]) ** 2, rtol=1e-15)
    assert not closed.eigenvalues[8:].any()
    assert closed.positivity.verdict


def test_an_amplitude_below_the_rank_tolerance_fails_on_both_routes(rng):
    # |xi| = 1e-6 relative puts its eigenvalue at 1e-12 of the largest, below
    # RANK_TOL: xi vanishes there by the same comparison, so both routes refuse
    # it as not cyclic before a quotient could drop that character
    G = make_group((64,))
    model = planted_model(G, 8, rng)
    vals = np.zeros(G.size, dtype=complex)
    vals[model.columns] = 1.0
    vals[model.columns[3]] = 1e-6
    xi = DualFunction(G, vals)
    messages = []
    for route in (quotient_from_cyclic, computed_quotient):
        with pytest.raises(NotCyclicError) as error:
            route(model, xi)
        messages.append(str(error.value))
    assert messages[0] == messages[1] == ("cyclic amplitude vanishes at support character "
                                          f"({model.columns[3]},) (|xi| = 1.000e-06)")
