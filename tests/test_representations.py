"""Unitary representations, spectral projections, diagonal models, kets."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from abelian_spectra import (
    DegenerateComponentError,
    Group,
    GroupFunction,
    NotSelfAdjointError,
    NumericalDegeneracyError,
    RepresentationValidationError,
    ShapeMismatchError,
    SupportError,
    apply_algebra,
    cyclic_decomposition,
    delta,
    diagonalization_residual,
    diagonalize,
    dirac_kets,
    functional_calculus,
    invariance_residual,
    make_group,
    make_representation,
    reconstruction_residual,
    regular_representation,
    spectral_measure,
    trivial_representation,
)
from abelian_spectra import representations
from conftest import random_function


def sign_rep():
    """Z_2 acting on C^2 by diag(1, -1)."""
    G = make_group((2,))
    return make_representation(G, [np.diag([1.0, -1.0]).astype(complex)])


def conjugated_diagonal_rep(group, slot_characters, rng):
    """dim-n rep with known eigenstructure: Q diag(<gen|chi_slot>) Q^dagger."""
    dim = len(slot_characters)
    Q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    gens = []
    for j in range(group.num_factors):
        coords = [0] * group.num_factors
        coords[j] = 1 % group.orders[j]
        g = group.element(coords)
        eig = np.array([group.pairing(g, chi) for chi in slot_characters])
        gens.append(Q @ np.diag(eig) @ Q.conj().T)
    return make_representation(group, gens), Q


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_make_representation_accepts_diagonal_generator():
    rep = sign_rep()
    assert rep.dim == 2
    np.testing.assert_array_equal(rep.apply(rep.group.element((1,))), np.diag([1.0, -1.0]))
    np.testing.assert_array_equal(rep.apply(rep.group.identity), np.eye(2))


def test_apply_multiplies_generator_powers():
    G = make_group((4,))
    U = np.diag([1.0, 1j])
    rep = make_representation(G, [U])
    np.testing.assert_allclose(rep.apply(G.element((3,))), np.diag([1.0, -1j]), atol=1e-15)


def test_operators_follow_enumeration_order():
    G = make_group((2, 2))
    rep = regular_representation(G)
    ops = rep.operators
    assert ops.shape == (4, 4, 4)
    for i, g in enumerate(G.elements):
        np.testing.assert_array_equal(ops[i], rep.apply(g))


def test_representation_is_a_homomorphism():
    G = make_group((2, 3))
    rep = regular_representation(G)
    for a in G.elements:
        for b in G.elements:
            np.testing.assert_allclose(
                rep.apply(G.op(a, b)), rep.apply(a) @ rep.apply(b), atol=1e-12)


def test_non_unitary_generator_is_rejected():
    G = make_group((2,))
    shear = np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex)
    with pytest.raises(RepresentationValidationError) as exc:
        make_representation(G, [shear])
    assert exc.value.relation == "unitary[0]"
    assert exc.value.residual == pytest.approx(np.sqrt(3.0), rel=1e-12)
    assert "not unitary" in str(exc.value)


def test_non_commuting_generators_are_rejected():
    G = make_group((2, 2))
    X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    Z = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(RepresentationValidationError) as exc:
        make_representation(G, [X, Z])
    assert exc.value.relation == "commute[0,1]"


def test_wrong_order_generator_is_rejected():
    G = make_group((3,))
    with pytest.raises(RepresentationValidationError) as exc:
        make_representation(G, [np.diag([1.0, -1.0]).astype(complex)])
    assert exc.value.relation == "order[0]"


def test_generator_count_and_shape_are_checked():
    G = make_group((2, 2))
    eye = np.eye(2, dtype=complex)
    with pytest.raises(ShapeMismatchError):
        make_representation(G, [eye])  # needs two generators
    with pytest.raises(ShapeMismatchError):
        make_representation(G, [eye, np.eye(3, dtype=complex)])  # mixed dims
    with pytest.raises(ShapeMismatchError):
        make_representation(make_group((2,)), [np.ones((2, 3))])  # not square


def test_trivial_representation_shape():
    G = make_group((2, 3))
    rep = trivial_representation(G, dim=3)
    assert rep.dim == 3
    for g in G.elements:
        np.testing.assert_array_equal(rep.apply(g), np.eye(3))


# ---------------------------------------------------------------------------
# the projection-valued measure
# ---------------------------------------------------------------------------

def test_sign_rep_projections_are_coordinate_projections():
    rep = sign_rep()
    pvm = spectral_measure(rep)
    G = rep.group
    assert pvm.support == (G.character((0,)), G.character((1,)))
    np.testing.assert_allclose(pvm.projection(G.character((0,))), np.diag([1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(pvm.projection(G.character((1,))), np.diag([0.0, 1.0]), atol=1e-12)
    assert pvm.multiplicity(G.character((0,))) == 1
    assert pvm.multiplicity(G.character((1,))) == 1


def test_regular_rep_projections_on_z2():
    G = make_group((2,))
    pvm = spectral_measure(regular_representation(G))
    half = 0.5 * np.ones((2, 2))
    np.testing.assert_allclose(pvm.projection(G.character((0,))), half, atol=1e-12)
    np.testing.assert_allclose(
        pvm.projection(G.character((1,))), [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)


def test_trivial_rep_measure_concentrates_on_the_unit_character():
    G = make_group((4,))
    pvm = spectral_measure(trivial_representation(G, dim=3))
    assert pvm.support == (G.character((0,)),)
    assert [pvm.multiplicity(chi) for chi in G.characters] == [3, 0, 0, 0]
    np.testing.assert_allclose(pvm.projection(G.character((0,))), np.eye(3), atol=1e-12)
    # off-support characters answer with the zero projection
    np.testing.assert_array_equal(pvm.projection(G.character((2,))), np.zeros((3, 3)))


def test_measure_residuals_and_counting_measure(small_group):
    pvm = spectral_measure(regular_representation(small_group))
    assert len(pvm.support) == small_group.size  # regular rep supports every character
    assert all(v == 1.0 for v in pvm.nu.values())
    assert max(pvm.residuals.values()) < 1e-9
    assert sum(pvm.multiplicities.values()) == small_group.size


def test_measure_matches_independent_eigenstructure(rng):
    """Character averaging agrees with the known conjugated-diagonal answer."""
    G = make_group((4,))
    slots = [G.character((0,)), G.character((1,)), G.character((1,)), G.character((3,))]
    rep, Q = conjugated_diagonal_rep(G, slots, rng)
    pvm = spectral_measure(rep)
    assert pvm.multiplicity(G.character((1,))) == 2
    assert pvm.multiplicity(G.character((2,))) == 0
    for chi in pvm.support:
        mask = np.diag([1.0 if slot == chi else 0.0 for slot in slots])
        np.testing.assert_allclose(pvm.projection(chi), Q @ mask @ Q.conj().T, atol=1e-9)


@pytest.mark.parametrize("orders", [(4,), (2, 3), (3, 5, 2), (12,), (2,) * 5, (3, 4, 2)])
def test_measure_matches_dense_character_average(orders, rng):
    """Support, multiplicities and projections equal the dense average over
    the pairing table, and each range basis is an orthonormal basis of the
    range of its projection."""
    G = make_group(orders)
    picks = rng.choice(G.size, size=3, replace=False)
    slots = [G.characters[i] for i, mult in zip(picks, (1, 2, 3)) for _ in range(mult)]
    rep, _ = conjugated_diagonal_rep(G, slots, rng)
    pvm = spectral_measure(rep)
    dense = np.einsum("gx,gij->xij", np.conj(G.pairing_table()), rep.operators) / G.size
    ranks = np.trace(dense, axis1=1, axis2=2).real
    assert pvm.support == tuple(G.characters[i] for i in sorted(picks))
    assert [pvm.multiplicity(chi) for chi in G.characters] == np.rint(ranks).tolist()
    for chi, P in zip(G.characters, dense):
        np.testing.assert_allclose(pvm.projection(chi), P, rtol=0, atol=1e-12)
    for chi in pvm.support:
        B, P = pvm.range_bases[chi], pvm.projection(chi)
        assert B.shape == (rep.dim, pvm.multiplicity(chi))
        np.testing.assert_allclose(B.conj().T @ B, np.eye(B.shape[1]), rtol=0, atol=1e-12)
        np.testing.assert_allclose(P @ B, B, rtol=0, atol=1e-12)


def test_measure_allocates_less_than_one_operator_stack(rng):
    """The measure transforms the traces and averages only its support, so
    beside the cached operator stack it holds far less than another stack."""
    G = make_group((64, 64))
    picks = rng.choice(G.size, size=4, replace=False)
    rep, _ = conjugated_diagonal_rep(G, [G.characters[i] for i in picks for _ in range(4)], rng)
    stack = rep.operators.nbytes
    tracemalloc.start()
    try:
        pvm = spectral_measure(rep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pvm.support) == 4
    assert peak < stack


def test_reconstruction_residual_is_tiny(small_group):
    pvm = spectral_measure(regular_representation(small_group))
    assert reconstruction_residual(pvm) < 1e-12


def test_projections_resolve_the_operators():
    G = make_group((4,))
    rep = regular_representation(G)
    pvm = spectral_measure(rep)
    for i, g in enumerate(G.elements):
        rebuilt = sum(G.pairing(g, chi) * pvm.projection(chi) for chi in pvm.support)
        np.testing.assert_allclose(rebuilt, rep.operators[i], atol=1e-12)


# ---------------------------------------------------------------------------
# algebra action through the measure
# ---------------------------------------------------------------------------

def test_algebra_action_sends_point_mass_to_operator():
    G = make_group((4,))
    rep = regular_representation(G)
    pvm = spectral_measure(rep)
    np.testing.assert_allclose(apply_algebra(pvm, delta(G)), np.eye(4), atol=1e-12)
    a = G.element((3,))
    np.testing.assert_allclose(apply_algebra(pvm, delta(G, a)), rep.apply(a), atol=1e-12)


def test_algebra_action_matches_direct_sum(rng):
    G = make_group((4,))
    rep = regular_representation(G)
    pvm = spectral_measure(rep)
    for _ in range(5):
        f = random_function(G, rng)
        direct = sum(f.values[i] * rep.operators[i] for i in range(G.size))
        np.testing.assert_allclose(apply_algebra(pvm, f), direct, atol=1e-10)


def test_algebra_action_turns_convolution_into_composition(rng):
    from abelian_spectra import convolve
    G = make_group((2, 3))
    pvm = spectral_measure(regular_representation(G))
    f, h = random_function(G, rng), random_function(G, rng)
    np.testing.assert_allclose(
        apply_algebra(pvm, convolve(f, h)),
        apply_algebra(pvm, f) @ apply_algebra(pvm, h), atol=1e-9)


def test_algebra_action_scales_with_haar_weight():
    G = Group((2,), haar_weight=2.0)
    pvm = spectral_measure(regular_representation(G))
    np.testing.assert_allclose(apply_algebra(pvm, delta(G)), 2.0 * np.eye(2), atol=1e-12)


# ---------------------------------------------------------------------------
# cyclic components and diagonal models
# ---------------------------------------------------------------------------

def test_regular_rep_is_one_cyclic_component(small_group):
    pvm = spectral_measure(regular_representation(small_group))
    comps = cyclic_decomposition(pvm)
    assert len(comps) == 1
    comp = comps[0]
    assert comp.support == pvm.support
    np.testing.assert_allclose(comp.projection_norms, 1.0, atol=1e-9)
    V = comp.isometry
    np.testing.assert_allclose(V.conj().T @ V, np.eye(small_group.size), atol=1e-10)


def test_trivial_rep_splits_into_singleton_components():
    G = make_group((2,))
    pvm = spectral_measure(trivial_representation(G, dim=3))
    comps = cyclic_decomposition(pvm)
    assert len(comps) == 3
    for comp in comps:
        assert comp.support == (G.character((0,)),)
        assert len(comp.projection_norms) == 1


def test_multiplicity_two_rep_splits_into_two_components(rng):
    G = make_group((4,))
    slots = [G.character((0,)), G.character((1,)), G.character((1,)), G.character((3,))]
    rep, _ = conjugated_diagonal_rep(G, slots, rng)
    comps = cyclic_decomposition(spectral_measure(rep))
    assert len(comps) == 2
    assert [chi.coords for chi in comps[0].support] == [(0,), (1,), (3,)]
    assert [chi.coords for chi in comps[1].support] == [(1,)]


def test_cyclic_vector_generates_the_component(small_group):
    """The orbit of the cyclic vector under the algebra spans the component."""
    rep = regular_representation(small_group)
    pvm = spectral_measure(rep)
    comp = cyclic_decomposition(pvm)[0]
    orbit = np.column_stack([op @ comp.cyclic_vector for op in rep.operators])
    rank = np.linalg.matrix_rank(orbit, tol=1e-9)
    assert rank == len(comp.support)


def test_diagonal_model_on_z2_regular():
    G = make_group((2,))
    pvm = spectral_measure(regular_representation(G))
    model = diagonalize(cyclic_decomposition(pvm)[0], pvm)
    np.testing.assert_allclose(model.table, [[1.0, 1.0], [1.0, -1.0]], atol=1e-12)
    assert diagonalization_residual(model, pvm.rep) < 1e-12


def test_diagonal_model_table_on_z4_regular():
    G = make_group((4,))
    pvm = spectral_measure(regular_representation(G))
    model = diagonalize(cyclic_decomposition(pvm)[0], pvm)
    np.testing.assert_allclose(model.table[1], [1.0, 1j, -1.0, -1j], atol=1e-12)
    g = G.element((1,))
    np.testing.assert_array_equal(model.multiplication_symbol(g), model.table[1])


def test_diagonal_model_scalar_case():
    G = make_group((3,))
    pvm = spectral_measure(trivial_representation(G, dim=1))
    model = diagonalize(cyclic_decomposition(pvm)[0], pvm)
    assert model.table.shape == (3, 1)
    np.testing.assert_allclose(model.table, np.ones((3, 1)), atol=1e-12)


def test_diagonalization_residual_small_for_random_cases(rng):
    for orders in [(2, 2), (6,), (2, 4)]:
        G = make_group(orders)
        pvm = spectral_measure(regular_representation(G))
        for comp in cyclic_decomposition(pvm):
            model = diagonalize(comp, pvm)
            assert diagonalization_residual(model, pvm.rep) < 1e-9


def test_degenerate_component_is_rejected():
    G = make_group((2,))
    pvm = spectral_measure(regular_representation(G))
    comp = cyclic_decomposition(pvm)[0]
    broken = type(comp)(
        cyclic_vector=comp.cyclic_vector,
        support=comp.support,
        isometry=comp.isometry,
        projection_norms=(1.0, 0.0),
    )
    with pytest.raises(DegenerateComponentError):
        diagonalize(broken, pvm)


# ---------------------------------------------------------------------------
# kets
# ---------------------------------------------------------------------------

def test_kets_of_sign_rep_are_coordinate_vectors():
    pvm = spectral_measure(sign_rep())
    system = dirac_kets(pvm)
    assert len(system.kets) == 2
    by_char = {ket.character.coords: ket for ket in system.kets}
    np.testing.assert_allclose(np.abs(by_char[(0,)].vector), [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(np.abs(by_char[(1,)].vector), [0.0, 1.0], atol=1e-12)
    assert all(ket.index == 1 for ket in system.kets)


def test_kets_enumerate_multiplicity_with_one_based_indices():
    G = make_group((2,))
    pvm = spectral_measure(trivial_representation(G, dim=2))
    system = dirac_kets(pvm)
    assert [(ket.character.coords, ket.index) for ket in system.kets] == [((0,), 1), ((0,), 2)]
    V = np.column_stack([ket.vector for ket in system.kets])
    np.testing.assert_allclose(V.conj().T @ V, np.eye(2), atol=1e-12)


def test_completeness_sum_over_everything_is_the_inner_product(rng):
    G = make_group((2, 3))
    pvm = spectral_measure(regular_representation(G))
    system = dirac_kets(pvm)
    for _ in range(5):
        phi = rng.normal(size=6) + 1j * rng.normal(size=6)
        psi = rng.normal(size=6) + 1j * rng.normal(size=6)
        total = system.completeness_sum(phi, psi, G.characters)
        assert total == pytest.approx(np.vdot(phi, psi), abs=1e-9)


def test_completeness_sum_over_subset_matches_the_projection(rng):
    G = make_group((4,))
    pvm = spectral_measure(regular_representation(G))
    system = dirac_kets(pvm)
    subset = (G.character((1,)), G.character((2,)))
    P = sum(pvm.projection(chi) for chi in subset)
    phi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    assert system.completeness_sum(phi, psi, subset) == pytest.approx(
        complex(np.vdot(phi, P @ psi)), abs=1e-9)


# ---------------------------------------------------------------------------
# functional calculus
# ---------------------------------------------------------------------------

def test_functional_calculus_square_of_symmetric_labels():
    pvm = spectral_measure(sign_rep())
    out = functional_calculus(pvm, (1.0, -1.0), lambda a: a ** 2)
    np.testing.assert_allclose(out, np.eye(2), atol=1e-12)


def test_functional_calculus_exponential_recovers_the_generator():
    pvm = spectral_measure(sign_rep())
    out = functional_calculus(pvm, (0.0, 1.0), lambda a: np.exp(1j * np.pi * a))
    np.testing.assert_allclose(out, np.diag([1.0, -1.0]), atol=1e-12)


def test_functional_calculus_accepts_a_label_mapping():
    pvm = spectral_measure(sign_rep())
    G = pvm.group
    labels = {G.character((0,)): 2.0, G.character((1,)): 5.0}
    out = functional_calculus(pvm, labels, lambda a: a)
    np.testing.assert_allclose(out, np.diag([2.0, 5.0]), atol=1e-12)


def test_functional_calculus_exponentials_satisfy_the_group_law(rng):
    G = make_group((2, 3))
    pvm = spectral_measure(regular_representation(G))
    labels = tuple(float(x) for x in rng.normal(size=len(pvm.support)))
    A = functional_calculus(pvm, labels, lambda a: np.exp(1j * a))
    A2 = functional_calculus(pvm, labels, lambda a: np.exp(2j * a))
    np.testing.assert_allclose(A @ A, A2, atol=1e-10)
    ident = functional_calculus(pvm, labels, lambda a: 1.0)
    np.testing.assert_allclose(ident, np.eye(6), atol=1e-12)


def test_functional_calculus_rejects_complex_labels():
    pvm = spectral_measure(sign_rep())
    with pytest.raises(NotSelfAdjointError):
        functional_calculus(pvm, (1.0 + 1j, 0.0), lambda a: a)


def test_functional_calculus_rejects_incomplete_labels():
    pvm = spectral_measure(sign_rep())
    G = pvm.group
    with pytest.raises(SupportError):
        functional_calculus(pvm, {G.character((0,)): 1.0}, lambda a: a)
    with pytest.raises(ShapeMismatchError):
        functional_calculus(pvm, (1.0,), lambda a: a)


# ---------------------------------------------------------------------------
# one-pass residuals over the whole group
# ---------------------------------------------------------------------------

def multiplicity_two_rep(rng):
    """Random dim-5 rep of Z_3 x Z_4: two characters of multiplicity 2, one of 1."""
    G = make_group((3, 4))
    a, b, c = (G.characters[i] for i in rng.choice(G.size, size=3, replace=False))
    rep, _ = conjugated_diagonal_rep(G, [a, a, b, c, c], rng)
    return rep


def loop_reconstruction_residual(pvm):
    G = pvm.group
    worst = 0.0
    for g in G.elements:
        rebuilt = sum(G.pairing(g, chi) * pvm.projections[chi] for chi in pvm.support)
        worst = max(worst, np.linalg.norm(pvm.rep.apply(g) - rebuilt))
    return worst


def loop_diagonalization_residual(model, rep):
    G, V = rep.group, model.isometry
    worst = 0.0
    for g in G.elements:
        symbol = np.diag([G.pairing(g, chi) for chi in model.support])
        worst = max(worst, np.linalg.norm(V.conj().T @ rep.apply(g) @ V - symbol))
    return worst


def loop_invariance_residual(component, rep):
    proj = component.isometry @ component.isometry.conj().T
    leak = np.eye(rep.dim) - proj
    return max(np.linalg.norm(leak @ rep.apply(g) @ proj) for g in rep.group.elements)


def mixed_components(pvm):
    """The first component with one isometry column mixed, by 1e-3, with a
    column of the second component that belongs to a different character."""
    first, second = cyclic_decomposition(pvm)[:2]
    k = next(i for i, chi in enumerate(second.support) if chi != first.support[0])
    iso = first.isometry.copy()
    iso[:, 0] += 1e-3 * second.isometry[:, k]
    return replace(first, isometry=iso)


def test_operators_match_apply_on_a_random_unitary_rep(rng):
    G = make_group((3, 5, 2))
    slots = [G.characters[i] for i in rng.integers(G.size, size=4)]
    rep, _ = conjugated_diagonal_rep(G, slots, rng)
    assert rep.operators.shape == (G.size, 4, 4)
    for i, g in enumerate(G.elements):
        np.testing.assert_allclose(rep.operators[i], rep.apply(g), rtol=0, atol=1e-12)


def test_one_pass_residuals_equal_per_element_loops(rng):
    for rep in (regular_representation(make_group((2, 2, 2))), multiplicity_two_rep(rng)):
        pvm = spectral_measure(rep)
        assert abs(reconstruction_residual(pvm) - loop_reconstruction_residual(pvm)) < 1e-12
        for comp in cyclic_decomposition(pvm):
            model = diagonalize(comp, pvm)
            assert abs(diagonalization_residual(model, rep)
                       - loop_diagonalization_residual(model, rep)) < 1e-12
            assert abs(invariance_residual(comp, rep)
                       - loop_invariance_residual(comp, rep)) < 1e-12


def test_mixing_components_breaks_invariance_and_diagonalization(rng):
    rep = multiplicity_two_rep(rng)
    pvm = spectral_measure(rep)
    mixed = mixed_components(pvm)
    model = diagonalize(mixed, pvm)
    invariance = invariance_residual(mixed, rep)
    diag = diagonalization_residual(model, rep)
    assert invariance > 1e-6
    assert diag > 1e-6
    assert abs(invariance - loop_invariance_residual(mixed, rep)) < 1e-12
    assert abs(diag - loop_diagonalization_residual(model, rep)) < 1e-12


def test_perturbed_projection_breaks_the_reconstruction(rng):
    pvm = spectral_measure(multiplicity_two_rep(rng))
    chi = pvm.support[0]
    bumped = pvm.projections[chi].copy()
    bumped[0, 0] += 1e-6
    broken = replace(pvm, projections={**pvm.projections, chi: bumped})
    residual = reconstruction_residual(broken)
    assert residual > 1e-7
    assert abs(residual - loop_reconstruction_residual(broken)) < 1e-12


def test_measure_keeps_no_view_of_the_transformed_stack(rng):
    rep = multiplicity_two_rep(rng)
    pvm = spectral_measure(rep)
    assert len(pvm.support) < rep.group.size
    for P in pvm.projections.values():
        assert P.base is None or P.base.size < rep.group.size * rep.dim ** 2


def test_measure_raises_when_a_projection_is_not_idempotent(non_idempotent_measure):
    with pytest.raises(NumericalDegeneracyError) as info:
        spectral_measure(regular_representation(make_group((4,))))
    assert info.value.residuals["idempotency"] > representations.PVM_TOL


def test_measure_raises_when_a_range_basis_falls_short(monkeypatch):
    monkeypatch.setattr(representations, "RANGE_ACCEPT_TOL", 2.0)
    with pytest.raises(NumericalDegeneracyError) as info:
        spectral_measure(regular_representation(make_group((4,))))
    assert info.value.residuals["multiplicity"] == 1.0
    assert info.value.residuals["basis_rank"] == 0.0
