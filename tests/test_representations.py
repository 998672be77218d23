"""Unitary representations, spectral projections, diagonal models, kets."""

import os
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from abelian_spectra import (
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
    relation_certificate,
    spectral_measure,
    trivial_representation,
)
from abelian_spectra import algebra, representations
from abelian_spectra.oracle import generator_powers, joint_eigenprojections, operator_at
from abelian_spectra.representations import UnitaryRep, binary_powers
from conftest import random_function


def sign_rep():
    """Z_2 acting on C^2 by diag(1, -1)."""
    G = make_group((2,))
    return make_representation(G, [np.diag([1.0, -1.0]).astype(complex)])


def multiplicity_table(pvm):
    """Every character's multiplicity in enumeration order: ``multiplicities``
    at ``indices``, 0 elsewhere."""
    table = np.zeros(pvm.group.size, dtype=int)
    table[pvm.indices] = pvm.multiplicities
    return table.tolist()


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
    np.testing.assert_array_equal(operator_at(rep, rep.group.element((1,))), np.diag([1.0, -1.0]))
    np.testing.assert_array_equal(operator_at(rep, rep.group.identity), np.eye(2))


def test_apply_multiplies_generator_powers():
    G = make_group((4,))
    U = np.diag([1.0, 1j])
    rep = make_representation(G, [U])
    np.testing.assert_allclose(operator_at(rep, G.element((3,))), np.diag([1.0, -1j]), atol=1e-15)


def test_operators_follow_enumeration_order():
    G = make_group((2, 2))
    rep = regular_representation(G)
    ops = rep.operators
    assert ops.shape == (4, 4, 4)
    for i, g in enumerate(G.elements):
        np.testing.assert_array_equal(ops[i], operator_at(rep, g))


def test_representation_is_a_homomorphism():
    G = make_group((2, 3))
    rep = regular_representation(G)
    for a in G.elements:
        for b in G.elements:
            np.testing.assert_allclose(
                operator_at(rep, G.op(a, b)), operator_at(rep, a) @ operator_at(rep, b), atol=1e-12)


def test_non_unitary_generator_is_rejected():
    G = make_group((2,))
    shear = np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex)
    with pytest.raises(RepresentationValidationError) as exc:
        make_representation(G, [shear])
    assert exc.value.stage == "unitary[0]"
    assert exc.value.residuals == {"residual": pytest.approx(np.sqrt(3.0), rel=1e-12)}
    assert "not unitary" in str(exc.value)


def test_non_commuting_generators_are_rejected():
    G = make_group((2, 2))
    X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    Z = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(RepresentationValidationError) as exc:
        make_representation(G, [X, Z])
    assert exc.value.stage == "commute[0,1]"


def test_wrong_order_generator_is_rejected():
    G = make_group((3,))
    with pytest.raises(RepresentationValidationError) as exc:
        make_representation(G, [np.diag([1.0, -1.0]).astype(complex)])
    assert exc.value.stage == "order[0]"


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
        np.testing.assert_array_equal(operator_at(rep, g), np.eye(3))


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
    assert multiplicity_table(pvm) == [1, 1]


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
    assert multiplicity_table(pvm) == [3, 0, 0, 0]
    np.testing.assert_allclose(pvm.projection(G.character((0,))), np.eye(3), atol=1e-12)
    # off-support characters answer with the zero projection
    np.testing.assert_array_equal(pvm.projection(G.character((2,))), np.zeros((3, 3)))


def test_measure_residuals_and_counting_measure(small_group):
    pvm = spectral_measure(regular_representation(small_group))
    assert len(pvm.support) == small_group.size  # regular rep supports every character
    assert all(v == 1.0 for v in pvm.nu.values())
    assert max(pvm.residuals.values()) < 1e-9
    assert pvm.multiplicities.sum() == small_group.size


def test_measure_sorts_the_labels_of_a_diagonal_generator():
    """A diagonal generator is its own restriction, already diagonal, but its
    labels 2, 0, 2, 1 are out of order: the columns are still sorted into
    one block per character."""
    G = make_group((4,))
    labels = np.array([2, 0, 2, 1])
    pvm = spectral_measure(make_representation(G, [np.diag(1j ** labels)]))
    assert pvm.indices.tolist() == [0, 1, 2]
    assert pvm.multiplicities.tolist() == [1, 1, 2]
    for t, c in enumerate(pvm.indices):
        np.testing.assert_allclose(pvm.projections[t], np.diag(labels == c), rtol=0, atol=1e-15)


def test_measure_after_a_scalar_first_generator_matches_the_oracle(monkeypatch, rng):
    """The first generator, i I up to round-off, does not split the one
    block, so no step writes W and the second step still starts from
    W = I with a full-width block, which it splits: one eig call in all,
    on the second generator, and the measure agrees with the independent
    joint eigendecomposition."""
    G = make_group((4, 6))
    slots = [G.character((1, c)) for c in (0, 5, 2, 2, 5, 3)]
    rep, _ = conjugated_diagonal_rep(G, slots, rng)
    np.testing.assert_allclose(rep.generators[0], 1j * np.eye(6), atol=1e-14)
    eig, calls = np.linalg.eig, []

    def counted(a):
        calls.append(a.shape)
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counted)
    pvm = spectral_measure(rep)
    assert calls == [(1, 6, 6)]
    assert pvm.indices.tolist() == [G.character_index(G.character((1, c))) for c in (0, 2, 3, 5)]
    assert pvm.multiplicities.tolist() == [1, 2, 1, 2]
    oracle = joint_eigenprojections(rep)
    assert set(oracle) == set(pvm.support)
    for chi, proj in oracle.items():
        np.testing.assert_allclose(pvm.projection(chi), proj, rtol=0, atol=1e-12)


def test_measure_matches_independent_eigenstructure(rng):
    """Character averaging agrees with the known conjugated-diagonal answer."""
    G = make_group((4,))
    slots = [G.character((0,)), G.character((1,)), G.character((1,)), G.character((3,))]
    rep, Q = conjugated_diagonal_rep(G, slots, rng)
    pvm = spectral_measure(rep)
    assert multiplicity_table(pvm) == [1, 2, 0, 1]
    for chi in pvm.support:
        mask = np.diag([1.0 if slot == chi else 0.0 for slot in slots])
        np.testing.assert_allclose(pvm.projection(chi), Q @ mask @ Q.conj().T, atol=1e-9)


# the multiplicities planted on each shape: three characters, once, twice and
# three times, except on the shapes of the spectral benchmark, which plant 64
# characters once at d = 64 and 8 characters four times at d = 32
DENSE_CASE_MULTS = {(4, 8, 8): (1,) * 64, (2,) * 8: (4,) * 8}


@pytest.mark.parametrize("orders", [(4,), (2, 3), (3, 5, 2), (12,), (2,) * 5, (3, 4, 2),
                                    (4, 8, 8), (2,) * 8])
def test_measure_matches_dense_character_average(orders, rng):
    """Support, multiplicities and projections equal the dense average over
    the pairing table, and each range basis is an orthonormal basis of the
    range of its projection."""
    G = make_group(orders)
    mults = DENSE_CASE_MULTS.get(orders, (1, 2, 3))
    picks = rng.choice(G.size, size=len(mults), replace=False)
    slots = [G.characters[i] for i, mult in zip(picks, mults) for _ in range(mult)]
    rep, _ = conjugated_diagonal_rep(G, slots, rng)
    pvm = spectral_measure(rep)
    dense = np.tensordot(np.conj(G.pairing_table()), rep.operators, axes=(0, 0)) / G.size
    ranks = np.trace(dense, axis1=1, axis2=2).real
    assert pvm.support == tuple(G.characters[i] for i in sorted(picks))
    assert multiplicity_table(pvm) == np.rint(ranks).tolist()
    for chi, P in zip(G.characters, dense):
        np.testing.assert_allclose(pvm.projection(chi), P, rtol=0, atol=1e-12)
    for chi, mult in zip(pvm.support, pvm.multiplicities.tolist()):
        B, P = pvm.range_bases[chi], pvm.projection(chi)
        assert B.shape == (rep.dim, mult)
        np.testing.assert_allclose(B.conj().T @ B, np.eye(B.shape[1]), rtol=0, atol=1e-12)
        np.testing.assert_allclose(P @ B, B, rtol=0, atol=1e-12)


# the planted shapes of the spectral and rigging benchmark workloads, as
# (orders, dim, multiplicity), and labels on both sides of 0 and of n/2 on
# (4096,), where arg(lambda) wraps around and neighbours are 2 pi / n apart
BENCHMARK_SHAPES = [((2048,), 8, 1), ((4, 8, 8), 64, 1), ((2,) * 8, 32, 4),
                    ((256,), 8, 1), ((16, 16), 32, 4), ((4, 4, 4, 4), 32, 4)]
ADJACENT_LABELS = [0, 1, 2, 4094, 4095, 2047, 2048, 2049]


def character_average(rep):
    """(1/|G|) sum_g conj(<g|chi>) pi(g) at every chi: the defining average,
    over the operator stack through the transform engine, so it shares no
    step with the measure's eigenvector route."""
    return algebra._transform(rep.group, rep.operators) / rep.group.size


@pytest.mark.parametrize("orders, dim, mult, labels",
                         [(*shape, None) for shape in BENCHMARK_SHAPES]
                         + [((4096,), 8, 1, ADJACENT_LABELS)],
                         ids=[f"{'x'.join(map(str, o))}-d{d}x{m}" for o, d, m in BENCHMARK_SHAPES]
                         + ["4096-adjacent"])
def test_measure_projections_equal_the_character_average(orders, dim, mult, labels, rng):
    """Support, multiplicities and projections equal the character average;
    the average's own powers carry round-off growing with n_j (6e-13 on
    (4096,)), hence 1e-11."""
    G = make_group(orders)
    picks = rng.choice(G.size, dim // mult, replace=False) if labels is None else labels
    rep, _ = conjugated_diagonal_rep(G, G.characters_at(np.repeat(picks, mult)), rng)
    pvm = spectral_measure(rep)
    average = character_average(rep)
    ranks = np.rint(np.trace(average, axis1=1, axis2=2).real).astype(int)
    assert pvm.indices.tolist() == sorted(picks) == np.flatnonzero(ranks).tolist()
    assert pvm.multiplicities.tolist() == ranks[pvm.indices].tolist()
    np.testing.assert_allclose(pvm.projections, average[pvm.indices], rtol=0, atol=1e-11)
    assert np.abs(np.delete(average, pvm.indices, axis=0)).max() < 1e-11


def test_measure_allocates_less_than_one_operator_stack(rng):
    """The measure works on d x d restrictions, so beside the cached operator
    stack it holds far less than another stack."""
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


def measure_peak(G, rng, count=64):
    """``spectral_measure``'s traced peak on ``count`` planted characters of G."""
    picks = rng.choice(G.size, size=count, replace=False)
    rep, _ = conjugated_diagonal_rep(G, [G.characters[i] for i in picks], rng)
    tracemalloc.start()
    try:
        pvm = spectral_measure(rep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pvm.support) == count
    return peak


def test_measure_peaks_below_two_projection_stacks(rng):
    """The measure holds one d x d basis and a step's restrictions and
    eigenvectors: on 64 planted characters of (4,8,8) at d = 64 its traced
    peak stays within 2 MiB, half of one 4 MiB s x d x d stack."""
    assert measure_peak(make_group((4, 8, 8)), rng) <= 2 * 2 ** 20


def test_measure_peak_on_sixteen_order_two_factors(rng):
    """(2,)^16 at d = 64: sixteen refinement steps stay within 1 MiB."""
    assert measure_peak(make_group((2,) * 16), rng) <= 2 ** 20


def test_measure_holds_nothing_the_size_of_a_cyclic_factor(rng):
    """Each step works on the d x d generator and W, so on (65536,) at d = 9
    the measure's traced peak stays below 1 MiB (one 65536 x 9 x 9 power
    stack is 81 MiB)."""
    G = make_group((65536,))
    rep, _ = conjugated_diagonal_rep(G, G.characters_at(rng.choice(G.size, 9, replace=False)), rng)
    tracemalloc.start()
    try:
        pvm = spectral_measure(rep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pvm.support) == 9
    assert peak < 2 ** 20


def test_measure_raises_when_a_basis_column_leaves_its_range(monkeypatch):
    """A basis whose first column is rotated, by 1e-3, into the second stays
    unitary but no longer spans the eigenspace of its label: the restriction
    Q^dagger M Q gains an off-diagonal entry, and its residual catches it."""
    qr = np.linalg.qr

    def rotated(a, *args, **kwargs):
        out = qr(a, *args, **kwargs)
        c, s = np.cos(1e-3), np.sin(1e-3)
        out.Q[..., :2] = out.Q[..., :2] @ np.array([[c, -s], [s, c]])
        return out

    monkeypatch.setattr(np.linalg, "qr", rotated)
    with pytest.raises(NumericalDegeneracyError) as info:
        spectral_measure(regular_representation(make_group((4,))))
    assert info.value.residuals["restriction"] > representations.PVM_TOL


def test_measure_raises_when_an_eigenvalue_leaves_its_label(monkeypatch):
    """An eigenvalue moved on to the next fourth root of unity labels its
    eigenvector wrongly: Q^dagger M Q keeps the true eigenvalue on its
    diagonal, so the restriction residual reads |1 - i|."""
    eig = np.linalg.eig

    def shifted(a):
        lam, V = eig(a)
        lam[..., 0] *= 1j
        return lam, V

    monkeypatch.setattr(np.linalg, "eig", shifted)
    with pytest.raises(NumericalDegeneracyError) as info:
        spectral_measure(regular_representation(make_group((4,))))
    assert info.value.residuals["restriction"] == pytest.approx(2 ** 0.5)


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
    np.testing.assert_allclose(apply_algebra(pvm, delta(G, a)), operator_at(rep, a), atol=1e-12)


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
    V = comp.isometry
    np.testing.assert_allclose(V.conj().T @ V, np.eye(small_group.size), atol=1e-10)


def test_trivial_rep_splits_into_singleton_components():
    G = make_group((2,))
    pvm = spectral_measure(trivial_representation(G, dim=3))
    comps = cyclic_decomposition(pvm)
    assert len(comps) == 3
    for comp in comps:
        assert comp.support == (G.character((0,)),)
        assert comp.isometry.shape == (3, 1)


def test_multiplicity_two_rep_splits_into_two_components(rng):
    G = make_group((4,))
    slots = [G.character((0,)), G.character((1,)), G.character((1,)), G.character((3,))]
    rep, _ = conjugated_diagonal_rep(G, slots, rng)
    comps = cyclic_decomposition(spectral_measure(rep))
    assert len(comps) == 2
    assert [chi.coords for chi in comps[0].support] == [(0,), (1,), (3,)]
    assert [chi.coords for chi in comps[1].support] == [(1,)]


@pytest.mark.parametrize("orders, dim, mult", [((2,) * 8, 32, 4), ((4, 8, 8), 64, 1)])
def test_each_layer_is_read_off_the_basis(orders, dim, mult):
    # layer i holds column i of every range basis B_t with multiplicity > i:
    # bit-equal to the basis and to the kets of index i + 1, and its own copy
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    from workloads import planted_representation
    generators, _ = planted_representation(np.random.default_rng(3), orders, dim, mult)
    pvm = spectral_measure(make_representation(make_group(orders), generators))
    comps = cyclic_decomposition(pvm)
    assert len(comps) == mult
    starts = np.cumsum(pvm.multiplicities) - pvm.multiplicities
    kets = {(ket.character, ket.index): ket.vector for ket in dirac_kets(pvm).kets}
    for i, comp in enumerate(comps):
        keep = pvm.multiplicities > i
        np.testing.assert_array_equal(comp.columns, pvm.indices[keep])
        np.testing.assert_array_equal(comp.isometry, pvm.basis[:, starts[keep] + i])
        for chi, column in zip(comp.support, comp.isometry.T):
            np.testing.assert_array_equal(column, kets[chi, i + 1])
        np.testing.assert_array_equal(comp.cyclic_vector, comp.isometry.sum(axis=1))
        assert comp.isometry.flags.c_contiguous
        assert not comp.isometry.flags.writeable and not comp.cyclic_vector.flags.writeable
        assert diagonalize(comp) is comp


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
    model = diagonalize(cyclic_decomposition(pvm)[0])
    np.testing.assert_allclose(model.symbols(np.arange(G.size)), [[1.0, 1.0], [1.0, -1.0]],
                               atol=1e-12)
    assert diagonalization_residual(model, pvm.rep) < 1e-12


def test_diagonal_model_table_on_z4_regular():
    G = make_group((4,))
    pvm = spectral_measure(regular_representation(G))
    model = diagonalize(cyclic_decomposition(pvm)[0])
    table = model.symbols(np.arange(G.size))
    np.testing.assert_allclose(table[1], [1.0, 1j, -1.0, -1j], atol=1e-12)


def test_diagonal_model_scalar_case():
    G = make_group((3,))
    pvm = spectral_measure(trivial_representation(G, dim=1))
    model = diagonalize(cyclic_decomposition(pvm)[0])
    table = model.symbols(np.arange(G.size))
    assert table.shape == (3, 1)
    np.testing.assert_allclose(table, np.ones((3, 1)), atol=1e-12)


def test_diagonalization_residual_small_for_random_cases(rng):
    for orders in [(2, 2), (6,), (2, 4)]:
        G = make_group(orders)
        pvm = spectral_measure(regular_representation(G))
        for comp in cyclic_decomposition(pvm):
            model = diagonalize(comp)
            assert diagonalization_residual(model, pvm.rep) < 1e-9


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
        rebuilt = sum(G.pairing(g, chi) * pvm.projection(chi) for chi in pvm.support)
        worst = max(worst, np.linalg.norm(operator_at(pvm.rep, g) - rebuilt))
    return worst


def loop_diagonalization_residual(model, rep):
    G, V = rep.group, model.isometry
    worst = 0.0
    for g in G.elements:
        symbol = np.diag([G.pairing(g, chi) for chi in model.support])
        worst = max(worst, np.linalg.norm(V.conj().T @ operator_at(rep, g) @ V - symbol))
    return worst


def loop_invariance_residual(component, rep):
    proj = component.isometry @ component.isometry.conj().T
    leak = np.eye(rep.dim) - proj
    return max(np.linalg.norm(leak @ operator_at(rep, g) @ proj) for g in rep.group.elements)


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
        np.testing.assert_allclose(rep.operators[i], operator_at(rep, g), rtol=0, atol=1e-12)


def test_one_pass_residuals_equal_per_element_loops(rng):
    for rep in (regular_representation(make_group((2, 2, 2))), multiplicity_two_rep(rng)):
        pvm = spectral_measure(rep)
        assert abs(reconstruction_residual(pvm) - loop_reconstruction_residual(pvm)) < 1e-12
        for comp in cyclic_decomposition(pvm):
            model = diagonalize(comp)
            assert abs(diagonalization_residual(model, rep)
                       - loop_diagonalization_residual(model, rep)) < 1e-12
            assert abs(invariance_residual(comp, rep)
                       - loop_invariance_residual(comp, rep)) < 1e-12


def test_mixing_components_breaks_invariance_and_diagonalization(rng):
    rep = multiplicity_two_rep(rng)
    pvm = spectral_measure(rep)
    mixed = mixed_components(pvm)
    model = diagonalize(mixed)
    invariance = invariance_residual(mixed, rep)
    diag = diagonalization_residual(model, rep)
    assert invariance > 1e-6
    assert diag > 1e-6
    assert abs(invariance - loop_invariance_residual(mixed, rep)) < 1e-12
    assert abs(diag - loop_diagonalization_residual(model, rep)) < 1e-12


def test_perturbed_projection_breaks_the_reconstruction(rng):
    pvm = spectral_measure(multiplicity_two_rep(rng))
    bumped = pvm.basis.copy()
    bumped[0, 0] += 1e-6
    broken = replace(pvm, basis=bumped)
    residual = reconstruction_residual(broken)
    assert residual > 1e-7
    assert abs(residual - loop_reconstruction_residual(broken)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
def test_generator_powers_are_the_powers_of_the_generator(n, rng):
    G = make_group((n,))
    rep, _ = conjugated_diagonal_rep(G, [G.characters[n - 1]] * 2 + [G.characters[0]], rng)
    U = rep.generators[0]
    powers = generator_powers(U, n)
    assert powers.shape == (n, 3, 3)
    for m, power in enumerate(powers):
        np.testing.assert_allclose(power, np.linalg.matrix_power(U, m), rtol=0, atol=1e-13)


def test_binary_powers_are_the_identity_and_the_squares_of_each_generator(rng):
    G = make_group((5, 1, 4, 2))
    rep, _ = conjugated_diagonal_rep(G, [G.characters[i] for i in (7, 7, 33)], rng)
    indices, powers = binary_powers(rep)
    # ceil(log2 n) powers per factor: 3 + 0 + 2 + 1, after the identity
    assert indices.tolist() == [0, 8, 16, 32, 2, 4, 1]
    for index, power in zip(indices, powers):
        np.testing.assert_allclose(power, operator_at(rep, G.elements[index]), rtol=0, atol=1e-13)


def test_binary_powers_fill_one_stack(rng):
    """The powers are written into one preallocated (1 + L) x d x d stack:
    on (4,8,8) at d = 64 the traced peak stays within 1.25 stacks (a list
    copied into an array peaked at 1.78)."""
    G = make_group((4, 8, 8))
    picks = rng.choice(G.size, size=64, replace=False)
    rep, _ = conjugated_diagonal_rep(G, [G.characters[i] for i in picks], rng)
    tracemalloc.start()
    try:
        _, powers = binary_powers(rep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert powers.shape == (1 + 2 + 3 + 3, 64, 64)
    assert peak <= 1.25 * powers.nbytes


def certificate_and_oracles(rep):
    pvm = spectral_measure(rep)
    components = cyclic_decomposition(pvm)
    models = [diagonalize(comp) for comp in components]
    oracles = {
        "reconstruction": reconstruction_residual(pvm),
        "diagonalization": max(diagonalization_residual(m, rep) for m in models),
        "component_invariance": max(invariance_residual(c, rep) for c in components),
    }
    return relation_certificate(pvm, models), oracles


@pytest.mark.parametrize("orders", [(1,), (1, 4), (3, 1, 2), (5,), (2, 2, 2), (4, 6),
                                    (7, 1), (16,), (2, 3, 4), (1, 1)],
                         ids=lambda o: "x".join(map(str, o)))
def test_certificate_bounds_each_all_g_residual(orders, rng):
    """On random representations with a repeated character, each value
    certified on the binary powers is at least the all-G value of its oracle."""
    G = make_group(orders)
    for dim in (1, 2, 3, 6):
        picks = rng.integers(G.size, size=dim)
        picks[-1] = picks[0]  # multiplicity > 1 from dim 2 on
        rep, _ = conjugated_diagonal_rep(G, [G.characters[i] for i in picks], rng)
        certified, oracles = certificate_and_oracles(rep)
        assert certified.keys() == oracles.keys()
        for key, value in oracles.items():
            assert certified[key] >= value, key
        assert max(certified.values()) < 1e-12


def test_certificate_catches_a_mixed_component_and_a_perturbed_projection(rng):
    rep = multiplicity_two_rep(rng)
    pvm = spectral_measure(rep)
    mixed = mixed_components(pvm)
    certified = relation_certificate(pvm, [diagonalize(mixed)])
    assert certified["diagonalization"] >= diagonalization_residual(diagonalize(mixed), rep)
    assert certified["component_invariance"] >= invariance_residual(mixed, rep) > 1e-6
    bumped = pvm.basis.copy()
    bumped[0, 0] += 1e-6
    broken = replace(pvm, basis=bumped)
    assert relation_certificate(broken, [])["reconstruction"] >= reconstruction_residual(broken)
    assert reconstruction_residual(broken) > 1e-7


def test_measure_keeps_no_view_of_the_transformed_stack(rng):
    rep = multiplicity_two_rep(rng)
    pvm = spectral_measure(rep)
    assert len(pvm.support) < rep.group.size
    P = pvm.projections
    assert P.base is None or P.base.size < rep.group.size * rep.dim ** 2


def test_measure_raises_when_a_projection_is_not_idempotent(non_idempotent_measure):
    with pytest.raises(NumericalDegeneracyError) as info:
        spectral_measure(regular_representation(make_group((4,))))
    assert info.value.residuals["completeness"] > representations.PVM_TOL


def test_measure_raises_when_a_block_is_not_invariant():
    """Generators that commute only to about 1e-6, which make_representation
    refuses, assembled directly: the eigenvectors of X are not quite
    invariant under the rotated X', and only the invariance residual sees it."""
    G = make_group((2, 2))
    X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    c, s = np.cos(1e-6), np.sin(1e-6)
    R = np.array([[c, -s], [s, c]], dtype=complex)
    rep = UnitaryRep(group=G, dim=2, generators=(X, R @ X @ R.conj().T))
    with pytest.raises(NumericalDegeneracyError) as info:
        spectral_measure(rep)
    # only the failed residual is carried
    assert list(info.value.residuals) == ["invariance"]
    assert info.value.residuals["invariance"] > 1e-7
    assert "(invariance" in str(info.value)


def test_measure_raises_when_the_kept_ranks_do_not_fill_a_block(monkeypatch):
    """Eigenvectors that span rank 3 of a width-4 block (the second a copy
    of the first) leave the QR basis a column that is no eigenvector of its
    label: the restriction residual catches it."""
    eig = np.linalg.eig

    def thinned(a):
        lam, V = eig(a)
        V[..., 1] = V[..., 0]
        return lam, V

    monkeypatch.setattr(np.linalg, "eig", thinned)
    with pytest.raises(NumericalDegeneracyError) as info:
        spectral_measure(regular_representation(make_group((4,))))
    assert info.value.residuals["restriction"] > representations.PVM_TOL


def test_measure_completeness_sees_pieces_that_do_not_sum_to_their_block(
        non_idempotent_measure):
    # the basis is (1 + 1e-6) times a unitary, so the four pieces B_c B_c^dagger
    # sum to (1 + 1e-6)^2 I: completeness ||W^dagger W - I|| = 2 (2e-6) reports it
    with pytest.raises(NumericalDegeneracyError) as info:
        spectral_measure(regular_representation(make_group((4,))))
    assert info.value.residuals["completeness"] == pytest.approx(4e-6, rel=1e-3)
