"""Group construction, enumeration, arithmetic, and the character pairing."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelian_spectra import (
    InvalidGroupError,
    ShapeMismatchError,
    Group,
    make_group,
)


# ---------------------------------------------------------------------------
# construction and enumeration
# ---------------------------------------------------------------------------

def test_make_group_single_factor():
    G = make_group((2,))
    assert G.orders == (2,)
    assert G.size == 2
    assert G.num_factors == 1
    assert [g.coords for g in G.elements] == [(0,), (1,)]


def test_make_group_trivial():
    G = make_group((1,))
    assert G.size == 1
    assert G.elements == (G.identity,)
    assert G.element_order(G.identity) == 1


def test_enumeration_is_lexicographic_last_coordinate_fastest():
    G = make_group((2, 3))
    assert G.size == 6
    assert [g.coords for g in G.elements] == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    # characters are enumerated the same way
    assert [chi.coords for chi in G.characters] == [g.coords for g in G.elements]


def test_element_and_character_index_are_inverse_to_enumeration(small_group):
    G = small_group
    for i, g in enumerate(G.elements):
        assert G.element_index(g) == i
    for i, chi in enumerate(G.characters):
        assert G.character_index(chi) == i


@pytest.mark.parametrize("orders", [(), (0,), (-3,), (2, 0, 5)])
def test_make_group_rejects_bad_orders(orders):
    with pytest.raises(InvalidGroupError):
        make_group(orders)


def test_make_group_rejects_non_integer_orders():
    with pytest.raises(InvalidGroupError):
        make_group((2.5,))


def test_size_cap_enforced():
    with pytest.raises(InvalidGroupError, match="exceeds the size cap"):
        make_group((2,) * 17)  # 131072 > 65536
    # a custom cap applies too
    with pytest.raises(InvalidGroupError, match="exceeds the size cap 10"):
        make_group((3, 4), size_cap=10)
    # exactly at the cap is fine
    assert make_group((2,) * 16).size == 65536


def test_haar_weight_must_be_positive():
    with pytest.raises(InvalidGroupError):
        Group((2,), haar_weight=0.0)
    with pytest.raises(InvalidGroupError):
        Group((2,), haar_weight=-1.0)
    assert Group((2,), haar_weight=0.5).haar_weight == 0.5


def test_element_coordinates_are_range_checked():
    G = make_group((2, 3))
    with pytest.raises(ShapeMismatchError):
        G.element((0,))  # wrong length
    with pytest.raises(ShapeMismatchError):
        G.element((2, 0))  # out of range
    with pytest.raises(ShapeMismatchError):
        G.element((0, -1))
    with pytest.raises(ShapeMismatchError):
        G.character((0, 3))
    with pytest.raises(ShapeMismatchError):
        G.element(("a", 0))


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_op_wraps_componentwise():
    G = make_group((4,))
    assert G.op(G.element((3,)), G.element((2,))).coords == (1,)

    H = make_group((2, 3))
    assert H.op(H.element((1, 2)), H.element((1, 2))).coords == (0, 1)


def test_identity_and_negation():
    G = make_group((2, 3))
    e = G.identity
    for g in G.elements:
        assert G.op(g, e) == g
        assert G.op(g, G.neg(g)) == e
    assert G.neg(G.element((1, 2))).coords == (1, 1)


def test_neg_character():
    G = make_group((5,))
    assert G.neg_character(G.character((2,))).coords == (3,)
    assert G.neg_character(G.character((0,))).coords == (0,)


def test_neg_indices_invert_every_character(small_group):
    G = small_group
    expected = [G.character_index(G.neg_character(chi)) for chi in G.characters]
    assert G.neg_indices().tolist() == expected
    rows = np.random.default_rng(0).permutation(G.size)[: max(1, G.size // 2)]
    assert G.neg_indices(rows).tolist() == [expected[i] for i in rows]
    assert G.neg_indices([]).shape == (0,)


@pytest.mark.parametrize("orders", [(3, 1, 4), (2,) * 5])
def test_neg_indices_read_one_cached_array(orders):
    G = make_group(orders)
    coords = np.array([g.coords for g in G.elements])
    formula = (-coords % np.array(orders)) @ G._strides
    for indices in (slice(1, None, 2), [5, 0, 5, G.size - 1], np.arange(G.size)[::-1]):
        got = G.neg_indices(indices)
        assert got.dtype == formula.dtype
        np.testing.assert_array_equal(got, formula[indices])
    cached = G._neg_index
    assert G.neg_indices().base is cached and not cached.flags.writeable
    with pytest.raises(ValueError):
        G.neg_indices()[0] = 1


@pytest.mark.parametrize("orders", [(1,), (5,), (3, 4), (2,) * 16, (65536,), (4, 4, 4, 4),
                                    (1, 3, 1, 2), (256, 256)])
def test_neg_indices_match_the_coordinate_formula_without_a_coordinate_table(orders):
    G = make_group(orders)
    neg = G.neg_indices()
    assert "_coords" not in vars(G)
    coords = np.array(np.unravel_index(np.arange(G.size), orders)).T
    np.testing.assert_array_equal(neg, (-coords % np.array(orders)) @ G._strides)


def test_neg_indices_on_2_16_peak_at_two_index_vectors():
    G = make_group((2,) * 16)
    tracemalloc.start()
    try:
        G.neg_indices()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * G.size  # the index grid and its negation, 0.5 MiB each


def test_element_order():
    G = make_group((2, 3))
    assert G.element_order(G.element((1, 2))) == 6
    assert G.element_order(G.element((1, 0))) == 2
    assert G.element_order(G.element((0, 2))) == 3
    assert G.element_order(G.identity) == 1


def test_element_order_divides_group_size(small_group):
    G = small_group
    for g in G.elements:
        assert G.size % G.element_order(g) == 0


# ---------------------------------------------------------------------------
# pairing and tables
# ---------------------------------------------------------------------------

def test_pairing_values_on_small_cyclic_groups():
    Z2 = make_group((2,))
    assert Z2.pairing(Z2.element((1,)), Z2.character((1,))) == pytest.approx(-1.0)
    assert Z2.pairing(Z2.identity, Z2.character((1,))) == pytest.approx(1.0)

    Z4 = make_group((4,))
    assert Z4.pairing(Z4.element((1,)), Z4.character((1,))) == pytest.approx(1j, abs=1e-15)
    assert Z4.pairing(Z4.element((2,)), Z4.character((1,))) == pytest.approx(-1.0, abs=1e-15)
    assert Z4.pairing(Z4.element((3,)), Z4.character((1,))) == pytest.approx(-1j, abs=1e-15)


def test_pairing_table_z2():
    G = make_group((2,))
    np.testing.assert_allclose(G.pairing_table(), [[1, 1], [1, -1]], atol=1e-15)


def test_pairing_table_trivial_group():
    G = make_group((1,))
    np.testing.assert_array_equal(G.pairing_table(), [[1.0 + 0j]])


def test_pairing_table_klein_group_is_real_hadamard():
    G = make_group((2, 2))
    expected = np.array([
        [1, 1, 1, 1],
        [1, -1, 1, -1],
        [1, 1, -1, -1],
        [1, -1, -1, 1],
    ], dtype=complex)
    np.testing.assert_allclose(G.pairing_table(), expected, atol=1e-15)


def test_pairing_table_is_exactly_symmetric(small_group):
    tbl = small_group.pairing_table()
    assert np.array_equal(tbl, tbl.T)


def test_pairing_table_rows_are_orthogonal(small_group):
    G = small_group
    tbl = G.pairing_table()
    np.testing.assert_allclose(tbl.conj().T @ tbl, G.size * np.eye(G.size), atol=1e-12)


def test_pairing_block_matches_table(small_group):
    G = small_group
    tbl = G.pairing_table()
    mid = G.size // 2
    np.testing.assert_array_equal(G.pairing_block(0, mid), tbl[:mid])
    np.testing.assert_array_equal(G.pairing_block(mid, G.size), tbl[mid:])


def test_pairing_rows_match_the_table(small_group):
    # pairing_at reads any block of the table from its indices alone, bit-equal
    # to the table, and pairing is its single entry
    rng = np.random.default_rng(0)
    for G in (small_group, make_group((3, 1, 4))):
        table = G.pairing_table()
        rows, cols = rng.permutation(G.size), rng.permutation(G.size)[:max(1, G.size // 2)]
        np.testing.assert_array_equal(G.pairing_at(rows, cols), table[np.ix_(rows, cols)])
        assert G.pairing_at(rows, []).shape == (G.size, 0)
        for i, g in enumerate(G.elements):
            for j, chi in enumerate(G.characters):
                assert G.pairing(g, chi) == G.pairing_at([i], [j])[0, 0] == table[i, j]


@pytest.mark.parametrize("orders", [(4, 6), (3, 5, 7), (2, 2, 2, 2), (64,)])
def test_scalar_pairing_is_bit_equal_to_the_block(orders):
    # pairing takes its integer phase in Python ints and pairing_at in an
    # integer matmul; both map it by the same exp, so every entry, signed
    # zeros included, has the same bits
    G = make_group(orders)
    scalar = np.array([[G.pairing(g, chi) for chi in G.characters] for g in G.elements])
    block = G.pairing_at(np.arange(G.size), np.arange(G.size))
    assert scalar.dtype == block.dtype and scalar.tobytes() == block.tobytes()


@pytest.mark.parametrize("orders", [(4, 6), (3, 5, 7), (2, 2, 2, 2), (64,), (3, 1, 4)])
def test_coords_at_reads_the_mixed_radix_digits(orders):
    G = make_group(orders)
    indices = np.arange(G.size)
    np.testing.assert_array_equal(G.coords_at(indices),
                                  np.stack(np.unravel_index(indices, orders), axis=-1))
    assert G.coords_at([]).shape == (0, len(orders))
    for i in range(G.size):
        assert G.element_index(G.element(G.coords_at([i])[0])) == i
    for outside in ([-1], [G.size], [0, G.size + 3]):
        with pytest.raises(ValueError):
            G.coords_at(outside)


def test_pairing_is_multiplicative_in_the_element():
    G = make_group((3, 4))
    chi = G.character((2, 3))
    for a in G.elements:
        for b in G.elements:
            lhs = G.pairing(G.op(a, b), chi)
            rhs = G.pairing(a, chi) * G.pairing(b, chi)
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_pairing_has_unit_modulus(small_group):
    G = small_group
    np.testing.assert_allclose(np.abs(G.pairing_table()), 1.0, atol=1e-13)


# ---------------------------------------------------------------------------
# translation structure
# ---------------------------------------------------------------------------

def test_translate_indices_against_brute_force():
    G = make_group((2, 3))
    for g in G.elements:
        idx = G.translate_indices(g)
        for i, h in enumerate(G.elements):
            assert idx[i] == G.element_index(G.op(h, G.neg(g)))


def test_translation_matrix_is_permutation(small_group):
    G = small_group
    for g in G.elements:
        T = G.translation_matrix(g)
        assert T.shape == (G.size, G.size)
        np.testing.assert_array_equal(T @ T.conj().T, np.eye(G.size))


def test_translation_matrices_compose():
    G = make_group((2, 2))
    a, b = G.element((1, 0)), G.element((0, 1))
    np.testing.assert_array_equal(
        G.translation_matrix(G.op(a, b)),
        G.translation_matrix(a) @ G.translation_matrix(b))


def test_difference_indices_against_brute_force():
    G = make_group((2, 3))
    idx = G.difference_indices()
    for i, gi in enumerate(G.elements):
        for j, gj in enumerate(G.elements):
            assert idx[i, j] == G.element_index(G.op(gi, G.neg(gj)))


# ---------------------------------------------------------------------------
# property-based structure checks
# ---------------------------------------------------------------------------

order_lists = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3)


@settings(max_examples=40, deadline=None)
@given(order_lists, st.integers(0, 10 ** 9), st.integers(0, 10 ** 9))
def test_group_addition_is_commutative_and_associative(orders, seed_a, seed_b):
    G = make_group(orders)
    a = G.elements[seed_a % G.size]
    b = G.elements[seed_b % G.size]
    assert G.op(a, b) == G.op(b, a)
    for c in (G.identity, G.neg(a)):
        assert G.op(G.op(a, b), c) == G.op(a, G.op(b, c))


@settings(max_examples=40, deadline=None)
@given(order_lists, st.integers(0, 10 ** 9))
def test_element_order_annihilates(orders, seed):
    G = make_group(orders)
    g = G.elements[seed % G.size]
    n = G.element_order(g)
    acc = G.identity
    for _ in range(n):
        acc = G.op(acc, g)
    assert acc == G.identity
    # and no smaller positive power does
    acc = G.identity
    for k in range(1, n):
        acc = G.op(acc, g)
        assert acc != G.identity


@settings(max_examples=30, deadline=None)
@given(order_lists, st.integers(0, 10 ** 9), st.integers(0, 10 ** 9))
def test_pairing_is_multiplicative_in_the_character(orders, seed_g, seed_chi):
    G = make_group(orders)
    g = G.elements[seed_g % G.size]
    chi = G.characters[seed_chi % G.size]
    neg = G.neg_character(chi)
    prod = G.pairing(g, chi) * G.pairing(g, neg)
    assert prod == pytest.approx(1.0, abs=1e-12)


def test_group_size_matches_product_of_orders():
    G = make_group((3, 5, 7))
    assert G.size == math.prod(G.orders) == 105
