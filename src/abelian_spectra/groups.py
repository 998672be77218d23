"""Finite abelian groups presented as explicit products of cyclic factors.

A group is a product Z_{n_1} x ... x Z_{n_k}; elements and characters are
coordinate tuples, enumerated lexicographically (last coordinate fastest).
The dual group is identified with the group itself through the exponential
pairing, and all integration uses the counting measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidGroupError, ShapeMismatchError

DEFAULT_SIZE_CAP = 65536


def _coerce_coords(coords: Iterable[int]) -> tuple[int, ...]:
    try:
        return tuple(int(c) for c in coords)
    except (TypeError, ValueError) as exc:
        raise ShapeMismatchError(f"coordinates must be integers, got {coords!r}") from exc


@dataclass(frozen=True)
class Element:
    """Group element given by one residue coordinate per cyclic factor."""

    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", _coerce_coords(self.coords))


@dataclass(frozen=True)
class Character:
    """Character of the group, labelled by one residue per cyclic factor."""

    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", _coerce_coords(self.coords))


@dataclass(frozen=True)
class Group:
    """Product of cyclic groups with a constant Haar weight per element."""

    orders: tuple[int, ...]
    haar_weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(int(n) for n in self.orders))
        if len(self.orders) == 0:
            raise InvalidGroupError("a group needs at least one cyclic factor")
        if any(n < 1 for n in self.orders):
            raise InvalidGroupError(f"cyclic factor orders must be >= 1, got {self.orders}")
        if not (self.haar_weight > 0):
            raise InvalidGroupError(f"haar_weight must be positive, got {self.haar_weight}")

    # -- basic shape -------------------------------------------------

    @cached_property
    def size(self) -> int:
        return math.prod(self.orders)

    @property
    def num_factors(self) -> int:
        return len(self.orders)

    @cached_property
    def _orders_arr(self) -> np.ndarray:
        return np.asarray(self.orders, dtype=np.int64)

    @cached_property
    def _strides(self) -> np.ndarray:
        """Mixed-radix strides so that index = coords . strides."""
        strides = np.ones(len(self.orders), dtype=np.int64)
        for j in range(len(self.orders) - 2, -1, -1):
            strides[j] = strides[j + 1] * self.orders[j + 1]
        return strides

    @cached_property
    def _lcm(self) -> int:
        return math.lcm(*self.orders)

    @cached_property
    def _coords(self) -> np.ndarray:
        """All coordinate tuples in enumeration order, shape (size, k)."""
        grids = np.indices(self.orders).reshape(len(self.orders), -1)
        return np.ascontiguousarray(grids.T.astype(np.int64))

    # -- elements and characters -------------------------------------

    @cached_property
    def identity(self) -> Element:
        return Element((0,) * len(self.orders))

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        return tuple(Element(tuple(row)) for row in self._coords)

    @cached_property
    def characters(self) -> tuple[Character, ...]:
        return tuple(Character(tuple(row)) for row in self._coords)

    def dual_group(self) -> tuple[Character, ...]:
        """All characters in enumeration order (the dual is self-indexed)."""
        return self.characters

    def element(self, coords: Iterable[int]) -> Element:
        el = Element(tuple(coords))
        self._check_coords(el.coords, "element")
        return el

    def character(self, coords: Iterable[int]) -> Character:
        chi = Character(tuple(coords))
        self._check_coords(chi.coords, "character")
        return chi

    def _check_coords(self, coords: tuple[int, ...], kind: str) -> None:
        if len(coords) != len(self.orders):
            raise ShapeMismatchError(
                f"{kind} has {len(coords)} coordinates but the group has "
                f"{len(self.orders)} cyclic factors")
        for c, n in zip(coords, self.orders):
            if not 0 <= c < n:
                raise ShapeMismatchError(
                    f"{kind} coordinate {c} out of range for cyclic factor of order {n}")

    def element_index(self, g: Element) -> int:
        self._check_coords(g.coords, "element")
        return int(np.dot(np.asarray(g.coords, dtype=np.int64), self._strides))

    def character_index(self, chi: Character) -> int:
        self._check_coords(chi.coords, "character")
        return int(np.dot(np.asarray(chi.coords, dtype=np.int64), self._strides))

    # -- group law ----------------------------------------------------

    def op(self, a: Element, b: Element) -> Element:
        """Componentwise addition modulo the factor orders."""
        self._check_coords(a.coords, "element")
        self._check_coords(b.coords, "element")
        return Element(tuple((x + y) % n for x, y, n in zip(a.coords, b.coords, self.orders)))

    def neg(self, a: Element) -> Element:
        self._check_coords(a.coords, "element")
        return Element(tuple((-x) % n for x, n in zip(a.coords, self.orders)))

    def neg_character(self, chi: Character) -> Character:
        self._check_coords(chi.coords, "character")
        return Character(tuple((-x) % n for x, n in zip(chi.coords, self.orders)))

    def element_order(self, g: Element) -> int:
        """Order of g: lcm over factors of n_j / gcd(g_j, n_j)."""
        self._check_coords(g.coords, "element")
        return math.lcm(*(n // math.gcd(c, n) for c, n in zip(g.coords, self.orders)))

    # -- the pairing ---------------------------------------------------

    def pairing(self, g: Element, chi: Character) -> complex:
        """<g|chi> = exp(2*pi*i * sum_j g_j chi_j / n_j), a root of unity.

        The phase is accumulated with exact integer arithmetic over the
        common denominator lcm(orders), so equal phases give bit-equal
        results.
        """
        self._check_coords(g.coords, "element")
        self._check_coords(chi.coords, "character")
        L = self._lcm
        num = 0
        for x, c, n in zip(g.coords, chi.coords, self.orders):
            num += x * c * (L // n)
        return complex(np.exp(2j * np.pi * ((num % L) / L)))

    def pairing_block(self, start: int, stop: int) -> np.ndarray:
        """Rows [start, stop) of the pairing table T[i, j] = <g_i|chi_j>.

        The table is symmetric, so the same call also yields character
        columns.  Phases use exact integer arithmetic as in ``pairing``.
        """
        L = self._lcm
        mult = (L // self._orders_arr)
        left = self._coords[start:stop] * mult  # (b, k)
        num = left @ self._coords.T % L
        return np.exp((2j * np.pi / L) * num)

    def pairing_table(self) -> np.ndarray:
        """Full |G| x |G| pairing table; quadratic memory, use with care."""
        return self.pairing_block(0, self.size)

    # -- translations ----------------------------------------------------

    def translate_indices(self, g: Element) -> np.ndarray:
        """Index map idx with (T_g f)[i] = f[idx[i]], idx[i] = index(g_i - g)."""
        self._check_coords(g.coords, "element")
        shifted = (self._coords - np.asarray(g.coords, dtype=np.int64)) % self._orders_arr
        return shifted @ self._strides

    def translation_matrix(self, g: Element) -> np.ndarray:
        """Permutation matrix of left translation (T_g f)(g') = f(g' - g)."""
        idx = self.translate_indices(g)
        mat = np.zeros((self.size, self.size), dtype=complex)
        mat[np.arange(self.size), idx] = 1.0
        return mat

    def difference_indices(self) -> np.ndarray:
        """Full |G| x |G| index table D[i, j] = index(g_i - g_j)."""
        coords = self._coords
        out = np.zeros((self.size, self.size), dtype=np.int64)
        for k, n in enumerate(self.orders):
            out += ((coords[:, k, None] - coords[None, :, k]) % n) * self._strides[k]
        return out


def make_group(orders: Sequence[int], size_cap: int = DEFAULT_SIZE_CAP) -> Group:
    """Build the product of cyclic groups Z_{n_1} x ... x Z_{n_k}.

    Raises InvalidGroupError for an empty factor list, non-positive
    orders, or a total size above ``size_cap``.
    """
    orders = tuple(orders)
    if len(orders) == 0:
        raise InvalidGroupError("a group needs at least one cyclic factor")
    for n in orders:
        if int(n) != n or int(n) < 1:
            raise InvalidGroupError(f"cyclic factor orders must be positive integers, got {n!r}")
    size = math.prod(int(n) for n in orders)
    if size > size_cap:
        raise InvalidGroupError(f"group size {size} exceeds the size cap {size_cap}")
    return Group(tuple(int(n) for n in orders))
