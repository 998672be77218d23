"""Convolution algebra of complex functions on a finite abelian group.

Implements the involutive Banach-algebra structure (convolution and the
star involution), the transform to the dual side and its inverse, the
positive-type test with two independent routes, and the translation-
invariant Hermitian form attached to a positive-type function.

Every character sum goes through one engine, ``_transform``: with the
enumeration in C order (last coordinate fastest) the sum over
Z_{n_1} x ... x Z_{n_k} is numpy's N-d FFT on the factor grid, so
transforms and convolution cost O(|G| log |G|).  Only the Hermitian
form and the positivity route built on it stay dense, as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GroupMismatchError, InconsistencyError, ShapeMismatchError
from .groups import Character, Element, Group

POSITIVITY_TOL = 1e-10


def _as_vector(values, size: int, what: str) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if arr.ndim != 1 or arr.shape[0] != size:
        raise ShapeMismatchError(
            f"{what} needs {size} values in enumeration order, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class GroupFunction:
    """Complex function on the group, values in element enumeration order."""

    group: Group
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_vector(self.values, self.group.size, "function"))

    def __call__(self, g: Element) -> complex:
        return complex(self.values[self.group.element_index(g)])


@dataclass(frozen=True)
class DualFunction:
    """Complex function on the dual group, values in character enumeration order."""

    group: Group
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_vector(self.values, self.group.size, "dual function"))

    def __call__(self, chi: Character) -> complex:
        return complex(self.values[self.group.character_index(chi)])


def _same_group(a, b) -> Group:
    if a.group != b.group:
        raise GroupMismatchError(
            f"operands live on different groups: {a.group.orders} vs {b.group.orders}")
    return a.group


def _transform(group: Group, values: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Character sum over the leading |G| axis of ``values``, unnormalised.

    Forward: out[chi] = sum_g conj(<g|chi>) values[g].  Inverse:
    out[g] = sum_chi <g|chi> values[chi].  The leading axis is reshaped
    onto the factor grid and transformed by the N-d FFT, one 1-d FFT per
    factor axis (cheaper per call than ``fftn`` on small groups); trailing
    axes are carried through untouched.
    """
    values = np.asarray(values, dtype=complex)
    fft, norm = (np.fft.ifft, "forward") if inverse else (np.fft.fft, "backward")
    out = values.reshape(group.orders + values.shape[1:])
    for axis in range(group.num_factors):
        out = fft(out, axis=axis, norm=norm)
    return out.reshape(values.shape)


def delta(group: Group, at: Element | None = None) -> GroupFunction:
    """Indicator of a single element (the identity by default)."""
    values = np.zeros(group.size, dtype=complex)
    values[group.element_index(at if at is not None else group.identity)] = 1.0
    return GroupFunction(group, values)


def character_function(group: Group, chi: Character) -> GroupFunction:
    """The character chi as a function on the group, g -> <g|chi>."""
    j = group.character_index(chi)
    return GroupFunction(group, group.pairing_block(j, j + 1)[0])


def convolve(f: GroupFunction, h: GroupFunction) -> GroupFunction:
    """(f * h)(g) = sum_{g'} f(g') h(g - g') (times the Haar weight)."""
    group = _same_group(f, h)
    product = _transform(group, f.values) * _transform(group, h.values)
    out = _transform(group, product, inverse=True)
    return GroupFunction(group, (group.haar_weight / group.size) * out)


def involution(f: GroupFunction) -> GroupFunction:
    """The star involution f*(g) = conj(f(-g))."""
    group = f.group
    neg_idx = (-group._coords % group._orders_arr) @ group._strides
    return GroupFunction(group, np.conj(f.values[neg_idx]))


def fourier(f: GroupFunction) -> DualFunction:
    """Transform to the dual side, F(chi) = sum_g conj(<g|chi>) f(g)."""
    if not isinstance(f, GroupFunction):
        raise GroupMismatchError("fourier expects a function on the group domain")
    group = f.group
    return DualFunction(group, group.haar_weight * _transform(group, f.values))


def inverse_fourier(F: DualFunction) -> GroupFunction:
    """Inverse transform, f(g) = (1/|G|) sum_chi <g|chi> F(chi)."""
    if not isinstance(F, DualFunction):
        raise GroupMismatchError("inverse_fourier expects a function on the dual domain")
    group = F.group
    out = _transform(group, F.values, inverse=True)
    return GroupFunction(group, out / (group.haar_weight * group.size))


def hermitian_form(phi: GroupFunction) -> np.ndarray:
    """Matrix M of the sesquilinear form attached to phi.

    M[g', g] = phi(g - g'), arranged so that <h|f>_phi = sum conj(h) M f
    and so that the quotient construction returns phi itself as the
    diagonal matrix coefficient of its cyclic vector.  Dense by design:
    it is the oracle side of the positive-type test.
    """
    group = phi.group
    # difference_indices gives index(g_i - g_j); the form needs the
    # transposed difference g_j - g_i, i.e. the negated index.
    neg = (-group._coords % group._orders_arr) @ group._strides
    flipped = (group.haar_weight ** 2) * phi.values[neg]
    return flipped[group.difference_indices()]


@dataclass(frozen=True)
class PositivityReport:
    """Outcome of the two-route positive-type test."""

    verdict: bool
    min_fourier: float
    min_gram_eigenvalue: float
    max_fourier_imag: float
    max_gram_imag: float
    tol: float

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "min_fourier": self.min_fourier,
            "min_gram_eigenvalue": self.min_gram_eigenvalue,
            "max_fourier_imag": self.max_fourier_imag,
            "max_gram_imag": self.max_gram_imag,
            "tol": self.tol,
        }


def is_positive_type(phi: GroupFunction, tol: float = POSITIVITY_TOL) -> PositivityReport:
    """Test whether phi is of positive type, by two independent routes.

    Route (a) examines the eigenvalues of the Hermitian form's matrix;
    route (b) checks non-negativity of the transform (the dual-side
    characterisation of positive-type functions).  The two routes agree
    for exact data; a disagreement beyond tolerance raises
    InconsistencyError because it indicates a bug rather than bad input.
    Eigenvalues in [-tol, 0) are accepted as zero.
    """
    F = fourier(phi).values
    min_fourier = float(np.min(F.real))
    max_fourier_imag = float(np.max(np.abs(F.imag)))
    ok_fourier = min_fourier >= -tol and max_fourier_imag < tol

    eigs = np.linalg.eigvals(hermitian_form(phi))
    min_gram = float(np.min(eigs.real))
    max_gram_imag = float(np.max(np.abs(eigs.imag)))
    ok_gram = min_gram >= -tol and max_gram_imag < tol

    if ok_gram != ok_fourier:
        # Verdicts may only differ when a diagnostic sits within round-off
        # of the tolerance boundary; a real spread between the routes means
        # the algebra is broken.
        if abs(min_gram - min_fourier) > tol or abs(max_gram_imag - max_fourier_imag) > tol:
            raise InconsistencyError(
                "positive-type routes disagree: "
                f"min eigenvalue {min_gram:.6e} vs min transform {min_fourier:.6e}")

    return PositivityReport(
        verdict=bool(ok_gram and ok_fourier),
        min_fourier=min_fourier,
        min_gram_eigenvalue=min_gram,
        max_fourier_imag=max_fourier_imag,
        max_gram_imag=max_gram_imag,
        tol=float(tol),
    )
