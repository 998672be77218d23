"""Quotient Hilbert space and representation induced by a positive-type function.

The Hermitian form of a positive-type function phi is diagonalised; the
quotient by its null space carries left translation as a unitary
representation with the class of the identity point mass as cyclic
vector, whose diagonal matrix coefficient recovers phi exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (
    POSITIVITY_TOL,
    GroupFunction,
    PositivityReport,
    _transform,
    delta,
    hermitian_form,
    is_positive_type,
)
from .errors import GroupMismatchError, InconsistencyError, PositiveTypeError
from .groups import Element, Group
from .representations import RANK_TOL, UnitaryRep, make_representation


@dataclass(frozen=True)
class GNSSpace:
    """Quotient space data for a positive-type function.

    ``quotient_basis`` Q holds coordinates of an orthonormal basis for the
    form <h|f> = h^dagger gram f (columns are eigenvectors of gram scaled
    by inverse square-root eigenvalues); ``eta`` is the class of the
    identity point mass in those coordinates.  ``positivity`` is the
    two-route positive-type report the construction was admitted on.
    """

    group: Group
    phi: GroupFunction
    gram: np.ndarray
    eigenvalues: np.ndarray
    rank: int
    quotient_basis: np.ndarray
    null_basis: np.ndarray
    eta: np.ndarray
    positivity: PositivityReport

    @cached_property
    def _gram_q(self) -> np.ndarray:
        return self.gram @ self.quotient_basis

    def class_coordinates(self, f: GroupFunction) -> np.ndarray:
        """Coordinates of the class of f in the orthonormal quotient basis."""
        if f.group != self.group:
            raise GroupMismatchError("function lives on a different group")
        return self._gram_q.conj().T @ f.values

    def operator(self, g: Element) -> np.ndarray:
        """Image of g: left translation compressed to the quotient."""
        idx = self.group.translate_indices(g)
        return self._gram_q.conj().T @ self.quotient_basis[idx]

    def generator_images(self) -> list[np.ndarray]:
        images = []
        for j in range(self.group.num_factors):
            coords = [0] * self.group.num_factors
            coords[j] = 1 % self.group.orders[j]
            images.append(self.operator(self.group.element(coords)))
        return images

    def representation(self) -> UnitaryRep:
        """The quotient representation, validated as a UnitaryRep."""
        return make_representation(self.group, self.generator_images())


def gns_construct(phi: GroupFunction, tol: float = POSITIVITY_TOL,
                  rank_tol: float = RANK_TOL) -> GNSSpace:
    """Build the quotient space of a positive-type function.

    Raises PositiveTypeError when phi fails the positivity test at
    ``tol``.  The quotient rank is the number of eigenvalues of the form
    above ``rank_tol`` relative to the largest one, which equals the size
    of the transform's support.
    """
    report = is_positive_type(phi, tol)
    if not report.verdict:
        raise PositiveTypeError(
            f"function is not of positive type (min transform {report.min_fourier:.6e}, "
            f"min form eigenvalue {report.min_gram_eigenvalue:.6e})",
            min_fourier=report.min_fourier,
            min_gram_eigenvalue=report.min_gram_eigenvalue)

    group = phi.group
    gram = hermitian_form(phi)
    gram = (gram + gram.conj().T) / 2.0  # kill round-off skew; exact for positive type
    eigvals, eigvecs = np.linalg.eigh(gram)
    order = np.argsort(eigvals, kind="stable")[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]

    lam_max = float(eigvals[0]) if eigvals.size else 0.0
    if lam_max <= 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(eigvals > rank_tol * lam_max))
    quotient_basis = eigvecs[:, :rank] / np.sqrt(eigvals[:rank])
    null_basis = eigvecs[:, rank:]

    # Class of the identity point mass delta_e / weight.
    gram_q = gram @ quotient_basis
    eta = gram_q.conj().T @ delta(group).values / group.haar_weight

    space = GNSSpace(group=group, phi=phi, gram=gram, eigenvalues=eigvals, rank=rank,
                     quotient_basis=quotient_basis, null_basis=null_basis, eta=eta,
                     positivity=report)
    _check_null_invariance(space)
    return space


def _check_null_invariance(space: GNSSpace) -> None:
    """Translations must map the null space into itself.

    The form matrix is translation invariant entry-for-entry, so for a
    discarded eigenvector n with eigenvalue lam_n the quotient leakage of
    any translate is lam_n / sqrt(min kept eigenvalue); the check uses
    twice that bound, which only an algebra bug can exceed.
    """
    if space.rank == 0 or space.null_basis.shape[1] == 0:
        return
    lam_null = float(max(np.max(space.eigenvalues[space.rank:]), 0.0))
    lam_kept_min = float(space.eigenvalues[space.rank - 1])
    bound = 2.0 * lam_null * math.sqrt(space.null_basis.shape[1] / lam_kept_min) + 1e-12
    gq = space._gram_q
    for j in range(space.group.num_factors):
        coords = [0] * space.group.num_factors
        coords[j] = 1 % space.group.orders[j]
        idx = space.group.translate_indices(space.group.element(coords))
        leak = float(np.linalg.norm(gq.conj().T @ space.null_basis[idx]))
        if leak > bound:
            raise InconsistencyError(
                f"translation by generator {j} leaks the null space into the quotient "
                f"(leak {leak:.3e}, bound {bound:.3e})")


def gns_algebra_action(space: GNSSpace, f: GroupFunction) -> np.ndarray:
    """Quotient image of convolution by f (the lift of the algebra)."""
    group = space.group
    if f.group != group:
        raise GroupMismatchError("function lives on a different group")
    # Convolution by f, applied to every column of Q at once.
    spectrum = _transform(group, f.values)[:, None] * _transform(group, space.quotient_basis)
    conv_q = _transform(group, spectrum, inverse=True) * (group.haar_weight / group.size)
    return space._gram_q.conj().T @ conv_q


def reconstruct_phi(space: GNSSpace) -> GroupFunction:
    """Diagonal matrix coefficient of the cyclic vector; equals phi."""
    values = np.empty(space.group.size, dtype=complex)
    for i, g in enumerate(space.group.elements):
        values[i] = np.vdot(space.eta, space.operator(g) @ space.eta)
    return GroupFunction(space.group, values)
