"""Quotient Hilbert space and representation induced by a positive-type function.

On a finite abelian group the characters diagonalise the Hermitian form
of phi: the conjugated character psi is an eigenvector with eigenvalue
lambda_psi = weight * F(psi), F the transform of phi (Bochner).  The
quotient by the form's null space is therefore spanned by the characters
in the support of F, each scaled to unit form norm.  Left translation by
g acts on it diagonally through the pairing <g|psi>, and the class of the
identity point mass is a cyclic vector whose diagonal matrix coefficient
recovers phi.  Everything, the positivity verdict (F >= 0) included,
follows from one transform of phi, checked once against the form applied
by FFT; the dense form stays in ``algebra`` as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (
    GroupFunction,
    PositivityReport,
    _transform,
    apply_hermitian_form,
    checked_finite,
    fourier,
    transform_positivity,
)
from .errors import GroupMismatchError, InconsistencyError, PositiveTypeError
from .groups import Element, Group
from .representations import RANK_TOL, UnitaryRep, make_representation


@dataclass(frozen=True)
class GNSSpace:
    """Quotient space data for a positive-type function.

    ``eigenvalues`` are the form's eigenvalues weight * Re F over all
    characters, in descending order (ties keep enumeration order); the
    first ``rank`` of those characters are the support, whose indices
    ``support`` holds.  ``characters`` holds the support characters as
    columns, characters[g, s] = <g|psi_s>, and ``quotient_basis`` Q their
    conjugates scaled to unit form norm, an orthonormal basis for
    <h|f> = h^dagger hermitian_form(phi) f.  ``eta`` is the class of the
    identity point mass in those coordinates; ``positivity`` is the
    closed-form report, read off the transform, it was admitted on.
    """

    group: Group
    phi: GroupFunction
    eigenvalues: np.ndarray
    rank: int
    support: np.ndarray
    characters: np.ndarray
    quotient_basis: np.ndarray
    eta: np.ndarray
    positivity: PositivityReport

    @cached_property
    def _gram_q(self) -> np.ndarray:
        return self.quotient_basis * self.eigenvalues[:self.rank]

    def class_coordinates(self, f: GroupFunction) -> np.ndarray:
        """Coordinates of the class of f in the orthonormal quotient basis."""
        if f.group != self.group:
            raise GroupMismatchError("function lives on a different group")
        return self._gram_q.conj().T @ f.values

    def operator(self, g: Element) -> np.ndarray:
        """Image of g: the support characters evaluated at g, on the diagonal."""
        return np.diag(self.characters[self.group.element_index(g)])

    def generator_images(self) -> np.ndarray:
        """Diagonals of the generator images, k x rank: row j holds the
        support characters evaluated at the generator of factor j."""
        return self.characters[self.group.generator_indices]

    def representation(self) -> UnitaryRep:
        """The quotient representation as dense diagonal images, validated."""
        return make_representation(self.group, [np.diag(d) for d in self.generator_images()])


def gns_construct(phi: GroupFunction) -> GNSSpace:
    """Build the quotient space of a positive-type function in closed form.

    Raises NumericalDegeneracyError when the transform of phi overflows,
    and PositiveTypeError when it is not non-negative.  The quotient rank
    is the number of eigenvalues of the form above RANK_TOL relative to
    the largest one, which equals the size of the transform's support.
    Raises InconsistencyError when the support characters are not
    eigenvectors of the form to round-off, which only an algebra bug can cause.
    """
    group = phi.group
    F = checked_finite("transform of phi", lambda: fourier(phi)).values
    report = transform_positivity(F, group.haar_weight)
    if not report.verdict:
        raise PositiveTypeError(
            f"function is not of positive type (min transform {report.min_fourier:.6e}, "
            f"max |Im transform| {report.max_fourier_imag:.6e}, "
            f"min form eigenvalue {report.min_gram_eigenvalue:.6e}, tol {report.tol:.1e})",
            min_fourier=report.min_fourier,
            min_gram_eigenvalue=report.min_gram_eigenvalue)

    lam = group.haar_weight * F.real
    order = np.argsort(-lam, kind="stable")
    eigvals = lam[order]

    lam_max = float(eigvals[0])
    rank = 0 if lam_max <= 0.0 else int(np.count_nonzero(eigvals > RANK_TOL * lam_max))
    lam_s = eigvals[:rank]
    support = order[:rank]
    characters = group.pairing_rows(support).T
    conj_chars = characters.conj()

    # The form scales each conjugated character by weight * F (lam_s is the
    # real part); the FFT's O(eps log |G| lam_max) round-off is far below the bound.
    gap = apply_hermitian_form(phi, conj_chars) - conj_chars * (group.haar_weight * F[support])
    residual = float(np.abs(gap).max(initial=0.0))
    bound = 1e-12 * group.size * max(lam_max, 0.0)
    if residual > bound:
        raise InconsistencyError(
            f"support characters are not eigenvectors of the form "
            f"(residual {residual:.3e}, bound {bound:.3e})")

    return GNSSpace(group=group, phi=phi, eigenvalues=eigvals, rank=rank,
                    support=support, characters=characters,
                    quotient_basis=conj_chars / np.sqrt(group.size * lam_s),
                    eta=np.sqrt(lam_s / group.size) / group.haar_weight,
                    positivity=report)


def gns_algebra_action(space: GNSSpace, f: GroupFunction) -> np.ndarray:
    """Quotient image of convolution by f (the lift of the algebra).

    Convolution by f scales the support character psi by
    weight * sum_g f(g) <g|psi>, so the image is diagonal.
    """
    if f.group != space.group:
        raise GroupMismatchError("function lives on a different group")
    return np.diag(space.group.haar_weight * (f.values @ space.characters))


def reconstruct_phi(space: GNSSpace) -> GroupFunction:
    """Diagonal matrix coefficient of the cyclic vector; equals phi.

    <eta, pi(g) eta> = sum over the support of |eta_psi|^2 <g|psi>, for
    every g at once: one inverse transform of |eta|^2 placed on the support.
    """
    weights = np.zeros(space.group.size)
    weights[space.support] = np.abs(space.eta) ** 2
    return GroupFunction(space.group, _transform(space.group, weights, inverse=True))
