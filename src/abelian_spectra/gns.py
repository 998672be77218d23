"""Quotient Hilbert space and representation induced by a positive-type function.

On a finite abelian group the characters diagonalise the Hermitian form
of phi: the conjugated character psi is an eigenvector with eigenvalue
lambda_psi = weight * F(psi), F the transform of phi (Bochner).  The
quotient by the form's null space is therefore spanned by the characters
in the support of F, each scaled to unit form norm.  Left translation by
g acts on it diagonally through the pairing <g|psi>, and the class of the
identity point mass is a cyclic vector whose diagonal matrix coefficient
recovers phi: ``quotient_space`` reads it all off F.  ``gns_construct``
takes F as one transform of phi with the verdict (F >= 0), checked against
the form applied by FFT to a few random combinations of the support
characters (Freivalds, "Probabilistic machines can use less running time",
1977); ``rigging`` knows F in closed form.  The dense form is the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    GroupFunction,
    PositivityReport,
    _transform,
    apply_hermitian_form,
    fourier,
    transform_positivity,
)
from .errors import GroupMismatchError, InconsistencyError, PositiveTypeError, check, stage
from .groups import Element, Group
from .representations import RANK_TOL, UnitaryRep, make_representation

CHECK_COMBINATIONS = 4  # random combinations of support characters in the construction check
FORM_STAGE = "form applied to the support characters"  # the construction check's stage


@dataclass(frozen=True)
class GNSSpace:
    """Quotient space data for a positive-type function.

    ``eigenvalues`` are the form's eigenvalues weight * Re F over all
    characters, in descending order (ties keep enumeration order); the
    first ``rank`` of those are the support, whose character indices
    ``support`` holds.  With ``eta``, the class of the identity point mass,
    they fix the quotient; ``positivity`` is F's report.  Every accessor
    reads the pairing at the support (``Group.pairing_at``) or one transform.
    """

    group: Group
    phi: GroupFunction
    eigenvalues: np.ndarray
    rank: int
    support: np.ndarray
    eta: np.ndarray
    positivity: PositivityReport

    def class_coordinates(self, f: GroupFunction) -> np.ndarray:
        """Coordinates of the class of f in the orthonormal quotient basis,
        (Q lambda)^dagger f = sqrt(lambda_s / |G|) sum_g <g|psi_s> f(g): one
        inverse transform of f read at the support."""
        return np.sqrt(self.eigenvalues[:self.rank] / self.group.size) * _support_sums(self, f)

    def operator(self, g: Element) -> np.ndarray:
        """Image of g: the support characters evaluated at g, on the diagonal."""
        return np.diag(self.group.pairing_at([self.group.element_index(g)], self.support)[0])

    def generator_images(self) -> np.ndarray:
        """Diagonals of the generator images, k x rank: row j holds the
        support characters evaluated at the generator of factor j."""
        return self.group.pairing_at(self.group.generator_indices, self.support)

    def representation(self) -> UnitaryRep:
        """The quotient representation as dense diagonal images, validated."""
        return make_representation(self.group, [np.diag(d) for d in self.generator_images()])


def gns_construct(phi: GroupFunction) -> GNSSpace:
    """Build the quotient space of a positive-type function from one transform.

    O(|G| log |G|), with no |G| x rank table.  Raises NumericalDegeneracyError
    when the transform of phi, or the form applied in the construction check,
    overflows; PositiveTypeError when the transform is not non-negative; and
    InconsistencyError when the support characters are not eigenvectors of
    the form, which only a bug can cause.
    """
    group = phi.group
    F = stage("transform of phi", lambda: fourier(phi)).values
    space = quotient_space(phi, F)
    report, support = space.positivity, space.support
    if not report.verdict:
        raise PositiveTypeError(
            f"function is not of positive type (min transform {report.min_fourier:.6e}, "
            f"max |Im transform| {report.max_fourier_imag:.6e}, "
            f"min form eigenvalue {report.min_gram_eigenvalue:.6e}, tol {report.tol:.1e})",
            residuals={key: getattr(report, key) for key in ("min_fourier", "min_gram_eigenvalue")})

    # Freivalds' check: the form scales each conjugated support character by
    # weight * F, so it maps v = sum_s a_s conj(psi_s), one transform of a
    # placed on the support, to the transform of weight * F * a (both taken
    # in one stacked transform).  The FFT's round-off is O(eps log |G|) of
    # the image's RMS size, <= lam_max ||a||.  Near float max the scaling, both
    # transforms and the gap's norm overflow too, so all of it is one stage.
    draws = np.random.default_rng(0).standard_normal((2, space.rank, CHECK_COMBINATIONS))
    a = draws[0] + 1j * draws[1]

    def rms_gap():
        placed = np.zeros((group.size, 2 * CHECK_COMBINATIONS), dtype=complex)
        placed[support, :CHECK_COMBINATIONS] = a
        placed[support, CHECK_COMBINATIONS:] = a * (group.haar_weight * F[support])[:, None]
        v, image = np.split(_transform(group, placed), 2, axis=1)
        gap = apply_hermitian_form(phi, v) - image
        return 0.0 if space.rank == 0 else float(np.max(
            np.linalg.norm(gap / space.eigenvalues[0], axis=0)
            / (np.sqrt(group.size) * np.linalg.norm(a, axis=0))))

    check(FORM_STAGE, {"RMS gap": stage(FORM_STAGE, rms_gap)}, 1e-12, InconsistencyError,
          "support characters are not eigenvectors of the form ({residuals} of lam_max ||a||, "
          "bound {tol:.1e})")
    return space


def quotient_space(phi: GroupFunction, F: np.ndarray) -> GNSSpace:
    """The quotient space of phi read off its transform F, unchecked: the rank
    counts the eigenvalues above RANK_TOL relative to the largest."""
    group = phi.group
    lam = group.haar_weight * F.real
    order = np.argsort(-lam, kind="stable")
    eigvals = lam[order]
    rank = 0 if eigvals[0] <= 0.0 else int(np.count_nonzero(eigvals > RANK_TOL * eigvals[0]))
    return GNSSpace(group=group, phi=phi, eigenvalues=eigvals, rank=rank, support=order[:rank],
                    eta=np.sqrt(eigvals[:rank] / group.size) / group.haar_weight,
                    positivity=transform_positivity(F, group.haar_weight))


def _support_sums(space: GNSSpace, f: GroupFunction) -> np.ndarray:
    """sum_g f(g) <g|psi_s> over the support, one inverse transform of f.

    Built on ``_transform``, not ``fourier``, so it stays independent of the
    transform the eigenvector functionals read.
    """
    if f.group != space.group:
        raise GroupMismatchError("function lives on a different group")
    return _transform(space.group, f.values, inverse=True)[space.support]


def gns_algebra_action(space: GNSSpace, f: GroupFunction) -> np.ndarray:
    """Quotient image of convolution by f (the lift of the algebra).

    Convolution by f scales the support character psi by
    weight * sum_g f(g) <g|psi>, so the image is diagonal.
    """
    return np.diag(space.group.haar_weight * _support_sums(space, f))


def reconstruct_phi(space: GNSSpace) -> GroupFunction:
    """Diagonal matrix coefficient of the cyclic vector; equals phi.

    <eta, pi(g) eta> = sum over the support of |eta_psi|^2 <g|psi>, for
    every g at once: one inverse transform of |eta|^2 placed on the support.
    """
    weights = np.zeros(space.group.size)
    weights[space.support] = np.abs(space.eta) ** 2
    return GroupFunction(space.group, _transform(space.group, weights, inverse=True))
