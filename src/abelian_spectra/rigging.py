"""Generalized eigenvectors and spectral resolution of quotient representations.

Starting from a diagonal model and a nowhere-vanishing cyclic amplitude
xi on its support, the induced positive-type function is assembled; the
quotient representation of that function admits one generalized
eigenvector per support character.  Each eigenvector is an antilinear
functional on test functions whose quotient coordinate form is a unit
eigenvector, so the weight-1 counting measure resolves both the identity
and every group operator.

Orientation note: the quotient form pairs a test function with the
transform of translates, which evaluates Fourier data at the inverse
character.  The functional of the eigenvector labelled chi therefore
reads f -> weight * conj(F(chi^{-1})) with F the transform of f; all
reconstruction identities below hold exactly in this convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import DualFunction, GroupFunction, apply_hermitian_form, checked_finite, fourier
from .errors import (
    GroupMismatchError,
    InconsistencyError,
    NotCyclicError,
    SupportError,
)
from .gns import GNSSpace
from .groups import Character, Element, Group
from .representations import DiagonalModel

WEIGHT_FLOOR = 1e-12
IDENTITY_TOL = 1e-9
IDENTITY_CHECK_PAIRS = 8


@dataclass(frozen=True)
class GeneralizedEigenvector:
    """Eigenvector-functional attached to one support character.

    ``weight`` is the modulus of the cyclic amplitude at the character;
    ``coords`` is the unit quotient vector representing the functional.
    """

    character: Character
    weight: float
    coords: np.ndarray

    def act(self, f: GroupFunction) -> complex:
        """Antilinear action: weight * conj(transform of f at chi^{-1})."""
        return complex(_functional_values((self,), f)[0])


def _functional_values(eigenvectors, f: GroupFunction) -> np.ndarray:
    """Every functional's action on f, weight * conj(F(chi^{-1})), from one transform."""
    group = f.group
    neg = [group.character_index(group.neg_character(vec.character)) for vec in eigenvectors]
    return np.array([vec.weight for vec in eigenvectors]) * np.conj(fourier(f).values[neg])


@dataclass(frozen=True)
class SpectralDecomposition:
    """Complete system of generalized eigenvectors of a quotient representation.

    ``reconstruction_residual`` and ``eigen_equation_residual`` are the worst
    gaps over all of G of the relations ``reconstruct_operator`` and
    ``eigen_residual`` give for one element.
    """

    group: Group
    support: tuple[Character, ...]
    eigenvectors: tuple[GeneralizedEigenvector, ...]
    nu: dict
    identity_residual: float
    reconstruction_residual: float
    eigen_equation_residual: float

    def eigenvector(self, chi: Character) -> GeneralizedEigenvector:
        for vec in self.eigenvectors:
            if vec.character == chi:
                return vec
        raise SupportError(f"character {chi.coords} is outside the decomposition support")


def _cyclic_amplitudes(model: DiagonalModel, xi: DualFunction) -> np.ndarray:
    """xi on the model support; NotCyclicError where it vanishes there."""
    group = model.group
    amps = xi.values[[group.character_index(chi) for chi in model.support]]
    for chi, amp in zip(model.support, amps):
        if abs(amp) <= WEIGHT_FLOOR:
            raise NotCyclicError(f"cyclic amplitude vanishes at support character "
                                 f"{chi.coords} (|xi| = {abs(amp):.3e})")
    return amps


def phi_from_cyclic(model: DiagonalModel, xi: DualFunction) -> GroupFunction:
    """Positive-type function of the cyclic vector xi in a diagonal model.

    phi(g) = sum over the model support of <g|chi> |xi(chi)|^2 with the
    weight-1 counting measure.  Raises NotCyclicError when xi vanishes on
    a support character (it would not be cyclic there), and
    NumericalDegeneracyError when phi overflows.
    """
    if xi.group != model.group:
        raise GroupMismatchError("cyclic amplitude lives on a different group")
    return checked_finite("phi of the cyclic amplitude", lambda: GroupFunction(
        model.group, model.table @ np.abs(_cyclic_amplitudes(model, xi)) ** 2))


def _eigenvector_coords(space: GNSSpace, table: np.ndarray,
                        support: tuple[Character, ...]) -> np.ndarray:
    """Unit quotient coordinates of the eigenvectors, one row per column of
    ``table`` (table[g, s] = <g|chi_s>, chi_s = support[s]): Q^dagger applied
    to the inverse character conj(table[:, s]) is, by character orthogonality,
    sqrt(|G|/lambda_t) e_t when chi_s is the t-th quotient support character
    and round-off when chi_s is off that support, which InconsistencyError names."""
    V = space.quotient_basis.conj().T @ table.conj()
    scale = np.sqrt(space.eigenvalues[:space.rank, None] / space.group.size)
    overlap = np.max(np.abs(V) * scale, axis=0, initial=0.0)
    off = [chi.coords for chi, value in zip(support, overlap) if not value > 0.5]
    if off:
        raise InconsistencyError(f"characters {off} have no component in the quotient")
    return (V / np.linalg.norm(V, axis=0)).T


# One formula per operator relation, over rows m of element data: C stacks
# the eigenvector coordinates as rows, P[m, k] = <g_m|chi_k>, and D[m] is the
# diagonal of pi(g_m) in quotient coordinates.  A stack of one rank x rank
# block per element is never larger than the representation's operator stack.

def _resolve(C: np.ndarray, P: np.ndarray) -> np.ndarray:
    """C^T diag(P[m]) conj(C) = sum_k P[m, k] |c_k><c_k| for every m."""
    return (C.T * P[:, None, :]) @ C.conj()


def _reconstruction_gaps(C: np.ndarray, P: np.ndarray, D: np.ndarray) -> np.ndarray:
    """|| C^T diag(P[m]) conj(C) - diag(D[m]) ||_F for every m."""
    return np.linalg.norm(_resolve(C, P) - D[:, :, None] * np.eye(D.shape[1]), axis=(1, 2))


def _eigen_gaps(C: np.ndarray, P: np.ndarray, D: np.ndarray) -> np.ndarray:
    """|| pi(g_m)^dagger c_k - conj(P[m, k]) c_k || = || (conj D[m] - conj P[m, k]) c_k ||."""
    return np.linalg.norm((D.conj()[:, None, :] - P.conj()[:, :, None]) * C, axis=2)


def build_decomposition(space: GNSSpace, xi: DualFunction, *,
                        tol: float = IDENTITY_TOL,
                        rng: np.random.Generator | None = None) -> SpectralDecomposition:
    """Generalized-eigenvector system of the quotient space of phi(xi).

    One eigenvector per character where xi does not vanish; their count
    must equal the quotient rank (InconsistencyError otherwise).  The
    inner-product identity <f|h>_phi = sum_chi conj(F(chi^{-1})) H(chi^{-1})
    |xi(chi)|^2 is verified on random pairs within a relative ``tol``.  The
    operator reconstruction and the eigenvalue equation are evaluated over
    the whole group at once and their worst gaps stored.
    """
    group = space.group
    if xi.group != group:
        raise GroupMismatchError("cyclic amplitude lives on a different group")
    keep = np.flatnonzero(np.abs(xi.values) > WEIGHT_FLOOR)
    support = [Character(tuple(group._coords[k])) for k in keep]
    if len(support) != space.rank:
        raise InconsistencyError(
            f"cyclic amplitude is supported on {len(support)} characters but the "
            f"quotient rank is {space.rank}")

    P = group.pairing_rows(keep).T  # table is symmetric
    C = _eigenvector_coords(space, P, support)
    C.setflags(write=False)
    eigenvectors = [GeneralizedEigenvector(character=chi, weight=float(abs(xi(chi))), coords=c)
                    for chi, c in zip(support, C)]

    residual = _identity_residual(space, eigenvectors,
                                  rng if rng is not None else np.random.default_rng(0))
    if residual > tol:
        raise InconsistencyError(
            f"inner-product identity residual {residual:.3e} exceeds {tol:.1e}; "
            "the quotient space does not match the cyclic amplitude")

    return SpectralDecomposition(
        group=group,
        support=tuple(support),
        eigenvectors=tuple(eigenvectors),
        nu={chi: 1.0 for chi in support},
        identity_residual=residual,
        reconstruction_residual=float(
            _reconstruction_gaps(C, P, space.characters).max(initial=0.0)),
        eigen_equation_residual=float(_eigen_gaps(C, P, space.characters).max(initial=0.0)),
    )


def _identity_residual(space: GNSSpace,
                       eigenvectors: list[GeneralizedEigenvector],
                       rng: np.random.Generator) -> float:
    """Worst deviation of <f|h>_phi from sum_chi F_chi(f) conj(F_chi(h)).

    Deliberately evaluated through ``_functional_values``, the formula ``act``
    applies, so a corrupted eigenvector formula is caught, not compensated for.
    Both sides grow with |G| and |xi|^2, so each gap is divided by the
    Cauchy-Schwarz bound sqrt(<f|f>_phi <h|h>_phi) when that exceeds 1.
    """
    group = space.group
    draws = rng.standard_normal((IDENTITY_CHECK_PAIRS, 4, group.size))
    f, h = draws[:, 0] + 1j * draws[:, 1], draws[:, 2] + 1j * draws[:, 3]
    lhs = np.sum(f.conj() * apply_hermitian_form(space.phi, h.T).T, axis=1)
    act_f, act_h = (np.array([_functional_values(eigenvectors, GroupFunction(group, v))
                              for v in side]) for side in (f, h))
    scale = np.maximum(1.0, np.linalg.norm(act_f, axis=1) * np.linalg.norm(act_h, axis=1))
    gaps = np.abs(lhs - np.sum(act_f * act_h.conj(), axis=1)) / scale
    return float(gaps.max(initial=0.0))


def reconstruct_operator(decomp: SpectralDecomposition, space: GNSSpace,
                         g: Element) -> np.ndarray:
    """Resolve the group operator through the eigenvector system.

    Returns sum_chi <g|chi> |F_chi><F_chi| nu(chi) in quotient
    coordinates; equals the quotient image of g.
    """
    C = np.reshape([vec.coords for vec in decomp.eigenvectors], (len(decomp.support), space.rank))
    P = np.array([[space.group.pairing(g, chi) for chi in decomp.support]])
    return _resolve(C, P)[0]


def eigen_residual(decomp: SpectralDecomposition, space: GNSSpace,
                   g: Element, chi: Character) -> float:
    """|| pi(g)^dagger F_chi - conj(<g|chi>) F_chi || in quotient coordinates.

    The adjoint action extends the representation to the eigenvector
    functionals; its eigenvalue at chi is the conjugated pairing.
    """
    group = space.group
    D = space.characters[[group.element_index(g)]]
    C = decomp.eigenvector(chi).coords[None]
    return float(_eigen_gaps(C, np.array([[group.pairing(g, chi)]]), D)[0, 0])


@dataclass(frozen=True)
class IntertwinerResult:
    """Unitary from quotient coordinates to the diagonal model's support."""

    matrix: np.ndarray
    unitarity_residual: float
    intertwining_residual: float


def intertwiner(space: GNSSpace, model: DiagonalModel,
                xi: DualFunction) -> IntertwinerResult:
    """Unitary W with W pi_phi(g) W^dagger = diag(<g|chi>) on the model support.

    Rows of W are the eigenvector coordinates, so W maps the class of f to
    its weighted transform across the support.  Raises InconsistencyError
    on a rank mismatch and NotCyclicError when xi vanishes on the support.
    """
    group = space.group
    if model.group != group or xi.group != group:
        raise GroupMismatchError("quotient, model, and amplitude must share one group")
    if len(model.support) != space.rank:
        raise InconsistencyError(
            f"diagonal model has {len(model.support)} support characters but the "
            f"quotient rank is {space.rank}")
    _cyclic_amplitudes(model, xi)

    W = _eigenvector_coords(space, model.table, model.support).conj()
    unitarity = float(np.linalg.norm(W.conj().T @ W - np.eye(space.rank)))

    # W pi(g_m) - diag(table[m]) W for every m, with pi(g_m) = diag(characters[m])
    gaps = W * space.characters[:, None, :] - model.table[:, :, None] * W
    return IntertwinerResult(
        matrix=W, unitarity_residual=unitarity,
        intertwining_residual=float(np.linalg.norm(gaps, axis=(1, 2)).max(initial=0.0)))
