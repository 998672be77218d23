"""Unitary representations of finite abelian groups and their spectral data.

A representation is stored through the images of the cyclic-factor
generators; commuting unitaries with the right orders determine the whole
representation.  Character averaging produces the projection-valued
measure in closed form, from which cyclic components, diagonal models,
orthonormal ket systems, and functional calculus are derived.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .algebra import GroupFunction, _transform, fourier
from .errors import (
    DegenerateComponentError,
    GroupMismatchError,
    NotSelfAdjointError,
    NumericalDegeneracyError,
    RepresentationValidationError,
    ShapeMismatchError,
    SupportError,
)
from .groups import Character, Element, Group

UNITARY_TOL = 1e-10
COMMUTE_TOL = 1e-10
ORDER_TOL = 1e-9
PVM_TOL = 1e-9
RANK_TOL = 1e-9


@dataclass(frozen=True)
class UnitaryRep:
    """Unitary representation given by one generator image per cyclic factor."""

    group: Group
    dim: int
    generators: tuple[np.ndarray, ...]

    def apply(self, g: Element) -> np.ndarray:
        """pi(g) as the product of generator powers prod_j U_j^{g_j}."""
        self.group._check_coords(g.coords, "element")
        out = np.eye(self.dim, dtype=complex)
        for U, power in zip(self.generators, g.coords):
            if power:
                out = out @ np.linalg.matrix_power(U, power)
        return out

    @cached_property
    def operators(self) -> np.ndarray:
        """All |G| operators stacked in element enumeration order."""
        stack = [np.eye(self.dim, dtype=complex)]
        for U, n in zip(self.generators, self.group.orders):
            powers = [np.eye(self.dim, dtype=complex)]
            for _ in range(n - 1):
                powers.append(powers[-1] @ U)
            stack = [m @ p for m in stack for p in powers]
        return np.array(stack)


def make_representation(group: Group, generator_images: Sequence[np.ndarray], *,
                        unitary_tol: float = UNITARY_TOL,
                        commute_tol: float = COMMUTE_TOL,
                        order_tol: float = ORDER_TOL) -> UnitaryRep:
    """Validate generator images and assemble a UnitaryRep.

    Checks, in order: one square image per cyclic factor with a common
    dimension, unitarity, pairwise commutation, and U_j^{n_j} = I.  Every
    failure names the violated relation and its residual norm; a NaN
    residual counts as a failure.
    """
    mats = [np.asarray(U, dtype=complex) for U in generator_images]
    if len(mats) != group.num_factors:
        raise ShapeMismatchError(
            f"need {group.num_factors} generator images, got {len(mats)}")
    if any(U.ndim != 2 or U.shape[0] != U.shape[1] for U in mats):
        raise ShapeMismatchError("generator images must be square matrices")
    dim = mats[0].shape[0]
    if any(U.shape[0] != dim for U in mats):
        raise ShapeMismatchError("generator images must share one dimension")

    eye = np.eye(dim)
    for j, U in enumerate(mats):
        residual = float(np.linalg.norm(U.conj().T @ U - eye))
        if not (residual <= unitary_tol):
            raise RepresentationValidationError(
                f"generator {j} not unitary (residual {residual:.3e})",
                relation=f"unitary[{j}]", residual=residual)
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            residual = float(np.linalg.norm(mats[i] @ mats[j] - mats[j] @ mats[i]))
            if not (residual <= commute_tol):
                raise RepresentationValidationError(
                    f"generators {i} and {j} do not commute (residual {residual:.3e})",
                    relation=f"commute[{i},{j}]", residual=residual)
    for j, (U, n) in enumerate(zip(mats, group.orders)):
        residual = float(np.linalg.norm(np.linalg.matrix_power(U, n) - eye))
        if not (residual <= order_tol):
            raise RepresentationValidationError(
                f"generator {j} does not have order dividing {n} (residual {residual:.3e})",
                relation=f"order[{j}]", residual=residual)

    for U in mats:
        U.setflags(write=False)
    return UnitaryRep(group=group, dim=dim, generators=tuple(mats))


def regular_representation(group: Group) -> UnitaryRep:
    """Left translation on functions over the group (dimension |G|)."""
    gens = []
    for j in range(group.num_factors):
        coords = [0] * group.num_factors
        coords[j] = 1 % group.orders[j]
        gens.append(group.translation_matrix(group.element(coords)))
    return make_representation(group, gens)


def trivial_representation(group: Group, dim: int = 1) -> UnitaryRep:
    return make_representation(group, [np.eye(dim, dtype=complex)] * group.num_factors)


def _orthonormal_range_basis(P: np.ndarray, accept_tol: float = 1e-6) -> np.ndarray:
    """Deterministic orthonormal basis of range(P) for a projection P.

    Modified Gram-Schmidt over the columns of P in enumeration order with
    one re-orthogonalisation pass; a column is accepted when its residual
    exceeds ``accept_tol``, which for honest projections (singular values
    near 0 or 1) selects exactly rank(P) columns.
    """
    basis: list[np.ndarray] = []
    for j in range(P.shape[1]):
        v = P[:, j].copy()
        for b in basis:
            v -= b * (b.conj() @ v)
        norm = np.linalg.norm(v)
        if norm <= accept_tol:
            continue
        v /= norm
        for b in basis:  # second pass for crisp orthogonality
            v -= b * (b.conj() @ v)
        v /= np.linalg.norm(v)
        basis.append(v)
    if not basis:
        return np.zeros((P.shape[0], 0), dtype=complex)
    return np.column_stack(basis)


@dataclass(frozen=True)
class ProjectionValuedMeasure:
    """Spectral projections of a representation, indexed by characters.

    ``support`` lists the characters with a nonzero projection in
    enumeration order; ``nu`` is the counting measure on the support.
    """

    rep: UnitaryRep
    support: tuple[Character, ...]
    projections: dict
    multiplicities: dict
    range_bases: dict
    nu: dict
    residuals: dict

    @property
    def group(self) -> Group:
        return self.rep.group

    def projection(self, chi: Character) -> np.ndarray:
        self.group._check_coords(chi.coords, "character")
        if chi in self.projections:
            return self.projections[chi]
        return np.zeros((self.rep.dim, self.rep.dim), dtype=complex)

    def multiplicity(self, chi: Character) -> int:
        self.group._check_coords(chi.coords, "character")
        return int(self.multiplicities.get(chi, 0))


def spectral_measure(rep: UnitaryRep, *, tol: float = PVM_TOL,
                     rank_tol: float = RANK_TOL) -> ProjectionValuedMeasure:
    """Projection-valued measure by character averaging.

    P(chi) = (1/|G|) sum_g conj(<g|chi>) pi(g), the closed-form inversion
    of the reconstruction identity pi(g) = sum_chi <g|chi> P(chi) through
    character orthogonality.  The sum is one FFT of the operator stack
    along the element axis, O(|G| log |G| d^2).  Construction validates
    idempotency, hermiticity, completeness, mutual orthogonality of the
    ranges, and that multiplicities add up to the dimension; a violation
    raises NumericalDegeneracyError carrying the residuals.
    """
    group = rep.group
    stack = _transform(group, rep.operators) / group.size

    projections: dict = {}
    multiplicities: dict = {}
    bases: dict = {}
    support: list[Character] = []
    idem = herm = 0.0
    for chi, P in zip(group.characters, stack):
        svals = np.linalg.svd(P, compute_uv=False)
        top = float(svals[0]) if svals.size else 0.0
        if top <= rank_tol:
            continue
        mult = int(np.count_nonzero(svals > rank_tol * top))
        idem = max(idem, float(np.linalg.norm(P @ P - P)))
        herm = max(herm, float(np.linalg.norm(P - P.conj().T)))
        basis = _orthonormal_range_basis(P)
        if basis.shape[1] != mult:
            raise NumericalDegeneracyError(
                f"range basis of P({chi.coords}) found {basis.shape[1]} directions "
                f"for multiplicity {mult}",
                residuals={"multiplicity": float(mult), "basis_rank": float(basis.shape[1])})
        P.setflags(write=False)
        basis.setflags(write=False)
        projections[chi] = P
        multiplicities[chi] = mult
        bases[chi] = basis
        support.append(chi)

    # Orthogonality of the ranges via the stacked basis Gram matrix; this
    # bounds max ||P(chi) P(chi')|| without forming all pairwise products.
    if support:
        B = np.column_stack([bases[chi] for chi in support])
        gram = B.conj().T @ B
        ortho = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
        complete = float(np.linalg.norm(sum(projections.values()) - np.eye(rep.dim)))
    else:
        ortho = 0.0
        complete = float(np.linalg.norm(np.eye(rep.dim))) if rep.dim else 0.0

    mult_total = sum(multiplicities.values())
    residuals = {
        "idempotency": idem,
        "hermiticity": herm,
        "orthogonality": ortho,
        "completeness": complete,
        "multiplicity_sum": float(abs(mult_total - rep.dim)),
    }
    if max(idem, herm, ortho, complete) > tol or mult_total != rep.dim:
        raise NumericalDegeneracyError(
            "projection-valued measure violates its invariants "
            f"(idempotency {idem:.3e}, hermiticity {herm:.3e}, orthogonality {ortho:.3e}, "
            f"completeness {complete:.3e}, multiplicity sum {mult_total} vs dim {rep.dim})",
            residuals=residuals)

    return ProjectionValuedMeasure(
        rep=rep,
        support=tuple(support),
        projections=projections,
        multiplicities=multiplicities,
        range_bases=bases,
        nu={chi: 1.0 for chi in support},
        residuals=residuals,
    )


def reconstruction_residual(pvm: ProjectionValuedMeasure) -> float:
    """max_g || pi(g) - sum_chi <g|chi> P(chi) ||."""
    group = pvm.group
    cols = [group.character_index(chi) for chi in pvm.support]
    table = np.column_stack([group.pairing_block(j, j + 1)[0] for j in cols])
    stack = np.array([pvm.projections[chi] for chi in pvm.support])
    rebuilt = np.einsum("gx,xij->gij", table, stack)
    return float(np.max(np.linalg.norm(pvm.rep.operators - rebuilt, axis=(1, 2))))


def apply_algebra(pvm: ProjectionValuedMeasure, f: GroupFunction) -> np.ndarray:
    """Lift of the convolution algebra through the spectral measure.

    Returns sum_g f(g) pi(g) assembled spectrally.  The reconstruction
    convention pi(g) = sum_chi <g|chi> P(chi) forces the scalar symbol on
    the chi block to be the transform evaluated at the inverse character,
    so that delta_g maps to pi(g) and convolution maps to composition.
    """
    group = pvm.group
    if f.group != group:
        raise GroupMismatchError("function and measure live on different groups")
    F = fourier(f).values
    out = np.zeros((pvm.rep.dim, pvm.rep.dim), dtype=complex)
    for chi in pvm.support:
        j = group.character_index(group.neg_character(chi))
        out += F[j] * pvm.projections[chi]
    return out


@dataclass(frozen=True)
class CyclicComponent:
    """Cyclic invariant subspace with multiplicity-free support."""

    cyclic_vector: np.ndarray
    support: tuple[Character, ...]
    isometry: np.ndarray
    projection_norms: tuple[float, ...]


def cyclic_decomposition(pvm: ProjectionValuedMeasure) -> list[CyclicComponent]:
    """Split the space into cyclic components, one per multiplicity layer.

    Layer i (1-based) collects, for every support character of
    multiplicity >= i, the i-th vector of the deterministic orthonormal
    basis of range P(chi); their sum is the layer's cyclic vector and the
    normalised projections P(chi) u / ||P(chi) u|| form its isometry.
    """
    if not pvm.support:
        return []
    layers = max(pvm.multiplicities[chi] for chi in pvm.support)
    components = []
    for i in range(1, layers + 1):
        supp = tuple(chi for chi in pvm.support if pvm.multiplicities[chi] >= i)
        u = np.zeros(pvm.rep.dim, dtype=complex)
        for chi in supp:
            u += pvm.range_bases[chi][:, i - 1]
        cols = []
        norms = []
        for chi in supp:
            w = pvm.projections[chi] @ u
            norm = float(np.linalg.norm(w))
            norms.append(norm)
            cols.append(w / norm if norm > 0 else w)
        iso = np.column_stack(cols)
        iso.setflags(write=False)
        u.setflags(write=False)
        components.append(CyclicComponent(
            cyclic_vector=u, support=supp, isometry=iso, projection_norms=tuple(norms)))
    return components


@dataclass(frozen=True)
class DiagonalModel:
    """Multiplication-operator model of a cyclic component.

    ``isometry`` V satisfies V^dagger pi(g) V = diag(<g|chi>) over the
    support in enumeration order; ``table`` holds the diagonal symbols,
    table[i, s] = <g_i | support[s]>.
    """

    group: Group
    support: tuple[Character, ...]
    isometry: np.ndarray
    table: np.ndarray

    def multiplication_symbol(self, g: Element) -> np.ndarray:
        return self.table[self.group.element_index(g)]


def diagonalize(component: CyclicComponent, pvm: ProjectionValuedMeasure, *,
                degenerate_tol: float = 1e-12) -> DiagonalModel:
    """Diagonal model of a cyclic component.

    Raises DegenerateComponentError when a projection of the cyclic
    vector on the declared support is numerically zero.
    """
    for chi, norm in zip(component.support, component.projection_norms):
        if norm < degenerate_tol:
            raise DegenerateComponentError(
                f"projection norm {norm:.3e} at character {chi.coords} is below "
                f"{degenerate_tol:.1e}; the component is degenerate on its support")
    group = pvm.group
    cols = [group.character_index(chi) for chi in component.support]
    table = np.column_stack([group.pairing_block(j, j + 1)[0] for j in cols])
    table.setflags(write=False)
    return DiagonalModel(group=group, support=component.support,
                         isometry=component.isometry, table=table)


def diagonalization_residual(model: DiagonalModel, rep: UnitaryRep) -> float:
    """max_g || V^dagger pi(g) V - diag(<g|chi>) ||."""
    V = model.isometry
    worst = 0.0
    for i, op in enumerate(rep.operators):
        D = V.conj().T @ op @ V
        worst = max(worst, float(np.linalg.norm(D - np.diag(model.table[i]))))
    return worst


@dataclass(frozen=True)
class Ket:
    """Orthonormal basis vector of a spectral eigenspace."""

    character: Character
    index: int  # 1-based within the eigenspace
    vector: np.ndarray


@dataclass(frozen=True)
class KetSystem:
    """All spectral kets of a representation, with the counting measure."""

    group: Group
    kets: tuple[Ket, ...]
    nu: dict

    def completeness_sum(self, phi: np.ndarray, psi: np.ndarray,
                         subset: Iterable[Character]) -> complex:
        """sum over kets of chosen characters of <phi|ket><psi|ket>* nu(chi).

        Equals <phi, P(E) psi> for E the chosen character set.
        """
        chosen = set(subset)
        total = 0.0 + 0.0j
        for ket in self.kets:
            if ket.character in chosen:
                a = np.vdot(phi, ket.vector)
                b = np.vdot(psi, ket.vector)
                total += a * np.conj(b) * self.nu[ket.character]
        return complex(total)


def dirac_kets(pvm: ProjectionValuedMeasure) -> KetSystem:
    """Orthonormal bases of all projection ranges, labelled (chi, k)."""
    kets = []
    for chi in pvm.support:
        basis = pvm.range_bases[chi]
        for k in range(basis.shape[1]):
            kets.append(Ket(character=chi, index=k + 1, vector=basis[:, k]))
    return KetSystem(group=pvm.group, kets=tuple(kets), nu=dict(pvm.nu))


def functional_calculus(pvm: ProjectionValuedMeasure,
                        labels: Mapping[Character, float] | Sequence[float],
                        func: Callable[[float], complex]) -> np.ndarray:
    """sum_chi func(a(chi)) P(chi) for a real labelling a of the support.

    ``labels`` is either a mapping from support characters to reals or a
    sequence aligned with the support order.  Complex labels raise
    NotSelfAdjointError: the labelled operator would not be self-adjoint.
    """
    if isinstance(labels, Mapping):
        try:
            values = [labels[chi] for chi in pvm.support]
        except KeyError as exc:
            raise SupportError(f"no label for support character {exc.args[0]}") from exc
    else:
        values = list(labels)
        if len(values) != len(pvm.support):
            raise ShapeMismatchError(
                f"need {len(pvm.support)} labels (one per support character), "
                f"got {len(values)}")
    arr = np.asarray(values)
    if np.iscomplexobj(arr) and np.max(np.abs(arr.imag)) > 0:
        raise NotSelfAdjointError("spectral labels must be real")

    out = np.zeros((pvm.rep.dim, pvm.rep.dim), dtype=complex)
    for chi, a in zip(pvm.support, arr.real):
        out += complex(func(float(a))) * pvm.projections[chi]
    return out
