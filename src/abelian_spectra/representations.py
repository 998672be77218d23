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
from itertools import combinations
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
RANGE_ACCEPT_TOL = 1e-6
DEGENERATE_TOL = 1e-12


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
        d = self.dim
        stack = np.eye(d, dtype=complex)[None]
        for U, n in zip(self.generators, self.group.orders):
            powers = [np.eye(d, dtype=complex)]
            for _ in range(n - 1):
                powers.append(powers[-1] @ U)
            stack = (stack[:, None] @ np.array(powers)[None]).reshape(-1, d, d)
        return stack


def _require(relation: str, message: str, residual, tol: float) -> None:
    """Raise RepresentationValidationError unless residual <= tol (NaN fails)."""
    residual = float(residual)
    if not (residual <= tol):
        raise RepresentationValidationError(
            f"{message} (residual {residual:.3e})", relation=relation, residual=residual)


def make_representation(group: Group, generator_images: Sequence[np.ndarray]) -> UnitaryRep:
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
        _require(f"unitary[{j}]", f"generator {j} not unitary",
                 np.linalg.norm(U.conj().T @ U - eye), UNITARY_TOL)
    for i, j in combinations(range(len(mats)), 2):
        _require(f"commute[{i},{j}]", f"generators {i} and {j} do not commute",
                 np.linalg.norm(mats[i] @ mats[j] - mats[j] @ mats[i]), COMMUTE_TOL)
    for j, (U, n) in enumerate(zip(mats, group.orders)):
        _require(f"order[{j}]", f"generator {j} does not have order dividing {n}",
                 np.linalg.norm(np.linalg.matrix_power(U, n) - eye), ORDER_TOL)

    for U in mats:
        U.setflags(write=False)
    return UnitaryRep(group=group, dim=dim, generators=tuple(mats))


def check_diagonal_generators(group: Group, diagonals: np.ndarray) -> None:
    """``make_representation``'s checks, in O(k r), for diagonal images given
    by their k x r diagonals: |s| = 1 and s^{n_j} = 1 (diagonals commute)."""
    for j, (s, n) in enumerate(zip(diagonals, group.orders)):
        _require(f"unitary[{j}]", f"generator {j} not unitary",
                 np.linalg.norm(np.abs(s) ** 2 - 1.0), UNITARY_TOL)
        _require(f"order[{j}]", f"generator {j} does not have order dividing {n}",
                 np.linalg.norm(s ** n - 1.0), ORDER_TOL)


def regular_representation(group: Group) -> UnitaryRep:
    """Left translation on functions over the group (dimension |G|)."""
    gens = np.eye(group.num_factors, dtype=np.int64) % group._orders_arr
    return make_representation(
        group, [group.translation_matrix(group.element(coords)) for coords in gens])


def trivial_representation(group: Group, dim: int = 1) -> UnitaryRep:
    return make_representation(group, [np.eye(dim, dtype=complex)] * group.num_factors)


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


def spectral_measure(rep: UnitaryRep) -> ProjectionValuedMeasure:
    """Projection-valued measure by character averaging, taken at its support.

    P(chi) = (1/|G|) sum_g conj(<g|chi>) pi(g), the closed-form inversion
    of the reconstruction identity pi(g) = sum_chi <g|chi> P(chi) through
    character orthogonality.  A projection's rank is its trace, and the
    traces of all P(chi) are one |G|-point transform of g -> tr pi(g); chi
    is kept where tr P(chi) > 1/2, with multiplicity rint(tr P(chi)).  Only
    those s <= d projections are averaged, as one (s x |G|) @ (|G| x d^2)
    product, and each range basis is the top-``mult`` eigenvectors of one
    batched ``eigh``.  Construction validates idempotency, hermiticity,
    completeness, mutual orthogonality and rank of the ranges, and that
    multiplicities add up to the dimension; a violation raises
    NumericalDegeneracyError carrying the residuals.
    """
    group, d = rep.group, rep.dim
    ops = rep.operators
    trace = _transform(group, np.trace(ops, axis1=1, axis2=2)).real / group.size
    keep = np.flatnonzero(trace > 0.5)
    mults = np.rint(trace[keep]).astype(int)
    P = (group.pairing_rows(keep).conj() @ ops.reshape(group.size, d * d)
         / group.size).reshape(-1, d, d)
    idem = float(np.max(np.linalg.norm(P @ P - P, axis=(1, 2)), initial=0.0))
    herm = float(np.max(np.linalg.norm(P - P.conj().swapaxes(1, 2), axis=(1, 2)),
                        initial=0.0))
    P.setflags(write=False)
    support = [Character(tuple(group._coords[k])) for k in keep]

    bases: dict = {}
    eigvals, eigvecs = np.linalg.eigh(P)  # ascending, so the range is the last columns
    for chi, lam, vecs, mult in zip(support, eigvals, eigvecs, mults):
        found = int(np.count_nonzero(lam[d - mult:] > RANGE_ACCEPT_TOL))
        if found < mult:
            raise NumericalDegeneracyError(
                f"range basis of P({chi.coords}) found {found} directions "
                f"for multiplicity {mult}",
                residuals={"multiplicity": float(mult), "basis_rank": float(found)})
        basis = vecs[:, d - mult:].copy()  # a view would keep all s x d x d eigenvectors
        basis.setflags(write=False)
        bases[chi] = basis
    projections = dict(zip(support, P))
    multiplicities = dict(zip(support, mults.tolist()))

    # Orthogonality of the ranges via the stacked basis Gram matrix; this
    # bounds max ||P(chi) P(chi')|| without forming all pairwise products.
    B = np.hstack([np.zeros((d, 0)), *bases.values()])
    ortho = float(np.max(np.abs(B.conj().T @ B - np.eye(B.shape[1])), initial=0.0))
    complete = float(np.linalg.norm(P.sum(axis=0) - np.eye(rep.dim)))

    mult_total = sum(multiplicities.values())
    residuals = {
        "idempotency": idem,
        "hermiticity": herm,
        "orthogonality": ortho,
        "completeness": complete,
        "multiplicity_sum": float(abs(mult_total - rep.dim)),
    }
    if max(idem, herm, ortho, complete) > PVM_TOL or mult_total != rep.dim:
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
    """max_g || pi(g) - sum_chi <g|chi> P(chi) ||, one product over all of G."""
    group = pvm.group
    table = group.pairing_rows([group.character_index(chi) for chi in pvm.support]).T
    stack = np.array([pvm.projections[chi] for chi in pvm.support])
    gap = table @ stack.reshape(len(stack), -1)
    gap -= pvm.rep.operators.reshape(group.size, -1)
    return float(np.max(np.linalg.norm(gap, axis=1)))


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


def diagonalize(component: CyclicComponent, pvm: ProjectionValuedMeasure) -> DiagonalModel:
    """Diagonal model of a cyclic component.

    Raises DegenerateComponentError when a projection of the cyclic
    vector on the declared support is numerically zero.
    """
    for chi, norm in zip(component.support, component.projection_norms):
        if norm < DEGENERATE_TOL:
            raise DegenerateComponentError(
                f"projection norm {norm:.3e} at character {chi.coords} is below "
                f"{DEGENERATE_TOL:.1e}; the component is degenerate on its support")
    group = pvm.group
    cols = [group.character_index(chi) for chi in component.support]
    table = group.pairing_rows(cols).T
    table.setflags(write=False)
    return DiagonalModel(group=group, support=component.support,
                         isometry=component.isometry, table=table)


def diagonalization_residual(model: DiagonalModel, rep: UnitaryRep) -> float:
    """max_g || V^dagger pi(g) V - diag(<g|chi>) ||, over the whole stack."""
    V = model.isometry
    D = V.conj().T @ rep.operators @ V
    diag = np.arange(V.shape[1])
    D[:, diag, diag] -= model.table
    return float(np.max(np.linalg.norm(D, axis=(1, 2))))


def invariance_residual(component: CyclicComponent, rep: UnitaryRep) -> float:
    """max_g || (I - V V^dagger) pi(g) V V^dagger ||, over the whole stack.

    Zero when pi(G) leaves the component's range invariant.
    """
    proj = component.isometry @ component.isometry.conj().T
    leak = (np.eye(rep.dim) - proj) @ rep.operators @ proj
    return float(np.max(np.linalg.norm(leak, axis=(1, 2))))


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
