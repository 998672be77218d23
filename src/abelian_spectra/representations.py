"""Unitary representations of finite abelian groups and their spectral data.

A representation is stored through the images of the cyclic-factor
generators.  Their eigenvectors, refined factor by factor, give the
projection-valued measure as one unitary basis, from which cyclic
components, diagonal models, ket systems and functional calculus follow.
The all-G residuals against the |G| operators ``UnitaryRep.operators``
are references, kept in ``oracle``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .algebra import GroupFunction, fourier
from .errors import (
    GroupMismatchError,
    NotSelfAdjointError,
    RepresentationValidationError,
    ShapeMismatchError,
    SupportError,
    check,
)
from .groups import Character, Group
from .oracle import diagonalization_residual, operator_stack, reconstruction_residual

UNITARY_TOL = 1e-10
COMMUTE_TOL = 1e-10
ORDER_TOL = 1e-9
PVM_TOL = 1e-9
RANK_TOL = 1e-9
BLOCK_BYTES = 2**18


@dataclass(frozen=True)
class UnitaryRep:
    """Unitary representation given by one generator image per cyclic factor."""

    group: Group
    dim: int
    generators: tuple[np.ndarray, ...]

    operators = cached_property(operator_stack)  # all |G| operators, for the oracles


def make_representation(group: Group, generator_images: Sequence[np.ndarray]) -> UnitaryRep:
    """Validate generator images and assemble a UnitaryRep: one square image per
    factor with a common dimension, then the stages unitary[j], commute[i,j] and
    order[j] (U_j^{n_j} = I), in that order, each on a residual norm (NaN fails)."""
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
        check("unitary[{j}]", {"residual": np.linalg.norm(U.conj().T @ U - eye)}, UNITARY_TOL,
              RepresentationValidationError, "generator {j} not unitary ({residuals})", j=j)
    for (i, A), (j, B) in combinations(enumerate(mats), 2):
        check("commute[{i},{j}]", {"residual": np.linalg.norm(A @ B - B @ A)}, COMMUTE_TOL,
              RepresentationValidationError, "generators {i} and {j} do not commute ({residuals})",
              i=i, j=j)
    for j, (U, n) in enumerate(zip(mats, group.orders)):
        check("order[{j}]", {"residual": np.linalg.norm(np.linalg.matrix_power(U, n) - eye)},
              ORDER_TOL, RepresentationValidationError,
              "generator {j} does not have order dividing {n} ({residuals})", j=j, n=n)

    for U in mats:
        U.setflags(write=False)
    return UnitaryRep(group=group, dim=dim, generators=tuple(mats))


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

    ``indices`` are the ascending enumeration indices of the support (the
    characters with a nonzero projection); ``multiplicities`` follow them,
    and so do the column blocks B_t of the unitary ``basis``, orthonormal
    bases of the ranges: P(chi_t) = B_t B_t^dagger.  ``nu`` counts the support.
    """

    rep: UnitaryRep
    indices: np.ndarray
    multiplicities: np.ndarray
    basis: np.ndarray
    residuals: dict

    @property
    def group(self) -> Group:
        return self.rep.group

    @cached_property
    def support(self) -> tuple[Character, ...]:
        return self.group.characters_at(self.indices)

    @cached_property
    def range_bases(self) -> dict:
        """Each support character's column block of ``basis``, as a view."""
        ends = np.cumsum(self.multiplicities).tolist()
        return {chi: self.basis[:, end - m:end]
                for chi, m, end in zip(self.support, self.multiplicities.tolist(), ends)}

    @cached_property
    def projections(self) -> np.ndarray:
        """The s x d x d stack of every B_t B_t^dagger, for the oracles and tests."""
        return self.combine(np.eye(len(self.indices)))

    @property
    def nu(self) -> dict:
        return dict.fromkeys(self.support, 1.0)

    def combine(self, weights: np.ndarray) -> np.ndarray:
        """sum_t w_t P(chi_t) = W diag(w, each w_t repeated by multiplicity) W^dagger
        for weights of shape (..., s), one d x d matrix per leading index."""
        W = self.basis
        return (W * np.repeat(weights, self.multiplicities, axis=-1)[..., None, :]) @ W.conj().T

    def projection(self, chi: Character) -> np.ndarray:
        hit = self.indices == self.group.character_index(chi)
        return self.projections[hit.argmax()] if hit.any() else np.zeros(
            (self.rep.dim, self.rep.dim), dtype=complex)


def _blocks(count: int, d: int):
    """Slices covering range(count), each of at most BLOCK_BYTES of d x d matrices."""
    step = max(1, BLOCK_BYTES // (16 * max(d, 1) ** 2))
    return (slice(i, i + step) for i in range(0, count, step))


def _label(eigenvalues: np.ndarray, n: int) -> np.ndarray:
    """c = rint(n arg(lambda) / 2 pi) mod n: the n-th root of unity omega^c
    nearest to each eigenvalue lambda."""
    return np.rint(np.angle(eigenvalues) * (n / (2 * np.pi))).astype(np.int64) % n


def _restriction_gap(M: np.ndarray, c: np.ndarray, n: int) -> float:
    """max |M - diag(omega^c)| over a stack of restrictions and their labels."""
    return np.abs(M - np.exp(2j * np.pi / n * c)[:, :, None] * np.eye(M.shape[-1])).max()


def spectral_measure(rep: UnitaryRep) -> ProjectionValuedMeasure:
    """Projection-valued measure from each generator's eigenvectors, refined
    factor by factor.

    The column blocks B of one d x d unitary W span the joint eigenspaces of
    the factors taken so far; W starts as I, one block.  U_j commutes with
    the earlier generators, so it leaves each B invariant, and U_j^{n_j} = I,
    so M = B^dagger U_j B has its spectrum in the n_j-th roots of unity:
    P_j(c) restricted to B projects onto the omega^c eigenspace of M.  A step
    labels each eigenvalue lambda by c = rint(n_j arg(lambda) / 2 pi) mod n_j.
    The blocks of one width that are all omega^c I within PVM_TOL keep their
    columns (a width-1 block is its own eigenvalue; a second label would be
    2 sin(pi / n_j) away).  Else one batched ``eig`` of their M gives the
    eigenvalues; each block's eigenvectors, sorted by label, are
    orthonormalised by one batched ``qr``.  Eigenvectors of distinct labels
    are orthogonal, so the columns of Q span each label's eigenspace in
    turn; B Q replaces B, and each run of equal labels is a block of the next
    step, in enumeration order; until a step writes W, it is I, whose one
    block needs no gather and is exactly invariant.  W ends as ``basis``, the
    widths as the multiplicities.  Time O(k d^3), memory O(d^2), nothing n_j-sized.
    Checked, the worst over steps and blocks: invariance ||U_j B - B M||,
    restriction max |Q^dagger M Q - diag(omega^c)|, and completeness
    ||W^dagger W - I|| at the end; a value above PVM_TOL raises
    NumericalDegeneracyError naming it.
    """
    group, d = rep.group, rep.dim
    W = np.eye(d, dtype=complex)
    widths, indices = np.array([d]), np.zeros(1, dtype=np.int64)
    invariance, restriction, identity = 0.0, 0.0, True  # identity: W is still I
    for U, n in zip(rep.generators, group.orders):
        starts, labels = np.cumsum(widths) - widths, np.empty(d, dtype=np.int64)
        for m in set(widths.tolist()) - {0}:  # np.unique would import numpy.ma
            cols = starts[widths == m, None] + np.arange(m)
            B = W[None] if identity else W[:, cols].transpose(1, 0, 2)
            UB = U @ B
            M = B.conj().swapaxes(1, 2) @ UB
            if not identity:  # B = I is exactly invariant
                invariance = max(invariance, np.linalg.norm(UB - B @ M, axis=(1, 2)).max())
            c = _label(M.diagonal(axis1=1, axis2=2), n)
            split = (c != c[:, :1]).any()
            if not split:  # a block that does not split is omega^c I
                gap = _restriction_gap(M, c, n)
            if split or gap > PVM_TOL:  # eigenvectors by label: B Q for B
                lam, V = np.linalg.eig(M)
                c = _label(lam, n)
                order = np.argsort(c, axis=1, kind="stable")
                rows = np.arange(len(c))[:, None]
                c = c[rows, order]
                Q = np.linalg.qr(V.swapaxes(1, 2)[rows, order].swapaxes(1, 2)).Q
                W[:, cols] = (B @ Q).transpose(1, 0, 2)
                identity = False
                gap = _restriction_gap(Q.conj().swapaxes(1, 2) @ M @ Q, c, n)
            restriction = max(restriction, gap)
            labels[cols] = c
        # each column's character so far, ascending: its runs are the new blocks
        chars = np.repeat(indices, widths) * n + labels
        bounds = np.flatnonzero(np.concatenate(([d > 0], chars[1:] != chars[:-1], [True])))
        indices, widths = chars[bounds[:-1]], bounds[1:] - bounds[:-1]
    W.setflags(write=False)
    residuals = {"completeness": float(np.linalg.norm(W.conj().T @ W - np.eye(d))),
                 "invariance": float(invariance), "restriction": float(restriction)}
    check("projection-valued measure", residuals, PVM_TOL)
    return ProjectionValuedMeasure(rep=rep, indices=indices, multiplicities=widths, basis=W,
                                   residuals=residuals)


def apply_algebra(pvm: ProjectionValuedMeasure, f: GroupFunction) -> np.ndarray:
    """sum_g f(g) pi(g) through the spectral measure.  As pi(g) = sum_chi
    <g|chi> P(chi), the symbol on the chi block is the transform at the
    inverse character: delta_g maps to pi(g), convolution to composition."""
    group = pvm.group
    if f.group != group:
        raise GroupMismatchError("function and measure live on different groups")
    return pvm.combine(fourier(f).values[group.neg_indices(pvm.indices)])


@dataclass(frozen=True)
class CyclicComponent:
    """Cyclic invariant subspace with multiplicity-free support, its own
    diagonal model: V^dagger pi(g) V = diag(<g|chi>) over the support
    (enumeration indices ``columns``) for the ``isometry`` V;
    ``symbols(rows)`` gives <g_i | support[s]> for i in rows."""

    group: Group
    cyclic_vector: np.ndarray
    columns: np.ndarray
    isometry: np.ndarray

    @cached_property
    def support(self) -> tuple[Character, ...]:
        return self.group.characters_at(self.columns)

    def symbols(self, rows) -> np.ndarray:
        return self.group.pairing_at(rows, self.columns)


def cyclic_decomposition(pvm: ProjectionValuedMeasure) -> list[CyclicComponent]:
    """Split the space into cyclic components, one per multiplicity layer.

    Layer i (1-based) takes the i-th column of the range basis B_t of every
    character of multiplicity >= i, and their sum u as its cyclic vector.
    As ``basis`` is unitary, P(chi_t) u = B_t (B_t^dagger u) = B_t e_i: those
    columns, each of norm 1, are the isometry.
    """
    W, mults = pvm.basis, pvm.multiplicities
    starts = np.cumsum(mults) - mults
    components = []
    for i in range(mults.max(initial=0)):
        keep = mults > i
        iso = np.ascontiguousarray(W[:, starts[keep] + i])
        u = iso.sum(axis=1)
        iso.setflags(write=False)
        u.setflags(write=False)
        components.append(CyclicComponent(
            group=pvm.group, cyclic_vector=u, columns=pvm.indices[keep], isometry=iso))
    return components


def diagonalize(component: CyclicComponent) -> CyclicComponent:
    """The component as its diagonal model, which it already is: its isometry
    holds unit columns of the measure's unitary basis, so no projection of
    its cyclic vector can vanish; ``relation_certificate`` bounds how far
    V^dagger pi(g) V = diag(<g|chi>) holds over all of G."""
    return component


def binary_power_indices(group: Group) -> np.ndarray:
    """Element indices of the identity and of every 2^i e_j with 2^i < n_j,
    factor by factor: 1 + L of them, L = sum_j ceil(log2 n_j)."""
    return np.array([0] + [2 ** i * stride for n, stride in zip(group.orders, group._strides)
                           for i in range((n - 1).bit_length())])


def binary_powers(rep: UnitaryRep) -> tuple[np.ndarray, np.ndarray]:
    """``binary_power_indices`` and the identity and U_j^(2^i) at them, each
    squared from the input generator, independently of ``generator_powers``;
    written into one preallocated stack."""
    indices = binary_power_indices(rep.group)
    mats = np.empty((len(indices), rep.dim, rep.dim), dtype=complex)
    mats[0], t = np.eye(rep.dim), 1
    for U, n in zip(rep.generators, rep.group.orders):
        for i in range((n - 1).bit_length()):
            mats[t] = U if i == 0 else mats[t - 1] @ mats[t - 1]
            t += 1
    return indices, mats


def certified_gap(gaps: np.ndarray, defects: float, dim: int) -> float:
    """Bound on a relation's worst gap over G from its Frobenius-norm gaps
    eps_t at the identity (t = 0) and the binary powers h_t, with
    ``defects`` = sum_t (delta_t + u_t).  Every g is a sum of at most
    L = sum_j ceil(log2 n_j) distinct h_t.  For a relation X(g) = Y(g), Y
    multiplicative with ||Y(h_t)|| <= 1, ||X(g + h_t) - X(g) X(h_t)|| <=
    delta_t and ||X(h_t)|| <= 1 + u_t, peeling a digit h off g = g' + h,
    X(g) - Y(g) = [X(g) - X(g') X(h)] + [X(g') - Y(g')] X(h) + Y(g') [X(h) - Y(h)],
    bounds the gap at g by (sum_t eps_t + delta_t) prod_t (1 + u_t) <= sum_t
    eps_t + defects if sum_t u_t <= 1 and 2 sum_t (eps_t + delta_t) <= 1.  Added
    (L + 1) d^2 eps_mach, the round-off of a product of L + 1 unitary d x d
    factors, makes it bound a computed all-G residual too."""
    return float(np.sum(gaps) + defects + len(gaps) * dim ** 2 * np.finfo(float).eps)


def relation_certificate(pvm: ProjectionValuedMeasure,
                         models: Sequence[CyclicComponent]) -> dict[str, float]:
    """``certified_gap`` bounds on the all-G relation residuals from the gaps at
    the identity and each binary power A_t = pi(h_t): reconstruction || A_t -
    sum_chi <h_t|chi> P(chi) ||; diagonalization || V^dagger A_t V - diag(<h_t|chi>) ||
    and component_invariance || (I - V V^dagger) A_t V V^dagger ||, the worst
    model.  The defects are || A_t^dagger A_t - I ||; first order in the pvm_*
    residuals; O(L d^3) per model, a chunk of powers at a time."""
    d, (indices, A) = pvm.rep.dim, binary_powers(pvm.rep)
    phases, eye = pvm.group.pairing_at(indices, pvm.indices), np.eye(d)
    norms = np.zeros((4, len(A)))  # unitarity defects, then the three gaps
    for b in _blocks(len(A), d):
        Ab = A[b]
        norms[0, b] = np.linalg.norm(Ab.conj().swapaxes(1, 2) @ Ab - eye, axis=(1, 2))
        norms[1, b] = np.linalg.norm(pvm.combine(phases[b]) - Ab, axis=(1, 2))
        for model in models:
            V, r = model.isometry, np.arange(model.isometry.shape[1])
            D, Q = V.conj().T @ Ab @ V, V @ V.conj().T
            D[:, r, r] -= model.symbols(indices[b])
            norms[2, b] = np.maximum(norms[2, b], np.linalg.norm(D, axis=(1, 2)))
            norms[3, b] = np.maximum(norms[3, b], np.linalg.norm((eye - Q) @ Ab @ Q, axis=(1, 2)))
    return {key: certified_gap(gaps, norms[0].sum(), d) for key, gaps in
            zip(("reconstruction", "diagonalization", "component_invariance"), norms[1:])}


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
        return complex(sum(np.vdot(phi, ket.vector) * np.vdot(ket.vector, psi)
                           * self.nu[ket.character] for ket in self.kets
                           if ket.character in chosen))


def dirac_kets(pvm: ProjectionValuedMeasure) -> KetSystem:
    """Orthonormal bases of all projection ranges, labelled (chi, k)."""
    kets = tuple(Ket(character=chi, index=k + 1, vector=B[:, k])
                 for chi, B in pvm.range_bases.items() for k in range(B.shape[1]))
    return KetSystem(group=pvm.group, kets=kets, nu=pvm.nu)


def functional_calculus(pvm: ProjectionValuedMeasure,
                        labels: Mapping[Character, float] | Sequence[float],
                        func: Callable[[float], complex]) -> np.ndarray:
    """sum_chi func(a(chi)) P(chi) for a real labelling a of the support, a
    mapping from support characters or a sequence in support order.  Complex
    labels raise NotSelfAdjointError (the operator would not be self-adjoint)."""
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

    weights = np.array([complex(func(float(a))) for a in arr.real], dtype=complex)
    return pvm.combine(weights)
