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
from itertools import combinations, compress
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .algebra import GroupFunction, fourier
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
BLOCK_BYTES = 2**18
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
        """All |G| operators stacked in element enumeration order.

        An oracle: the all-G residuals, the self-test and the tests read it;
        the spectral measure and the CLI never build it.
        """
        d = self.dim
        stack = np.eye(d, dtype=complex)[None]
        for U, n in zip(self.generators, self.group.orders):
            stack = (stack[:, None] @ generator_powers(U, n)[None]).reshape(-1, d, d)
        return stack


def generator_powers(U: np.ndarray, n: int) -> np.ndarray:
    """U^0, ..., U^{n-1} stacked, by doubling: the block [m, 2m) is the block
    [0, m) times U^m, so ceil(log2 n) batched products (and as many
    squarings) build the stack instead of n - 1 chained ones."""
    d = U.shape[0]
    out = np.empty((n, d, d), dtype=complex)
    out[0] = np.eye(d)
    step, filled = U, 1  # step = U^filled
    while filled < n:
        m = min(filled, n - filled)
        np.matmul(out[:m], step, out=out[filled:filled + m])
        filled += m
        if filled < n:
            step = step @ step
    return out


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
    """``make_representation``'s unitarity and order checks, in O(k r), for
    diagonal images given by their k x r diagonals s: |s| = 1 and s^{n_j} = 1
    (diagonals commute).  Each gap is measured by its largest entry, the
    operator norm of the diagonal gap, not by make_representation's Frobenius
    norm: every entry of s^{n_j} is off by about n_j eps, so the Frobenius
    norm grows as sqrt(r) and would refuse exact phases at large rank."""
    for j, (s, n) in enumerate(zip(diagonals, group.orders)):
        _require(f"unitary[{j}]", f"generator {j} not unitary",
                 np.abs(np.abs(s) ** 2 - 1.0).max(initial=0.0), UNITARY_TOL)
        _require(f"order[{j}]", f"generator {j} does not have order dividing {n}",
                 np.abs(s ** n - 1.0).max(initial=0.0), ORDER_TOL)


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

    ``indices`` are the ascending enumeration indices of the support, the
    characters with a nonzero projection; ``projections`` (s x d x d) and
    ``multiplicities`` follow that order, and so do the column blocks of the
    unitary ``basis``, orthonormal bases of the ranges.  ``nu`` is the
    counting measure on the support.
    """

    rep: UnitaryRep
    indices: np.ndarray
    projections: np.ndarray
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

    @property
    def nu(self) -> dict:
        return dict.fromkeys(self.support, 1.0)

    def projection(self, chi: Character) -> np.ndarray:
        hit = self.indices == self.group.character_index(chi)
        return self.projections[hit.argmax()] if hit.any() else np.zeros(
            (self.rep.dim, self.rep.dim), dtype=complex)

    def multiplicity(self, chi: Character) -> int:
        return int(self.multiplicities @ (self.indices == self.group.character_index(chi)))


def _blocks(count: int, d: int):
    """Slices covering range(count), each of at most BLOCK_BYTES of d x d matrices."""
    step = max(1, BLOCK_BYTES // (16 * max(d, 1) ** 2))
    return (slice(i, i + step) for i in range(0, count, step))


def spectral_measure(rep: UnitaryRep) -> ProjectionValuedMeasure:
    """Projection-valued measure by character averaging, built factor by factor.

    P(chi) = (1/|G|) sum_g conj(<g|chi>) pi(g), the closed-form inversion
    of the reconstruction identity pi(g) = sum_chi <g|chi> P(chi) through
    character orthogonality.  On Z_{n_1} x ... x Z_{n_k} the average
    factors: P(chi) = prod_j P_j(chi_j) with P_j(c) = (1/n_j) sum_m
    omega_j^{-mc} U_j^m, so one FFT along the power axis of
    ``generator_powers(U_j, n_j)`` gives every P_j(c).  The product is taken
    one factor at a time: each partial product A of the factors so far is
    paired with every P_j(c) through tr(A P_j(c)), an O(d^2) inner product,
    and only the pairs with trace above 1/2 are multiplied, block by block
    into the next stack: at most d survive, as ranks are traces and add up
    to d.  A multiplicity is rint(tr P(chi)).  Every range basis comes from
    one O(d^3) eigensolve of H = sum_t (t + 1) P(chi_t): the eigenvectors of
    eigenvalue t + 1, the t-th column block B_t, span the range of
    P(chi_t).  Time O(sum_j n_j d^3 + k d^4); memory the returned s x d x d
    stack plus at most the previous factor's products and the O(sum_j n_j
    d^2) transformed powers, nothing |G|-sized.  Validated: idempotency,
    hermiticity, completeness, ranks adding up to d, and orthogonality, the
    worst entry of P(chi_t) - B_t B_t^dagger; each B_t needs as many columns
    with Rayleigh value above RANGE_ACCEPT_TOL and eigenvalue within 1/2 of
    t + 1 as the multiplicity.  A violation raises NumericalDegeneracyError
    carrying the residuals.
    """
    group, d = rep.group, rep.dim
    P = np.eye(d, dtype=complex)[None]
    indices = np.zeros(1, dtype=np.int64)
    for U, n in zip(rep.generators, group.orders):
        factor = generator_powers(U, n)
        np.fft.fft(factor, axis=0, norm="forward", out=factor)  # in place: one n x d x d stack
        # tr(A P_j(c)) = <vec(A^T), vec(P_j(c))>, one (s x d^2) @ (d^2 x n) product
        traces = P.swapaxes(1, 2).reshape(len(P), d * d) @ factor.reshape(n, d * d).T
        rows, cols = np.nonzero(traces.real > 0.5)  # row-major: enumeration order
        out = np.empty((len(rows), d, d), dtype=complex)
        for b in _blocks(len(rows), d):
            np.matmul(P[rows[b]], factor[cols[b]], out=out[b])
        P, indices = out, indices[rows] * n + cols
    del factor
    P.setflags(write=False)
    mults = np.rint(np.trace(P, axis1=1, axis2=2).real).astype(int)
    if mults.sum() != d:
        raise NumericalDegeneracyError(
            f"projection ranks add up to {mults.sum()}, not the dimension {d}",
            residuals={"multiplicity_sum": float(abs(mults.sum() - d))})

    lam, W = np.linalg.eigh((np.arange(1.0, len(P) + 1) @ P.reshape(len(P), d * d)).reshape(d, d))
    W.setflags(write=False)
    # columns of each block, padded to the widest with the zero column d
    width = np.arange(mults.max(initial=0))
    cols = np.where(width < mults[:, None], (np.cumsum(mults) - mults)[:, None] + width, d)
    padded = np.column_stack([W, np.zeros(d)])
    near = np.append(np.abs(lam - np.repeat(np.arange(1, len(P) + 1), mults)) <= 0.5, False)
    found = np.empty(len(P), dtype=int)
    idem = herm = ortho = 0.0
    for b in _blocks(len(P), d):
        Pb, Bb = P[b], padded[:, cols[b]].transpose(1, 0, 2)
        idem = max(idem, np.linalg.norm(Pb @ Pb - Pb, axis=(1, 2)).max())
        herm = max(herm, np.linalg.norm(Pb - Pb.conj().swapaxes(1, 2), axis=(1, 2)).max())
        ortho = max(ortho, np.abs(Pb - Bb @ Bb.conj().swapaxes(1, 2)).max())
        rayleigh = (Bb.conj() * (Pb @ Bb)).sum(axis=1).real
        found[b] = ((rayleigh > RANGE_ACCEPT_TOL) & near[cols[b]]).sum(axis=1)
    if np.any(found < mults):
        t = int(np.argmax(found < mults))
        raise NumericalDegeneracyError(
            f"range basis of P({group.characters_at(indices[t:t + 1])[0].coords}) found "
            f"{found[t]} directions for multiplicity {mults[t]}",
            residuals={"multiplicity": float(mults[t]), "basis_rank": float(found[t])})
    complete = float(np.linalg.norm(P.sum(axis=0) - np.eye(d)))
    residuals = {"idempotency": float(idem), "hermiticity": float(herm),
                 "orthogonality": float(ortho), "completeness": complete, "multiplicity_sum": 0.0}
    if max(residuals.values()) > PVM_TOL:
        raise NumericalDegeneracyError("projection-valued measure violates its invariants ("
                                       + ", ".join(f"{k} {v:.3e}" for k, v in residuals.items())
                                       + ")", residuals=residuals)
    return ProjectionValuedMeasure(rep=rep, indices=indices, projections=P,
                                   multiplicities=mults, basis=W, residuals=residuals)


def reconstruction_residual(pvm: ProjectionValuedMeasure) -> float:
    """max_g || pi(g) - sum_chi <g|chi> P(chi) ||, one product over all of G.

    An oracle over the operator stack, for the self-test and the tests;
    ``relation_certificate`` bounds it from the binary powers.
    """
    group = pvm.group
    gap = group.pairing_at(np.arange(group.size), pvm.indices) @ pvm.projections.reshape(
        len(pvm.indices), -1)
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
    return np.tensordot(fourier(f).values[group.neg_indices(pvm.indices)], pvm.projections,
                        axes=1)


@dataclass(frozen=True)
class CyclicComponent:
    """Cyclic invariant subspace with multiplicity-free support."""

    cyclic_vector: np.ndarray
    support: tuple[Character, ...]
    columns: np.ndarray  # the support's enumeration indices
    isometry: np.ndarray
    projection_norms: tuple[float, ...]


def cyclic_decomposition(pvm: ProjectionValuedMeasure) -> list[CyclicComponent]:
    """Split the space into cyclic components, one per multiplicity layer.

    Layer i (1-based) collects, for every support character of
    multiplicity >= i, the i-th vector of the deterministic orthonormal
    basis of range P(chi); their sum is the layer's cyclic vector and the
    normalised projections P(chi) u / ||P(chi) u|| form its isometry.
    """
    mults, starts = pvm.multiplicities, np.cumsum(pvm.multiplicities) - pvm.multiplicities
    components = []
    for i in range(1, mults.max(initial=0) + 1):
        keep = mults >= i
        u = pvm.basis[:, starts[keep] + i - 1].sum(axis=1)
        ws = (pvm.projections @ u)[keep]
        norms = np.linalg.norm(ws, axis=1)
        iso = (ws / np.where(norms > 0, norms, 1.0)[:, None]).T
        iso.setflags(write=False)
        u.setflags(write=False)
        components.append(CyclicComponent(
            cyclic_vector=u, support=tuple(compress(pvm.support, keep)),
            columns=pvm.indices[keep], isometry=iso, projection_norms=tuple(norms.tolist())))
    return components


@dataclass(frozen=True)
class DiagonalModel:
    """Multiplication-operator model of a cyclic component.

    ``isometry`` V satisfies V^dagger pi(g) V = diag(<g|chi>) over the
    support (enumeration indices ``columns``); ``symbols(rows)`` gives the
    diagonal symbols <g_i | support[s]> at the element indices i in ``rows``.
    """

    group: Group
    support: tuple[Character, ...]
    columns: np.ndarray
    isometry: np.ndarray

    def symbols(self, rows) -> np.ndarray:
        return self.group.pairing_at(rows, self.columns)


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
    return DiagonalModel(group=pvm.group, support=component.support,
                         columns=component.columns, isometry=component.isometry)


def diagonalization_residual(model: DiagonalModel, rep: UnitaryRep) -> float:
    """max_g || V^dagger pi(g) V - diag(<g|chi>) ||, over the whole stack.

    An oracle, as ``reconstruction_residual`` is.
    """
    V = model.isometry
    D = V.conj().T @ rep.operators @ V
    diag = np.arange(V.shape[1])
    D[:, diag, diag] -= model.symbols(np.arange(model.group.size))
    return float(np.max(np.linalg.norm(D, axis=(1, 2))))


def invariance_residual(component: CyclicComponent, rep: UnitaryRep) -> float:
    """max_g || (I - V V^dagger) pi(g) V V^dagger ||, over the whole stack.

    Zero when pi(G) leaves the component's range invariant.  An oracle, as
    ``reconstruction_residual`` is.
    """
    proj = component.isometry @ component.isometry.conj().T
    leak = (np.eye(rep.dim) - proj) @ rep.operators @ proj
    return float(np.max(np.linalg.norm(leak, axis=(1, 2))))


def binary_power_indices(group: Group) -> np.ndarray:
    """Element indices of the identity and of every 2^i e_j with 2^i < n_j,
    factor by factor: 1 + L of them, L = sum_j ceil(log2 n_j), with
    ceil(log2 n) = (n - 1).bit_length()."""
    return np.array([0] + [2 ** i * stride for n, stride in zip(group.orders, group._strides)
                           for i in range((n - 1).bit_length())])


def binary_powers(rep: UnitaryRep) -> tuple[np.ndarray, np.ndarray]:
    """``binary_power_indices`` and the (1 + L) x d x d stack of the identity
    and the U_j^(2^i) at them.  Each power is squared from the input
    generator, independently of ``generator_powers``."""
    mats = [np.eye(rep.dim, dtype=complex)]
    for U, n in zip(rep.generators, rep.group.orders):
        for _ in range((n - 1).bit_length()):
            mats.append(U)
            U = U @ U
    return binary_power_indices(rep.group), np.array(mats)


def certified_gap(gaps: np.ndarray, defects: float, dim: int) -> float:
    """Bound on a relation's worst gap over G from its Frobenius-norm gaps
    eps_t at the identity (t = 0) and the binary powers h_t of
    ``binary_power_indices``, with ``defects`` = sum_t (delta_t + u_t).

    Every g in G is a sum of distinct h_t, at most L = sum_j ceil(log2 n_j) of
    them.  Let X(g) = Y(g) be the relation, Y multiplicative with
    ||Y(h_t)|| <= 1, and ||X(g + h_t) - X(g) X(h_t)|| <= delta_t (g without
    digit t), ||X(h_t)|| <= 1 + u_t.  Peeling a digit h off g = g' + h,
    X(g) - Y(g) = [X(g) - X(g') X(h)] + [X(g') - Y(g')] X(h) + Y(g') [X(h) - Y(h)],
    so the gap at g is at most (sum_t eps_t + delta_t) prod_t (1 + u_t)
    <= sum_t eps_t + defects whenever sum_t u_t <= 1 and
    2 sum_t (eps_t + delta_t) <= 1, which any value under a tolerance below
    1/2 meets.  Returned is that plus (L + 1) d^2 eps_mach, the error of
    forming a product of L + 1 unitary d x d factors (|fl(AB) - AB| <=
    d eps_mach |A||B| entrywise, and || |A||B| ||_F <= d), so the value also
    bounds a computed all-G residual.  It is at most L times the worst gap
    plus the defects, and tighter when the gaps grow along the squarings,
    as round-off does.
    """
    return float(np.sum(gaps) + defects + len(gaps) * dim ** 2 * np.finfo(float).eps)


def relation_certificate(pvm: ProjectionValuedMeasure,
                         models: Sequence[DiagonalModel]) -> dict[str, float]:
    """``certified_gap`` bounds on the three all-G relation residuals, from
    the gaps at the identity and each binary power A_t = pi(h_t) (squared
    from the input generators by ``binary_powers``):

    - reconstruction: || A_t - sum_chi <h_t|chi> P(chi) ||;
    - diagonalization: || V^dagger A_t V - diag(<h_t|chi>) ||, worst model;
    - component_invariance: || (I - V V^dagger) A_t V V^dagger ||, worst model.

    pi is multiplicative and ||A_t|| <= 1 + u_t = 1 + || A_t^dagger A_t - I ||,
    so the defects are sum_t u_t.  The bound is first order in the measure's
    own defects: it takes the projections to multiply exactly (the pvm_*
    residuals) and, for the diagonal models, the range leak to be the
    invariance gap.  O(L d^3) per model, with no |G|-sized array.
    """
    group, d = pvm.group, pvm.rep.dim
    indices, A = binary_powers(pvm.rep)
    eye = np.eye(d)
    unitarity = np.linalg.norm(A.conj().swapaxes(1, 2) @ A - eye, axis=(1, 2)).sum()
    phases = group.pairing_at(indices, pvm.indices)
    recon = np.linalg.norm(A.reshape(-1, d * d) - phases @ pvm.projections.reshape(-1, d * d),
                           axis=1)
    diag = leak = np.zeros(len(indices))
    for model in models:
        V = model.isometry
        D = V.conj().T @ A @ V
        r = np.arange(V.shape[1])
        D[:, r, r] -= model.symbols(indices)
        diag = np.maximum(diag, np.linalg.norm(D, axis=(1, 2)))
        Q = V @ V.conj().T
        leak = np.maximum(leak, np.linalg.norm((eye - Q) @ A @ Q, axis=(1, 2)))
    return {key: certified_gap(gaps, unitarity, d)
            for key, gaps in (("reconstruction", recon), ("diagonalization", diag),
                              ("component_invariance", leak))}


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

    weights = np.array([complex(func(float(a))) for a in arr.real], dtype=complex)
    return np.tensordot(weights, pvm.projections, axes=1)
