"""Generalized eigenvectors and spectral resolution of quotient representations.

Starting from a diagonal model and a nowhere-vanishing cyclic amplitude
xi on its support, the induced positive-type function is assembled; its
quotient, L^2 of |xi|^2 times counting measure on the support, is read
off in closed form with one generalized eigenvector per support character:
an antilinear functional on test functions whose quotient coordinate form
is a unit eigenvector, so the weight-1 counting measure resolves both the
identity and every group operator.

Orientation note: the quotient form pairs a test function with the
transform of translates, which evaluates Fourier data at the inverse
character.  The functional of the eigenvector labelled chi therefore
reads f -> weight * conj(F(chi^{-1})) with F the transform of f; all
reconstruction identities below hold exactly in this convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import DualFunction, GroupFunction, _transform, apply_hermitian_form, form_symbol
from .errors import (GroupMismatchError, InconsistencyError, NotCyclicError, SupportError, check,
                     stage)
from .gns import GNSSpace, quotient_space
from .groups import Character, Element, Group
from .representations import RANK_TOL, CyclicComponent, binary_power_indices, certified_gap

IDENTITY_TOL = 1e-9
IDENTITY_CHECK_PAIRS = 8


@dataclass(frozen=True)
class GeneralizedEigenvector:
    """Eigenvector-functional attached to one support character of ``group``.

    ``weight`` is the modulus of the cyclic amplitude at the character;
    ``coords`` is the unit quotient vector representing the functional.
    """

    group: Group
    character: Character
    weight: float
    coords: np.ndarray

    def act(self, f: GroupFunction) -> complex:
        """Antilinear action: weight * conj(transform of f at chi^{-1})."""
        if not isinstance(f, GroupFunction) or f.group != self.group:
            raise GroupMismatchError("a functional acts on functions on its own group")
        return complex(_functional_values(self.group, [self.group.character_index(self.character)],
                                          np.array([self.weight]), f.values[:, None])[0, 0])


def _functional_values(group: Group, columns, weights, values: np.ndarray) -> np.ndarray:
    """Every functional's action on every column of the |G| x c ``values``:
    the r x c array weight * conj(F(chi^{-1})), F = haar_weight * transform,
    for the characters at the indices ``columns``, from one stacked transform."""
    neg = group.neg_indices(columns)
    return weights[:, None] * np.conj(group.haar_weight * _transform(group, values)[neg])


@dataclass(frozen=True)
class SpectralDecomposition:
    """Complete system of generalized eigenvectors of a quotient representation.

    ``support``, ``eigenvectors`` and ``nu`` are derived from the arrays.
    ``reconstruction_residual`` and ``eigen_equation_residual`` bound the
    worst gaps over all of G of the relations ``reconstruct_operator`` and
    ``eigen_residual`` give for one element, certified on the binary powers.
    """

    group: Group
    columns: np.ndarray  # the support's enumeration indices, ascending
    weights: np.ndarray  # |xi| on the support, in that order
    coords: np.ndarray  # read-only; row k is the unit quotient vector of support[k]
    identity_residual: float
    reconstruction_residual: float
    eigen_equation_residual: float

    @cached_property
    def support(self) -> tuple[Character, ...]:
        return self.group.characters_at(self.columns)

    @cached_property
    def eigenvectors(self) -> tuple[GeneralizedEigenvector, ...]:
        return tuple(GeneralizedEigenvector(self.group, chi, weight, c) for chi, weight, c
                     in zip(self.support, self.weights.tolist(), self.coords))

    @property
    def nu(self) -> dict:
        return dict.fromkeys(self.support, 1.0)

    def eigenvector(self, chi: Character) -> GeneralizedEigenvector:
        for vec in self.eigenvectors:
            if vec.character == chi:
                return vec
        raise SupportError(f"character {chi.coords} is outside the decomposition support")


def _vanishes(amps: np.ndarray) -> np.ndarray:
    """Where |amps|^2 <= RANK_TOL max |amps|^2 (everywhere if 0), as ``quotient_space`` drops
    a character; taken relative to the maximum first, so no square overflows."""
    mods = np.abs(amps)
    return (mods / (mods.max(initial=0.0) or 1.0)) ** 2 <= RANK_TOL


def cyclic_moduli(model: CyclicComponent, xi: DualFunction) -> np.ndarray:
    """|xi| on the model support, 0 off it; NotCyclicError where xi vanishes (not cyclic there)."""
    amps = xi.values[model.columns]
    vanishes = _vanishes(amps)
    if vanishes.any():
        t = int(vanishes.argmax())
        raise NotCyclicError(f"cyclic amplitude vanishes at support character "
                             f"{model.support[t].coords} (|xi| = {abs(amps[t]):.3e})")
    moduli = np.zeros(model.group.size)
    moduli[model.columns] = np.abs(amps)
    return moduli


def phi_from_cyclic(model: CyclicComponent, xi: DualFunction) -> GroupFunction:
    """Positive-type function of the cyclic vector xi in a diagonal model.

    phi(g) = sum over the model support of <g|chi> |xi(chi)|^2 with the
    weight-1 counting measure, for every g at once: one inverse transform of
    |xi|^2 placed on the support.  Raises NotCyclicError when xi vanishes on
    a support character (it would not be cyclic there), and
    NumericalDegeneracyError when phi overflows.
    """
    if xi.group != model.group:
        raise GroupMismatchError("cyclic amplitude lives on a different group")
    group, moduli = model.group, cyclic_moduli(model, xi)
    return stage("phi of the cyclic amplitude", lambda: GroupFunction(
        group, _transform(group, moduli ** 2, inverse=True)))


def quotient_from_cyclic(model: CyclicComponent, xi: DualFunction) -> GNSSpace:
    """Quotient space of ``phi_from_cyclic(model, xi)`` in closed form: phi's
    transform is weight |G| |xi|^2 on the model support and 0 off it.  Raises
    as ``phi_from_cyclic`` does, and NumericalDegeneracyError on an overflow."""
    phi, group, moduli = phi_from_cyclic(model, xi), model.group, cyclic_moduli(model, xi)
    return quotient_space(phi, stage(
        "spectrum of the cyclic amplitude", lambda: group.haar_weight * group.size * moduli ** 2))


def _eigenvector_slots(space: GNSSpace, columns: np.ndarray) -> np.ndarray:
    """Quotient slot of each character at the enumeration indices ``columns``.
    By character orthogonality, Q^dagger applied to the inverse character of
    chi is sqrt(|G|/lambda_t) e_t when chi is the t-th quotient support
    character, and 0 when chi is off that support, which InconsistencyError
    names: the eigenvector of chi has the unit coordinates e_t, t its slot.
    Distinct characters get distinct slots, so r of them fill all r."""
    position = np.full(space.group.size, -1)
    position[space.support] = np.arange(space.rank)
    slots = position[columns]
    if (slots < 0).any():
        off = list(map(tuple, space.group.coords_at(columns[slots < 0]).tolist()))
        raise InconsistencyError(f"characters {off} have no component in the quotient")
    return slots


# The quotient side in closed form: pi(g) is diag(D[g]) in quotient
# coordinates, D[g, t] = <g|t-th quotient support character>, and the
# eigenvector of chi_k is e_t at its slot t = slot_k.  With C the identity's
# rows at the slots, every operator relation below reduces to the diagonal
# of phases P[g, k] - D[g, slot_k], P[g, k] = <g|chi_k>: both sides multiply
# unimodular phases, so a gap at g is at most the sum of the gaps at its
# binary digits and ``certified_gap`` bounds it over G with no defects, from
# the (L+1) x r table of |P - D[:, slots]| at the identity and the binary
# powers.  ``reconstruct_operator`` and ``eigen_residual`` keep the dense
# formulas on ``coords`` for one element, as references.


def build_decomposition(space: GNSSpace, xi: DualFunction, *,
                        tol: float = IDENTITY_TOL,
                        rng: np.random.Generator | None = None) -> SpectralDecomposition:
    """Generalized-eigenvector system of the quotient space of phi(xi).

    One eigenvector per character where xi does not vanish; their count
    must equal the quotient rank (InconsistencyError otherwise).  The
    inner-product identity <f|h>_phi = sum_chi conj(F(chi^{-1})) H(chi^{-1})
    |xi(chi)|^2 is verified on random pairs within a relative ``tol``.  The
    operator reconstruction || C^T diag(P[g]) conj(C) - diag(D[g]) ||_F and
    the eigenvalue equation max_k || (conj D[g] - conj P[g, k]) c_k || are,
    on the slot map, the 2-norm and the maximum of the phase gaps at g; both
    are certified over G by ``certified_gap`` in O(L r).
    """
    group = space.group
    if xi.group != group:
        raise GroupMismatchError("cyclic amplitude lives on a different group")
    keep = np.flatnonzero(~_vanishes(xi.values))
    if len(keep) != space.rank:
        raise InconsistencyError(
            f"cyclic amplitude is supported on {len(keep)} characters but the "
            f"quotient rank is {space.rank}")

    slots = _eigenvector_slots(space, keep)
    amps = xi.values[keep]
    weights = np.hypot(amps.real, amps.imag)  # bit-equal to abs(complex); np.abs is not

    residual = stage("inner-product identity check", lambda: _identity_residual(
        space, keep, weights, rng if rng is not None else np.random.default_rng(0)))
    check("inner-product identity check", {"inner-product identity residual": residual}, tol,
          InconsistencyError, "{residuals} exceeds {tol:.1e}; the quotient space does not "
          "match the cyclic amplitude")

    rows = binary_power_indices(group)
    gaps = np.abs(group.pairing_at(rows, keep) - group.pairing_at(rows, space.support[slots]))
    C = np.eye(space.rank, dtype=complex)[slots]
    C.setflags(write=False)
    return SpectralDecomposition(
        group=group, columns=keep, weights=weights, coords=C,
        identity_residual=residual,
        reconstruction_residual=certified_gap(np.linalg.norm(gaps, axis=1), 0.0, space.rank),
        eigen_equation_residual=certified_gap(gaps.max(axis=1, initial=0.0), 0.0, space.rank),
    )


def _identity_residual(space: GNSSpace, columns: np.ndarray, weights: np.ndarray,
                       rng: np.random.Generator) -> float:
    """Worst deviation of <f|h>_phi from sum_chi F_chi(f) conj(F_chi(h)).

    Deliberately evaluated through ``_functional_values``, the formula ``act``
    applies, so a corrupted eigenvector formula is caught, not compensated for.
    The sums run over C-contiguous (pair x character) rows, whose pairwise
    rounding follows the memory layout, one pair at a time, so drawing the
    pairs ``identity_chunk`` at a time changes no bit.  Both sides grow with
    |G| and |xi|^2, so each gap is divided by the Cauchy-Schwarz bound
    sqrt(<f|f>_phi <h|h>_phi) whenever that is positive.
    """
    group, gaps, step = space.group, [], identity_chunk(space.group.size)
    symbol = form_symbol(space.phi)  # once for every chunk
    for start in range(0, IDENTITY_CHECK_PAIRS, step):
        draws = rng.standard_normal((min(step, IDENTITY_CHECK_PAIRS - start), 4, group.size))
        f, h = draws[:, 0] + 1j * draws[:, 1], draws[:, 2] + 1j * draws[:, 3]
        del draws  # not held through the form's transforms
        lhs = np.sum(f.conj() * apply_hermitian_form(space.phi, h.T, symbol).T, axis=1)
        act_f, act_h = (np.ascontiguousarray(_functional_values(group, columns, weights, side.T).T)
                        for side in (f, h))
        bound = np.linalg.norm(act_f, axis=1) * np.linalg.norm(act_h, axis=1)
        gaps.append(np.abs(lhs - np.sum(act_f * act_h.conj(), axis=1))
                    / np.where(bound > 0, bound, 1.0))
    return float(np.concatenate(gaps).max(initial=0.0))


def identity_chunk(size: int) -> int:
    """Identity-check pairs drawn at once: 4 MiB of 4 |G| draws each, 1 to 8."""
    return min(IDENTITY_CHECK_PAIRS, max(1, 2**17 // size))


def reconstruct_operator(decomp: SpectralDecomposition, space: GNSSpace,
                         g: Element) -> np.ndarray:
    """Resolve the group operator through the eigenvector system.

    Returns sum_chi <g|chi> |F_chi><F_chi| nu(chi) in quotient
    coordinates; equals the quotient image of g.
    """
    group, C = space.group, decomp.coords
    P = group.pairing_at([group.element_index(g)], decomp.columns)
    return ((C.T * P[:, None, :]) @ C.conj())[0]


def eigen_residual(decomp: SpectralDecomposition, space: GNSSpace,
                   g: Element, chi: Character) -> float:
    """|| pi(g)^dagger F_chi - conj(<g|chi>) F_chi || in quotient coordinates.

    The adjoint action extends the representation to the eigenvector
    functionals; its eigenvalue at chi is the conjugated pairing.
    """
    group = space.group
    row = [group.element_index(g)]
    p = group.pairing_at(row, [group.character_index(chi)])[0, 0]
    D = group.pairing_at(row, space.support)[0]
    return float(np.linalg.norm((D.conj() - p.conj()) * decomp.eigenvector(chi).coords))


@dataclass(frozen=True)
class IntertwinerResult:
    """Unitary from quotient coordinates to the diagonal model's support."""

    matrix: np.ndarray
    unitarity_residual: float
    intertwining_residual: float


def intertwiner(decomp: SpectralDecomposition, model: CyclicComponent) -> IntertwinerResult:
    """Unitary W with W pi_phi(g) W^dagger = diag(<g|chi>) on the model support.

    Rows of W are the eigenvector coordinates, so W maps the class of f to
    its weighted transform across the support: W is ``decomp.coords``, the
    identity's rows at the slots, real and so equal to its conjugate.  The
    model's symbols T on the decomposition's support are its pairings P, so
    || W diag(D[g]) - diag(T[g]) W ||_F has the phase gaps of the operator
    reconstruction and the same certificate; || W^dagger W - I ||_F is
    || (column sums of W) - 1 ||_2, the count of each slot less one.  Raises
    InconsistencyError when the model's support is not the decomposition's.
    """
    if model.group != decomp.group:
        raise GroupMismatchError("decomposition and model must share one group")
    if not np.array_equal(model.columns, decomp.columns):
        raise InconsistencyError(
            f"the diagonal model's {len(model.columns)} support characters are not "
            f"the {len(decomp.columns)} of the eigenvector system")
    W = decomp.coords
    return IntertwinerResult(
        matrix=W,
        unitarity_residual=float(np.linalg.norm(W.sum(axis=0) - 1)),
        intertwining_residual=decomp.reconstruction_residual)
