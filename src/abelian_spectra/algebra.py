"""Convolution algebra of complex functions on a finite abelian group.

Implements the involutive Banach-algebra structure (convolution and the
star involution), the transform to the dual side and its inverse, the
positive-type test with two independent routes, and the translation-
invariant Hermitian form attached to a positive-type function.

Every character sum goes through one engine, ``_transform``: with the
enumeration in C order (last coordinate fastest) the sum over
Z_{n_1} x ... x Z_{n_k} is numpy's N-d FFT on the factor grid, so
transforms and convolution cost O(|G| log |G|); so do the form applied
as a correlation and the positivity route read off the transform.  Only
the eigenvalue route of ``is_positive_type`` stays dense, on the form
from ``oracle``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import GroupMismatchError, InconsistencyError, ShapeMismatchError, check
from .groups import Character, Element, Group
from .oracle import hermitian_form

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
    axes are carried through untouched.  An axis of order 2 is the
    butterfly (a + b, a - b) in both directions, bit-equal to the FFT's, in
    place with one half-size temporary, on a copy of the input, if not yet
    on an FFT's output.
    """
    values = np.asarray(values, dtype=complex)
    fft, norm = (np.fft.ifft, "forward") if inverse else (np.fft.fft, "backward")
    out = values.reshape(group.orders + values.shape[1:])
    for axis, n in enumerate(group.orders):
        if n != 2:
            out = fft(out, axis=axis, norm=norm)
            continue
        if np.may_share_memory(out, values):
            out = out.copy()
        head = (slice(None),) * axis
        a, b = out[head + (slice(0, 1),)], out[head + (slice(1, 2),)]
        diff = a - b
        a += b
        b[...] = diff
    return out.reshape(values.shape)


def delta(group: Group, at: Element | None = None) -> GroupFunction:
    """Indicator of a single element (the identity by default)."""
    values = np.zeros(group.size, dtype=complex)
    values[group.element_index(at if at is not None else group.identity)] = 1.0
    return GroupFunction(group, values)


def convolve(f: GroupFunction, h: GroupFunction) -> GroupFunction:
    """(f * h)(g) = sum_{g'} f(g') h(g - g') (times the Haar weight)."""
    group = _same_group(f, h)
    product = _transform(group, f.values) * _transform(group, h.values)
    out = _transform(group, product, inverse=True)
    return GroupFunction(group, (group.haar_weight / group.size) * out)


def involution(f: GroupFunction) -> GroupFunction:
    """The star involution f*(g) = conj(f(-g))."""
    return GroupFunction(f.group, np.conj(f.values[f.group.neg_indices()]))


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


def form_symbol(phi: GroupFunction) -> np.ndarray:
    """The transform of phi(-.), by which ``apply_hermitian_form`` multiplies."""
    return _transform(phi.group, np.conj(involution(phi).values))


def apply_hermitian_form(phi: GroupFunction, v: np.ndarray,
                         symbol: np.ndarray | None = None) -> np.ndarray:
    """hermitian_form(phi) @ v by FFT: (M v)[g'] = weight^2 sum_y phi(-y) v(g' - y), the
    columns of v transformed, times ``symbol`` (``form_symbol(phi)``, which a caller may pass
    to transform phi once for many calls) and transformed back.  It bypasses ``fourier``, so
    it stays independent of the spectrum callers read."""
    group = phi.group
    symbol = form_symbol(phi) if symbol is None else symbol
    out = _transform(group, _transform(group, v.reshape(group.size, -1)) * symbol[:, None],
                     inverse=True)
    return (group.haar_weight ** 2 / group.size) * out.reshape(v.shape)


@dataclass(frozen=True)
class PositivityReport:
    """Outcome of the positive-type test (form entries dense or closed-form)."""

    verdict: bool
    min_fourier: float
    min_gram_eigenvalue: float
    max_fourier_imag: float
    max_gram_imag: float
    tol: float

    def as_dict(self) -> dict:
        return asdict(self)


def transform_positivity(F: np.ndarray, weight: float) -> PositivityReport:
    """Route (b): phi is of positive type iff its transform F is >= 0.

    The form's eigenvalues are weight * F, so its entries in the report
    are closed-form: weight * min Re F and weight * max |Im F|.  The
    round-off of F scales with its size, so both are compared with
    POSITIVITY_TOL * max |F|, the report's ``tol``; the verdict is invariant
    under phi -> c phi (c > 0), and phi = 0 (tol 0) is of positive type.
    """
    tol = POSITIVITY_TOL * float(np.max(np.abs(F)))
    low, imag = float(np.min(F.real)), float(np.max(np.abs(F.imag)))
    return PositivityReport(verdict=bool(low >= -tol and imag <= tol), tol=float(tol),
                            min_fourier=low, min_gram_eigenvalue=weight * low,
                            max_fourier_imag=imag, max_gram_imag=weight * imag)


def is_positive_type(phi: GroupFunction) -> PositivityReport:
    """Test whether phi is of positive type, by two independent routes.

    Route (a) takes the eigenvalues of the dense Hermitian form, route (b)
    is ``transform_positivity``; they agree for exact data, so a split
    beyond tolerance (a bug, not bad input) raises InconsistencyError.
    Both routes use route (b)'s bound, so eigenvalues in [-tol, 0) are
    accepted as zero.
    """
    route_b = transform_positivity(fourier(phi).values, phi.group.haar_weight)
    tol = route_b.tol
    eigs = np.linalg.eigvals(hermitian_form(phi))
    min_gram = float(np.min(eigs.real))
    max_gram_imag = float(np.max(np.abs(eigs.imag)))
    ok_gram = min_gram >= -tol and max_gram_imag <= tol

    if ok_gram != route_b.verdict:
        # Verdicts may only differ when a diagnostic sits within round-off
        # of the tolerance boundary; a real spread between the routes means
        # the algebra is broken.
        check("positive-type routes", {"min gap": abs(min_gram - route_b.min_fourier),
                                       "imag gap": abs(max_gram_imag - route_b.max_fourier_imag)},
              tol, InconsistencyError, "{stage} disagree: min eigenvalue {gram:.6e} vs min "
              "transform {fourier:.6e}", gram=min_gram, fourier=route_b.min_fourier)
    return replace(route_b, verdict=bool(ok_gram and route_b.verdict),
                   min_gram_eigenvalue=min_gram, max_gram_imag=max_gram_imag)
