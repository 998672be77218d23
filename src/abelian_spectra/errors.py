"""Exception types shared across the package."""

from __future__ import annotations


class AbelianSpectraError(Exception):
    """Base class for every error raised by this package."""


class InvalidGroupError(AbelianSpectraError):
    """Group specification is malformed or exceeds the configured size cap."""


class ShapeMismatchError(AbelianSpectraError):
    """Element, character, or value vector has the wrong shape for its group."""


class GroupMismatchError(AbelianSpectraError):
    """Operands belong to different groups or to the wrong domain."""


class FileFormatError(AbelianSpectraError):
    """An input file does not match its documented JSON layout."""


class RepresentationValidationError(AbelianSpectraError):
    """Generator images violate unitarity, commutativity, or order relations."""

    def __init__(self, message: str, relation: str | None = None, residual: float | None = None):
        super().__init__(message)
        self.relation = relation
        self.residual = residual


class NumericalDegeneracyError(AbelianSpectraError):
    """A constructed object violates its numerical invariants."""

    def __init__(self, message: str, residuals: dict | None = None):
        super().__init__(message)
        self.residuals = dict(residuals or {})


class NotSelfAdjointError(AbelianSpectraError):
    """Spectral labels used for functional calculus must be real."""


class PositiveTypeError(AbelianSpectraError):
    """The input function is not of positive type at the requested tolerance."""

    def __init__(self, message: str, min_fourier: float | None = None,
                 min_gram_eigenvalue: float | None = None):
        super().__init__(message)
        self.min_fourier = min_fourier
        self.min_gram_eigenvalue = min_gram_eigenvalue


class NotCyclicError(AbelianSpectraError):
    """Cyclic-vector data vanishes on part of its required support."""


class SupportError(AbelianSpectraError):
    """A character lies outside the support of the object being queried."""


class InconsistencyError(AbelianSpectraError):
    """Two routes that must agree did not; this signals a bug, not bad input."""
