"""Exception types, and the stage helper through which every check raises them."""

from __future__ import annotations

import numpy as np


class AbelianSpectraError(Exception):
    """Base class of every error of this package; ``stage`` and ``residuals`` name what failed."""

    def __init__(self, message: str, stage: str | None = None, residuals: dict | None = None):
        super().__init__(message)
        self.stage, self.residuals = stage, dict(residuals or {})


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


class NumericalDegeneracyError(AbelianSpectraError):
    """A constructed object violates its numerical invariants."""


class NotSelfAdjointError(AbelianSpectraError):
    """Spectral labels used for functional calculus must be real."""


class PositiveTypeError(AbelianSpectraError):
    """The input function is not of positive type at the requested tolerance."""


class NotCyclicError(AbelianSpectraError):
    """Cyclic-vector data vanishes on part of its required support."""


class SupportError(AbelianSpectraError):
    """A character lies outside the support of the object being queried."""


class InconsistencyError(AbelianSpectraError):
    """Two routes that must agree did not; this signals a bug, not bad input."""


def describe(residuals: dict) -> str:
    """Residuals as "key value" pairs joined by commas, each value to 4 digits."""
    return ", ".join(f"{key} {value:.3e}" for key, value in residuals.items())


def check(name: str, residuals: dict, tol: float, error: type = NumericalDegeneracyError,
          message: str = "{stage} violates its invariants ({residuals})", **fields) -> None:
    """Raise ``error`` from stage ``name`` unless every residual is at most ``tol`` (NaN fails),
    carrying the failed ones; only then are ``name`` and ``message`` formatted (``fields``,
    ``stage``, ``residuals`` by ``describe``, ``tol``), "stage: " leading unless it already does."""
    failed = {key: float(value) for key, value in residuals.items() if not value <= tol}
    if failed:
        name = name.format(**fields)
        text = message.format(stage=name, residuals=describe(failed), tol=tol, **fields)
        raise error(text if text.startswith(name) else f"{name}: {text}", name, failed)


def stage(name: str, compute):
    """compute() as the stage ``name``, numpy's overflow and invalid warnings off: a package error
    it raises is tagged with ``name`` unless an inner stage did, and values it returns that are
    not finite (finite input overflowed) raise NumericalDegeneracyError, counted as nonfinite."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            out = compute()
    except AbelianSpectraError as exc:
        exc.stage = exc.stage or name
        raise
    finite = np.isfinite(getattr(out, "values", out))
    if not finite.all():
        raise NumericalDegeneracyError(f"{name} is not finite: it overflowed on finite input",
                                       name, {"nonfinite": int(finite.size - finite.sum())})
    return out
