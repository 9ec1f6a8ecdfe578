"""Exception types shared across the package."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .logdomain import SignedLogValue

__all__ = [
    "ConvergenceError",
    "DomainError",
    "FamilyParseError",
    "QuadratureError",
    "SequenceError",
]


class DomainError(ValueError):
    """An argument lies outside the domain an operation is defined on."""


def _float_arg(value, name: str, arg: str) -> float:
    """``float(value)``, or DomainError naming ``name`` where it overflows (a huge int)."""
    try:
        return float(value)
    except OverflowError as exc:
        raise DomainError(f"{name} requires {arg} to fit a float: {exc}") from exc


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance within its cap."""


class QuadratureError(RuntimeError):
    """Adaptive integration failed to meet the requested tolerance.

    Carries the best partial estimate (if any) so callers can inspect how
    far the refinement got before giving up: ``partial`` is the partial
    integral of the one panel that failed, not of the whole integral.
    """

    def __init__(self, message: str, partial: "SignedLogValue | None" = None):
        super().__init__(message)
        self.partial = partial


class SequenceError(ValueError):
    """A moment sequence is malformed or fails its structural invariants."""


class FamilyParseError(ValueError):
    """A family description string does not match the accepted grammar."""
